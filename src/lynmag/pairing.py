"""The duality pairing between filtration generators and word functionals.

``pairing(w, w', n, p)`` pairs the generator tau(w)^(p^(n-|w|)) of the
n-th lower p-central layer against the coefficient functional of the
word w'.  It is computed along two independent routes that must agree:

- series route: the Magnus coefficient of w' mod p^(n-s'+1), divided by
  p^(n-s') and read mod p;
- matrix route: the corner entry of the unipotent representation
  attached to w', extracted by ``iota``.

A divisibility failure or a disagreement between the routes is a
:class:`ConsistencyError`, never a silent zero.  Collecting all entries
over Lyndon words in preceq order gives a matrix that must come out
unipotent upper-triangular; its inverse mod p is the change of basis
that makes the generator family and the functional family exactly dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .freegrp import tau
from .linalg import inverse_mod_p
from .matgrp import iota, rho
from .series import balanced, is_prime, magnus
from .words import Alphabet, Word, is_lyndon, lyndon_words, necklace


def pairing(w: Word, w_prime: Word, n: int, p: int) -> int:
    """The pairing of the Lyndon word w against the word w', in 0..p-1.

    Requires 1 <= |w| <= n and 1 <= |w'| <= n, with w Lyndon.  Both
    computation routes run on every call and must agree.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if w.alphabet != w_prime.alphabet:
        raise ValueError("words over different alphabets")
    if not is_lyndon(w):
        raise ValueError(f"{w!r} is not a Lyndon word")
    s, s_prime = len(w), len(w_prime)
    if not (1 <= s <= n and 1 <= s_prime <= n):
        raise ValueError("word lengths must lie in 1..n")

    g = tau(w) ** (p ** (n - s))
    modulus = p ** (n - s_prime + 1)
    shift = p ** (n - s_prime)

    # series route
    f = magnus(g, modulus, s_prime)
    c = f.coeffs.get(w_prime.indices, 0)
    if c % shift:
        raise ConsistencyError(
            f"coefficient {c} of {w_prime} in the image of tau({w})**(p**{n - s}) "
            f"is not divisible by {shift} mod {modulus}"
        )
    from_series = (c // shift) % p

    # matrix route
    try:
        from_matrix = iota(n, s_prime, rho(w_prime, g, modulus))
    except ValueError as exc:
        raise ConsistencyError(
            f"matrix route failed for <{w}, {w_prime}>_{n}: {exc}"
        ) from exc
    if from_series != from_matrix:
        raise ConsistencyError(
            f"pairing routes disagree for <{w}, {w_prime}>_{n}: "
            f"series {from_series}, matrix {from_matrix}"
        )
    return from_series


@dataclass(frozen=True)
class PairingMatrix:
    """All pairings over Lyn_{<=n}(X) x Lyn_{<=n}(X), preceq-ordered."""

    p: int
    n: int
    alphabet: Alphabet
    index: tuple[Word, ...]
    rows: np.ndarray  # shape (d, d), values in 0..p-1

    def dimension(self) -> int:
        return len(self.index)

    def entry(self, w: Word, w_prime: Word) -> int:
        i = self.index.index(w)
        j = self.index.index(w_prime)
        return int(self.rows[i, j])

    def is_identity(self) -> bool:
        return bool(
            np.array_equal(self.rows, np.eye(len(self.index), dtype=np.int64))
        )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "alphabet": list(self.alphabet.letters),
            "index": [str(w) for w in self.index],
            "rows": [[int(v) for v in row] for row in self.rows],
        }

    def to_csv(self) -> str:
        """CSV with the word index as header column and row labels.

        Entries are balanced representatives for odd p (so -1 prints as
        -1, not p-1), raw bits for p = 2.
        """

        def show(v: int) -> str:
            return str(balanced(int(v), self.p))

        lines = ["w," + ",".join(str(w) for w in self.index)]
        for w, row in zip(self.index, self.rows):
            lines.append(str(w) + "," + ",".join(show(v) for v in row))
        return "\n".join(lines) + "\n"


def pairing_matrix(n: int, p: int, alphabet: Alphabet) -> PairingMatrix:
    """Assemble the full pairing matrix and check its triangular shape.

    The diagonal must be all ones and everything below it zero; any
    violation is a ConsistencyError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    index = tuple(lyndon_words(alphabet, n))
    d = len(index)
    rows = np.zeros((d, d), dtype=np.int64)
    for i, w in enumerate(index):
        for j, w_prime in enumerate(index):
            rows[i, j] = pairing(w, w_prime, n, p)
    for i in range(d):
        if rows[i, i] != 1:
            raise ConsistencyError(
                f"diagonal entry <{index[i]}, {index[i]}>_{n} = {rows[i, i]}, not 1"
            )
        for j in range(i):
            if rows[i, j]:
                raise ConsistencyError(
                    f"lower entry <{index[i]}, {index[j]}>_{n} = {rows[i, j]} "
                    "breaks upper-triangularity"
                )
    return PairingMatrix(p, n, alphabet, index, rows)


def dual_change_of_basis(matrix: PairingMatrix) -> np.ndarray:
    """Inverse of the pairing matrix mod p.

    Applying it to the functional family produces the exact dual basis of
    the generator family.  Unipotent triangular matrices are always
    invertible, so this cannot fail on a matrix that passed assembly.
    """
    return inverse_mod_p(matrix.rows, matrix.p)


def h2_dimension(n: int, alphabet: Alphabet) -> int:
    """Sum of necklace counts up to n: the pairing-matrix dimension."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(necklace(s, len(alphabet)) for s in range(1, n + 1))


def vanishing_checks(n: int, p: int, alphabet: Alphabet) -> dict:
    """Exhaustively test the two structural vanishing rules up to degree n.

    Rule "letters": the pairing dies when w' uses a letter absent from w.
    Rule "length gap": it dies when |w| < |w'| < 2|w|.  Every applicable
    pair in Lyn_{<=n}(X) x {words of length 1..n} is computed; the report
    lists any counterexample (there should be none).
    """
    import itertools

    checked = 0
    by_rule = {"letters": 0, "length-gap": 0}
    counterexamples = []
    lyndon = lyndon_words(alphabet, n)
    words = [
        Word(alphabet, t)
        for length in range(1, n + 1)
        for t in itertools.product(range(len(alphabet)), repeat=length)
    ]
    for w in lyndon:
        w_letters = w.letter_set()
        for w_prime in words:
            rules = []
            if not w_prime.letter_set() <= w_letters:
                rules.append("letters")
            if len(w) < len(w_prime) < 2 * len(w):
                rules.append("length-gap")
            if not rules:
                continue
            checked += 1
            for rule in rules:
                by_rule[rule] += 1
            value = pairing(w, w_prime, n, p)
            if value != 0:
                counterexamples.append(
                    {"w": str(w), "w_prime": str(w_prime), "value": value}
                )
    return {
        "n": n,
        "p": p,
        "alphabet": list(alphabet.letters),
        "pairs_checked": checked,
        "by_rule": by_rule,
        "counterexamples": counterexamples,
        "passed": not counterexamples,
    }
