"""The duality pairing between filtration generators and word functionals.

``pairing_rows(ws, words, n, p)`` pairs each generator tau(w)^(p^(n-|w|))
of the n-th lower p-central layer, w Lyndon, against the coefficient
functional of each word w'.  The tau recursion of ws
(``freegrp.tau_plan``) is laid out once per request, which checks that
every w is Lyndon, and handed to both routes as data.  Each route walks
it once, one word length at a time, homomorphically in its own target
group, places rows through a word -> row map (so ws may repeat words, in
any order) and raises unipotent elements by the binomial series, so
p^(n-|w|) costs at most n products; neither expands a generator into a
group word and neither reads ``magnus`` or ``rho``:

- series route: tau(w) - 1 on the letter series 1 + x over Z/p^n, as a
  plain coefficient map (``_tau_parts``): [a, b] - 1 = a^-1 b^-1 (AB - BA)
  with A = a - 1, B = b - 1, and AB - BA starts at degree |w|, so only
  the low degrees of the inverses are kept.  Each image is raised to
  p^(n-|w|) by ``series_pow`` as soon as it is formed; then every
  coefficient of every w' is read mod p^(n-s'+1), checked for
  divisibility by p^(n-s') and divided, in one array pass;
- matrix route: tau(w) as ((a^-1 b^-1) a) b on the letter matrices
  I + sum E_{i,i+1} of the cover words, on the entry-major kernels of
  ``matgrp`` (``tau_power_rows``): all words w of one length form one
  stack, so a whole level of the recursion costs a handful of kernel
  calls.  The covers are the w' that are no proper infix of another
  (``_infix_cover``), padded into one batch.  The diagonal block of
  rho_c(g) on rows i+1..i+s+1 is rho of the infix c[i : i+s], so each
  w' reads its own block of a cover mod p^(n-s'+1) (``block_rows``), and
  the power must land in the central subgroup read by ``iota``.

The two routes use different formulas for the commutator, so a slip in
the truncation of one is caught by the other.  A divisibility failure, a
non-central matrix or a disagreement between the routes is a
:class:`ConsistencyError` naming the pair, never a silent zero.
``pairing_matrix`` is the rows over Lyndon words in preceq order; it
must come out unipotent upper-triangular, and its inverse mod p is the
change of basis that makes the generator family and the functional
family exactly dual.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConsistencyError
from .freegrp import TauStep, tau_plan
from .linalg import inverse_mod_p
from .matgrp import BLOCK, UnipotentMatrix, block_rows, iota, iota_rows, tau_power_rows
from .series import TruncatedSeries, WordKey, balanced, is_prime, series_pow
from .words import Alphabet, Word, lyndon_words, necklace

Series = dict[WordKey, int]  # a truncated series by its nonzero coefficients


def _combine(
    terms: Iterable[tuple[int, Series, Series]], degree: int, modulus: int
) -> Series:
    """The sum of c f g over (c, f, g) in terms, truncated above degree, mod modulus."""
    out: Series = {}
    for c, f, g in terms:
        items = sorted(g.items(), key=lambda item: len(item[0]))
        lengths = [len(v) for v, _ in items]
        for u, cu in f.items():
            for v, cv in items[: bisect_right(lengths, degree - len(u))]:
                w = u + v
                out[w] = out.get(w, 0) + c * cu * cv
    return {w: r for w, c in out.items() if (r := c % modulus)}


def _tau_parts(
    plan: Sequence[TauStep], ws: Sequence[Word], degree: int, modulus: int
) -> Iterator[tuple[Word, Series]]:
    """(w, tau(w) - 1) on the letter series 1 + x, for each distinct word of ws.

    Walks ``plan``, the ``tau_plan`` of ws, one word length at a time on
    augmentation parts:
    with A = a - 1 and B = b - 1, [a, b] = 1 + a^-1 b^-1 (AB - BA), and
    AB - BA starts at degree |w|, so a^-1 b^-1 is only needed up to
    degree - |w|.  A factor u keeps its inverse only up to degree -
    |u| - 1, as far as any longer word reads it, from [a, b]^-1 =
    1 - b^-1 a^-1 (AB - BA); its pair is dropped after its last use.
    Each distinct word is yielded once, as soon as it is formed.
    """
    wanted = set(ws)
    one: Series = {(): 1}
    pairs: dict[Word, tuple[Series, Series]] = {}  # factor -> (a - 1, a^-1)
    expiring: dict[int, list[Word]] = {}  # last use -> factors to drop after it
    for length, level in itertools.groupby(plan, key=lambda step: len(step.word)):
        room = degree - length - 1  # how far a factor's inverse is read
        for step in level:
            if step.factors is None:
                x = step.word.indices
                part = {x: 1}
                inverse = {x * j: (-1) ** j % modulus for j in range(room + 1)}
            else:
                (a, a_inv), (b, b_inv) = (pairs[u] for u in step.factors)
                k = _combine([(1, a, b), (-1, b, a)], degree, modulus)  # AB - BA
                left = _combine([(1, a_inv, b_inv)], degree - length, modulus)
                part = _combine([(1, left, k)], degree, modulus)
                if step.last_use:
                    right = _combine([(1, b_inv, a_inv)], room - length, modulus)
                    # 1 - b^-1 a^-1 (AB - BA), empty where room < 0
                    inverse = _combine([(1, one, one), (-1, right, k)], room, modulus)
            if step.last_use:
                pairs[step.word] = (part, inverse)
                expiring.setdefault(step.last_use, []).append(step.word)
            if step.word in wanted:
                yield step.word, part
        for u in expiring.pop(length, ()):
            del pairs[u]


def _series_rows(
    plan: Sequence[TauStep], ws: Sequence[Word], words: Sequence[Word], n: int, p: int
) -> np.ndarray:
    """The pairing values read off the Magnus series of each generator."""
    alphabet = ws[0].alphabet
    lengths = np.array([len(v) for v in words], dtype=object)
    modulus, degree = p ** (n - min(lengths) + 1), max(lengths)
    moduli, shifts = p ** (n - lengths + 1), p ** (n - lengths)
    keys = [v.indices for v in words]
    # every coefficient is below modulus; int64 keeps them compact when it can
    dtype = np.int64 if modulus <= 2**63 else object
    moduli, shifts = moduli.astype(dtype), shifts.astype(dtype)
    done: list[Word] = []
    c = np.zeros((len(set(ws)), len(words)), dtype=dtype)
    for w, part in _tau_parts(plan, ws, degree, modulus):
        image = TruncatedSeries(alphabet, modulus, degree, {(): 1, **part})
        f = series_pow(image, p ** (n - len(w)))
        c[len(done)] = list(map(f.coeffs.get, keys, itertools.repeat(0)))
        done.append(w)
    # one pass over every coefficient, in the order the words were formed
    c %= moduli
    bad = np.argwhere(c % shifts)
    if len(bad):
        g, j = bad[0]
        raise ConsistencyError(
            f"coefficient {c[g, j]} of {words[j]} in the image of "
            f"tau({done[g]})**(p**{n - len(done[g])}) is not divisible by {shifts[j]} "
            f"mod {moduli[j]}"
        )
    c //= shifts
    row = {w: g for g, w in enumerate(done)}
    return c.astype(np.int64, copy=False)[[row[w] for w in ws]]


def _infix_cover(words: Sequence[Word]) -> tuple[list[Word], list[tuple[int, int]]]:
    """The words of words that are no proper infix of another, and where each word lies.

    Returns (covers, places) with w' = covers[k][start : start + |w'|] for
    (k, start) = places[j], w' = words[j], at the least start any cover
    offers, so most words are read at start 0.  Longer words come first,
    so a word is a cover exactly when no earlier cover holds it.
    """
    covers: list[Word] = []
    place: dict[tuple[int, ...], tuple[int, int]] = {}
    for v in sorted(dict.fromkeys(words), key=len, reverse=True):
        u = v.indices
        if u not in place:
            for i in range(len(u)):
                for j in range(i + 1, len(u) + 1):
                    if u[i:j] not in place or place[u[i:j]][1] > i:
                        place[u[i:j]] = (len(covers), i)
            covers.append(v)
    return covers, [place[v.indices] for v in words]


def _matrix_rows(
    plan: Sequence[TauStep], ws: Sequence[Word], words: Sequence[Word], n: int, p: int
) -> np.ndarray:
    """The pairing values read by ``iota`` off one batch of unipotent matrices.

    The batch holds only the cover words of ``_infix_cover``; each w' reads
    the diagonal block of its cover at its own place, which is rho of w'.
    """
    covers, places = _infix_cover(words)
    size = len(covers[0]) + 1
    # the shortest w' reads the largest modulus
    modulus = p ** (n - min(map(len, words)) + 1)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (|w'|, start) -> (column, cover)
    for j, (v, (k, start)) in enumerate(zip(words, places)):
        groups.setdefault((len(v), start), []).append((j, k))
    reads = [(s, start, *map(np.array, zip(*group))) for (s, start), group in sorted(groups.items())]
    out = np.zeros((len(ws), len(words)), dtype=np.int64)
    row = {w: i for i, w in enumerate(ws)}  # one row per distinct word
    for done, batch in _joined(tau_power_rows(plan, ws, covers, n, p, modulus), len(covers)):
        rows = np.array([row[w] for w in done])[:, None]
        for s, start, cols, ks in reads:
            block_modulus = p ** (n - s + 1)
            block = block_rows(batch[..., ks], size, start, s + 1, block_modulus)
            values = iota_rows(n, s, block, block_modulus)
            if (values < 0).any():
                g, k = np.argwhere(values < 0)[0]
                w, w_prime = done[g], words[cols[k]]
                try:
                    iota(n, s, UnipotentMatrix(s + 1, block_modulus, block[:, g, k].tolist()))
                except ValueError as exc:
                    raise ConsistencyError(
                        f"matrix route failed for <{w}, {w_prime}>_{n}: {exc}"
                    ) from exc
            out[rows, cols] = values
    return out[[row[w] for w in ws]]


def _joined(
    pieces: Iterable[tuple[list[Word], np.ndarray]], width: int
) -> Iterator[tuple[list[Word], np.ndarray]]:
    """Consecutive (words w, batch) pieces side by side, up to BLOCK matrices at a time.

    Every batch holds ``width`` words w' per word w, so each read of a
    joined batch covers the words w of several pieces at once.
    """
    pending: list[tuple[list[Word], np.ndarray]] = []
    held = 0
    for done, batch in pieces:
        if pending and (held + len(done)) * width > BLOCK:
            yield _join(pending)
            pending, held = [], 0
        pending.append((done, batch))
        held += len(done)
    if pending:
        yield _join(pending)


def _join(pieces: list[tuple[list[Word], np.ndarray]]) -> tuple[list[Word], np.ndarray]:
    if len(pieces) == 1:
        return pieces[0]
    return [w for done, _ in pieces for w in done], np.concatenate([b for _, b in pieces], axis=1)


def pairing_rows(ws: Sequence[Word], words: Sequence[Word], n: int, p: int) -> np.ndarray:
    """<w, w'>_n for each Lyndon w in ws and each word w' in words.

    Returns a (len(ws), len(words)) array of values in 0..p-1.  Requires
    1 <= |w| <= n and 1 <= |w'| <= n.  Both routes run on every entry
    and must agree.  The ``tau_plan`` of ws, which checks that each w is
    Lyndon, is built once and walked by both.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ws, words = list(ws), list(words)
    if not ws or not words:
        return np.zeros((len(ws), len(words)), dtype=np.int64)
    if any(v.alphabet != ws[0].alphabet for v in ws + words):
        raise ValueError("words over different alphabets")
    plan = tau_plan(ws)
    if not all(1 <= len(v) <= n for v in ws + words):
        raise ValueError("word lengths must lie in 1..n")
    from_series = _series_rows(plan, ws, words, n, p)
    from_matrix = _matrix_rows(plan, ws, words, n, p)
    disagree = np.argwhere(from_series != from_matrix)
    if len(disagree):
        i, j = disagree[0]
        raise ConsistencyError(
            f"pairing routes disagree for <{ws[i]}, {words[j]}>_{n}: "
            f"series {from_series[i, j]}, matrix {from_matrix[i, j]}"
        )
    return from_series


def pairing(w: Word, w_prime: Word, n: int, p: int) -> int:
    """The pairing of the Lyndon word w against the word w', in 0..p-1."""
    return int(pairing_rows([w], [w_prime], n, p)[0, 0])


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
            "rows": self.rows.tolist(),
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
    rows = pairing_rows(index, index, n, p)
    # the first offender row by row, its diagonal before its lower entries
    bad_diagonal = rows.diagonal() != 1
    bad_lower = np.tril(rows, -1) != 0
    offenders = np.flatnonzero(bad_diagonal | bad_lower.any(axis=1))
    if len(offenders):
        i = offenders[0]
        if bad_diagonal[i]:
            raise ConsistencyError(
                f"diagonal entry <{index[i]}, {index[i]}>_{n} = {rows[i, i]}, not 1"
            )
        j = np.flatnonzero(bad_lower[i])[0]
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
    checked = 0
    by_rule = {"letters": 0, "length-gap": 0}
    counterexamples = []
    lyndon = lyndon_words(alphabet, n)
    words = [
        Word(alphabet, t)
        for length in range(1, n + 1)
        for t in itertools.product(range(len(alphabet)), repeat=length)
    ]
    values = pairing_rows(lyndon, words, n, p)
    for w, row in zip(lyndon, values):
        w_letters = w.letter_set()
        for w_prime, value in zip(words, row):
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
            if value != 0:
                counterexamples.append(
                    {"w": str(w), "w_prime": str(w_prime), "value": int(value)}
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
