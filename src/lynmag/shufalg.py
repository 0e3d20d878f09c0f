"""Shuffle and infiltration products, and mod-p reduction modulo shuffles.

The shuffle of two words sums all interleavings with multiplicity; the
infiltration also allows matching letters to overlap, and its top-degree
part is exactly the shuffle.  Both are untruncated
:class:`~lynmag.series.TruncatedSeries` values with exact integer
coefficients.

Row-reducing all pairwise shuffles of a fixed total degree d over F_p
gives :class:`ShuffleSpanBasis`.  For p > 3 and d <= 3 the Lyndon words
of length d descend to a basis of the quotient, so every word has a
canonical expression as a combination of Lyndon words modulo shuffles;
:func:`reduce_mod_shuffles` computes it.
"""

from __future__ import annotations

from functools import cache
from itertools import product

import numpy as np

from .errors import ConsistencyError
from .freegrp import GroupWord
from .linalg import inverse_mod_p, rref_mod_p
from .series import TruncatedSeries, WordKey, is_prime, magnus
from .words import Alphabet, Word, lyndon_words


@cache
def _shuffle_keys(u: WordKey, v: WordKey) -> dict[WordKey, int]:
    # Recursion on the last letter of each factor.  Cached results are
    # shared and must never be mutated by callers.
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict[WordKey, int] = {}
    for key, c in _shuffle_keys(u[:-1], v).items():
        key = key + u[-1:]
        out[key] = out.get(key, 0) + c
    for key, c in _shuffle_keys(u, v[:-1]).items():
        key = key + v[-1:]
        out[key] = out.get(key, 0) + c
    return out


@cache
def _infiltration_keys(u: WordKey, v: WordKey) -> dict[WordKey, int]:
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict[WordKey, int] = {}
    for key, c in _infiltration_keys(u[:-1], v).items():
        key = key + u[-1:]
        out[key] = out.get(key, 0) + c
    for key, c in _infiltration_keys(u, v[:-1]).items():
        key = key + v[-1:]
        out[key] = out.get(key, 0) + c
    if u[-1] == v[-1]:
        # The two final letters may land on the same position.
        for key, c in _infiltration_keys(u[:-1], v[:-1]).items():
            key = key + u[-1:]
            out[key] = out.get(key, 0) + c
    return out


def _check_factors(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise ValueError("factors over different alphabets")
    if len(u) == 0 or len(v) == 0:
        raise ValueError("shuffle factors must be nonempty")


def shuffle(u: Word, v: Word) -> TruncatedSeries:
    """Sum over all interleavings of u and v, with multiplicity."""
    _check_factors(u, v)
    return TruncatedSeries(u.alphabet, None, None, _shuffle_keys(u.indices, v.indices))


def infiltration(u: Word, v: Word) -> TruncatedSeries:
    """Like shuffle, but positions of equal letters may also coincide."""
    _check_factors(u, v)
    return TruncatedSeries(
        u.alphabet, None, None, _infiltration_keys(u.indices, v.indices)
    )


def _pair(f: dict[WordKey, int], q: dict[WordKey, int]) -> int:
    # inner_product over raw coefficient maps, for a cached product q
    # whose words all lie within the truncation degree of f.
    return sum(f.get(key, 0) * c for key, c in q.items())


def cfl_check(u: Word, v: Word, sigma: GroupWord, modulus: int | None) -> bool:
    """Coefficient identity eps_u(s)·eps_v(s) = (magnus(s), u infiltration v).

    Both sides are evaluated at truncation degree |u|+|v|, mod the given
    prime power (exactly, when modulus is None).
    """
    _check_factors(u, v)
    if sigma.alphabet != u.alphabet:
        raise ValueError("group word over a different alphabet")
    f = magnus(sigma, modulus, len(u) + len(v)).coeffs
    lhs = f.get(u.indices, 0) * f.get(v.indices, 0)
    rhs = _pair(f, _infiltration_keys(u.indices, v.indices))
    if modulus is None:
        return lhs == rhs
    return (lhs - rhs) % modulus == 0


def shuffle_congruence_check(
    u: Word, v: Word, sigma: GroupWord, n: int, p: int
) -> bool:
    """Divisibility of (magnus(sigma), u shuffle v) by p^(n-s+1), s = |u|+|v|.

    Holds whenever sigma lies in the n-th lower p-central term; that
    membership is the caller's responsibility, so a False return on other
    input is an answer, not an error.
    """
    _check_factors(u, v)
    if sigma.alphabet != u.alphabet:
        raise ValueError("group word over a different alphabet")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be positive")
    s = len(u) + len(v)
    if s > n:
        raise ValueError(f"|u| + |v| = {s} exceeds n = {n}")
    f = magnus(sigma, p ** (n + 2), s).coeffs
    return _pair(f, _shuffle_keys(u.indices, v.indices)) % p ** (n - s + 1) == 0


def palindrome_identity(w: Word) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(x_1...x_k) + (-1)^k (x_k...x_1) as an alternating sum of shuffles.

    The right side is sum over l of (-1)^(l-1) shuffle(u_l, v_l) with
    u_l the reversed length-l prefix and v_l the remaining suffix.  The
    letters must be pairwise distinct and k >= 2.  Equality is checked
    exactly; returns (lhs, rhs).
    """
    k = len(w)
    if k < 2:
        raise ValueError("need at least two letters")
    if len(set(w.indices)) != k:
        raise ValueError("letters must be pairwise distinct")
    lhs = TruncatedSeries(
        w.alphabet, None, None, {w.indices: 1, w.indices[::-1]: (-1) ** k}
    )
    rhs = TruncatedSeries(w.alphabet, None, None)
    for cut in range(1, k):
        u = Word(w.alphabet, w.indices[:cut][::-1])
        v = Word(w.alphabet, w.indices[cut:])
        rhs = rhs + shuffle(u, v).scale((-1) ** (cut - 1))
    if lhs != rhs:
        raise ConsistencyError(
            f"palindrome identity failed for {w}: {lhs} != {rhs}"
        )
    return lhs, rhs


class ShuffleSpanBasis:
    """Row-reduced span of {u shuffle v : |u|+|v| = d} over F_p.

    Columns are indexed by all words of length d in preceq order; rows
    are in reduced row-echelon form with pivots chosen left to right,
    so every coset of the span has a canonical representative.
    """

    __slots__ = ("degree", "p", "alphabet", "columns", "rows", "pivots", "_col")

    def __init__(
        self,
        degree: int,
        p: int,
        alphabet: Alphabet,
        columns: tuple[WordKey, ...],
        rows: np.ndarray,
        pivots: tuple[int, ...],
    ):
        self.degree = degree
        self.p = p
        self.alphabet = alphabet
        self.columns = columns
        self.rows = rows
        self.pivots = pivots
        self._col = {key: i for i, key in enumerate(columns)}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def quotient_dim(self) -> int:
        return len(self.columns) - self.rank

    def word_vector(self, w: Word) -> np.ndarray:
        if w.alphabet != self.alphabet or len(w) != self.degree:
            raise ValueError("word does not belong to this degree component")
        vec = np.zeros(len(self.columns), dtype=np.int64)
        vec[self._col[w.indices]] = 1
        return vec

    def poly_vector(self, q: TruncatedSeries) -> np.ndarray:
        if q.alphabet != self.alphabet:
            raise ValueError("polynomial over a different alphabet")
        vec = np.zeros(len(self.columns), dtype=np.int64)
        for key, c in q.coeffs.items():
            if len(key) != self.degree:
                raise ValueError("polynomial is not homogeneous of this degree")
            vec[self._col[key]] = c % self.p
        return vec

    def reduce_vector(self, vec: np.ndarray) -> np.ndarray:
        """Canonical coset representative: zero at every pivot column.

        Each row is 1 at its own pivot and 0 at the others, so one product
        clears every pivot.  A stack of vectors reduces row by row.
        """
        out = np.array(vec, dtype=np.int64) % self.p
        return (out - out[..., list(self.pivots)] @ self.rows) % self.p

    def contains(self, q: TruncatedSeries) -> bool:
        """Whether q lies in the span of shuffles, mod p."""
        return not self.reduce_vector(self.poly_vector(q)).any()

    def _lyndon_coordinates(self, vectors: np.ndarray) -> list[dict[Word, int]]:
        # The free (non-pivot) coordinates of each reduced row of vectors,
        # times the inverse of the square matrix of reduced Lyndon words.
        free = sorted(set(range(len(self.columns))) - set(self.pivots))
        lyn = [w for w in lyndon_words(self.alphabet, self.degree) if len(w) == self.degree]
        if len(lyn) != self.quotient_dim:
            raise ConsistencyError(
                f"{len(lyn)} Lyndon words vs quotient dimension {self.quotient_dim}"
            )
        units = np.eye(len(self.columns), dtype=np.int64)
        images = self.reduce_vector(units[[self._col[w.indices] for w in lyn]])[:, free]
        try:
            inverse = inverse_mod_p(images.T, self.p)
        except ValueError as exc:
            raise ConsistencyError(
                f"Lyndon images are not a quotient basis at degree "
                f"{self.degree} mod {self.p}: {exc}"
            ) from exc
        coords = self.reduce_vector(vectors)[:, free] @ inverse.T % self.p
        return [{wl: int(c) for wl, c in zip(lyn, row) if c} for row in coords]

    def lyndon_coordinates(self, w: Word) -> dict[Word, int]:
        """The class of w written in the Lyndon-word basis of the quotient."""
        return self._lyndon_coordinates(self.word_vector(w)[None])[0]

    def lyndon_map(self) -> dict[Word, dict[Word, int]]:
        """Lyndon-basis coordinates for every word of this degree."""
        coords = self._lyndon_coordinates(np.eye(len(self.columns), dtype=np.int64))
        return {Word(self.alphabet, key): c for key, c in zip(self.columns, coords)}

    def to_json(self) -> dict:
        report = {
            "degree": self.degree,
            "p": self.p,
            "alphabet": [str(x) for x in self.alphabet.letters],
            "rank": self.rank,
            "quotient_dim": self.quotient_dim,
        }
        # The Lyndon basis claim only holds for p > 3 in low degree.
        if self.degree <= 3 and self.p > 3:
            report["lyndon_map"] = {
                str(w): {str(wl): c for wl, c in coords.items()}
                for w, coords in self.lyndon_map().items()
            }
        return report


def shuffle_span_basis(
    d: int, p: int, alphabet: Alphabet, cap: int = 4096
) -> ShuffleSpanBasis:
    """Row-reduce all shuffles u ш v with |u| + |v| = d over F_p."""
    if d < 1:
        raise ValueError("degree must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = len(alphabet)
    if d > cap or m**d > cap:  # d first, so m**d stays small
        raise ValueError(f"word space at degree {d} over {m} letters exceeds cap {cap}")
    columns = tuple(product(range(m), repeat=d))
    # Shuffles preserve letter content, so the span is the direct sum of
    # its letter-content blocks.  RREF is unique for a row space, so
    # reducing each block alone and sorting the rows by pivot gives the
    # same rows and pivots as one reduction of all shuffles together.
    blocks: dict[WordKey, list[int]] = {}
    for i, key in enumerate(columns):
        blocks.setdefault(tuple(sorted(key)), []).append(i)
    local = {columns[i]: j for cols in blocks.values() for j, i in enumerate(cols)}
    shuffles: dict[WordKey, list[dict[WordKey, int]]] = {content: [] for content in blocks}
    # Shuffle is commutative, so unordered pairs suffice.
    for a in range(1, d // 2 + 1):
        for uk in product(range(m), repeat=a):
            for vk in product(range(m), repeat=d - a):
                if 2 * a == d and vk < uk:
                    continue
                shuffles[tuple(sorted(uk + vk))].append(_shuffle_keys(uk, vk))
    parts: list[tuple[list[int], np.ndarray, tuple[int, ...]]] = []
    for content, cols in blocks.items():
        if not shuffles[content]:
            continue
        block = np.zeros((len(shuffles[content]), len(cols)), dtype=np.int64)
        for row, q in zip(block, shuffles[content]):
            for key, c in q.items():
                row[local[key]] = c % p
        reduced, block_pivots = rref_mod_p(block, p)
        parts.append((cols, reduced, tuple(cols[c] for c in block_pivots)))
    pivots = tuple(sorted(c for _, _, piv in parts for c in piv))
    position = {c: i for i, c in enumerate(pivots)}
    reduced = np.zeros((len(pivots), len(columns)), dtype=np.int64)
    for cols, block_rows, piv in parts:
        reduced[np.ix_([position[c] for c in piv], cols)] = block_rows
    return ShuffleSpanBasis(d, p, alphabet, columns, reduced, pivots)


def reduce_mod_shuffles(w: Word, p: int) -> dict[Word, int]:
    """Express the class of w modulo shuffles as a Lyndon combination.

    Valid for |w| <= 3 and p > 3, the range where Lyndon words are known
    to give a basis of the quotient.  Coefficients are residues 1..p-1;
    an empty dict means the class of w vanishes.
    """
    if not 1 <= len(w) <= 3:
        raise ValueError("only words of length 1..3 are supported")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= 3:
        raise ValueError("requires p > 3")
    basis = shuffle_span_basis(len(w), p, w.alphabet)
    return basis.lyndon_coordinates(w)
