"""Shuffle and infiltration products, and mod-p reduction modulo shuffles.

The shuffle of two words sums all interleavings with multiplicity; the
infiltration also allows matching letters to overlap, and its top-degree
part is exactly the shuffle.  Both come from one cached recursion, as
untruncated :class:`~lynmag.series.TruncatedSeries` values with exact
integer coefficients.

Row-reducing all pairwise shuffles of a fixed total degree d over F_p
gives :class:`ShuffleSpanBasis`.  Shuffles preserve letter content, so
the span is the direct sum of its letter-content blocks.  Renaming
letters in order maps a block onto every block with the same
multiplicity pattern, the count of each letter present (``xxyzz`` and
``yyztt`` both have (2, 1, 2)), with rows and columns in the same lex
order.  So each pattern is row-reduced once, on letters 0..k-1, and its
rows are shared by all of its blocks; no matrix as wide as the whole
word space is ever built.  For p > 3 and d <= 3 the Lyndon words of
length d descend to a basis of the quotient, so every word has a
canonical expression as a combination of Lyndon words modulo shuffles;
:func:`reduce_mod_shuffles` computes it from the block of the word alone.
"""

from __future__ import annotations

from functools import cache
from itertools import product, repeat
from operator import mul, sub
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConsistencyError
from .freegrp import GroupWord
from .linalg import inverse_mod_p, rref_mod_p
from .series import TruncatedSeries, WordKey, is_prime, magnus
from .words import Alphabet, Word, lyndon_words

# Largest word space m^d that shuffle_span_basis reduces.
MAX_WORDS = 4096


@cache
def _product_keys(u: WordKey, v: WordKey, overlap: bool) -> dict[WordKey, int]:
    # Recursion on the last letter of each factor; with overlap, equal
    # final letters may also land on the same position (infiltration).
    # Cached results are shared and must never be mutated by callers.
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    parts = [(u[:-1], v, u[-1:]), (u, v[:-1], v[-1:])]
    if overlap and u[-1] == v[-1]:
        parts.append((u[:-1], v[:-1], u[-1:]))
    out: dict[WordKey, int] = {}
    for a, b, last in parts:
        for key, c in _product_keys(a, b, overlap).items():
            key = key + last
            out[key] = out.get(key, 0) + c
    return out


@cache
def _terms(u: WordKey, v: WordKey, overlap: bool) -> tuple[tuple[WordKey, ...], tuple[int, ...]]:
    # The cached _product_keys(u, v, overlap) as (keys, coefficients) tuples.
    q = _product_keys(u, v, overlap)
    return tuple(q), tuple(q.values())


def _check_factors(u: Word, v: Word, sigma: GroupWord | None = None) -> None:
    # Identity first: the factors of a check almost always share one alphabet.
    alphabet = u.alphabet
    if v.alphabet is not alphabet and v.alphabet != alphabet:
        raise ValueError("factors over different alphabets")
    if not u.indices or not v.indices:
        raise ValueError("shuffle factors must be nonempty")
    if sigma is not None and sigma.alphabet is not alphabet and sigma.alphabet != alphabet:
        raise ValueError("group word over a different alphabet")


def shuffle(u: Word, v: Word) -> TruncatedSeries:
    """Sum over all interleavings of u and v, with multiplicity."""
    _check_factors(u, v)
    return TruncatedSeries(u.alphabet, None, None, _product_keys(u.indices, v.indices, False))


def infiltration(u: Word, v: Word) -> TruncatedSeries:
    """Like shuffle, but positions of equal letters may also coincide."""
    _check_factors(u, v)
    return TruncatedSeries(u.alphabet, None, None, _product_keys(u.indices, v.indices, True))


def _pair(f: dict[WordKey, int], u: WordKey, v: WordKey, overlap: bool) -> int:
    # inner_product over raw coefficient maps, for a cached product
    # whose words all lie within the truncation degree of f.
    keys, coeffs = _terms(u, v, overlap)
    return sum(map(mul, map(f.get, keys, repeat(0)), coeffs))


def cfl_check(u: Word, v: Word, sigma: GroupWord, modulus: int | None) -> bool:
    """Coefficient identity eps_u(s)·eps_v(s) = (magnus(s), u infiltration v).

    Both sides are evaluated at truncation degree |u|+|v|, mod the given
    prime power (exactly, when modulus is None).
    """
    _check_factors(u, v, sigma)
    f = magnus(sigma, modulus, len(u) + len(v)).coeffs
    lhs = f.get(u.indices, 0) * f.get(v.indices, 0)
    rhs = _pair(f, u.indices, v.indices, True)
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
    _check_factors(u, v, sigma)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be positive")
    s = len(u) + len(v)
    if s > n:
        raise ValueError(f"|u| + |v| = {s} exceeds n = {n}")
    f = magnus(sigma, p ** (n + 2), s).coeffs
    return _pair(f, u.indices, v.indices, False) % p ** (n - s + 1) == 0


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


class _Block(NamedTuple):
    """One letter-content block of a shuffle span.

    ``cols`` are the indices of the block's words in the word space,
    ascending; ``rows`` and the local ``pivots`` are the RREF of its
    multiplicity pattern, shared read-only with every block of that
    pattern.
    """

    cols: np.ndarray
    rows: np.ndarray
    pivots: tuple[int, ...]

    def reduce(self, x: np.ndarray, p: int) -> np.ndarray:
        # Each row is 1 at its own pivot and 0 at the others, so one
        # product clears every pivot of a vector or of a stack of them.
        return (x - x[..., list(self.pivots)] @ self.rows) % p


def _index(key: WordKey, m: int) -> int:
    # Place of a word among all words of its length in lex order.
    i = 0
    for a in key:
        i = i * m + a
    return i


def _reduce_pattern(
    pattern: tuple[int, ...], groups: list[dict[tuple[int, ...], list[WordKey]]], p: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    # The block of words over 0..k-1 with these letter counts: its words
    # as a (columns, d) array in lex order, then the RREF of all its
    # shuffles.  groups[n] holds the words of length n grouped by counts.
    d = sum(pattern)
    columns = groups[d][pattern]
    local = {key: j for j, key in enumerate(columns)}
    # Shuffle is commutative, so unordered pairs suffice.
    shuffles = []
    for a in range(1, d // 2 + 1):
        for counts, us in groups[a].items():
            vs = groups[d - a].get(tuple(map(sub, pattern, counts)), ())
            for u in us:
                for v in vs:
                    if 2 * a < d or u <= v:
                        shuffles.append(_product_keys(u, v, False))
    words = np.array(columns, dtype=np.int64)
    if not shuffles:
        return words, np.zeros((0, len(columns)), dtype=np.int64), ()
    block = np.zeros((len(shuffles), len(columns)), dtype=np.int64)
    block[
        [i for i, q in enumerate(shuffles) for _ in q],
        [local[key] for q in shuffles for key in q],
    ] = [c % p for q in shuffles for c in q.values()]
    return (words, *rref_mod_p(block, p))


def _span_blocks(d: int, p: int, m: int, contents: Iterable[WordKey]) -> dict[WordKey, _Block]:
    """The block of each letter content (sorted letters) of degree d.

    Each multiplicity pattern is reduced once, on letters 0..k-1, with
    the words of every length over k letters grouped by content once.
    """
    letters = {content: sorted(set(content)) for content in contents}
    pattern_of = {content: tuple(map(content.count, ls)) for content, ls in letters.items()}
    patterns = set(pattern_of.values())
    reduced: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, tuple[int, ...]]] = {}
    for k in sorted({len(pattern) for pattern in patterns}):
        groups: list[dict[tuple[int, ...], list[WordKey]]] = [{} for _ in range(d + 1)]
        for n, group in enumerate(groups):
            for key in product(range(k), repeat=n):
                group.setdefault(tuple(map(key.count, range(k))), []).append(key)
        for pattern in patterns:
            if len(pattern) == k:
                reduced[pattern] = _reduce_pattern(pattern, groups, p)
    weights = m ** np.arange(d - 1, -1, -1, dtype=np.int64)
    blocks = {}
    for content, ls in letters.items():
        words, rows, pivots = reduced[pattern_of[content]]
        # Renaming letter i to the i-th letter present keeps lex order,
        # so column j of the block is column j of its pattern.
        blocks[content] = _Block(np.array(ls)[words] @ weights, rows, pivots)
    return blocks


def _lyndon_by_content(alphabet: Alphabet, d: int) -> dict[WordKey, list[Word]]:
    out: dict[WordKey, list[Word]] = {}
    for w in lyndon_words(alphabet, d):
        if len(w) == d:
            out.setdefault(tuple(sorted(w.indices)), []).append(w)
    return out


def _lyndon_solve(
    block: _Block, lyn: list[Word], vectors: np.ndarray, p: int, d: int
) -> list[dict[Word, int]]:
    # The free (non-pivot) coordinates of each reduced row of vectors,
    # times the inverse of the square matrix of the block's reduced
    # Lyndon words lyn.  The quotient is the direct sum of the blocks'
    # quotients, so the Lyndon words of one content span its block.
    size = len(block.cols)
    free = np.ones(size, dtype=bool)
    free[list(block.pivots)] = False
    at = np.searchsorted(block.cols, [_index(w.indices, len(w.alphabet)) for w in lyn])
    images = block.reduce(np.eye(size, dtype=np.int64)[at], p)[:, free]
    try:
        inverse = inverse_mod_p(images.T, p)
    except ValueError as exc:
        raise ConsistencyError(
            f"Lyndon images are not a quotient basis at degree {d} mod {p}: {exc}"
        ) from exc
    coords = block.reduce(vectors, p)[:, free] @ inverse.T % p
    return [{wl: int(c) for wl, c in zip(lyn, row) if c} for row in coords]


def _word_coordinates(block: _Block, w: Word, p: int) -> dict[Word, int]:
    # The class of w in the Lyndon basis, from the block of w's content.
    lyn = _lyndon_by_content(w.alphabet, len(w)).get(tuple(sorted(w.indices)), [])
    unit = (block.cols == _index(w.indices, len(w.alphabet))).astype(np.int64)
    return _lyndon_solve(block, lyn, unit[None], p, len(w))[0]


class ShuffleSpanBasis:
    """Row-reduced span of {u shuffle v : |u|+|v| = d} over F_p.

    The words of length d are indexed in lex order, their place in
    ``product(range(m), repeat=d)``; dense vectors use that index.  The
    span is kept block-sparse: ``blocks`` maps each letter content (the
    sorted letters of a word) to its block's word indices, and to the
    reduced rows and local pivots of its multiplicity pattern, shared
    by every block of that pattern.  Pivots are chosen left to right
    within a block, which is where they fall in one reduction of all
    shuffles, so every coset of the span has a canonical representative.
    """

    __slots__ = ("degree", "p", "alphabet", "blocks")

    def __init__(
        self, degree: int, p: int, alphabet: Alphabet, blocks: dict[WordKey, _Block]
    ):
        self.degree = degree
        self.p = p
        self.alphabet = alphabet
        self.blocks = blocks

    @property
    def rank(self) -> int:
        return sum(len(b.pivots) for b in self.blocks.values())

    @property
    def pivots(self) -> tuple[int, ...]:
        """Pivot columns in the whole word space, ascending."""
        return tuple(sorted(int(b.cols[j]) for b in self.blocks.values() for j in b.pivots))

    @property
    def quotient_dim(self) -> int:
        return sum(len(b.cols) for b in self.blocks.values()) - self.rank

    def poly_vector(self, q: TruncatedSeries) -> np.ndarray:
        if q.alphabet != self.alphabet:
            raise ValueError("polynomial over a different alphabet")
        m = len(self.alphabet)
        vec = np.zeros(m**self.degree, dtype=np.int64)
        for key, c in q.coeffs.items():
            if len(key) != self.degree:
                raise ValueError("polynomial is not homogeneous of this degree")
            vec[_index(key, m)] = c % self.p
        return vec

    def reduce_vector(self, vec: np.ndarray) -> np.ndarray:
        """Canonical coset representative: zero at every pivot column.

        Reduces block by block; a stack of vectors reduces row by row.
        """
        out = np.array(vec, dtype=np.int64) % self.p
        for b in self.blocks.values():
            out[..., b.cols] = b.reduce(out[..., b.cols], self.p)
        return out

    def contains(self, q: TruncatedSeries) -> bool:
        """Whether q lies in the span of shuffles, mod p."""
        return not self.reduce_vector(self.poly_vector(q)).any()

    def lyndon_map(self) -> dict[Word, dict[Word, int]]:
        """Lyndon-basis coordinates for every word of this degree."""
        lyn = _lyndon_by_content(self.alphabet, self.degree)
        coords: dict[int, dict[Word, int]] = {}
        for content, b in self.blocks.items():
            units = np.eye(len(b.cols), dtype=np.int64)
            solved = _lyndon_solve(b, lyn.get(content, []), units, self.p, self.degree)
            coords.update(zip(b.cols.tolist(), solved))
        keys = product(range(len(self.alphabet)), repeat=self.degree)
        return {Word(self.alphabet, key): coords[i] for i, key in enumerate(keys)}

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


def shuffle_span_basis(d: int, p: int, alphabet: Alphabet) -> ShuffleSpanBasis:
    """Row-reduce all shuffles u ш v with |u| + |v| = d over F_p."""
    if d < 1:
        raise ValueError("degree must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = len(alphabet)
    if d > MAX_WORDS or m**d > MAX_WORDS:  # d first, so m**d stays small
        raise ValueError(f"word space at degree {d} over {m} letters exceeds cap {MAX_WORDS}")
    contents = dict.fromkeys(tuple(sorted(key)) for key in product(range(m), repeat=d))
    return ShuffleSpanBasis(d, p, alphabet, _span_blocks(d, p, m, contents))


def reduce_mod_shuffles(w: Word, p: int) -> dict[Word, int]:
    """Express the class of w modulo shuffles as a Lyndon combination.

    Valid for |w| <= 3 and p > 3, the range where Lyndon words are known
    to give a basis of the quotient.  Coefficients are residues 1..p-1;
    an empty dict means the class of w vanishes.  Shuffles preserve
    letter content, so only the block of w's content is reduced.
    """
    if not 1 <= len(w) <= 3:
        raise ValueError("only words of length 1..3 are supported")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= 3:
        raise ValueError("requires p > 3")
    content = tuple(sorted(w.indices))
    block = _span_blocks(len(w), p, len(w.alphabet), [content])[content]
    return _word_coordinates(block, w, p)
