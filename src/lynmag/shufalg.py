"""Shuffle and infiltration products, and mod-p reduction modulo shuffles.

The shuffle of two words sums all interleavings with multiplicity; the
infiltration also allows matching letters to overlap, and its top-degree
part is exactly the shuffle.  Both come from one cached recursion on
word codes, as untruncated :class:`~lynmag.series.TruncatedSeries`
values with exact integer coefficients.

Row-reducing all pairwise shuffles of a fixed total degree d over F_p
gives :class:`ShuffleSpanBasis`.  Shuffles preserve letter content, so
the span is the direct sum of its letter-content blocks.  Renaming
letters in order maps a block onto every block with the same
multiplicity pattern, the count of each letter present (``xxyzz`` and
``yyztt`` both have (2, 1, 2)), with rows and columns in the same lex
order.  So each pattern is row-reduced once, on letters 0..k-1, and its
rows are shared by all of its blocks; no matrix as wide as the whole
word space is ever built.  Where p divides no i1, the multiplicity of
the first Lyndon factor of a word, the reduction takes one seed row per
non-Lyndon word instead of every pair (``_reduce_pattern``).  Pivots
sit at the largest words, where the seed rows lead, so when p divides
no i1 (always, for p > d) the free columns of a block are its Lyndon
words, and reducing a word gives its Lyndon coordinates;
:func:`reduce_mod_shuffles` reads them off the block of the word alone.
"""

from __future__ import annotations

from functools import cache
from itertools import product, repeat
from operator import mul, sub
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConsistencyError
from .freegrp import GroupWord
from .linalg import rref_mod_p
from .series import TruncatedSeries, WordKey, _first_code, _word_code, is_prime, magnus
from .words import Alphabet, Word, _lyndon_factors, lyndon_words

# Largest word space m^d that shuffle_span_basis reduces.
MAX_WORDS = 4096
# Largest |u| + |v| that _product_keys takes; it recurses once per letter.
MAX_PRODUCT_LETTERS = 256


@cache
def _product_keys(u: WordKey, v: WordKey, overlap: bool, m: int) -> dict[int, int]:
    # The shuffle (or, with overlap, the infiltration) of u and v over m
    # letters, keyed by word code.  Recursion on the last letter a of each
    # factor, which appends a to every word: code c -> c m + a + 1; with
    # overlap, equal final letters may also land on the same position.
    # Cached results are shared and must never be mutated by callers.
    # Only cache misses run this body, so hits skip the length check.
    if len(u) + len(v) > MAX_PRODUCT_LETTERS:
        raise ValueError(f"shuffle of {len(u)} + {len(v)} letters exceeds cap {MAX_PRODUCT_LETTERS}")
    if not u or not v:
        return {_word_code(u or v, m): 1}
    parts = [(u[:-1], v, u[-1]), (u, v[:-1], v[-1])]
    if overlap and u[-1] == v[-1]:
        parts.append((u[:-1], v[:-1], u[-1]))
    out: dict[int, int] = {}
    for a, b, last in parts:
        for c, x in _product_keys(a, b, overlap, m).items():
            c = c * m + last + 1
            out[c] = out.get(c, 0) + x
    return out


@cache
def _terms(
    u: WordKey, v: WordKey, overlap: bool, m: int
) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...]]:
    # |u| + |v|, the word codes of u and v over m letters, and the cached
    # _product_keys(u, v, overlap, m) as (word codes, coefficients) tuples.
    q = _product_keys(u, v, overlap, m)
    return len(u) + len(v), _word_code(u, m), _word_code(v, m), tuple(q), tuple(q.values())


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
    q = _product_keys(u.indices, v.indices, False, len(u.alphabet))
    return TruncatedSeries._from_codes(u.alphabet, None, None, q)


def infiltration(u: Word, v: Word) -> TruncatedSeries:
    """Like shuffle, but positions of equal letters may also coincide."""
    _check_factors(u, v)
    q = _product_keys(u.indices, v.indices, True, len(u.alphabet))
    return TruncatedSeries._from_codes(u.alphabet, None, None, q)


def cfl_check(u: Word, v: Word, sigma: GroupWord, modulus: int | None) -> bool:
    """Coefficient identity eps_u(s)·eps_v(s) = (magnus(s), u infiltration v).

    Both sides are evaluated at truncation degree |u|+|v|, mod the given
    prime power (exactly, when modulus is None).
    """
    _check_factors(u, v, sigma)
    s, cu, cv, keys, coeffs = _terms(u.indices, v.indices, True, len(u.alphabet.letters))
    f = magnus(sigma, modulus, s).codes.get  # every product word has degree <= s
    lhs = f(cu, 0) * f(cv, 0)
    rhs = sum(map(mul, map(f, keys, repeat(0)), coeffs))
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
    _, _, _, keys, coeffs = _terms(u.indices, v.indices, False, len(u.alphabet.letters))
    f = magnus(sigma, p ** (n + 2), s).codes.get  # every product word has degree <= s
    return sum(map(mul, map(f, keys, repeat(0)), coeffs)) % p ** (n - s + 1) == 0


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


def _seeds(columns: list[WordKey]) -> list[tuple[WordKey, WordKey, int]]:
    # (l1, l2...lk, i1) for each non-Lyndon word w = l1 l2 ... lk, its
    # Lyndon factors nonincreasing and l1 repeated i1 times at the front.
    # The largest word of l1 ш (l2...lk) is w, with coefficient i1
    # (Radford; Reutenauer, Free Lie Algebras, Thm 6.1).
    out = []
    for w in columns:
        factors = _lyndon_factors(w)
        if len(factors) > 1:
            l1 = factors[0]
            out.append((l1, w[len(l1):], factors.count(l1)))
    return out


def _reduce_pattern(
    pattern: tuple[int, ...], groups: list[dict[tuple[int, ...], list[WordKey]]], p: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    # The block of words over 0..k-1 with these letter counts: its words
    # as a (columns, d) array in lex order, then the RREF of all its
    # shuffles with pivots at the largest words, rows by ascending pivot.
    # groups[n] holds the words of length n grouped by counts.
    #
    # Over Q the shuffle span of a block has rank (block size - its Lyndon
    # words), one seed row per non-Lyndon word, and the rank mod p of
    # integer rows is at most their rank over Q.  So when p divides no i1
    # the seed rows, in echelon form at their largest words, already span
    # every shuffle mod p, and the RREF of a row space is unique.
    d = sum(pattern)
    columns = groups[d][pattern]
    k = len(pattern)
    local = {_word_code(key, k): j for j, key in enumerate(columns)}
    seeds = _seeds(columns)
    seeded = all(i1 % p for *_, i1 in seeds)
    if seeded:
        shuffles = [_product_keys(l1, rest, False, k) for l1, rest, _ in seeds]
    else:
        # Shuffle is commutative, so unordered pairs suffice.
        shuffles = []
        for a in range(1, d // 2 + 1):
            for counts, us in groups[a].items():
                vs = groups[d - a].get(tuple(map(sub, pattern, counts)), ())
                for u in us:
                    for v in vs:
                        if 2 * a < d or u <= v:
                            shuffles.append(_product_keys(u, v, False, k))
    words = np.array(columns, dtype=np.int64)
    if not shuffles:
        return words, np.zeros((0, len(columns)), dtype=np.int64), ()
    block = np.zeros((len(shuffles), len(columns)), dtype=np.int64)
    block[
        [i for i, q in enumerate(shuffles) for _ in q],
        [local[c] for q in shuffles for c in q],
    ] = [c % p for q in shuffles for c in q.values()]
    rows, pivots = rref_mod_p(block[:, ::-1], p)
    if seeded and len(pivots) < len(seeds):
        raise ConsistencyError(
            f"the {len(seeds)} Lyndon seed rows of multiplicity pattern {pattern} "
            f"have rank {len(pivots)} mod {p}"
        )
    last = len(columns) - 1
    return words, rows[::-1, ::-1], tuple(last - c for c in reversed(pivots))


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
    block: _Block, lyn: list[Word], vectors: np.ndarray, p: int, d: int, m: int
) -> list[dict[Word, int]]:
    # The class of each row of vectors modulo shuffles, in the basis of
    # the block's Lyndon words lyn: the reduced vector read at their
    # columns, which must be the free ones.  They are whenever the seed
    # rows lead at their largest words, as when p divides no i1.
    first = _first_code(d, m)
    at = np.searchsorted(block.cols, [_word_code(w.indices, m) - first for w in lyn])
    free = np.ones(len(block.cols), dtype=bool)
    free[list(block.pivots)] = False
    if free.sum() != len(at) or not free[at].all():
        raise ConsistencyError(f"Lyndon images are not a quotient basis at degree {d} mod {p}")
    coords = block.reduce(vectors, p)[:, at]
    return [{wl: int(c) for wl, c in zip(lyn, row) if c} for row in coords]


def _word_coordinates(block: _Block, w: Word, p: int) -> dict[Word, int]:
    # The class of w in the Lyndon basis, from the block of w's content.
    d, m = len(w), len(w.alphabet)
    lyn = _lyndon_by_content(w.alphabet, d).get(tuple(sorted(w.indices)), [])
    unit = (block.cols == _word_code(w.indices, m) - _first_code(d, m)).astype(np.int64)
    return _lyndon_solve(block, lyn, unit[None], p, d, m)[0]


class ShuffleSpanBasis:
    """Row-reduced span of {u shuffle v : |u|+|v| = d} over F_p.

    The words of length d are indexed in lex order, their place in
    ``product(range(m), repeat=d)``; dense vectors use that index.  The
    span is kept block-sparse: ``blocks`` maps each letter content (the
    sorted letters of a word) to its block's word indices, and to the
    reduced rows and local pivots of its multiplicity pattern, shared
    by every block of that pattern.  Pivots are chosen right to left
    within a block, at the largest words, which is where they fall in one
    reduction of all shuffles with the columns reversed.  So every coset
    has a canonical representative, supported on the free columns; where
    those are the block's Lyndon words, it is the Lyndon coordinates.
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
        # the words of this degree in lex order have consecutive codes
        first = _first_code(self.degree, m)
        for w, c in q.codes.items():
            if not first <= w < first + len(vec):
                raise ValueError("polynomial is not homogeneous of this degree")
            vec[w - first] = c % self.p
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
        m = len(self.alphabet)
        coords: dict[int, dict[Word, int]] = {}
        for content, b in self.blocks.items():
            units = np.eye(len(b.cols), dtype=np.int64)
            solved = _lyndon_solve(b, lyn.get(content, []), units, self.p, self.degree, m)
            coords.update(zip(b.cols.tolist(), solved))
        keys = product(range(m), repeat=self.degree)
        return {Word(self.alphabet, key): coords[i] for i, key in enumerate(keys)}

    def to_json(self) -> dict:
        report = {
            "degree": self.degree,
            "p": self.p,
            "alphabet": [str(x) for x in self.alphabet.letters],
            "rank": self.rank,
            "quotient_dim": self.quotient_dim,
        }
        # The Lyndon map is printed for d <= 3 and p > 3 only: that is the
        # CLI contract, not a limit of the math (p > d suffices).  ROADMAP's
        # "two routes to a word's Lyndon coordinates" item lifts it.
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
    if d > MAX_PRODUCT_LETTERS:  # first, so m**d stays small
        raise ValueError(f"shuffle span degree {d} exceeds cap {MAX_PRODUCT_LETTERS}")
    if m**d > MAX_WORDS:
        raise ValueError(f"word space at degree {d} over {m} letters exceeds cap {MAX_WORDS}")
    contents = dict.fromkeys(tuple(sorted(key)) for key in product(range(m), repeat=d))
    return ShuffleSpanBasis(d, p, alphabet, _span_blocks(d, p, m, contents))


def reduce_mod_shuffles(w: Word, p: int) -> dict[Word, int]:
    """Express the class of w modulo shuffles as a Lyndon combination.

    Accepts |w| <= 3 and p > 3 only.  Lyndon words give a basis of the
    quotient whenever p > |w|, so these limits are the CLI contract, which
    ROADMAP's "two routes to a word's Lyndon coordinates" item lifts.
    Coefficients are residues 1..p-1;
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
