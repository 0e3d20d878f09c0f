"""Unipotent upper-triangular matrix groups over Z/p^k.

A matrix is stored by its strictly-upper entries only (the diagonal is
implicitly 1), in the row-major ``_upper_pairs`` layout.  One matrix at
a time it is a ``UnipotentMatrix`` holding a flat tuple, which keeps it
hashable; ``rho``, ``iota`` and the verification checks use these.

Whole stacks of matrices are entry-major (E, ...) arrays, E =
size*(size-1)/2: row t holds entry t of every matrix, contiguously, and
private kernels form their matrix-wise products, inverses and powers one
entry row at a time.  Products and inverses sum each entry's products
unreduced, through one preallocated temporary, and reduce once.  Powers
use the binomial series of I + N, so any exponent costs at most size - 2
products.  Entries are int64 when size products of two residues fit, and
exact Python ints otherwise.  A single matrix has only a scalar product,
which is faster on one matrix.

The brute-force subgroup engine (``generate_group``, ``lower_p_central``)
keys each matrix by one integer code, its entries as base-modulus digits,
and keeps its terms as entry-major stacks; a kernel call forms at most
``BLOCK`` products, or one term's worth, which bounds memory.
The matrix route of the duality pairing runs on the same kernels:
``tau_power_rows`` walks a ``tau_plan`` once, one word length at a time,
on the letter images ``letter_rows`` of words w' of every length at
once, padded into one batch.  ``iota_reader`` reads the central
coordinate of one top-left block per column in one pass per batch, so a
word can be read off the block of a longer word it is a prefix of.

``rho`` builds the unipotent representation attached to a word from
closed-form syllable images; the (i, j) entry of the image of g is the
Magnus coefficient of the subword from position i to j-1.  ``iota`` reads
off the distinguished central coordinate used by the duality pairing.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from itertools import chain, compress, groupby
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .freegrp import GroupWord, TauStep
from .series import is_prime, prime_power
from .words import Word

# Products per kernel call in the group engine; bounds its working memory.
BLOCK = 4096
# Largest group order generate_group builds.
MAX_ORDER = 10**6


@lru_cache(maxsize=None)
def _upper_pairs(size: int) -> tuple[tuple[int, int], ...]:
    # 1-based (i, j) with i < j, row-major; fixes the flat entry layout
    return tuple(
        (i, j) for i in range(1, size) for j in range(i + 1, size + 1)
    )


@lru_cache(maxsize=None)
def _mul_program(size: int):
    # For each target entry: the flat positions whose products feed it.
    pairs = _upper_pairs(size)
    index = {pair: t for t, pair in enumerate(pairs)}
    return tuple(
        tuple((index[(i, k)], index[(k, j)]) for k in range(i + 1, j))
        for (i, j) in pairs
    )


class UnipotentMatrix:
    """An (s+1)x(s+1) unitriangular matrix over Z/modulus."""

    __slots__ = ("size", "modulus", "data", "_hash")

    def __init__(self, size: int, modulus: int, data: Sequence[int]):
        if size < 1:
            raise ValueError("size must be positive")
        prime_power(modulus)
        data = tuple(v % modulus for v in data)
        if len(data) != size * (size - 1) // 2:
            raise ValueError("wrong number of strictly-upper entries")
        self.size = size
        self.modulus = modulus
        self.data = data
        self._hash = hash((size, modulus, data))

    @classmethod
    def identity(cls, size: int, modulus: int) -> "UnipotentMatrix":
        return cls(size, modulus, (0,) * (size * (size - 1) // 2))

    @classmethod
    def from_entries(
        cls, size: int, modulus: int, entries: dict[tuple[int, int], int]
    ) -> "UnipotentMatrix":
        """Build from a {(i, j): value} map, 1-based, i < j only."""
        pairs = _upper_pairs(size)
        index = {pair: t for t, pair in enumerate(pairs)}
        data = [0] * len(pairs)
        for (i, j), v in entries.items():
            if (i, j) not in index:
                raise ValueError(f"({i}, {j}) is not a strictly-upper position")
            data[index[(i, j)]] = v
        return cls(size, modulus, data)

    @classmethod
    def elementary(
        cls, size: int, modulus: int, i: int, j: int, v: int = 1
    ) -> "UnipotentMatrix":
        return cls.from_entries(size, modulus, {(i, j): v})

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based position (i, j), including the implicit pattern."""
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise ValueError("index out of range")
        if i == j:
            return 1
        if i > j:
            return 0
        pairs = _upper_pairs(self.size)
        return self.data[pairs.index((i, j))]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UnipotentMatrix)
            and self.size == other.size
            and self.modulus == other.modulus
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "UnipotentMatrix") -> "UnipotentMatrix":
        if self.size != other.size or self.modulus != other.modulus:
            raise ValueError("size or modulus mismatch")
        a, b, m = self.data, other.data, self.modulus
        prog = _mul_program(self.size)
        data = tuple(
            (a[t] + b[t] + sum(a[u] * b[v] for u, v in mids)) % m
            for t, mids in enumerate(prog)
        )
        return UnipotentMatrix(self.size, self.modulus, data)

    def is_identity(self) -> bool:
        return not any(self.data)

    def dense(self) -> list[list[int]]:
        """Full matrix as nested lists, including diagonal ones."""
        m = self.size
        out = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        for (i, j), v in zip(_upper_pairs(m), self.data):
            out[i - 1][j - 1] = v
        return out

    def __repr__(self) -> str:
        nonzero = {
            (i, j): v
            for (i, j), v in zip(_upper_pairs(self.size), self.data)
            if v
        }
        return f"UnipotentMatrix(size={self.size}, mod={self.modulus}, {nonzero})"

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "modulus": self.modulus,
            "entries": [
                [i, j, v]
                for (i, j), v in zip(_upper_pairs(self.size), self.data)
                if v
            ],
        }


def rho(w: Word, g: GroupWord, modulus: int) -> UnipotentMatrix:
    """The unipotent representation attached to w, evaluated at g.

    Letter x maps to I + N, N the sum of E_{i,i+1} over the positions i
    with w_i = x.  N^j has a 1 at (i, i+j) exactly when w_i...w_{i+j-1}
    are all x, so each distinct syllable x^e of g is written down once as
    I + sum of C(e, j) N^j, in O(|w|^2), and the syllables are folded in
    order by ``*``.  The (i, j) entry is the Magnus coefficient of
    w_i...w_{j-1} in g, which ``homomorphism-properties`` checks against
    ``magnus``.
    """
    s = len(w)
    if s < 1:
        raise ValueError("word must be nonempty")
    if w.alphabet != g.alphabet:
        raise ValueError("word and group word use different alphabets")
    u = w.indices
    # each entry's span j - i, and the one letter its subword repeats, if any
    spans = [
        (j - i, u[i - 1] if len(set(u[i - 1 : j - 1])) == 1 else None)
        for i, j in _upper_pairs(s + 1)
    ]

    def syllable(x: int, e: int) -> UnipotentMatrix:
        # d! C(e, d) is a polynomial in e, so C(e, d) mod m depends only on
        # e mod m d!; r >= 0 also covers e < 0 and keeps huge e cheap.
        r = e % (modulus * math.factorial(s))
        comb = [math.comb(r, d) for d in range(s + 1)]
        return UnipotentMatrix(s + 1, modulus, [comb[d] if c == x else 0 for d, c in spans])

    images = {key: syllable(*key) for key in dict.fromkeys(g.syllables)}
    one = UnipotentMatrix.identity(s + 1, modulus)
    return reduce(operator.mul, map(images.__getitem__, g.syllables), one)


def iota(n: int, s: int, matrix: UnipotentMatrix) -> int:
    """Read the central coordinate of a matrix in the distinguished subgroup.

    The matrix must lie in I + Z p^(n-s) E_{1,s+1} over Z/p^(n-s+1); its
    corner entry a*p^(n-s) maps to a in 0..p-1.  Anything else is an error:
    a silent 0 here would mask real inconsistencies downstream.  This is
    ``iota_reader`` on a batch of one, at place (0, s).
    """
    if not (1 <= s <= n):
        raise ValueError("need 1 <= s <= n")
    if matrix.size != s + 1:
        raise ValueError(f"matrix size {matrix.size} does not match s={s}")
    p, k = prime_power(matrix.modulus)
    if k != n - s + 1:
        raise ValueError(f"modulus must be p^(n-s+1) = p^{n - s + 1}, got exponent {k}")
    batch = np.array(matrix.data, dtype=object)[:, None, None]
    values, reject = iota_reader(n, p, s + 1, [(0, s)])(batch)
    if reject:
        raise ValueError(reject[2])
    return int(values[0, 0])


class FiniteGroupTable:
    """An explicit finite group of unipotent matrices."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[UnipotentMatrix]):
        self.elements = tuple(elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"FiniteGroupTable({len(self.elements)} elements)"


def _dtype(size: int, modulus: int):
    # int64 holds an entry's unreduced sum of at most size products of two
    # residues when size (m-1)^2 fits; else exact ints
    return np.int64 if size * (modulus - 1) ** 2 <= np.iinfo(np.int64).max else object


def _rows(matrices: Sequence[UnipotentMatrix], size: int, modulus: int) -> np.ndarray:
    """Stack matrices of one size and modulus entry-major, as an (E, N) array."""
    if any(g.size != size or g.modulus != modulus for g in matrices):
        raise ValueError("matrices must share size and modulus")
    data = np.array([g.data for g in matrices], dtype=_dtype(size, modulus))
    return np.ascontiguousarray(data.reshape(len(matrices), size * (size - 1) // 2).T)


def _mul_rows(a: np.ndarray, b: np.ndarray, size: int, modulus: int) -> np.ndarray:
    """Matrix-wise products of two equal-shape entry-major stacks.

    Entry t of AB is a_t + b_t + the sum of a_u b_v over its mids; the
    products go through one temporary into the unreduced sum, and the
    whole result is reduced once.
    """
    out = a + b
    tmp = np.empty(out.shape[1:], dtype=out.dtype)
    for t, mids in enumerate(_mul_program(size)):
        acc = out[t]
        for u, v in mids:
            np.multiply(a[u], b[v], out=tmp)
            acc += tmp
    out %= modulus
    return out


def _inverse_rows(a: np.ndarray, size: int, modulus: int) -> np.ndarray:
    """Matrix-wise inverses by back-substitution, in order of the span j - i.

    X = A^-1 has x_ij = -(a_ij + sum_{i<k<j} a_ik x_kj), and every x_kj
    on the right has a shorter span than (i, j); each entry is reduced once.
    """
    pairs = _upper_pairs(size)
    prog = _mul_program(size)
    x = np.empty_like(a)
    tmp = np.empty(a.shape[1:], dtype=a.dtype)
    for t in sorted(range(len(pairs)), key=lambda t: pairs[t][1] - pairs[t][0]):
        acc = x[t]
        acc[...] = a[t]
        for u, v in prog[t]:
            np.multiply(a[u], x[v], out=tmp)
            acc += tmp
        np.negative(acc, out=acc)
        acc %= modulus
    return x


def _pow_rows(a: np.ndarray, k: int, size: int, modulus: int) -> np.ndarray:
    """Matrix-wise k-th powers of an entry-major stack, k >= 0, by the binomial series.

    A matrix is X = I + N with N strictly upper triangular, so N^size = 0
    and X^k = I + sum over 1 <= j < size of C(k, j) N^j.  That takes at
    most size - 2 products for any k; each N^j comes from one
    ``_mul_rows`` call, as (I + A)(I + B) = I + A + B + AB.  The series
    stops at the first N^j that is zero in every matrix: when N vanishes
    below its L-th superdiagonal, as for the image of a commutator of L
    letters, N^j = 0 once jL >= size.
    """
    result = a * (k % modulus)  # the j = 1 term; zero when k = 0
    result %= modulus
    term = a  # N^j
    for j in range(2, min(k, size - 1) + 1):
        term = _mul_rows(term, a, size, modulus) - term - a
        term %= modulus
        if not term.any():
            break
        step = term * (math.comb(k, j) % modulus)
        step %= modulus
        result += step
        result %= modulus
    return result


def iota_reader(n: int, p: int, size: int, places: Sequence[tuple[int, int]]) -> Callable:
    """``iota`` of one top-left block per column, read off batches of ``size``.

    Column j reads place (k, s) = places[j]: the top-left (s+1)-block of
    matrix k, mod p^(n-s+1), which is rho of the prefix c[:s] when matrix
    k is rho of a word c.  The layout is built once; the returned function
    maps an (E, G, K) batch over Z/p^N, N >= n - s + 1 for every place, to
    the (G, J) values and the first rejected (g, j) with the reason
    ``iota`` gives, or None.
    """
    ks, lengths = (np.array(c) for c in zip(*places))
    i, j = (np.array(c)[:, None] for c in zip(*_upper_pairs(size)))  # (E, 1) each
    corner = (i == 1) & (j == lengths + 1)  # (E, J)
    outside = ((j > lengths + 1) | corner)[:, None]
    corners, columns = corner.argmax(axis=0), np.arange(len(places))
    shifts = p ** (n - lengths.astype(object))
    shifts = shifts.astype(np.int64 if p * shifts.max() < 2**63 else object)

    def read(batch: np.ndarray) -> tuple[np.ndarray, Optional[tuple[int, int, str]]]:
        blocks = batch[:, :, ks] % (p * shifts)
        c = blocks[corners, :, columns].T  # (G, J)
        np.copyto(blocks, 0, where=outside)  # leaves each block's off-corner entries
        noncentral = blocks.any(axis=0)
        bad = np.argwhere(noncentral | (c % shifts != 0))
        if not len(bad):
            return c // shifts, None
        g, col = bad[0]
        if noncentral[g, col]:
            t = np.flatnonzero(blocks[:, g, col])[0]
            reason = ("matrix is not in the central subgroup: "
                      f"entry ({i[t, 0]},{j[t, 0]}) = {blocks[t, g, col]}")
        else:
            reason = f"corner entry {c[g, col]} is not divisible by p^(n-s) = {shifts[col]}"
        return c // shifts, (g, col, reason)

    return read


def letter_rows(words: Sequence[Word], letter: int, size: int, modulus: int) -> np.ndarray:
    """rho(w, x) of one letter x for every word w, as an (E, K) batch of ``size``.

    Matrix k is I + sum over the positions i with w_i = x of E_{i,i+1}.
    Words may have any length up to size - 1: a shorter word's
    superdiagonal is zero past its end, so its matrix is its own top-left
    (|w|+1)-block, as ``iota_reader`` reads it, followed by the identity.
    """
    index = np.full((size - 1, len(words)), -1)
    for k, w in enumerate(words):
        index[: len(w), k] = w.indices
    superdiagonal = [t for t, (i, j) in enumerate(_upper_pairs(size)) if j == i + 1]
    out = np.zeros((size * (size - 1) // 2, len(words)), dtype=_dtype(size, modulus))
    out[superdiagonal] = index == letter
    return out


def tau_power_rows(
    plan: Sequence[TauStep],
    ws: Iterable[Word],
    words: Sequence[Word],
    n: int,
    p: int,
    modulus: int,
) -> Iterator[tuple[list[Word], np.ndarray]]:
    """rho(w', tau(w)**(p**(n-|w|))) for w in ws and w' in words, in one walk.

    ``plan`` is the ``tau_plan`` of ws; ws and words may mix lengths and
    repeat words, in any order.  Every w' is padded into one batch of
    size max|w'| + 1 over Z/modulus (``letter_rows``), and ``iota_reader``
    reads its blocks mod any divisor of the modulus.  tau(w) is evaluated
    on the letter images, never expanded into a group word.  The plan is
    walked once, one word length at a time, in chunks of at most
    ``BLOCK`` matrices (one word when its batch alone is larger).  Every
    word of a chunk is formed at once as [a, b] = (ba)^-1 (ab) from the
    images of its factors: three ``_mul_rows`` calls and one
    ``_inverse_rows`` call.  Only a factor's image is kept, and only until
    the words of its last use are formed.  The words of ws in a chunk
    share their exponent, so each chunk is powered by one ``_pow_rows``
    call as soon as it is formed.  Yields (those words, batch of shape
    (E, G, len(words))); each distinct word comes once.
    """
    size = max(map(len, words)) + 1
    chunk = max(1, BLOCK // len(words))
    wanted = set(ws)

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _mul_rows(a, b, size, modulus)

    images: dict[Word, np.ndarray] = {}  # factor -> its (E, K) image, a view of its chunk
    expiring: dict[int, list[Word]] = {}  # last use -> factors to drop after it
    for length, level in groupby(plan, key=lambda step: len(step.word)):
        level = list(level)
        for start in range(0, len(level), chunk):
            steps = level[start : start + chunk]
            if length == 1:
                letters = (step.word.indices[0] for step in steps)
                image = np.stack([letter_rows(words, x, size, modulus) for x in letters], axis=1)
            else:
                a, b = (np.stack([images[step.factors[side]] for step in steps], axis=1)
                        for side in (0, 1))
                image = mul(_inverse_rows(mul(b, a), size, modulus), mul(a, b))
            for r, step in enumerate(steps):
                if step.last_use:
                    images[step.word] = image[:, r]
                    expiring.setdefault(step.last_use, []).append(step.word)
            hits = [r for r, step in enumerate(steps) if step.word in wanted]
            if hits:
                # no copy when every matrix of the chunk is wanted
                base = image if len(hits) == len(steps) else image[:, hits]
                yield [steps[r].word for r in hits], _pow_rows(
                    base, p ** (n - length), size, modulus
                )
        for u in expiring.pop(length, ()):
            del images[u]


def _codes(rows: np.ndarray, modulus: int) -> np.ndarray:
    """One integer per matrix of an entry-major (E, ...) stack, by Horner's rule.

    The entries are its base-``modulus`` digits, the first most significant,
    so code order is the lexicographic order of the entries.  int64 when
    the entries are and modulus^E fits, else exact ints.
    """
    fits = rows.dtype == np.int64 and modulus ** len(rows) <= 2**63
    codes = np.zeros(rows.shape[1:], dtype=np.int64 if fits else object)
    for row in rows:
        codes = codes * modulus + row
    return codes


def _unique_rows(rows: np.ndarray, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct matrices of an entry-major (E, ...) stack as (E, K), in code order, and their codes."""
    codes = _codes(rows, modulus)
    rows = rows.reshape(len(rows), codes.size)
    codes, index = np.unique(codes, return_index=True)
    return rows[:, index], codes


def _fresh(blocks: Iterable[np.ndarray], seen: set, modulus: int) -> Iterator[np.ndarray]:
    """The distinct matrices of each block whose codes are not in ``seen``, which gains them."""
    for block in blocks:
        block, codes = _unique_rows(block, modulus)
        codes = codes.tolist()
        fresh = [c not in seen for c in codes]
        seen.update(compress(codes, fresh))
        if len(seen) > MAX_ORDER:
            raise ValueError(f"group order exceeds cap {MAX_ORDER}")
        yield block.compress(fresh, axis=1)


def _closure(gens: np.ndarray, size: int, modulus: int) -> np.ndarray:
    """The group generated by an entry-major (E, G) stack, as an (E, N) stack in code order.

    Each step multiplies frontier chunks, shape (E, c, 1), on the right
    by every generator, shape (E, 1, G), with c G <= ``BLOCK`` when G allows.
    """
    chunk = max(1, BLOCK // max(1, gens.shape[1]))
    frontier = np.zeros((len(gens), 1), dtype=gens.dtype)
    levels, seen = [frontier], {0}
    while frontier.shape[1]:
        products = (_mul_rows(frontier[:, k : k + chunk, None], gens[:, None], size, modulus)
                    for k in range(0, frontier.shape[1], chunk))
        frontier = np.concatenate(list(_fresh(products, seen, modulus)), axis=1)
        levels.append(frontier)
    return _unique_rows(np.concatenate(levels, axis=1), modulus)[0]


def _table(rows: np.ndarray, size: int, modulus: int) -> FiniteGroupTable:
    # BLOCK matrices at a time, so only one block of entry lists is alive
    return FiniteGroupTable(
        UnipotentMatrix(size, modulus, d)
        for k in range(0, rows.shape[1], BLOCK)
        for d in rows[:, k : k + BLOCK].T.tolist()
    )


def generate_group(
    generators: Iterable[UnipotentMatrix],
    size: Optional[int] = None,
    modulus: Optional[int] = None,
) -> FiniteGroupTable:
    """Close a generator list under the product (frontier BFS).

    The generated submonoid of a finite group is the generated subgroup,
    so right multiplication from the identity is enough.  Each step
    multiplies the whole frontier by every generator; new elements stay
    entry-major arrays, keyed by a set of integer codes (``_codes``), and
    the group is sorted once by code.  Raises ValueError when the group
    order would exceed ``MAX_ORDER``.  ``size`` and ``modulus`` are only
    needed when the generator list is empty.

    Each step has a fixed numpy cost of some tens of microseconds, so
    this is fast for wide, shallow closures (every group the checks
    build) and slower than scalar products for long cyclic chains: one
    generator of order 2^16 takes 65,536 steps of one matrix each.
    """
    generators = list(generators)
    if generators:
        size, modulus = generators[0].size, generators[0].modulus
    elif size is None or modulus is None:
        raise ValueError("size and modulus required when no generators given")
    return _table(_closure(_rows(generators, size, modulus), size, modulus), size, modulus)


def lower_p_central(table: FiniteGroupTable, p: int, n: int) -> FiniteGroupTable:
    """The n-th term of the lower p-central series of a finite group.

    Term 1 is the whole group; term k+1 is the subgroup generated by all
    p-th powers of term k together with all commutators [g, h] for g in
    the whole group and h in term k.  Computed verbatim over all pairs;
    no structural shortcuts.  Terms stay entry-major stacks; each chunk
    of h, shape (E, c, 1), meets the whole group, shape (E, 1, N), with
    c N <= ``BLOCK`` when N allows, and is deduplicated by code at once.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be positive")
    if not table.elements:
        raise ValueError("empty table")
    if n == 1:
        return table
    size, modulus = table.elements[0].size, table.elements[0].modulus
    term = _rows(table.elements, size, modulus)
    group, group_inv = term[:, None], _inverse_rows(term, size, modulus)[:, None]
    chunk = max(1, BLOCK // term.shape[1])

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _mul_rows(a, b, size, modulus)

    for _ in range(n - 1):
        term_inv = _inverse_rows(term, size, modulus)
        powers = _pow_rows(term, p, size, modulus)
        hs = [(term[:, k : k + chunk, None], term_inv[:, k : k + chunk, None])
              for k in range(0, term.shape[1], chunk)]
        commutators = (mul(mul(group_inv, h_inv), mul(group, h)) for h, h_inv in hs)
        # the identity, code 0, generates nothing
        gens = list(_fresh(chain([powers], commutators), {0}, modulus))
        term = _closure(np.concatenate(gens, axis=1), size, modulus)
    return _table(term, size, modulus)
