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
exact Python ints otherwise.  A single matrix is inverted and powered by
the same kernels, as a stack of one; only its product keeps a scalar
loop, which is faster on one matrix.

The brute-force subgroup engine (``generate_group``, ``lower_p_central``)
forms at most ``BLOCK`` products per kernel call, which bounds memory.
The matrix route of the duality pairing runs on the same kernels:
``tau_power_rows`` walks a ``tau_plan`` once, one word length at a time,
on the letter images ``letter_rows`` of words w' of every length at
once, padded into one batch; ``block_rows`` cuts out any diagonal block,
so a word can be read off the block of a longer word it is an infix of,
and ``iota_rows`` reads the central coordinate of a whole batch.

``rho`` builds the unipotent representation attached to a word from
closed-form syllable images; the (i, j) entry of the image of g is the
Magnus coefficient of the subword from position i to j-1.  ``iota`` reads
off the distinguished central coordinate used by the duality pairing.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from itertools import groupby
from typing import Iterable, Iterator, Optional, Sequence

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

    def inverse(self) -> "UnipotentMatrix":
        return self ** -1

    def __pow__(self, k: int) -> "UnipotentMatrix":
        """Any integer power, on the row kernels: a negative k inverts first."""
        size, modulus = self.size, self.modulus
        a = _rows([self], size, modulus)
        if k < 0:
            a = _inverse_rows(a, size, modulus)
        return UnipotentMatrix(size, modulus, _pow_rows(a, abs(k), size, modulus)[:, 0].tolist())

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
    a silent 0 here would mask real inconsistencies downstream.
    """
    if not (1 <= s <= n):
        raise ValueError("need 1 <= s <= n")
    if matrix.size != s + 1:
        raise ValueError(f"matrix size {matrix.size} does not match s={s}")
    p, k = prime_power(matrix.modulus)
    if k != n - s + 1:
        raise ValueError(
            f"modulus must be p^(n-s+1) = p^{n - s + 1}, got exponent {k}"
        )
    pairs = _upper_pairs(matrix.size)
    corner = None
    for (i, j), v in zip(pairs, matrix.data):
        if (i, j) == (1, s + 1):
            corner = v
        elif v:
            raise ValueError(
                f"matrix is not in the central subgroup: entry ({i},{j}) = {v}"
            )
    shift = p ** (n - s)
    if corner % shift:
        raise ValueError(
            f"corner entry {corner} is not divisible by p^(n-s) = {shift}"
        )
    return corner // shift


class FiniteGroupTable:
    """An explicit finite group of unipotent matrices."""

    __slots__ = ("elements", "_members")

    def __init__(self, elements: Iterable[UnipotentMatrix]):
        self.elements = tuple(elements)
        self._members = frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m: UnipotentMatrix) -> bool:
        return m in self._members

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


def iota_rows(n: int, s: int, rows: np.ndarray, modulus: int) -> np.ndarray:
    """``iota`` of every matrix in an entry-major (E, ...) batch of size s+1 over Z/modulus.

    Entries whose matrix ``iota`` would reject come out as -1; call
    ``iota`` on such a matrix for the reason.
    """
    p, k = prime_power(modulus)
    if not (1 <= s <= n and k == n - s + 1 and len(rows) == s * (s + 1) // 2):
        raise ValueError(f"a batch of size {s + 1} mod {modulus} does not match n={n}")
    corner = s - 1  # (1, s+1) ends the first row of the layout
    shift = p ** (n - s)
    c = rows[corner]
    central = ~(rows[:corner].any(axis=0) | rows[corner + 1 :].any(axis=0))
    return np.where(central & (c % shift == 0), c // shift, -1)


def block_rows(rows: np.ndarray, size: int, start: int, k: int, modulus: int) -> np.ndarray:
    """The k x k diagonal block from row start+1 of every matrix in an (E, ...) batch of ``size``.

    Returns its strictly-upper entries in the layout of size k, reduced
    mod ``modulus``, a divisor of the batch modulus.  On upper-triangular
    matrices, taking a diagonal block and reducing it are homomorphisms:
    the block of a product is the product of blocks.
    """
    index = [t for t, (i, j) in enumerate(_upper_pairs(size)) if start < i and j <= start + k]
    block = rows[index]  # a list index copies, so the reduction can be in place
    block %= modulus
    return block


def letter_rows(words: Sequence[Word], letter: int, size: int, modulus: int) -> np.ndarray:
    """rho(w, x) of one letter x for every word w, as an (E, K) batch of ``size``.

    Matrix k is I + sum over the positions i with w_i = x of E_{i,i+1}.
    Words may have any length up to size - 1: a shorter word's
    superdiagonal is zero past its end, so its matrix is its own
    (|w|+1)-block followed by the identity.
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
    size max|w'| + 1 over Z/modulus (``letter_rows``), and ``block_rows``
    reads its blocks mod any divisor of the modulus.  tau(w) is evaluated
    on the letter images, never expanded into a group word.  The plan is
    walked once, one word length at a time, in chunks of at most
    ``BLOCK`` matrices (one word when its batch alone is larger): six
    ``_mul_rows`` calls form [a, b] for every word of a chunk and [b, a]
    for those that are factors of longer words.  A factor's (image,
    inverse) pair is stored as int32 when the modulus allows, widened as
    it is gathered, and dropped after its last use.  The words of ws in a
    chunk share their exponent, so each chunk is powered by one
    ``_pow_rows`` call as soon as it is formed.  Yields (those words,
    batch of shape (E, G, len(words))); each distinct word comes once.
    """
    size = max(map(len, words)) + 1
    dtype = _dtype(size, modulus)
    stored = np.int32 if modulus <= 2**31 else dtype
    chunk = max(1, BLOCK // len(words))
    wanted = set(ws)

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _mul_rows(a, b, size, modulus)

    def bracket(steps: list[TauStep], u: int) -> np.ndarray:
        # [a, b] = ((a^-1 b^-1) a) b with a the factor u of each step; each
        # stack is gathered just before its product, so at most three live.
        def gather(side: int, part: int) -> np.ndarray:
            return np.stack(
                [pairs[step.factors[side]][part] for step in steps], axis=1, dtype=dtype
            )

        return mul(mul(mul(gather(u, 1), gather(1 - u, 1)), gather(u, 0)), gather(1 - u, 0))

    pairs: dict[Word, tuple[np.ndarray, np.ndarray]] = {}
    expiring: dict[int, list[Word]] = {}  # last use -> factors to drop after it
    for length, level in groupby(plan, key=lambda step: len(step.word)):
        level = sorted(level, key=lambda step: not step.last_use)  # factors first
        for start in range(0, len(level), chunk):
            steps = level[start : start + chunk]
            if length == 1:
                image = np.stack(
                    [letter_rows(words, step.word.indices[0], size, modulus) for step in steps],
                    axis=1,
                )
            else:
                image = bracket(steps, 0)
            factors = [step for step in steps if step.last_use]
            if factors:
                inverse = (
                    _inverse_rows(image[:, : len(factors)], size, modulus)
                    if length == 1
                    else bracket(factors, 1)
                )
                # one contiguous (E, K) image and inverse per factor
                images = image[:, : len(factors)].swapaxes(0, 1).astype(stored, order="C")
                inverses = inverse.swapaxes(0, 1).astype(stored, order="C")
                for step, pair in zip(factors, zip(images, inverses)):
                    pairs[step.word] = pair
                    expiring.setdefault(step.last_use, []).append(step.word)
            hits = [r for r, step in enumerate(steps) if step.word in wanted]
            if hits:
                # no copy when every matrix of the chunk is wanted
                base = image if len(hits) == len(steps) else image[:, hits]
                yield [steps[r].word for r in hits], _pow_rows(
                    base, p ** (n - length), size, modulus
                )
        for u in expiring.pop(length, ()):
            del pairs[u]


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct matrices of an entry-major (E, N) stack, in lexicographic order."""
    if not len(rows):
        return rows[:, :1]
    rows = rows[:, np.lexsort(rows[::-1])]
    keep = np.ones(rows.shape[1], dtype=bool)
    keep[1:] = (rows[:, 1:] != rows[:, :-1]).any(axis=0)
    return rows[:, keep]


def _pair_blocks(n_a: int, n_b: int):
    """Index arrays (i, j) that cover all n_a * n_b pairs, BLOCK at a time."""
    total = n_a * n_b
    for start in range(0, total, BLOCK):
        yield np.divmod(np.arange(start, min(start + BLOCK, total)), n_b)


def generate_group(
    generators: Iterable[UnipotentMatrix],
    size: Optional[int] = None,
    modulus: Optional[int] = None,
) -> FiniteGroupTable:
    """Close a generator list under the product (frontier BFS).

    The generated submonoid of a finite group is the generated subgroup,
    so right multiplication from the identity is enough.  Each step
    multiplies the whole frontier by every generator.  Raises ValueError
    when the group order would exceed ``MAX_ORDER``.  ``size`` and ``modulus``
    are only needed when the generator list is empty.

    Each step has a fixed numpy cost of some tens of microseconds, so
    this is fast for wide, shallow closures (every group the checks
    build) and slower than scalar products for long cyclic chains: one
    generator of order 2^16 takes 65,536 steps of one matrix each.
    """
    generators = list(generators)
    if generators:
        size = generators[0].size
        modulus = generators[0].modulus
    elif size is None or modulus is None:
        raise ValueError("size and modulus required when no generators given")
    gens = _rows(generators, size, modulus)
    width = len(gens)
    seen = {(0,) * width}
    frontier = np.zeros((width, 1), dtype=gens.dtype)
    while frontier.shape[1]:
        new: list[tuple] = []
        for i, j in _pair_blocks(frontier.shape[1], gens.shape[1]):
            products = _unique_rows(_mul_rows(frontier[:, i], gens[:, j], size, modulus))
            fresh = [r for r in map(tuple, products.T.tolist()) if r not in seen]
            if len(seen) + len(fresh) > MAX_ORDER:
                raise ValueError(f"group order exceeds cap {MAX_ORDER}")
            seen.update(fresh)
            new += fresh
        frontier = np.array(new, dtype=gens.dtype).reshape(len(new), width).T.copy()
    return FiniteGroupTable(UnipotentMatrix(size, modulus, d) for d in sorted(seen))


def lower_p_central(table: FiniteGroupTable, p: int, n: int) -> FiniteGroupTable:
    """The n-th term of the lower p-central series of a finite group.

    Term 1 is the whole group; term k+1 is the subgroup generated by all
    p-th powers of term k together with all commutators [g, h] for g in
    the whole group and h in term k.  Computed verbatim over all pairs;
    no structural shortcuts.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be positive")
    if not table.elements:
        raise ValueError("empty table")
    size = table.elements[0].size
    modulus = table.elements[0].modulus
    group = _rows(table.elements, size, modulus)
    group_inv = _inverse_rows(group, size, modulus)
    current = table
    for _ in range(n - 1):
        term = _rows(current.elements, size, modulus)
        gens = _unique_rows(
            np.concatenate(
                [
                    _pow_rows(term[:, start : start + BLOCK], p, size, modulus)
                    for start in range(0, term.shape[1], BLOCK)
                ],
                axis=1,
            )
        )
        term_inv = _inverse_rows(term, size, modulus)
        for i, j in _pair_blocks(term.shape[1], group.shape[1]):
            # [g, h] = (g^-1 h^-1)(g h) for g = group[j], h = term[i]
            left = _mul_rows(group_inv[:, j], term_inv[:, i], size, modulus)
            right = _mul_rows(group[:, j], term[:, i], size, modulus)
            gens = _unique_rows(
                np.concatenate([gens, _mul_rows(left, right, size, modulus)], axis=1)
            )
        gens = gens[:, (gens != 0).any(axis=0)]
        current = generate_group(
            [UnipotentMatrix(size, modulus, r) for r in gens.T.tolist()],
            size=size,
            modulus=modulus,
        )
    return current
