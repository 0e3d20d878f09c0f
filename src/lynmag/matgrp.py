"""Unipotent upper-triangular matrix groups over Z/p^k.

Matrices are stored as flat tuples of the strictly-upper entries (the
diagonal is implicitly 1), which keeps them hashable and cheap: the
brute-force subgroup engine below churns through hundreds of thousands
of products when verifying the p-central filtration of these groups.

``rho`` builds the unipotent representation attached to a word: the
(i, j) entry of the image of g is the Magnus coefficient of the subword
from position i to j-1.  ``iota`` reads off the distinguished central
coordinate used by the duality pairing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .freegrp import GroupWord
from .series import is_prime, magnus, prime_power
from .words import Word


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
        # back-substitution; unitriangular matrices are always invertible
        m, mod = self.size, self.modulus
        a = self.dense()
        x = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        for i in range(m - 2, -1, -1):
            for j in range(m):
                s = sum(a[i][k] * x[k][j] for k in range(i + 1, m))
                x[i][j] = ((1 if i == j else 0) - s) % mod
        pairs = _upper_pairs(m)
        return UnipotentMatrix(m, mod, tuple(x[i - 1][j - 1] for i, j in pairs))

    def __pow__(self, k: int) -> "UnipotentMatrix":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = UnipotentMatrix.identity(self.size, self.modulus)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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

    @classmethod
    def from_json(cls, data: dict) -> "UnipotentMatrix":
        entries = {(int(i), int(j)): int(v) for i, j, v in data["entries"]}
        return cls.from_entries(int(data["size"]), int(data["modulus"]), entries)


def rho(w: Word, g: GroupWord, modulus: int) -> UnipotentMatrix:
    """The unipotent matrix of Magnus coefficients of subwords of w.

    For w = x_1...x_s the image has (i, j) entry equal to the coefficient
    of x_i...x_{j-1} in the Magnus series of g; it is a homomorphism into
    the unitriangular group of size s+1, sending the letter x_i itself to
    I + E_{i,i+1}.
    """
    s = len(w)
    if s < 1:
        raise ValueError("word must be nonempty")
    if w.alphabet != g.alphabet:
        raise ValueError("word and group word use different alphabets")
    f = magnus(g, modulus, s)
    u = w.indices
    size = s + 1
    data = tuple(
        f.coeffs.get(u[i - 1 : j - 1], 0) for (i, j) in _upper_pairs(size)
    )
    return UnipotentMatrix(size, modulus, data)


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


def generate_group(
    generators: Iterable[UnipotentMatrix],
    cap: int = 10**6,
    size: Optional[int] = None,
    modulus: Optional[int] = None,
) -> FiniteGroupTable:
    """Close a generator list under the product (worklist BFS).

    The generated submonoid of a finite group is the generated subgroup,
    so right multiplication from the identity is enough.  ``size`` and
    ``modulus`` are only needed when the generator list is empty.
    """
    generators = list(generators)
    if generators:
        size = generators[0].size
        modulus = generators[0].modulus
        if any(g.size != size or g.modulus != modulus for g in generators):
            raise ValueError("generators must share size and modulus")
    elif size is None or modulus is None:
        raise ValueError("size and modulus required when no generators given")
    identity = UnipotentMatrix.identity(size, modulus)
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for g in generators:
                b = a * g
                if b not in seen:
                    if len(seen) >= cap:
                        raise ValueError(f"group order exceeds cap {cap}")
                    seen.add(b)
                    new.append(b)
        frontier = new
    ordered = sorted(seen, key=lambda m: m.data)
    return FiniteGroupTable(ordered)


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
    inv_all = {g: g.inverse() for g in table.elements}
    current = table
    for _ in range(n - 1):
        gens: set[UnipotentMatrix] = set()
        for h in current.elements:
            gens.add(h**p)
        for h in current.elements:
            h_inv = inv_all[h] if h in inv_all else h.inverse()
            for g in table.elements:
                gens.add(inv_all[g] * h_inv * g * h)
        gens = {g for g in gens if not g.is_identity()}
        current = generate_group(
            sorted(gens, key=lambda m: m.data), size=size, modulus=modulus
        )
    return current
