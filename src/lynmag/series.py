"""Truncated noncommutative power series and the Magnus embedding.

A :class:`TruncatedSeries` is a sparse integer polynomial in noncommuting
letters where every word longer than the truncation degree is discarded;
with ``degree`` None nothing is discarded, which is how shuffles, bracket
polynomials and other finite polynomials are represented.  Coefficients
live either in Z/p^k (``modulus`` a prime power) or in Z itself
(``modulus`` None); the exact path is what certifies vanishing
statements, since no single residue can.

``magnus`` sends a free-group word to its image under the ring map
x -> 1 + x, taking each syllable x^e straight to the binomial series
(1 + x)^e; ``matgrp.rho`` multiplies and powers letter matrices instead,
and ``homomorphism-properties`` checks its entries against these
coefficients.  The coefficient functionals ``eps`` detect membership in
the lower central and lower p-central series (``lower_central_test``,
``koch_test``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import Iterator, Mapping, Optional

from .freegrp import GroupWord, Syllable
from .words import Alphabet, Word, is_lyndon, standard_factorization

WordKey = tuple[int, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache
def prime_power(m: int) -> tuple[int, int]:
    """Write m = p^k with p prime and k >= 1, or raise ValueError.

    Memoized: constructors check their modulus on every product, and a
    run uses few distinct moduli.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    p = 2
    while p * p <= m:
        if m % p == 0:
            break
        p += 1
    else:
        return m, 1
    k, rest = 0, m
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ValueError(f"{m} is not a prime power")
    return p, k


def balanced(c: int, m: int) -> int:
    """The representative of c mod m of smallest absolute value (ties positive)."""
    c %= m
    return c if c <= m // 2 else c - m


class TruncatedSeries:
    """Sparse series in noncommuting letters, truncated above a fixed degree.

    The coefficient map never stores zeros and never stores words longer
    than the truncation degree, so equality of values is equality of maps.
    A degree of None means untruncated: the value is a finite polynomial.
    Instances are immutable by convention; all operations return new values.
    """

    __slots__ = ("alphabet", "modulus", "degree", "coeffs")

    def __init__(
        self,
        alphabet: Alphabet,
        modulus: Optional[int],
        degree: Optional[int],
        coeffs: Optional[Mapping[WordKey, int]] = None,
    ):
        if modulus is not None:
            prime_power(modulus)
        if degree is not None and degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        cap = math.inf if degree is None else degree
        clean: dict[WordKey, int] = {}
        if coeffs:
            for key, c in coeffs.items():
                if len(key) > cap:
                    continue
                if modulus is not None:
                    c %= modulus
                if c:
                    clean[key] = c
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def one(
        cls, alphabet: Alphabet, modulus: Optional[int], degree: Optional[int]
    ) -> "TruncatedSeries":
        return cls(alphabet, modulus, degree, {(): 1})

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("series over different alphabets")
        if self.modulus != other.modulus:
            raise ValueError("series with different moduli")
        if self.degree != other.degree:
            raise ValueError("series with different truncation degrees")

    def coefficient(self, w: Word) -> int:
        if w.alphabet != self.alphabet:
            raise ValueError("word over a different alphabet")
        return self.coeffs.get(w.indices, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.alphabet == other.alphabet
            and self.modulus == other.modulus
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return TruncatedSeries(self.alphabet, self.modulus, self.degree, out)

    def __neg__(self) -> "TruncatedSeries":
        return self.scale(-1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries(
            self.alphabet,
            self.modulus,
            self.degree,
            {key: c * v for key, v in self.coeffs.items()},
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out = _mul_coeffs(self.coeffs, other.coeffs, self.degree)
        return TruncatedSeries(self.alphabet, self.modulus, self.degree, out)

    def terms(self) -> list[tuple[WordKey, int]]:
        """(word key, coefficient) pairs in preceq order."""
        return sorted(self.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def homogeneous_part(self, d: int) -> "TruncatedSeries":
        return TruncatedSeries(
            self.alphabet,
            self.modulus,
            self.degree,
            {key: c for key, c in self.coeffs.items() if len(key) == d},
        )

    def __str__(self) -> str:
        # Signed coefficients, balanced residues over Z/p^k, preceq order.
        if not self.coeffs:
            return "0"
        chunks = []
        for key, c in self.terms():
            if self.modulus is not None:
                c = balanced(c, self.modulus)
            word = self.alphabet._spell(key)
            if not word:
                body = str(abs(c))
            elif abs(c) == 1:
                body = word
            else:
                body = f"{abs(c)}·{word}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        mod = "Z" if self.modulus is None else f"Z/{self.modulus}"
        deg = "untruncated" if self.degree is None else f"deg<={self.degree}"
        return f"TruncatedSeries({self} over {mod}, {deg})"

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "degree": self.degree,
            "terms": [
                {"word": self.alphabet._spell(key), "coeff": c}
                for key, c in self.terms()
            ],
        }


def _mul_coeffs(
    f: Mapping[WordKey, int], g: Mapping[WordKey, int], degree: Optional[int]
) -> dict[WordKey, int]:
    """The product of two coefficient maps, truncated above degree, unreduced."""
    cap = math.inf if degree is None else degree
    by_len: dict[int, list[tuple[WordKey, int]]] = {}
    for v, cv in g.items():
        by_len.setdefault(len(v), []).append((v, cv))
    out: dict[WordKey, int] = {}
    for u, cu in f.items():
        room = cap - len(u)
        for length, items in by_len.items():
            if length > room:
                continue
            for v, cv in items:
                w = u + v
                out[w] = out.get(w, 0) + cu * cv
    return out


def _binomials(k: int) -> Iterator[int]:
    """C(k, 1), C(k, 2), ... exactly, for any integer k; zero past k >= 0.

    C(k, j) = C(k, j-1) (k-j+1) / j is an exact division, so it is done
    before any reduction: j need not be a unit mod the modulus.
    """
    c, j = 1, 0
    while True:
        j += 1
        c = c * (k - j + 1) // j
        yield c


def series_pow(f: TruncatedSeries, k: int) -> TruncatedSeries:
    """f^k for any integer k by the generalized binomial series.

    With c the constant term and g = f - c, f^k is the sum over j of
    C(k, j) c^(k-j) g^j.  Every term of g^j has degree at least j, so a
    truncated f takes at most ``degree`` products for any k.  k < 0
    needs a truncation and a unit c: +-1 over exact integers, coprime
    to p over Z/p^k.
    """
    m, c = f.modulus, f.coeffs.get((), 0)
    if k < 0:
        if f.degree is None:
            raise ValueError("an untruncated polynomial has no inverse")
        if math.gcd(c, m or 0) != 1:  # gcd(c, 0) = |c|: over Z only +-1 is a unit
            raise ValueError("constant term is not invertible")
        # c^(k-j) = (1/c)^(j-k) with j - k > 0, so no exponent below is
        # negative and exact powers stay ints ((-1) ** -3 is the float -1.0).
        c = pow(c, -1, m) if m else c
    top = f.degree if k < 0 else k if f.degree is None else min(k, f.degree)
    # powers of g on raw coefficient maps, reduced as they are formed
    g = {u: v for u, v in f.coeffs.items() if u}
    out = {(): pow(c, abs(k), m)}
    g_j = g
    for j, binomial in zip(range(1, top + 1), _binomials(k)):
        if j > 1:
            g_j = _mul_coeffs(g_j, g, f.degree)
            g_j = {u: r for u, v in g_j.items() if (r := v % m if m else v)}
        if not g_j:
            break
        scale = binomial * pow(c, abs(k - j), m)
        for u, v in g_j.items():
            out[u] = out.get(u, 0) + scale * v
    return TruncatedSeries(f.alphabet, m, f.degree, out)


def series_invert(f: TruncatedSeries) -> TruncatedSeries:
    """Two-sided inverse up to the truncation degree: ``series_pow(f, -1)``."""
    return series_pow(f, -1)


@lru_cache(maxsize=4096)
def magnus(
    g: GroupWord, modulus: Optional[int], degree: int, *, limit: Optional[int] = None
) -> TruncatedSeries:
    """Image of a free-group word under x -> 1 + x, truncated.

    A syllable x^e maps to (1 + x)^e, the sum of C(e, j) x^j over j <= degree,
    with C(e, j) from ``_binomials``, reduced only afterwards.  Each syllable
    takes one sweep u -> u x^j, |u| + j <= degree, of the running product;
    with ``limit`` set, a sweep that would form more than ``limit`` terms
    raises ValueError before it is formed.  Results are immutable and cached.
    """
    acc = TruncatedSeries.one(g.alphabet, modulus, degree).coeffs  # checks the arguments
    binomials: dict[Syllable, list[tuple[WordKey, int]]] = {}
    for x, e in g.syllables:
        if (x, e) not in binomials:
            binomials[x, e] = [((), 1)] + [
                ((x,) * j, r)
                for j, c in zip(range(1, degree + 1), _binomials(e))
                if (r := c % modulus if modulus else c)
            ]
        terms = binomials[x, e]
        lengths = [len(v) for v, _ in terms]
        fits = [bisect_right(lengths, degree - len(u)) for u in acc]
        if limit is not None and sum(fits) > limit:
            raise ValueError(
                f"a syllable product would form more than {limit} terms before merging"
            )
        out: dict[WordKey, int] = {}
        for (u, cu), fit in zip(acc.items(), fits):
            for v, cv in terms[:fit]:
                w = u + v
                out[w] = out.get(w, 0) + cu * cv
        acc = {w: r for w, c in out.items() if (r := c % modulus if modulus else c)}
    return TruncatedSeries(g.alphabet, modulus, degree, acc)


def eps(g: GroupWord, w: Word, modulus: Optional[int]) -> int:
    """The coefficient of w in the Magnus image of g.

    A residue in 0..modulus-1, or an exact integer when modulus is None.
    """
    if g.alphabet != w.alphabet:
        raise ValueError("group word and word use different alphabets")
    return magnus(g, modulus, len(w)).coeffs.get(w.indices, 0)


def inner_product(f: TruncatedSeries, q: TruncatedSeries) -> int:
    """Sum of f_w * q_w over all words, reduced mod f.modulus unless exact.

    The polynomial must not reach beyond the series truncation, otherwise
    discarded terms would silently change the answer.
    """
    if f.alphabet != q.alphabet:
        raise ValueError("series and polynomial over different alphabets")
    if f.degree is not None and max(map(len, q.coeffs), default=0) > f.degree:
        raise ValueError("polynomial degree exceeds series truncation")
    total = sum(f.coeffs.get(key, 0) * c for key, c in q.coeffs.items())
    if f.modulus is None:
        return total
    return total % f.modulus


def koch_test(g: GroupWord, n: int, p: int) -> bool:
    """Divisibility criterion for membership in the n-th lower p-central term.

    True iff the coefficient of every word w with 1 <= |w| < n is divisible
    by p^(n-|w|).  Working modulus p^n makes each divisibility exact.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n == 1:
        return True
    f = magnus(g, p**n, n - 1)
    return all(c % p ** (n - len(key)) == 0 for key, c in f.coeffs.items() if key)


def lower_central_test(g: GroupWord, n: int) -> bool:
    """True iff every word of length 1..n-1 has vanishing coefficient.

    Computed over exact integers, so vanishing is certified, not sampled.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return True
    f = magnus(g, None, n - 1)
    return all(not key for key in f.coeffs)


def p_poly(w: Word) -> TruncatedSeries:
    """The homogeneous bracket polynomial of a Lyndon word.

    Single letters map to themselves; w = w'w'' (standard factorization)
    maps to the ring commutator P(w')P(w'') - P(w'')P(w').
    """
    if not is_lyndon(w):
        raise ValueError(f"{w!r} is not a Lyndon word")
    if len(w) == 1:
        return TruncatedSeries(w.alphabet, None, None, {w.indices: 1})
    left, right = standard_factorization(w)
    a, b = p_poly(left), p_poly(right)
    return a * b - b * a
