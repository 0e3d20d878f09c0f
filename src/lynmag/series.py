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

The ``TruncatedSeries`` constructor and ``magnus`` check their arguments;
``TruncatedSeries._from_codes``, which builds every internal series, checks nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .freegrp import GroupWord, Syllable
from .words import Alphabet, Word, is_lyndon, standard_factorization

WordKey = tuple[int, ...]


@lru_cache
def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division.

    Memoized: the checks ask about the same few primes many times.
    """
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _least_factor(n) == n


@lru_cache
def prime_power(m: int) -> tuple[int, int]:
    """Write m = p^k with p prime and k >= 1, or raise ValueError.

    Memoized: every checked series and Magnus image checks its modulus,
    and a run uses few distinct moduli.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    p = _least_factor(m)
    k, rest = 0, m
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ValueError(f"{m} is not a prime power")
    return p, k


def _check_truncation(modulus: Optional[int], degree: Optional[int]) -> None:
    if modulus is not None:
        prime_power(modulus)
    if degree is not None and degree < 0:
        raise ValueError("truncation degree must be nonnegative")


def balanced(c: int, m: int) -> int:
    """The representative of c mod m of smallest absolute value (ties positive)."""
    c %= m
    return c if c <= m // 2 else c - m


class TruncatedSeries:
    """Sparse series in noncommuting letters, truncated above a fixed degree.

    The coefficients are one map, ``codes``, from word code (``_word_code``)
    to coefficient.  It never stores zeros and never stores words longer
    than the truncation degree, so equality of values is equality of maps.
    Word keys (tuples of letter indices) appear only at the boundary: the
    constructor input, the ``coeffs`` view and printing.
    A degree of None means untruncated: the value is a finite polynomial.
    Instances are immutable by convention; all operations return new values.
    """

    __slots__ = ("alphabet", "modulus", "degree", "codes")

    def __init__(
        self,
        alphabet: Alphabet,
        modulus: Optional[int],
        degree: Optional[int],
        coeffs: Optional[Mapping[WordKey, int]] = None,
    ):
        _check_truncation(modulus, degree)
        cap = math.inf if degree is None else degree
        m = len(alphabet)
        coeffs = coeffs or {}
        # a letter index past the alphabet would encode as another word
        if not all(0 <= a < m for key in coeffs for a in key):
            raise ValueError("letter index out of range")
        codes = {_word_code(key, m): c for key, c in coeffs.items() if len(key) <= cap}
        self._set(alphabet, modulus, degree, _reduced(codes, modulus))

    def _set(self, alphabet, modulus, degree, codes) -> "TruncatedSeries":
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "codes", codes)
        return self

    @classmethod
    def _from_codes(
        cls,
        alphabet: Alphabet,
        modulus: Optional[int],
        degree: Optional[int],
        codes: dict[int, int],
    ) -> "TruncatedSeries":
        # Unchecked: a valid modulus and degree, and no zero or word past the degree.
        return object.__new__(cls)._set(alphabet, modulus, degree, codes)

    def _with(self, codes: dict[int, int]) -> "TruncatedSeries":
        return TruncatedSeries._from_codes(self.alphabet, self.modulus, self.degree, codes)

    @property
    def coeffs(self) -> dict[WordKey, int]:
        """Coefficients by word key, decoded from ``codes`` on every read."""
        return dict(zip(_decode(self.codes, len(self.alphabet)), self.codes.values()))

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
        return self.codes.get(_word_code(w.indices, len(self.alphabet)), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.alphabet == other.alphabet
            and self.modulus == other.modulus
            and self.degree == other.degree
            and self.codes == other.codes
        )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out = dict(self.codes)
        for w, c in other.codes.items():
            out[w] = out.get(w, 0) + c
        return self._with(_reduced(out, self.modulus))

    def __neg__(self) -> "TruncatedSeries":
        return self.scale(-1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scale(self, c: int) -> "TruncatedSeries":
        return self._with(_reduced({w: c * v for w, v in self.codes.items()}, self.modulus))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        m = len(self.alphabet)
        return self._with(_product([(1, self.codes, other.codes)], m, self.degree, self.modulus))

    def terms(self) -> list[tuple[WordKey, int]]:
        """(word key, coefficient) pairs in preceq order, which is ascending code order."""
        codes = sorted(self.codes)
        return list(zip(_decode(codes, len(self.alphabet)), map(self.codes.get, codes)))

    def homogeneous_part(self, d: int) -> "TruncatedSeries":
        m = len(self.alphabet)
        lo, hi = _first_code(d, m), _first_code(d + 1, m)
        return self._with({w: c for w, c in self.codes.items() if lo <= w < hi})

    def __str__(self) -> str:
        return format_terms(self.to_json()["terms"], self.modulus)

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


def format_terms(terms: Iterable[dict], modulus: Optional[int]) -> str:
    """A series as text from its ``to_json`` terms: signed, balanced residues over Z/p^k."""
    chunks = []
    for term in terms:
        word, c = term["word"], term["coeff"]
        if modulus is not None:
            c = balanced(c, modulus)
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
    return " ".join(chunks) or "0"


def _reduced(codes: dict[int, int], modulus: Optional[int]) -> dict[int, int]:
    """The nonzero coefficients of a code map, reduced mod modulus unless it is None."""
    return {w: r for w, c in codes.items() if (r := c % modulus if modulus else c)}


def _product(
    terms: Sequence[tuple[int, dict[int, int], dict[int, int]]],
    m: int,
    degree: Optional[int],
    modulus: Optional[int],
) -> dict[int, int]:
    """The sum of c f g over (c, f, g) in terms, on code maps over m letters.

    Truncated above degree (nothing is truncated when it is None), reduced
    by ``_reduced``.  code(uv) = code(u) m^|v| + code(v), and codes ascend
    with word length, so each right factor g is sorted by code once, as
    (code(v), m^|v|, c g_v) triples, and a left word u takes the prefix
    of the words v with |uv| <= degree: one bisect and one slice.
    """
    if degree is None:
        degree = max(
            (_length(max(f), m) + _length(max(g), m) for _, f, g in terms if f and g), default=0
        )
    ends = [_first_code(n + 1, m) for n in range(degree + 1)]  # length <= n: code < ends[n]
    out: dict[int, int] = {}
    for c, f, g in terms:
        right = sorted(g.items())
        codes = [v for v, _ in right]
        # reach[k]: the words v that a word u of length k takes; none past the degree
        reach = [bisect_left(codes, ends[degree - k]) for k in range(degree + 1)] + [0]
        right = [(v, m ** bisect_right(ends, v), c * cv) for v, cv in right[: reach[0]]]
        for u, cu in f.items():
            for v, scale, cv in right[: reach[bisect_right(ends, u)]]:
                w = u * scale + v
                out[w] = out.get(w, 0) + cu * cv
    return _reduced(out, modulus)


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
    m, c = f.modulus, f.codes.get(0, 0)
    if k < 0:
        if f.degree is None:
            raise ValueError("an untruncated polynomial has no inverse")
        if math.gcd(c, m or 0) != 1:  # gcd(c, 0) = |c|: over Z only +-1 is a unit
            raise ValueError("constant term is not invertible")
        # c^(k-j) = (1/c)^(j-k) with j - k > 0, so no exponent below is
        # negative and exact powers stay ints ((-1) ** -3 is the float -1.0).
        c = pow(c, -1, m) if m else c
    top = f.degree if k < 0 else k if f.degree is None else min(k, f.degree)
    # powers of g on code maps, reduced as they are formed
    g = {u: v for u, v in f.codes.items() if u}
    out = {0: pow(c, abs(k), m)}
    g_j = g
    for j, binomial in zip(range(1, top + 1), _binomials(k)):
        if j > 1:
            g_j = _product([(1, g_j, g)], len(f.alphabet), f.degree, m)
        if not g_j:
            break
        scale = binomial * pow(c, abs(k - j), m)
        for u, v in g_j.items():
            out[u] = out.get(u, 0) + scale * v
    return TruncatedSeries._from_codes(f.alphabet, m, f.degree, _reduced(out, m))


def series_invert(f: TruncatedSeries) -> TruncatedSeries:
    """Two-sided inverse up to the truncation degree: ``series_pow(f, -1)``."""
    return series_pow(f, -1)


def _word_code(key: WordKey, m: int) -> int:
    """The bijective base-m numeral of a word: 0 for the empty word, and
    code(u a) = code(u) m + a + 1.  Codes differ across lengths, ascending
    codes are preceq order, and code(uv) = code(u) m^|v| + code(v)."""
    c = 0
    for a in key:
        c = c * m + a + 1
    return c


def _first_code(n: int, m: int) -> int:
    """The code of the first word of length n: the number of shorter words."""
    return n if m == 1 else (m**n - 1) // (m - 1)


def _length(c: int, m: int) -> int:
    # The length of the word with code c: each step drops its last letter.
    n = 0
    while c:
        c, n = (c - 1) // m, n + 1
    return n


def _decode(codes: Iterable[int], m: int) -> list[WordKey]:
    # The word key of each code.  Each word is its parent prefix, code
    # (c - 1) // m, plus one letter, so every key is one tuple
    # concatenation from its parent's key.
    keys: dict[int, WordKey] = {0: ()}
    out = []
    for c in codes:
        climbed = []
        while c not in keys:
            climbed.append(c)
            c = (c - 1) // m
        key = keys[c]
        for c in reversed(climbed):
            key = keys[c] = key + ((c - 1) % m,)
        out.append(key)
    return out


@lru_cache(maxsize=4096)
def magnus(
    g: GroupWord, modulus: Optional[int], degree: int, *, limit: Optional[int] = None
) -> TruncatedSeries:
    """Image of a free-group word under x -> 1 + x, truncated.

    A syllable x^e maps to (1 + x)^e, the sum of C(e, j) x^j over j <= degree,
    with C(e, j) from ``_binomials``, reduced only afterwards.  Each syllable
    takes one sweep u -> u x^j, |u| + j <= degree, of the running product,
    kept as one map from word code to coefficient per word length, where
    code(u x^j) = code(u) m^j + code(x^j).  With ``limit`` set, a sweep that
    would form more than ``limit`` terms raises ValueError before it is
    formed.  Results are immutable and cached.
    """
    _check_truncation(modulus, degree)
    m = len(g.alphabet)
    levels: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(degree)]
    # (j, m^j, code(x^j), C(e, j) reduced) for the nonzero terms, by j
    binomials: dict[Syllable, list[tuple[int, int, int, int]]] = {}
    for x, e in g.syllables:
        if (x, e) not in binomials:
            terms, scale, shift = [], 1, 0
            for j, c in zip(range(1, degree + 1), _binomials(e)):
                scale, shift = scale * m, shift * m + x + 1
                if r := c % modulus if modulus else c:
                    terms.append((j, scale, shift, r))
            binomials[x, e] = terms
        terms = binomials[x, e]
        if limit is not None:
            lengths = [j for j, *_ in terms]
            formed = sum(
                len(level) * (1 + bisect_right(lengths, degree - n))
                for n, level in enumerate(levels)
            )
            if formed > limit:
                raise ValueError(
                    f"a syllable product would form more than {limit} terms before merging"
                )
        # Longest words first, so every level read is still the old one.
        for n in range(degree, 0, -1):
            target, changed = levels[n], False
            for j, scale, shift, cv in terms:
                if j > n:
                    break
                source = levels[n - j]
                changed = changed or bool(source)
                for c, cu in source.items():
                    w = c * scale + shift
                    target[w] = target.get(w, 0) + cu * cv
            if changed:
                levels[n] = {
                    w: r for w, c in target.items() if (r := c % modulus if modulus else c)
                }
    codes = {w: c for level in levels for w, c in level.items()}
    return TruncatedSeries._from_codes(g.alphabet, modulus, degree, codes)


def eps(g: GroupWord, w: Word, modulus: Optional[int]) -> int:
    """The coefficient of w in the Magnus image of g.

    A residue in 0..modulus-1, or an exact integer when modulus is None.
    """
    if g.alphabet != w.alphabet:
        raise ValueError("group word and word use different alphabets")
    return magnus(g, modulus, len(w)).codes.get(_word_code(w.indices, len(w.alphabet)), 0)


def inner_product(f: TruncatedSeries, q: TruncatedSeries) -> int:
    """Sum of f_w * q_w over all words, reduced mod f.modulus unless exact.

    The polynomial must not reach beyond the series truncation, otherwise
    discarded terms would silently change the answer.
    """
    if f.alphabet != q.alphabet:
        raise ValueError("series and polynomial over different alphabets")
    beyond = math.inf if f.degree is None else _first_code(f.degree + 1, len(f.alphabet))
    if max(q.codes, default=0) >= beyond:
        raise ValueError("polynomial degree exceeds series truncation")
    total = sum(f.codes.get(w, 0) * c for w, c in q.codes.items())
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
    # the words of length s have the codes from ends[s - 1] up to ends[s]
    ends = [_first_code(s, len(g.alphabet)) for s in range(1, n + 1)]
    f = magnus(g, p**n, n - 1).codes
    return all(c % p ** (n - bisect_right(ends, w)) == 0 for w, c in f.items() if w)


def lower_central_test(g: GroupWord, n: int) -> bool:
    """True iff every word of length 1..n-1 has vanishing coefficient.

    Computed over exact integers, so vanishing is certified, not sampled.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return True
    return magnus(g, None, n - 1).codes.keys() <= {0}


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
