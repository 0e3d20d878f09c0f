"""Words over a finite ordered alphabet and Lyndon combinatorics.

Two total orders matter here.  Alphabetical (``alp``) order is the usual
dictionary order in which a word precedes every word it is a proper prefix
of; otherwise the first differing letter decides.  It is exactly tuple
comparison of letter indices, so words compare through ``Word.indices``.
The ``preceq`` order sorts by length first and alphabetically within a
length; ``preceq_key`` is its sort key.

``Word(alphabet, indices)`` checks every index; ``Word._trusted`` checks nothing
and builds only the words of ``Alphabet.word`` and ``lyndon_words``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ConsistencyError


class Alphabet:
    """A finite ordered set of letters.

    The order in which ``letters`` are given is the alphabet order; every
    word comparison in this package derives from it.  Letters are nonempty
    strings, usually single characters.  Two alphabets with the same letter
    sequence compare equal and are interchangeable.
    """

    __slots__ = ("letters", "_index", "_sep")

    def __init__(self, letters: Iterable[str]):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must be nonempty")
        if any(not isinstance(l, str) or not l for l in letters):
            raise ValueError("letters must be nonempty strings")
        if len(set(letters)) != len(letters):
            raise ValueError("letters must be distinct")
        self.letters = letters
        self._index = {l: i for i, l in enumerate(letters)}
        # Words are serialized by plain concatenation unless some letter
        # has several characters; then tokens are joined by a middle dot.
        self._sep = "" if all(len(l) == 1 for l in letters) else "·"

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self._index

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Alphabet) and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.letters)!r})"

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} not in alphabet") from None

    def _spell(self, key: tuple[int, ...]) -> str:
        # The serialized form of the word with these letter indices.
        return self._sep.join([self.letters[i] for i in key])

    def word(self, text: str) -> "Word":
        """Parse a word from its serialized form.

        Single-character alphabets concatenate letters ("xxy"); alphabets
        with any multi-character letter join tokens with a middle dot.
        The empty string is the empty word.
        """
        tokens = text.split("·") if self._sep or "·" in text else text
        return Word._trusted(self, tuple(map(self.index, tokens)) if text else ())


@dataclass(frozen=True)
class Word:
    """An immutable word, stored as a tuple of letter indices."""

    alphabet: Alphabet
    indices: tuple[int, ...]

    def __post_init__(self):
        m = len(self.alphabet)
        if any(not (0 <= i < m) for i in self.indices):
            raise ValueError("letter index out of range")

    @classmethod
    def _trusted(cls, alphabet: Alphabet, indices: tuple[int, ...]) -> "Word":
        # Unchecked: the caller vouches that every index lies in the alphabet.
        w = object.__new__(cls)
        w.__dict__.update(alphabet=alphabet, indices=indices)
        return w

    def __hash__(self) -> int:
        # Consistent with the generated equality, without hashing the alphabet.
        return hash(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, item) -> "Word":
        if isinstance(item, slice):
            return Word(self.alphabet, self.indices[item])
        return Word(self.alphabet, (self.indices[item],))

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.indices + other.indices)

    def __str__(self) -> str:
        return self.alphabet._spell(self.indices)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(self.alphabet.letters[i] for i in self.indices)

    def letter_set(self) -> frozenset[int]:
        return frozenset(self.indices)


def preceq_key(w: Word) -> tuple[int, tuple[int, ...]]:
    return (len(w.indices), w.indices)


def is_lyndon(w: Word) -> bool:
    """True iff ``w`` is nonempty and strictly alp-smaller than every proper
    nontrivial suffix (equivalently, strictly minimal among its rotations)."""
    u = w.indices
    if not u:
        return False
    return all(u < u[i:] for i in range(1, len(u)))


def all_words(alphabet: Alphabet, length: int) -> Iterator[Word]:
    """All words of exactly ``length`` letters, in alphabetical order."""
    for t in itertools.product(range(len(alphabet)), repeat=length):
        yield Word(alphabet, t)


def _duval(num_letters: int, max_len: int) -> Iterator[tuple[int, ...]]:
    # Duval's algorithm: Lyndon words of length <= max_len in alp order.
    if max_len <= 0:
        return
    w = [0]
    while True:
        yield tuple(w)
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == num_letters - 1:
            w.pop()
        if not w:
            return
        w[-1] += 1


def lyndon_words(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All Lyndon words of length <= max_len, sorted in preceq order."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    found = [Word._trusted(alphabet, t) for t in _duval(len(alphabet), max_len)]
    found.sort(key=preceq_key)
    return found


def divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    """The Moebius function: (-1)^k on squarefree n with k prime factors, else 0."""
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def necklace(n: int, m: int) -> int:
    """Number of Lyndon words of length n over m letters (Witt's formula)."""
    if n < 1:
        raise ValueError("word length must be positive")
    if m < 0:
        raise ValueError("alphabet size must be nonnegative")
    total = sum(mobius(d) * m ** (n // d) for d in divisors(n))
    if total % n:
        raise ConsistencyError(f"necklace sum {total} for n={n}, m={m} is not divisible by n")
    return total // n


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split a Lyndon word of length >= 2 as w = left + right, where right is
    the alphabetically least proper nontrivial suffix.

    Both factors are again Lyndon and left < right alphabetically.
    """
    if not is_lyndon(w):
        raise ValueError(f"{w!r} is not a Lyndon word")
    if len(w) < 2:
        raise ValueError("need length >= 2 to factor")
    u = w.indices
    cut = _standard_cut(u)
    return Word(w.alphabet, u[:cut]), Word(w.alphabet, u[cut:])


def _lyndon_factors(u: tuple[int, ...]) -> list[tuple[int, ...]]:
    # Duval's factorization of letter indices into Lyndon words
    # l1 >= l2 >= ... >= lk (Chen-Fox-Lyndon), in linear time.
    factors = []
    i, n = 0, len(u)
    while i < n:
        j, k = i + 1, i
        while j < n and u[k] <= u[j]:
            k = i if u[k] < u[j] else k + 1
            j += 1
        while i <= k:
            factors.append(u[i : i + j - k])
            i += j - k
    return factors


def _standard_cut(u: tuple[int, ...]) -> int:
    # Where the standard factorization splits the letter indices of a
    # Lyndon word of length >= 2: the start of its least proper suffix.
    # Unchecked, for words that are Lyndon by construction.
    return min(range(1, len(u)), key=lambda i: u[i:])
