"""Elements of a finitely generated free group.

A group word is stored in reduced syllable form: a tuple of
(letter index, nonzero exponent) pairs with no two consecutive syllables
sharing a letter.  Reduction happens on construction, so equal group
elements always compare equal.

The map ``tau`` sends a Lyndon word to an iterated commutator through the
standard factorization; together with p-th power maps these produce the
canonical generating family of each layer of the lower p-central series
(see ``gr_generators``).  ``tau_plan`` lays out that recursion once: the
closure of a set of Lyndon words under standard factorization, shortest
first, with the last use of each factor.  Walks of that plan evaluate
tau homomorphically, one word length at a time, so a caller that only
needs the image of tau(w) never builds the group word: ``tau_images`` in
any target group given the images of the letters (``tau`` itself uses
it in the free group), ``matgrp.tau_power_rows`` on stacks of matrices
and ``pairing._tau_parts`` on the augmentation parts of Magnus series.
``power`` raises an element of any target group by binary powering.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TypeVar

from .words import Alphabet, Word, _standard_cut, is_lyndon, lyndon_words

Syllable = tuple[int, int]
T = TypeVar("T")

# Bounds on the text parse_group_word accepts, so parsing is bounded.
MAX_SYLLABLES = 65_536
MAX_NESTING = 100


def _push(out: list[Syllable], syllables: Iterable[Syllable]) -> list[Syllable]:
    """Append syllables to the reduced stack out, cancelling as they meet."""
    for letter, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == letter:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((letter, merged))
        else:
            out.append((letter, exp))
    return out


@dataclass(frozen=True)
class GroupWord:
    """A reduced word in the free group on an alphabet."""

    alphabet: Alphabet
    syllables: tuple[Syllable, ...]

    def __post_init__(self):
        m = len(self.alphabet)
        object.__setattr__(self, "syllables", tuple(_push([], self.syllables)))
        if any(not (0 <= l < m) for l, _ in self.syllables):
            raise ValueError("letter index out of range")

    def __hash__(self) -> int:
        # Consistent with the generated equality, without hashing the alphabet.
        return hash(self.syllables)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "GroupWord":
        return cls(alphabet, ())

    @classmethod
    def generator(cls, alphabet: Alphabet, letter: str, exp: int = 1) -> "GroupWord":
        return cls(alphabet, ((alphabet.index(letter), exp),))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.alphabet != other.alphabet:
            raise ValueError("cannot multiply words over different alphabets")
        return GroupWord(self.alphabet, self.syllables + other.syllables)

    def inverse(self) -> "GroupWord":
        return GroupWord(
            self.alphabet, tuple((l, -e) for l, e in reversed(self.syllables))
        )

    def __invert__(self) -> "GroupWord":
        return self.inverse()

    def __pow__(self, k: int) -> "GroupWord":
        base = self if k >= 0 else self.inverse()
        return power(base, abs(k), GroupWord.__mul__, GroupWord.identity(self.alphabet))

    def is_identity(self) -> bool:
        return not self.syllables

    def __str__(self) -> str:
        return format_group_word(self)

    def __repr__(self) -> str:
        return f"GroupWord({format_group_word(self)!r})"


def power(a: T, k: int, mul: Callable[[T, T], T], one: T) -> T:
    """a^k, k >= 0, by binary powering; never squares after the last bit."""
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    result = one
    while k:
        if k & 1:
            result = mul(result, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return result


def commutator(g: GroupWord, h: GroupWord) -> GroupWord:
    """[g, h] = g^-1 h^-1 g h."""
    return g.inverse() * h.inverse() * g * h


class TauStep(NamedTuple):
    """One Lyndon word of a ``tau_plan``."""

    word: Word
    factors: Optional[tuple[Word, Word]]  # standard factorization; None for a letter
    last_use: int  # length of the longest word with this one as a factor; 0 if none


def tau_plan(words: Iterable[Word]) -> list[TauStep]:
    """The closure of Lyndon words under standard factorization.

    Each word of the closure appears once, shortest first (then
    alphabetically), so both factors of a word come before it.  A word
    with a nonzero ``last_use`` is a factor of a longer word: only those
    need their inverse, and only until the words of that length are formed.
    The given words are checked to be Lyndon; their factors are Lyndon by
    construction and are split unchecked.
    """
    cuts: dict[tuple[int, ...], int] = {}  # letter indices -> cut; 0 for a letter
    given: dict[tuple[int, ...], Word] = {}
    alphabet = None

    def visit(u: tuple[int, ...]) -> None:
        if u not in cuts:
            cuts[u] = cut = _standard_cut(u) if len(u) > 1 else 0
            if cut:
                visit(u[:cut])
                visit(u[cut:])

    for w in words:
        if w.indices not in given:
            if not is_lyndon(w):
                raise ValueError(f"{w!r} is not a Lyndon word")
            given[w.indices] = w
            alphabet = w.alphabet
            visit(w.indices)
    order = sorted(cuts, key=lambda u: (len(u), u))
    word = {u: given[u] if u in given else Word(alphabet, u) for u in order}
    factors = {u: (word[u[:c]], word[u[c:]]) if (c := cuts[u]) else None for u in order}
    last_use = {f.indices: len(u) for u in order for f in factors[u] or ()}
    return [TauStep(word[u], factors[u], last_use.get(u, 0)) for u in order]


def tau_images(
    words: Iterable[Word],
    letter: Callable[[int], T],
    mul: Callable[[T, T], T],
    inv: Callable[[T], T],
) -> Iterator[tuple[Word, T]]:
    """(w, image of tau(w)) for each Lyndon word w, in any target group.

    ``letter`` maps a letter index to its image.  A single letter maps
    to that image; a longer word splits through its standard
    factorization w = w'w'' and maps to [tau(w'), tau(w'')].  The
    ``tau_plan`` of words is walked one word length at a time, as
    ``matgrp.tau_power_rows`` does: each factor's (image, inverse) pair
    is formed once and dropped after its last use, and inv([a, b]) =
    [b, a], so only letters are ever inverted.  Each distinct word is
    yielded once, as soon as it is formed: shortest first.
    """
    words = list(words)
    wanted = set(words)
    pairs: dict[Word, tuple[T, T]] = {}
    expiring: dict[int, list[Word]] = {}  # last use -> factors to drop after it

    def bracket(u: Word, v: Word) -> T:
        (a, a_inv), (b, b_inv) = pairs[u], pairs[v]
        return mul(mul(a_inv, b_inv), mul(a, b))

    for length, level in groupby(tau_plan(words), key=lambda step: len(step.word)):
        for step in level:
            if step.factors is None:
                image = letter(step.word.indices[0])
            else:
                image = bracket(*step.factors)
            if step.last_use:
                inverse = inv(image) if step.factors is None else bracket(*step.factors[::-1])
                pairs[step.word] = (image, inverse)
                expiring.setdefault(step.last_use, []).append(step.word)
            if step.word in wanted:
                yield step.word, image
        for u in expiring.pop(length, ()):
            del pairs[u]


def tau(w: Word) -> GroupWord:
    """The iterated commutator attached to a Lyndon word, as a group word."""

    def letter(i: int) -> GroupWord:
        return GroupWord(w.alphabet, ((i, 1),))

    ((_, image),) = tau_images([w], letter, GroupWord.__mul__, GroupWord.inverse)
    return image


def gr_generators(
    n: int, p: int, alphabet: Alphabet
) -> list[tuple[Word, GroupWord]]:
    """Canonical generators of the n-th layer of the lower p-central series.

    Returns pairs (w, tau(w)^(p^(n-|w|))) for Lyndon words w of length at
    most n, in preceq order.  These generate the quotient of the n-th term
    by the (n+1)-st.
    """
    if n < 1:
        raise ValueError("layer index must be positive")
    if p < 2:
        raise ValueError("p must be at least 2")
    return [(w, tau(w) ** (p ** (n - len(w)))) for w in lyndon_words(alphabet, n)]


def format_group_word(g: GroupWord) -> str:
    """Serialize as space-separated tokens with caret exponents."""
    if not g.syllables:
        return "1"
    parts = []
    for letter, exp in g.syllables:
        name = g.alphabet.letters[letter]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


def _tokenize(text: str) -> Iterator[str]:
    # Insert spaces around brackets so "[x,y]" and "[ x , y ]" read the same.
    for ch in "[],":
        text = text.replace(ch, f" {ch} ")
    yield from text.split()


def parse_group_word(alphabet: Alphabet, text: str) -> GroupWord:
    """Parse "x^-1 y x y^3", "[x,y]^2", "1", and nestings thereof.

    Tokens are letters with optional caret exponents; square brackets with a
    comma build commutators and may be nested and carry exponents.  Text
    that nests brackets deeper than MAX_NESTING, or whose reduced word or
    any reduced subword would exceed MAX_SYLLABLES syllables, raises
    ValueError before that word is built.
    """
    tokens = list(_tokenize(text))
    shown = repr(text if len(text) <= 60 else text[:57] + "...")
    depths = accumulate((t == "[") - (t == "]") for t in tokens)
    if max(depths, default=0) > MAX_NESTING:
        raise ValueError(f"group word {shown} nests brackets deeper than {MAX_NESTING}")

    def capped(syllables: int) -> None:
        if syllables > MAX_SYLLABLES:
            raise ValueError(
                f"group word {shown} expands to more than {MAX_SYLLABLES} syllables"
            )

    if tokens == ["1"]:
        return GroupWord.identity(alphabet)
    pos = 0

    def parse_sequence(stop: set[str]) -> GroupWord:
        nonlocal pos
        syllables: list[Syllable] = []
        while pos < len(tokens) and tokens[pos] not in stop:
            capped(len(_push(syllables, parse_factor().syllables)))
        return GroupWord(alphabet, tuple(syllables))

    def parse_factor() -> GroupWord:
        nonlocal pos
        token = tokens[pos]
        if token == "[":
            pos += 1
            left = parse_sequence({","})
            if pos >= len(tokens) or tokens[pos] != ",":
                raise ValueError("commutator bracket needs a comma")
            pos += 1
            right = parse_sequence({"]"})
            if pos >= len(tokens) or tokens[pos] != "]":
                raise ValueError("unclosed commutator bracket")
            pos += 1
            base = commutator(left, right)
            k = _trailing_exponent()
            if abs(k) > 1:
                # Each further copy of base reduces against its neighbour
                # as the second does: |base^k| = |b| + (|k|-1)(|b^2| - |b|).
                one = len(base.syllables)
                capped(one + (abs(k) - 1) * (len((base * base).syllables) - one))
            return base ** k
        if token in {"]", ","}:
            raise ValueError(f"unexpected {token!r}")
        pos += 1
        name, caret, exp_text = token.partition("^")
        if name == "1" and not caret:
            return GroupWord.identity(alphabet)
        if name not in alphabet:
            raise ValueError(f"unknown letter {name!r}")
        exp = 1
        if caret:
            try:
                exp = int(exp_text)
            except ValueError:
                raise ValueError(f"bad exponent in {token!r}") from None
        return GroupWord.generator(alphabet, name, exp)

    def _trailing_exponent() -> int:
        nonlocal pos
        if pos < len(tokens) and tokens[pos].startswith("^"):
            text = tokens[pos][1:]
            pos += 1
            try:
                return int(text)
            except ValueError:
                raise ValueError(f"bad exponent {text!r}") from None
        return 1

    result = parse_sequence(set())
    if pos != len(tokens):
        raise ValueError("trailing tokens in group word")
    return result
