"""Free-group words: reduction, arithmetic, commutators, tau, generators."""

import operator
import random
from itertools import accumulate

import pytest

import lynmag.freegrp as freegrp
from lynmag.freegrp import (
    MAX_NESTING,
    MAX_SYLLABLES,
    GroupWord,
    commutator,
    format_group_word,
    gr_generators,
    parse_group_word,
    power,
    tau,
    tau_images,
    tau_plan,
)
from lynmag.matgrp import UnipotentMatrix
from lynmag.series import TruncatedSeries, magnus, series_invert, series_pow
from lynmag.words import Alphabet, lyndon_words, standard_factorization

XY = Alphabet("xy")
XYZ = Alphabet("xyz")


def gw(text: str, alphabet: Alphabet = XY) -> GroupWord:
    return parse_group_word(alphabet, text)


def random_word(rng: random.Random, alphabet: Alphabet, max_letters: int) -> GroupWord:
    k = rng.randint(0, max_letters)
    syllables = tuple(
        (rng.randrange(len(alphabet)), rng.choice((1, -1))) for _ in range(k)
    )
    return GroupWord(alphabet, syllables)


class TestReduction:
    def test_cancellation(self):
        assert gw("x x^-1").is_identity()
        assert gw("x x") == gw("x^2")
        assert gw("x y", XYZ) * gw("y^-1 z", XYZ) == gw("x z", XYZ)

    def test_cascading_cancellation(self):
        assert (gw("x y") * gw("y^-1 x^-1")).is_identity()

    def test_zero_exponents_dropped(self):
        assert GroupWord(XY, ((0, 0), (1, 2))) == gw("y^2")

    def test_run_merge_on_construction(self):
        assert GroupWord(XY, ((0, 1), (0, 2), (1, -1))) == gw("x^3 y^-1")


class TestArithmetic:
    def test_inverse_examples(self):
        assert gw("x y").inverse() == gw("y^-1 x^-1")
        assert GroupWord.identity(XY).inverse().is_identity()
        assert gw("x^2").inverse() == gw("x^-2")

    def test_commutator_examples(self):
        c = commutator(gw("x"), gw("y"))
        assert c == gw("x^-1 y^-1 x y")
        assert len(c.syllables) == 4
        assert commutator(gw("x"), gw("x")).is_identity()
        assert commutator(gw("x"), GroupWord.identity(XY)).is_identity()

    def test_power_examples(self):
        assert gw("x") ** 9 == gw("x^9")
        assert (commutator(gw("x"), gw("y")) ** 0).is_identity()
        assert gw("x y") ** 2 == gw("x y x y")
        assert gw("x y") ** -1 == gw("y^-1 x^-1")

    def test_power_matches_repeated_product(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_word(rng, XYZ, 6)
            acc = GroupWord.identity(XYZ)
            for k in range(4):
                assert g**k == acc
                assert g**-k == acc.inverse()
                acc = acc * g

    def test_group_axioms_randomized(self):
        rng = random.Random(20260817)
        for _ in range(1000):
            g = random_word(rng, XYZ, 8)
            h = random_word(rng, XYZ, 8)
            k = random_word(rng, XYZ, 8)
            assert (g * h) * k == g * (h * k)
            assert (g * g.inverse()).is_identity()
            assert g.inverse().inverse() == g
            assert g * GroupWord.identity(XYZ) == g

    def test_mismatched_alphabets(self):
        with pytest.raises(ValueError):
            gw("x") * gw("x", XYZ)


class TestPower:
    """``power``, the binary powering behind ``GroupWord`` ``**``.
    ``series_pow`` and ``UnipotentMatrix`` ``**`` take the binomial
    series instead and must give the same values."""

    def cases(self):
        rng = random.Random(3)
        g = random_word(rng, XYZ, 5) * gw("x y^-1 z", XYZ)
        f = magnus(g, 27, 4)
        a = UnipotentMatrix(4, 27, [rng.randrange(27) for _ in range(6)])
        return [
            (g, GroupWord.identity(XYZ), GroupWord.__pow__),
            (f, TruncatedSeries.one(XYZ, 27, 4), series_pow),
            (a, UnipotentMatrix.identity(4, 27), UnipotentMatrix.__pow__),
        ]

    def test_matches_repeated_product(self):
        for base, one, pow_ in self.cases():
            acc = one
            for k in range(21):
                assert power(base, k, operator.mul, one) == acc
                assert pow_(base, k) == acc
                acc = acc * base

    def test_negative_exponent_inverts(self):
        for base, one, pow_ in self.cases():
            for k in range(1, 21):
                assert pow_(base, -k) * pow_(base, k) == one

    def test_never_squares_after_the_last_bit(self):
        for k in range(21):
            products = []
            power(2, k, lambda a, b: products.append((a, b)) or a * b, 1)
            squarings = max(k.bit_length() - 1, 0)
            assert len(products) == squarings + bin(k).count("1")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            power(2, -1, operator.mul, 1)


class TestTauPlan:
    def test_closure_shortest_first_factors_before_words(self):
        ws = [XYZ.word(t) for t in ("xyzz", "y", "xyy", "xyzz", "xz")]
        plan = tau_plan(ws)
        order = [step.word for step in plan]
        assert len(set(order)) == len(order)
        assert [len(u) for u in order] == sorted(len(u) for u in order)
        assert set(ws) <= set(order)
        for step in plan:
            if len(step.word) == 1:
                assert step.factors is None
            else:
                assert step.factors == standard_factorization(step.word)
                assert all(order.index(f) < order.index(step.word) for f in step.factors)
        assert {str(u) for u in order} == {"x", "y", "z", "xy", "xz", "yz", "xyy", "yzz", "xyzz"}

    def test_last_use_is_longest_word_using_the_factor(self):
        plan = tau_plan(lyndon_words(XY, 5))
        users = {}
        for step in plan:
            for f in step.factors or ():
                users.setdefault(f, []).append(len(step.word))
        for step in plan:
            assert step.last_use == max(users.get(step.word, [0]))

    def test_rejects_non_lyndon(self):
        with pytest.raises(ValueError, match="not a Lyndon word"):
            tau_plan([XY.word("x"), XY.word("yx")])


class TestTauImages:
    def test_group_word_target_is_tau(self):
        words = lyndon_words(XYZ, 4)
        letter = lambda i: GroupWord(XYZ, ((i, 1),))
        images = dict(tau_images(words, letter, GroupWord.__mul__, GroupWord.inverse))
        assert images == {w: tau(w) for w in words}

    def test_series_target_is_magnus_of_tau(self):
        # Evaluating in the series ring is the Magnus image: a homomorphism.
        words = lyndon_words(XY, 5)[::-1]
        letter = lambda i: TruncatedSeries(XY, 27, 5, {(): 1, (i,): 1})
        images = dict(tau_images(words, letter, lambda a, b: a * b, series_invert))
        assert images == {w: magnus(tau(w), 27, 5) for w in words}

    def test_each_word_once_shortest_first(self):
        # Repeated, unsorted words come out once each, in plan order.
        words = [XYZ.word(t) for t in ("xyzz", "y", "xyy", "xyzz", "xz", "y", "xyy")]
        letter = lambda i: GroupWord(XYZ, ((i, 1),))
        images = list(tau_images(words, letter, GroupWord.__mul__, GroupWord.inverse))
        plan = [step.word for step in tau_plan(words)]
        assert [w for w, _ in images] == [w for w in plan if w in set(words)]
        assert sorted(map(str, (w for w, _ in images))) == ["xyy", "xyzz", "xz", "y"]
        assert all(image == tau(w) for w, image in images)

    def test_letters_inverted_once_per_call(self):
        inverted = []

        def inv(g):
            inverted.append(g)
            return g.inverse()

        letter = lambda i: GroupWord(XY, ((i, 1),))
        list(tau_images(lyndon_words(XY, 5), letter, GroupWord.__mul__, inv))
        assert sorted(map(str, inverted)) == ["x", "y"]

    def test_rejects_non_lyndon(self):
        with pytest.raises(ValueError, match="not a Lyndon word"):
            list(tau_images([XY.word("yx")], str, str.__add__, str))


class TestTau:
    def test_single_letters(self):
        assert tau(XY.word("x")) == gw("x")
        assert tau(XY.word("y")) == gw("y")

    def test_pinned_table(self):
        x, y = gw("x"), gw("y")
        assert tau(XY.word("xy")) == commutator(x, y)
        assert tau(XY.word("xxy")) == commutator(x, commutator(x, y))
        assert tau(XY.word("xyy")) == commutator(commutator(x, y), y)
        xz, yz = gw("x", XYZ), gw("y", XYZ)
        zz = gw("z", XYZ)
        assert tau(XYZ.word("xyz")) == commutator(xz, commutator(yz, zz))
        assert tau(XYZ.word("xzy")) == commutator(commutator(xz, zz), yz)

    def test_rejects_non_lyndon(self):
        with pytest.raises(ValueError):
            tau(XY.word("yx"))
        with pytest.raises(ValueError):
            tau(XY.word(""))


class TestGenerators:
    def test_n2_p3_two_letters(self):
        gens = gr_generators(2, 3, XY)
        expected = [
            (XY.word("x"), gw("x^3")),
            (XY.word("y"), gw("y^3")),
            (XY.word("xy"), commutator(gw("x"), gw("y"))),
        ]
        assert gens == expected

    def test_n3_three_letters_entries(self):
        gens = dict(gr_generators(3, 3, XYZ))
        assert gens[XYZ.word("x")] == gw("x^9", XYZ)
        assert gens[XYZ.word("xy")] == commutator(gw("x", XYZ), gw("y", XYZ)) ** 3
        assert gens[XYZ.word("xzy")] == tau(XYZ.word("xzy"))

    def test_n1_is_letter_list(self):
        assert gr_generators(1, 5, XY) == [
            (XY.word("x"), gw("x")),
            (XY.word("y"), gw("y")),
        ]

    def test_preceq_order(self):
        words = [w for w, _ in gr_generators(3, 2, XY)]
        keys = [(len(w), w.indices) for w in words]
        assert keys == sorted(keys)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            gr_generators(0, 3, XY)
        with pytest.raises(ValueError):
            gr_generators(2, 1, XY)


class TestSerialization:
    def test_format_examples(self):
        assert format_group_word(gw("x^-1 y x y^3")) == "x^-1 y x y^3"
        assert format_group_word(GroupWord.identity(XY)) == "1"
        assert str(gw("x x x")) == "x^3"

    def test_parse_commutators(self):
        assert gw("[x,y]") == gw("x^-1 y^-1 x y")
        assert gw("[x, y]^2") == commutator(gw("x"), gw("y")) ** 2
        assert gw("[[x,y],z]", XYZ) == commutator(
            commutator(gw("x", XYZ), gw("y", XYZ)), gw("z", XYZ)
        )
        assert gw("[x y, z]", XYZ) == commutator(gw("x y", XYZ), gw("z", XYZ))
        assert gw("1").is_identity()

    def test_parse_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_word(rng, XYZ, 10)
            assert parse_group_word(XYZ, format_group_word(g)) == g

    def test_parse_errors(self):
        for bad in ["q", "[x,y", "[x y]", "x^a", "x ) y", "[x,y] ]"]:
            with pytest.raises(ValueError):
                gw(bad)


class TestInputBounds:
    def test_power_counted_after_reduction(self):
        # [x y x^-1, x z x^-1]^k reduces to x (y^-1 z^-1 y z)^k x^-1: 4k + 2
        # syllables, not k times the 6 of its base.
        k = (MAX_SYLLABLES - 2) // 4
        g = gw(f"[x y x^-1, x z x^-1]^{k}", XYZ)
        assert len(g.syllables) == 4 * k + 2 <= MAX_SYLLABLES
        with pytest.raises(ValueError, match="syllables"):
            gw(f"[x y x^-1, x z x^-1]^-{k + 1}", XYZ)

    def test_products_and_nested_commutators_capped(self):
        k = MAX_SYLLABLES // 4
        assert len(gw(f"[x,y]^{k}").syllables) == MAX_SYLLABLES
        with pytest.raises(ValueError, match="syllables"):
            gw(f"[x,y]^{k} x")
        with pytest.raises(ValueError, match="syllables"):
            gw("[" * 22 + "x,y]" + ",y]" * 21)

    def test_nesting_depth(self):
        trivial = "[" * MAX_NESTING + "x,x]" + ",x]" * (MAX_NESTING - 1)
        assert gw(trivial).is_identity()
        with pytest.raises(ValueError, match="nests brackets"):
            gw("[" + trivial + ",x]")


def parse_reference(alphabet: Alphabet, text: str) -> GroupWord:
    """``parse_group_word`` forming one product per factor, capped after each."""
    spaced = text
    for ch in "[],":
        spaced = spaced.replace(ch, f" {ch} ")
    tokens = spaced.split()
    shown = repr(text if len(text) <= 60 else text[:57] + "...")
    if max(accumulate((t == "[") - (t == "]") for t in tokens), default=0) > freegrp.MAX_NESTING:
        raise ValueError(f"group word {shown} nests brackets deeper than {freegrp.MAX_NESTING}")

    def capped(n):
        if n > freegrp.MAX_SYLLABLES:
            raise ValueError(
                f"group word {shown} expands to more than {freegrp.MAX_SYLLABLES} syllables"
            )

    if tokens == ["1"]:
        return GroupWord.identity(alphabet)
    pos = 0

    def sequence(stop):
        nonlocal pos
        result = GroupWord.identity(alphabet)
        while pos < len(tokens) and tokens[pos] not in stop:
            result = result * factor()
            capped(len(result.syllables))
        return result

    def expect(token, message):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != token:
            raise ValueError(message)
        pos += 1

    def factor():
        nonlocal pos
        token = tokens[pos]
        if token in {"]", ","}:
            raise ValueError(f"unexpected {token!r}")
        pos += 1
        if token == "[":
            left = sequence({","})
            expect(",", "commutator bracket needs a comma")
            right = sequence({"]"})
            expect("]", "unclosed commutator bracket")
            base, k = commutator(left, right), 1
            if pos < len(tokens) and tokens[pos].startswith("^"):
                pos += 1
                try:
                    k = int(tokens[pos - 1][1:])
                except ValueError:
                    raise ValueError(f"bad exponent {tokens[pos - 1][1:]!r}") from None
            if abs(k) > 1:
                one = len(base.syllables)
                capped(one + (abs(k) - 1) * (len((base * base).syllables) - one))
            return base**k
        name, caret, exp = token.partition("^")
        if name == "1" and not caret:
            return GroupWord.identity(alphabet)
        if name not in alphabet:
            raise ValueError(f"unknown letter {name!r}")
        try:
            return GroupWord.generator(alphabet, name, int(exp) if caret else 1)
        except ValueError:
            raise ValueError(f"bad exponent in {token!r}") from None

    result = sequence(set())
    if pos != len(tokens):
        raise ValueError("trailing tokens in group word")
    return result


def random_text(rng: random.Random) -> str:
    tokens = []
    for _ in range(rng.randint(0, 24)):
        r = rng.random()
        if r < 0.6:
            letter = rng.choice("xyzq1")
            e = rng.choice(["", "", f"^{rng.randint(-3, 3)}", f"^{rng.randint(-50, 50)}", "^a"])
            tokens.append(letter + e)
        elif r < 0.75:
            tokens.append("[")
        elif r < 0.85:
            tokens.append(",")
        else:
            tokens.append(rng.choice(["]", "]", f"]^{rng.randint(-4, 4)}", "]^b"]))
    return " ".join(tokens)


class TestParseSequence:
    """Each sequence is one reduced stack; caps see the same lengths as before."""

    @staticmethod
    def outcome(parse, text):
        try:
            return parse(XYZ, text).syllables
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize("cap", [6, 12, MAX_SYLLABLES])
    def test_random_texts_match_reference(self, cap, monkeypatch):
        monkeypatch.setattr(freegrp, "MAX_SYLLABLES", cap)
        monkeypatch.setattr(freegrp, "MAX_NESTING", 3)
        rng = random.Random(cap)
        outcomes = set()
        for _ in range(3000):
            text = random_text(rng)
            got = self.outcome(parse_group_word, text)
            assert got == self.outcome(parse_reference, text), text
            outcomes.add(type(got) if not isinstance(got, str) else got.split()[0])
        assert tuple in outcomes and "group" in outcomes  # words, and cap errors

    def test_cap_is_checked_after_each_factor(self):
        # The reduced prefix is checked, not only the final word.
        body = "x y " * (MAX_SYLLABLES // 2)
        assert len(gw(body).syllables) == MAX_SYLLABLES
        assert len(gw(body + "y^-1 x^-1").syllables) == MAX_SYLLABLES - 2
        with pytest.raises(ValueError, match=f"more than {MAX_SYLLABLES} syllables"):
            gw(body + "x x^-1")

    def test_subwords_capped_inside_brackets(self, monkeypatch):
        # Both left sides reduce to x y; only the second passes through
        # 9 syllables on the way.
        monkeypatch.setattr(freegrp, "MAX_SYLLABLES", 8)
        back = " y^-1 x^-1" * 3
        ok = f"[x y x y x y x y{back}, z]"
        assert self.outcome(parse_group_word, ok) == self.outcome(parse_reference, ok)
        assert gw(ok, XYZ) == commutator(gw("x y", XYZ), gw("z", XYZ))
        with pytest.raises(ValueError, match="more than 8 syllables"):
            gw(f"[x y x y x y x y x x^-1{back}, z]", XYZ)

    def test_nesting_cap_matches_reference(self):
        for depth in (MAX_NESTING, MAX_NESTING + 1):
            text = "[" * depth + "x,y]" + ",x]" * (depth - 1)
            assert self.outcome(parse_group_word, text) == self.outcome(parse_reference, text)
