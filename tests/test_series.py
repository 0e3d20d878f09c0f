"""Truncated series arithmetic, the Magnus map, eps, Koch tests, P_w."""

import math
import operator
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

import lynmag.freegrp as freegrp
import lynmag.series as series_mod
from lynmag.freegrp import (
    GroupWord,
    commutator,
    parse_group_word,
    power,
    tau,
)
from lynmag.series import (
    TruncatedSeries,
    _word_code,
    balanced,
    eps,
    inner_product,
    is_prime,
    koch_test,
    lower_central_test,
    magnus,
    p_poly,
    prime_power,
    series_invert,
    series_pow,
)
from lynmag.words import Alphabet, Word

XY = Alphabet("xy")
XYZ = Alphabet("xyz")


def gw(text: str, alphabet: Alphabet = XY) -> GroupWord:
    return parse_group_word(alphabet, text)


def ts(alphabet, modulus, degree, text_coeffs: dict) -> TruncatedSeries:
    coeffs = {alphabet.word(w).indices: c for w, c in text_coeffs.items()}
    return TruncatedSeries(alphabet, modulus, degree, coeffs)


def poly(alphabet, text_coeffs: dict) -> TruncatedSeries:
    """An untruncated exact polynomial."""
    return ts(alphabet, None, None, text_coeffs)


def random_word(rng: random.Random, alphabet: Alphabet, max_letters: int) -> GroupWord:
    k = rng.randint(0, max_letters)
    return GroupWord(
        alphabet,
        tuple((rng.randrange(len(alphabet)), rng.choice((1, -1))) for _ in range(k)),
    )


class TestModularBasics:
    def test_is_prime(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_prime_power(self):
        assert prime_power(8) == (2, 3)
        assert prime_power(7) == (7, 1)
        assert prime_power(125) == (5, 3)
        for bad in (1, 6, 12, 100):
            with pytest.raises(ValueError):
                prime_power(bad)

    def test_balanced(self):
        assert balanced(12, 5) == 2
        assert balanced(-1, 9) == -1
        assert balanced(8, 9) == -1
        assert balanced(4, 9) == 4
        assert balanced(1, 2) == 1  # ties stay positive

    def test_modulus_checked_at_every_entry(self):
        # A memoized check must still raise on every call, not only the first.
        for _ in range(2):
            with pytest.raises(ValueError):
                TruncatedSeries(XY, 6, 2)
            with pytest.raises(ValueError):
                magnus(gw("x y"), 6, 2)


class TestBoundaryChecks:
    """Public entry points keep their messages; internal builders trust their caller."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TruncatedSeries(XY, 12, 3), "12 is not a prime power"),
            (lambda: TruncatedSeries(XY, 9, -1), "truncation degree must be nonnegative"),
            (lambda: TruncatedSeries(XY, 9, 3, {(0, 2): 1}), "letter index out of range"),
            (lambda: magnus(gw("x y"), 12, 3), "12 is not a prime power"),
            (lambda: magnus(gw("x y"), 9, -1), "truncation degree must be nonnegative"),
            (lambda: XY.word("xq"), "letter 'q' not in alphabet"),
            (lambda: Alphabet(["ab", "cd"]).word("ab·c"), "letter 'c' not in alphabet"),
        ],
    )
    def test_public_entry_points_keep_their_messages(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message

    def test_unchecked_series_equals_the_checked_one(self):
        checked = ts(XY, 27, 3, {"": 1, "x": 4, "xy": -2, "yxy": 30})
        trusted = TruncatedSeries._from_codes(XY, 27, 3, dict(checked.codes))
        assert trusted == checked and checked == trusted
        assert (trusted.coeffs, trusted.terms(), str(trusted)) == (
            checked.coeffs, checked.terms(), str(checked),
        )
        assert trusted * checked == checked * checked
        with pytest.raises(AttributeError, match="immutable"):
            trusted.degree = 4

    def test_unchecked_word_equals_the_checked_one(self):
        for text in ("", "x", "yxy"):
            checked = Word(XY, tuple(XY.index(l) for l in text))
            trusted = Word._trusted(XY, checked.indices)
            assert trusted == checked and hash(trusted) == hash(checked)
            assert XY.word(text) == checked and hash(XY.word(text)) == hash(checked)
            assert len({trusted, checked}) == 1
        ab = Alphabet(["ab", "c"])
        assert ab.word("ab·c") == Word(ab, (0, 1)) and str(ab.word("c·ab")) == "c·ab"


class TestSeriesArithmetic:
    def test_mul_distributes(self):
        one_x = ts(XY, None, 2, {"": 1, "x": 1})
        one_y = ts(XY, None, 2, {"": 1, "y": 1})
        assert one_x * one_y == ts(XY, None, 2, {"": 1, "x": 1, "y": 1, "xy": 1})

    def test_geometric_inverse_pair(self):
        one_x = ts(XY, None, 2, {"": 1, "x": 1})
        alt = ts(XY, None, 2, {"": 1, "x": -1, "xx": 1})
        assert one_x * alt == TruncatedSeries.one(XY, None, 2)

    def test_noncommutative(self):
        x = ts(XY, None, 2, {"x": 1})
        y = ts(XY, None, 2, {"y": 1})
        assert x * y != y * x
        assert x * y == ts(XY, None, 2, {"xy": 1})

    def test_truncation_drops_long_words(self):
        f = ts(XY, None, 1, {"x": 1})
        assert (f * f).coeffs == {}
        assert ts(XY, None, 1, {"xy": 5}).coeffs == {}

    def test_canonical_form(self):
        f = ts(XY, 9, 2, {"x": 9, "y": 10})
        assert f == ts(XY, 9, 2, {"y": 1})
        g = ts(XY, None, 2, {"": 1, "x": 1})
        assert (g - g).coeffs == {}

    def test_associativity_randomized(self):
        rng = random.Random(3)
        keys = [(), (0,), (1,), (0, 1), (1, 0), (0, 0)]
        def rand_series():
            return TruncatedSeries(
                XY, 27, 3, {k: rng.randrange(27) for k in rng.sample(keys, 4)}
            )
        for _ in range(100):
            f, g, h = rand_series(), rand_series(), rand_series()
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_letter_index_out_of_range(self):
        # with codes as keys, (2,) over two letters would read as xx
        for key in [(2,), (0, -1)]:
            with pytest.raises(ValueError, match="letter index out of range"):
                TruncatedSeries(XY, None, None, {key: 1})

    def test_mismatch_errors(self):
        f = ts(XY, 9, 2, {"x": 1})
        with pytest.raises(ValueError):
            f * ts(XY, 27, 2, {"x": 1})
        with pytest.raises(ValueError):
            f * ts(XY, 9, 3, {"x": 1})
        with pytest.raises(ValueError):
            f * ts(XYZ, 9, 2, {"x": 1})
        with pytest.raises(ValueError):
            f * ts(XY, 9, None, {"x": 1})

    def test_untruncated_keeps_every_degree(self):
        x = poly(XY, {"x": 1})
        one_x = poly(XY, {"": 1, "x": 1})
        assert (x * x * x).coeffs == {(0, 0, 0): 1}
        assert one_x * one_x == poly(XY, {"": 1, "x": 2, "xx": 1})
        assert series_pow(one_x, 3).coeffs[(0, 0, 0)] == 1
        with pytest.raises(ValueError):
            series_invert(one_x)


def tuple_product(terms, degree, modulus):
    """The sum of c f g over (c, f, g) in terms on word-keyed maps, truncated above
    degree (None: untruncated), zeros dropped, reduced mod modulus unless None."""
    cap = math.inf if degree is None else degree
    out = {}
    for c, f, g in terms:
        for u, cu in f.items():
            for v, cv in g.items():
                if len(u) + len(v) <= cap:
                    out[u + v] = out.get(u + v, 0) + c * cu * cv
    return {w: r for w, x in out.items() if (r := x % modulus if modulus else x)}


def encoded(coeffs, m):
    return {_word_code(k, m): c for k, c in coeffs.items()}


KERNEL_ALPHABETS = [Alphabet(("x",)), Alphabet(("x", "yy")), Alphabet(("a1", "b", "c")), Alphabet("xyzt")]


@st.composite
def word_maps(draw, alphabet, top=5):
    m = len(alphabet)
    keys = st.lists(st.integers(0, m - 1), max_size=top).map(tuple)
    values = st.one_of(st.integers(-5, 5), st.integers(-(10**25), 10**25))
    return draw(st.dictionaries(keys, values, max_size=8))


@st.composite
def kernel_cases(draw):
    alphabet = draw(st.sampled_from(KERNEL_ALPHABETS))
    modulus = draw(st.sampled_from([None, 9, 13**3, 2**64]))
    degree = draw(st.one_of(st.none(), st.integers(0, 8)))
    f = TruncatedSeries(alphabet, modulus, degree, draw(word_maps(alphabet)))
    g = TruncatedSeries(alphabet, modulus, degree, draw(word_maps(alphabet)))
    return f, g


class TestCodeKernel:
    """The one truncated product on code maps against word-keyed references."""

    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_tuple_product(self, case):
        f, g = case
        want = tuple_product([(1, f.coeffs, g.coeffs)], f.degree, f.modulus)
        got = f * g
        assert got.codes == encoded(want, len(f.alphabet))
        assert got.coeffs == want

    @given(kernel_cases(), st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_series_pow_matches_tuple_powers(self, case, k):
        f, _ = case
        want = {(): 1}
        for _ in range(k):
            want = tuple_product([(1, want, f.coeffs)], f.degree, f.modulus)
        assert series_pow(f, k).codes == encoded(want, len(f.alphabet))

    @given(kernel_cases(), st.integers(1, 13))
    @settings(max_examples=200, deadline=None)
    def test_negative_powers_invert_under_tuple_product(self, case, k):
        f, _ = case
        assume(f.degree is not None)
        m, modulus = len(f.alphabet), f.modulus
        # a unit constant term: -1 over Z, 5 mod 9, 13^3 and 2^64
        f = TruncatedSeries(f.alphabet, modulus, f.degree, {**f.coeffs, (): -1 if modulus is None else 5})
        inv, pos = series_pow(f, -k), series_pow(f, k)
        assert tuple_product([(1, inv.coeffs, pos.coeffs)], f.degree, modulus) == {(): 1}
        assert inv.codes == encoded(inv.coeffs, m)

    @given(
        st.sampled_from(KERNEL_ALPHABETS).flatmap(
            lambda a: st.tuples(st.just(a), word_maps(a), word_maps(a), word_maps(a))
        ),
        st.sampled_from([None, 9, 13**3, 2**64]),
        st.integers(-2, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_series_route_products(self, maps, modulus, degree):
        # signed sums of several products, as in [a, b] - 1, down to a
        # negative degree, where every product is empty
        alphabet, a, b, one = maps
        m = len(alphabet)
        terms = [(1, a, b), (-1, b, a), (3, one, a)]
        coded = [(c, encoded(f, m), encoded(g, m)) for c, f, g in terms]
        want = tuple_product(terms, max(degree, -1), modulus) if degree >= 0 else {}
        got = series_mod._product(coded, m, degree, modulus)
        assert got == encoded(want, m)
        assert series_mod._product(coded, m, None, modulus) == encoded(
            tuple_product(terms, None, modulus), m
        )


class TestInversion:
    def test_geometric_series(self):
        for deg in range(5):
            inv = series_invert(ts(XY, None, deg, {"": 1, "x": 1}))
            expected = {("x" * i): (-1) ** i for i in range(deg + 1)}
            assert inv == ts(XY, None, deg, expected)

    def test_one_inverts_to_one(self):
        one = TruncatedSeries.one(XY, 25, 3)
        assert series_invert(one) == one

    def test_invert_is_involution_randomized(self):
        rng = random.Random(5)
        keys = [(), (0,), (1,), (0, 1), (1, 1), (0, 0, 1)]
        for _ in range(100):
            coeffs = {k: rng.randrange(1, 25) for k in rng.sample(keys, 4)}
            coeffs[()] = rng.choice([1, 2, 3, 4, 6, 7])  # unit mod 25
            f = TruncatedSeries(XY, 25, 3, coeffs)
            assert series_invert(series_invert(f)) == f
            assert f * series_invert(f) == TruncatedSeries.one(XY, 25, 3)
            assert series_invert(f) * f == TruncatedSeries.one(XY, 25, 3)

    def test_exact_negative_powers_stay_integers(self):
        # (-1) ** -3 is -1.0 in Python; exact powers of a -1 constant term
        # must come out as ints equal to the inverse's binary powers.
        f = ts(XY, None, 4, {"": -1, "x": 1, "xy": 2})
        inv = series_invert(f)
        assert f * inv == TruncatedSeries.one(XY, None, 4)
        for k in (-1, -2, -3, -(13**4)):
            got = series_pow(f, k)
            assert all(type(c) is int for c in got.coeffs.values())
            assert got == power(inv, -k, operator.mul, TruncatedSeries.one(XY, None, 4))

    def test_constant_polynomial_to_a_huge_power(self):
        assert series_pow(poly(XY, {"": 1}), 10**18) == poly(XY, {"": 1})

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            series_invert(ts(XY, 25, 2, {"": 5, "x": 1}))
        with pytest.raises(ValueError):
            series_invert(ts(XY, 9, 2, {"": 3, "x": 1}))
        with pytest.raises(ValueError):
            series_invert(ts(XY, None, 2, {"": 2, "x": 1}))


def random_series(rng, alphabet, modulus, degree, constant, terms=6):
    keys = [(), (0,), (1,), (0, 1), (1, 0), (1, 1), (0, 0, 1), (0, 1, 1), (1, 0, 1, 0)]
    if len(alphabet) > 2:
        keys += [(2,), (0, 2), (2, 1, 0)]
    coeffs = {k: rng.randrange(1, 50) for k in rng.sample(keys[1:], terms)}
    coeffs[()] = constant
    return TruncatedSeries(alphabet, modulus, degree, coeffs)


def reference_pow(f, k):
    """Binary powering on the series product, inverting first for k < 0."""
    if k < 0:
        f, k = series_invert(f), -k
    return power(f, k, operator.mul, TruncatedSeries.one(f.alphabet, f.modulus, f.degree))


class TestSeriesPow:
    """``series_pow`` by the binomial series against ``freegrp.power``."""

    EXPONENTS = list(range(10)) + [13, 2**10, 13**2, 13**3, 13**4]

    @pytest.mark.parametrize("modulus,constant", [
        (27, 1), (27, 5), (27, 26), (27, 3), (27, 0), (13**3, 7), (2**6, 1), (2**6, 2),
    ])
    def test_matches_binary_powering(self, modulus, constant):
        rng = random.Random(modulus + constant)
        for alphabet, degree in ((XY, 4), (XYZ, 3)):
            f = random_series(rng, alphabet, modulus, degree, constant)
            for k in self.EXPONENTS:
                assert series_pow(f, k) == reference_pow(f, k), k

    @pytest.mark.parametrize("modulus,constant", [(27, 1), (27, 5), (13**3, 7), (None, -1)])
    def test_negative_exponents(self, modulus, constant):
        f = random_series(random.Random(4), XY, modulus, 4, constant)
        for k in (-1, -2, -3, -13, -(13**2), -(13**4)):
            assert series_pow(f, k) == reference_pow(f, k), k

    @pytest.mark.parametrize("constant", [1, -1, 2, -3, 0])
    def test_exact_coefficients(self, constant):
        f = random_series(random.Random(6), XY, None, 4, constant)
        top = 13**4 if constant in (1, -1) else 13**2
        for k in list(range(10)) + [13, top]:
            assert series_pow(f, k) == reference_pow(f, k), k

    @pytest.mark.parametrize("modulus", [None, 27])
    @pytest.mark.parametrize("constant", [1, 2, 0])
    def test_untruncated(self, modulus, constant):
        f = random_series(random.Random(7), XY, modulus, None, constant, terms=3)
        for k in range(7):
            assert series_pow(f, k) == reference_pow(f, k), k

    def test_at_most_degree_products(self, monkeypatch):
        calls = []
        real = TruncatedSeries.__mul__
        monkeypatch.setattr(
            TruncatedSeries, "__mul__", lambda a, b: calls.append(1) or real(a, b)
        )
        for degree in range(6):
            f = random_series(random.Random(degree), XY, 13**4, degree, 3)
            for k in (0, 1, 2, 13**4, 2**40 + 1):
                calls.clear()
                series_pow(f, k)
                assert len(calls) <= degree


class TestMagnus:
    def test_letter(self):
        assert magnus(gw("x"), None, 3) == ts(XY, None, 3, {"": 1, "x": 1})

    def test_inverse_letter(self):
        assert magnus(gw("x^-1"), None, 2) == ts(XY, None, 2, {"": 1, "x": -1, "xx": 1})

    def test_commutator_viafour_factors(self):
        # Independent oracle: multiply the four Magnus factors by hand.
        D = 2
        one_x = ts(XY, None, D, {"": 1, "x": 1})
        one_y = ts(XY, None, D, {"": 1, "y": 1})
        oracle = series_invert(one_x) * series_invert(one_y) * one_x * one_y
        assert magnus(gw("[x,y]"), None, D) == oracle
        assert oracle == ts(XY, None, D, {"": 1, "xy": 1, "yx": -1})

    def test_constant_term_always_one(self):
        rng = random.Random(9)
        for _ in range(50):
            g = random_word(rng, XYZ, 10)
            assert magnus(g, 8, 3).coeffs.get((), 0) == 1

    def test_multiplicative_randomized(self):
        rng = random.Random(13)
        for modulus in (None, 16, 27, 625):
            for _ in range(60):
                g = random_word(rng, XY, 8)
                h = random_word(rng, XY, 8)
                lhs = magnus(g * h, modulus, 4)
                rhs = magnus(g, modulus, 4) * magnus(h, modulus, 4)
                assert lhs == rhs

    def test_never_inverts_or_powers(self, monkeypatch):
        # Each syllable is a closed-form binomial series: no series
        # inversion and no binary powering.
        magnus.cache_clear()
        g, a, b = gw("[x,y]^40 x^-3 y^-2"), gw("[x,y]^40"), gw("x^-3 y^-2")

        def boom(*args):
            raise AssertionError("magnus must not invert or power")

        monkeypatch.setattr(series_mod, "series_invert", boom)
        monkeypatch.setattr(freegrp, "power", boom)
        assert magnus(g, 9, 4) == magnus(a, 9, 4) * magnus(b, 9, 4)

    def test_limit_bounds_each_product(self):
        g = gw("x^-1 y^-1 x^-1 y^-1")
        assert len(magnus(g, 9, 12, limit=10**4).coeffs) == len(magnus(g, 9, 12).coeffs)
        with pytest.raises(ValueError, match="more than 100 terms"):
            magnus(g, 9, 12, limit=100)

    def test_power_consistency(self):
        g = gw("x y^-1")
        f = magnus(g, 81, 4)
        assert magnus(g**5, 81, 4) == series_pow(f, 5)
        assert magnus(g**-3, 81, 4) == series_pow(f, -3)


def magnus_reference(g, modulus, degree, *, limit=None):
    """The fold ``magnus`` replaced, on the letter series 1 + x.

    Each syllable x^e is the letter series, inverted by ``series_invert``
    when e < 0, raised by binary ``power``; ``limit`` bounds the term
    pairs of each product.
    """
    acc = one = TruncatedSeries.one(g.alphabet, modulus, degree)
    for x, e in g.syllables:
        base = TruncatedSeries(g.alphabet, modulus, degree, {(): 1, (x,): 1})
        if e < 0:
            base = series_invert(base)
        image = power(base, abs(e), operator.mul, one)
        pairs = sum(len(u) + len(v) <= degree for u in acc.coeffs for v in image.coeffs)
        if limit is not None and pairs > limit:
            raise ValueError(
                f"a syllable product would form more than {limit} terms before merging"
            )
        acc = acc * image
    return acc


@st.composite
def magnus_words(draw):
    alphabet = draw(st.sampled_from([Alphabet("x"), XY, XYZ]))
    exponent = st.one_of(st.integers(-6, 6), st.integers(-(2**64), 2**64))
    syllables = st.tuples(st.integers(0, len(alphabet) - 1), exponent)
    return GroupWord(alphabet, tuple(draw(st.lists(syllables, max_size=5))))


MODULI = st.sampled_from([None, 2, 9, 13**3, 2**61])


class TestMagnusMatchesReference:
    """Closed-form binomial syllables against inversion and binary powering."""

    @given(magnus_words(), MODULI, st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_same_series(self, g, modulus, degree):
        assert magnus(g, modulus, degree) == magnus_reference(g, modulus, degree)

    @staticmethod
    def outcome(f, g, modulus, degree, limit):
        try:
            return f(g, modulus, degree, limit=limit)
        except ValueError as exc:
            return str(exc)

    @given(magnus_words(), MODULI, st.integers(0, 8), st.integers(0, 400))
    @settings(max_examples=300, deadline=None)
    def test_limit_raises_together(self, g, modulus, degree, limit):
        args = (g, modulus, degree, limit)
        assert self.outcome(magnus, *args) == self.outcome(magnus_reference, *args)

    # The second word's partial product has a coefficient that cancels
    # mod 4; a cancelled term forms no pairs.
    @pytest.mark.parametrize(
        "text,modulus,degree", [("x^-1 y^-1 x^-1 y^-1", 9, 6), ("x^2 y^-2 x^-1", 4, 2)]
    )
    def test_limit_hits_the_cap_exactly(self, text, modulus, degree):
        limits = range(1, 200)
        got = [self.outcome(magnus, gw(text), modulus, degree, k) for k in limits]
        want = [self.outcome(magnus_reference, gw(text), modulus, degree, k) for k in limits]
        assert got == want
        assert isinstance(got[0], str) and not isinstance(got[-1], str)

    @pytest.mark.parametrize("e", [-(10**9 + 7), -3, -1, 5, 2**64 + 1])
    def test_binomial_coefficients(self, e):
        # x^e maps to (1 + x)^e = sum of C(e, j) x^j, exactly, where
        # C(e, j) = (-1)^j C(j - e - 1, j) for e < 0.
        want = {
            (0,) * j: math.comb(e, j) if e >= 0 else (-1) ** j * math.comb(j - e - 1, j)
            for j in range(9)
        }
        assert magnus(GroupWord(XY, ((0, e),)), None, 8) == TruncatedSeries(XY, None, 8, want)


def syllable_product_reference(g, modulus, degree, *, limit=None):
    """The product, in order, of the syllable series (1 + x)^e over word tuples.

    C(e, j) is math.comb(e, j) for e >= 0 and (-1)^j C(j - e - 1, j) for
    e < 0; ``limit`` bounds the term pairs of each product.
    """
    acc = TruncatedSeries.one(g.alphabet, modulus, degree)
    for x, e in g.syllables:
        image = TruncatedSeries(g.alphabet, modulus, degree, {
            (x,) * j: math.comb(e, j) if e >= 0 else (-1) ** j * math.comb(j - e - 1, j)
            for j in range(degree + 1)
        })
        pairs = sum(len(u) + len(v) <= degree for u in acc.coeffs for v in image.coeffs)
        if limit is not None and pairs > limit:
            raise ValueError(
                f"a syllable product would form more than {limit} terms before merging"
            )
        acc = acc * image
    return acc


@st.composite
def coded_words(draw):
    letters = draw(st.sampled_from([("x",), ("x", "yy"), ("a1", "b", "c"), tuple("xyzt")]))
    alphabet = Alphabet(letters)
    exponent = st.one_of(st.integers(-6, 6), st.integers(-(10**21), 10**21))
    syllables = st.tuples(st.integers(0, len(letters) - 1), exponent)
    return GroupWord(alphabet, tuple(draw(st.lists(syllables, max_size=5))))


class TestWordCodes:
    """``magnus`` sweeps on word codes; the tuple-keyed view is decoded on read."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_codes_are_the_preceq_ranks(self, m):
        keys = [k for n in range(6 if m < 4 else 5) for k in product(range(m), repeat=n)]
        assert [_word_code(k, m) for k in keys] == list(range(len(keys)))

    def test_code_of_a_concatenation(self):
        rng = random.Random(3)
        for _ in range(200):
            m = rng.randint(1, 4)
            u = tuple(rng.randrange(m) for _ in range(rng.randint(0, 30)))
            v = tuple(rng.randrange(m) for _ in range(rng.randint(0, 30)))
            assert _word_code(u + v, m) == _word_code(u, m) * m ** len(v) + _word_code(v, m)

    @given(
        coded_words(),
        st.sampled_from([None, 2, 9, 13**3, 2**64]),
        st.integers(0, 8),
        st.one_of(st.none(), st.integers(0, 400)),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_syllable_products(self, g, modulus, degree, limit):
        try:
            want = syllable_product_reference(g, modulus, degree, limit=limit)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                magnus.__wrapped__(g, modulus, degree, limit=limit)
            assert str(got.value) == str(exc)
            return
        m = len(g.alphabet)
        fresh = magnus.__wrapped__(g, modulus, degree, limit=limit)
        # the code map first, then the tuple map decoded from it
        assert fresh.codes == {_word_code(k, m): c for k, c in want.coeffs.items()}
        assert fresh.coeffs == want.coeffs
        assert fresh == want and str(fresh) == str(want)

    def test_sparse_codes_decode_through_missing_prefixes(self):
        # Mod 2 most coefficients of (1 + x)^-3 (1 + y)^-3 vanish, so many
        # parent prefixes of a stored word are not stored themselves.
        g = gw("x^-3 y^-3 x^5")
        f = magnus.__wrapped__(g, 2, 12)
        want = syllable_product_reference(g, 2, 12)
        assert f.coeffs == want.coeffs
        assert any((c - 1) // 2 not in f.codes for c in f.codes if c)

    def test_codes_of_a_built_series(self):
        f = ts(XYZ, 9, 3, {"": 1, "z": 4, "xzy": -1})
        # z = 3, and xzy = ((0 + 1) 3 + 2 + 1) 3 + 1 + 1 = 20
        assert f.codes == {0: 1, 3: 4, 20: 8}

    def test_huge_inverse_exponents_at_high_degree(self):
        g = gw("x^-1000000007 y^-3")
        f = magnus.__wrapped__(g, 2, 40)
        assert f == syllable_product_reference(g, 2, 40)


class TestEps:
    def test_power_binomials(self):
        for p in (2, 3, 5):
            assert eps(gw(f"x^{p}"), XY.word("x"), p**2) == p

    def test_commutator_coefficients(self):
        for modulus in (4, 9, 125):
            assert eps(gw("[x,y]"), XY.word("xy"), modulus) == 1
            assert eps(gw("[x,y]"), XY.word("yx"), modulus) == modulus - 1
        assert eps(gw("[x,y]"), XY.word("yx"), None) == -1

    def test_empty_word(self):
        rng = random.Random(2)
        for _ in range(20):
            g = random_word(rng, XY, 6)
            assert eps(g, XY.word(""), 9) == 1
            assert eps(g, XY.word(""), None) == 1

    def test_degree_one_additive(self):
        # On single letters the coefficient is a homomorphism to (Z/m, +).
        rng = random.Random(4)
        x = XYZ.word("x")
        for _ in range(200):
            g = random_word(rng, XYZ, 8)
            h = random_word(rng, XYZ, 8)
            lhs = eps(g * h, x, 27)
            rhs = (eps(g, x, 27) + eps(h, x, 27)) % 27
            assert lhs == rhs

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            eps(gw("x"), XYZ.word("x"), 9)


class TestInnerProduct:
    def test_examples(self):
        f = ts(XY, 9, 2, {"": 1, "x": 1, "xy": 1})
        assert inner_product(f, poly(XY, {"xy": 1})) == 1
        assert inner_product(f, poly(XY, {})) == 0
        assert inner_product(f, poly(XY, {"x": 2, "xy": 3})) == 5
        assert inner_product(f, poly(XY, {"x": 4, "xy": 6})) == 1  # 10 mod 9

    def test_exact_path(self):
        f = ts(XY, None, 2, {"xy": -2})
        assert inner_product(f, poly(XY, {"xy": 3})) == -6

    def test_degree_overflow(self):
        f = ts(XY, 9, 1, {"x": 1})
        with pytest.raises(ValueError):
            inner_product(f, poly(XY, {"xy": 1}))
        # An untruncated series takes polynomials of any degree.
        g = ts(XY, None, None, {"xyx": 2})
        assert inner_product(g, poly(XY, {"xyx": 3, "y": 1})) == 6


class TestMembershipTests:
    def test_koch_examples(self):
        for p in (2, 3, 5):
            assert koch_test(gw(f"x^{p}"), 2, p)
            assert koch_test(gw("[x,y]"), 2, p)
            assert not koch_test(gw("x"), 2, p)

    def test_koch_validates(self):
        with pytest.raises(ValueError):
            koch_test(gw("x"), 2, 4)
        with pytest.raises(ValueError):
            koch_test(gw("x"), 0, 3)

    def test_koch_trivial_layer(self):
        assert koch_test(gw("x"), 1, 3)

    def test_lower_central_examples(self):
        c = gw("[x,y]")
        assert lower_central_test(c, 2)
        assert not lower_central_test(c, 3)
        assert lower_central_test(tau(XY.word("xxy")), 3)
        assert not lower_central_test(gw("x"), 2)

    def test_koch_contains_lower_central_powers(self):
        # tau(w)^(p^(n-s)) must land in the n-th p-central layer.
        for p in (2, 3):
            for w, n in [("xy", 3), ("xxy", 3), ("x", 2)]:
                word = XY.word(w)
                g = tau(word) ** (p ** (n - len(word)))
                assert koch_test(g, n, p)


class TestPPoly:
    def test_pinned_values(self):
        assert p_poly(XY.word("x")) == poly(XY, {"x": 1})
        assert p_poly(XY.word("xy")) == poly(XY, {"xy": 1, "yx": -1})
        assert p_poly(XY.word("xxy")) == poly(XY, {"xxy": 1, "xyx": -2, "yxx": 1})
        assert p_poly(XY.word("xyy")) == poly(XY, {"xyy": 1, "yxy": -2, "yyx": 1})

    def test_homogeneous(self):
        from lynmag.words import lyndon_words

        for w in lyndon_words(XY, 4):
            q = p_poly(w)
            assert max(map(len, q.coeffs)) == len(w)
            assert q.homogeneous_part(len(w)) == q
            assert q.coeffs[w.indices] == 1

    def test_rejects_non_lyndon(self):
        with pytest.raises(ValueError):
            p_poly(XY.word("yx"))


class TestTriangularity:
    def test_magnus_of_tau_starts_at_p_poly(self):
        from lynmag.words import lyndon_words

        for w in lyndon_words(XY, 4) + lyndon_words(XYZ, 3):
            f = magnus(tau(w), None, len(w))
            expected = TruncatedSeries(
                w.alphabet, None, len(w), dict(p_poly(w).coeffs)
            ) + TruncatedSeries.one(w.alphabet, None, len(w))
            assert f == expected, str(w)

    def test_p_poly_tail_is_alp_larger(self):
        from lynmag.words import lyndon_words

        for w in lyndon_words(XY, 4) + lyndon_words(XYZ, 3):
            tail = p_poly(w) - TruncatedSeries(w.alphabet, None, None, {w.indices: 1})
            for key in tail.coeffs:
                assert len(key) == len(w)
                assert key > w.indices  # strictly alp-greater, same length


def commutator_coeff_check(sigma, tau_, n, m, w):
    """The splitting rule for commutator coefficients, over exact integers.

    For sigma with vanishing coefficients below degree n and tau below
    degree m, the coefficient of a word w of length n+m in the Magnus
    image of [sigma, tau] must equal
    eps_{u1}(sigma) eps_{u2}(tau) - eps_{u2'}(tau) eps_{u1'}(sigma)
    where w = u1 u2 = u2' u1' with |u1| = |u1'| = n.
    """
    if len(w) != n + m:
        raise ValueError("word length must be n + m")
    if not (lower_central_test(sigma, n) and lower_central_test(tau_, m)):
        raise ValueError("an element fails its vanishing precondition")
    f_sigma, f_tau, f_comm = (
        magnus(g, None, n + m).coeffs for g in (sigma, tau_, commutator(sigma, tau_))
    )
    u = w.indices
    rhs = f_sigma.get(u[:n], 0) * f_tau.get(u[n:], 0) - f_tau.get(u[:m], 0) * f_sigma.get(u[m:], 0)
    return f_comm.get(u, 0) == rhs


class TestCommutatorCoeffCheck:
    def test_basic_example(self):
        sigma, tau_ = gw("x"), gw("[x,y]")
        assert commutator_coeff_check(sigma, tau_, 1, 2, XY.word("xxy"))

    def test_letters_give_commutator_coefficient(self):
        assert commutator_coeff_check(gw("x"), gw("y"), 1, 1, XY.word("xy"))
        assert eps(gw("[x,y]"), XY.word("xy"), None) == 1

    def test_exhaustive_degree_four(self):
        from lynmag.words import all_words

        sigma = gw("[x,y]", XYZ)
        tau_ = gw("[x,z]", XYZ)
        for w in all_words(XYZ, 4):
            assert commutator_coeff_check(sigma, tau_, 2, 2, w)

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            commutator_coeff_check(gw("x"), gw("y"), 2, 1, XY.word("xxy"))
        with pytest.raises(ValueError):
            commutator_coeff_check(gw("x"), gw("y"), 1, 1, XY.word("xyy"))


class TestSerialization:
    def test_series_json_roundtrip(self):
        # Residues in 0..modulus-1, terms in preceq order.
        assert magnus(gw("[x,y]"), 9, 3).to_json() == {
            "modulus": 9,
            "degree": 3,
            "terms": [
                {"word": "", "coeff": 1},
                {"word": "xy", "coeff": 1},
                {"word": "yx", "coeff": 8},
                {"word": "xxy", "coeff": 8},
                {"word": "xyx", "coeff": 1},
                {"word": "yxy", "coeff": 8},
                {"word": "yyx", "coeff": 1},
            ],
        }

    def test_untruncated_json_roundtrip(self):
        # Exact coefficients keep their sign; no modulus, no degree.
        assert p_poly(XY.word("xxy")).to_json() == {
            "modulus": None,
            "degree": None,
            "terms": [
                {"word": "xxy", "coeff": 1},
                {"word": "xyx", "coeff": -2},
                {"word": "yxx", "coeff": 1},
            ],
        }

    def test_str_formats(self):
        assert str(ts(XY, None, 2, {"": 1, "xy": 1, "yx": -1})) == "1 + xy - yx"
        assert str(ts(XY, 9, 2, {"x": 8})) == "-x"
        assert str(ts(XY, None, 2, {"xx": 3})) == "3·xx"
        assert str(poly(XY, {})) == "0"
        assert str(poly(XY, {"xy": 1, "yx": -2})) == "xy - 2·yx"

    def test_multichar_letters_joined_by_dots(self):
        # Words spell the same in a report as through Word.__str__.
        a = Alphabet(["a1", "a2"])
        q = poly(a, {"a1·a2": 1, "a2·a1·a1": -3, "a2": 2})
        assert str(q) == "2·a2 + a1·a2 - 3·a2·a1·a1"
        words = [a.word(t) for t in ("a2", "a1·a2", "a2·a1·a1")]
        assert [t["word"] for t in q.to_json()["terms"]] == [str(w) for w in words]
        assert [str(w) for w in words] == ["a2", "a1·a2", "a2·a1·a1"]
