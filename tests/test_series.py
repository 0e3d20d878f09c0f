"""Truncated series arithmetic, the Magnus map, eps, Koch tests, P_w."""

import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

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
from lynmag.words import Alphabet

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
