"""Unipotent matrices, rho, iota, and the brute-force filtration engine."""

import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lynmag.matgrp as matgrp
import lynmag.series as series
import lynmag.verify as verify
from lynmag.freegrp import GroupWord, parse_group_word, power, tau, tau_plan
from lynmag.matgrp import (
    FiniteGroupTable,
    UnipotentMatrix,
    block_rows,
    generate_group,
    iota,
    iota_rows,
    letter_rows,
    lower_p_central,
    rho,
    tau_power_rows,
)
from lynmag.pairing import pairing_matrix
from lynmag.series import magnus
from lynmag.words import Alphabet, Word, lyndon_words

XY = Alphabet("xy")
XYZ = Alphabet("xyz")


def E(size, modulus, i, j, v=1):
    return UnipotentMatrix.elementary(size, modulus, i, j, v)


def central_layer(s: int, p: int, n: int) -> set:
    # I + a p^(n-s) E_{1,s+1} over Z/p^(n-s+1); exactly p distinct matrices
    modulus = p ** (n - s + 1)
    shift = p ** (n - s)
    return {E(s + 1, modulus, 1, s + 1, a * shift) for a in range(modulus)}


class TestMatrixArithmetic:
    def test_elementary_product(self):
        lhs = E(3, 5, 1, 2) * E(3, 5, 2, 3)
        rhs = UnipotentMatrix.from_entries(3, 5, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
        assert lhs == rhs
        # opposite order misses the corner term
        assert E(3, 5, 2, 3) * E(3, 5, 1, 2) == UnipotentMatrix.from_entries(
            3, 5, {(1, 2): 1, (2, 3): 1}
        )

    def test_square_of_elementary(self):
        assert E(3, 7, 1, 2) * E(3, 7, 1, 2) == E(3, 7, 1, 2, 2)

    def test_inverse_randomized(self):
        rng = random.Random(6)
        for size, modulus in [(2, 4), (3, 9), (4, 8), (5, 25)]:
            k = size * (size - 1) // 2
            for _ in range(40):
                a = UnipotentMatrix(
                    size, modulus, tuple(rng.randrange(modulus) for _ in range(k))
                )
                assert (a * a.inverse()).is_identity()
                assert (a.inverse() * a).is_identity()

    def test_pow_matches_repeated(self):
        rng = random.Random(8)
        for _ in range(30):
            a = UnipotentMatrix(3, 9, tuple(rng.randrange(9) for _ in range(3)))
            acc = UnipotentMatrix.identity(3, 9)
            for k in range(6):
                assert a**k == acc
                assert (a**-k * acc).is_identity()
                acc = acc * a

    def test_entry_and_dense(self):
        a = UnipotentMatrix.from_entries(3, 5, {(1, 3): 2})
        assert a.entry(1, 3) == 2
        assert a.entry(2, 2) == 1
        assert a.entry(3, 1) == 0
        assert a.dense() == [[1, 0, 2], [0, 1, 0], [0, 0, 1]]

    def test_validation(self):
        with pytest.raises(ValueError):
            UnipotentMatrix(3, 6, (0, 0, 0))  # not a prime power
        with pytest.raises(ValueError):
            UnipotentMatrix(3, 5, (0, 0))  # wrong entry count
        with pytest.raises(ValueError):
            UnipotentMatrix.from_entries(3, 5, {(2, 1): 1})
        with pytest.raises(ValueError):
            E(3, 5, 1, 2) * E(3, 25, 1, 2)
        with pytest.raises(ValueError):
            E(3, 5, 1, 2) * E(4, 5, 1, 2)

    def test_commutator(self):
        a, b = E(3, 9, 1, 2), E(3, 9, 2, 3)
        # [a, b] = a^-1 b^-1 a b
        assert a.inverse() * b.inverse() * a * b == E(3, 9, 1, 3)
        assert (a.inverse() * a.inverse() * a * a).is_identity()


def rho_reference(w: Word, g: GroupWord, modulus: int) -> UnipotentMatrix:
    """rho read off the Magnus series: entry (i, j) is the coefficient of w_i...w_{j-1}."""
    f, u, size = magnus(g, modulus, len(w)).coeffs, w.indices, len(w) + 1
    pairs = [(i, j) for i in range(1, size) for j in range(i + 1, size + 1)]
    entries = {(i, j): f.get(u[i - 1 : j - 1], 0) for i, j in pairs}
    return UnipotentMatrix.from_entries(size, modulus, entries)


group_words = st.lists(st.tuples(st.integers(0, 2), st.integers(-40, 40)), max_size=8).map(
    lambda syllables: GroupWord(XYZ, tuple(syllables))
)
index_words = st.lists(st.integers(0, 2), min_size=1, max_size=5).map(
    lambda letters: Word(XYZ, tuple(letters))
)


class TestRho:
    @given(group_words, index_words, st.sampled_from([2, 9, 49, 13**3, 2**61]))
    @settings(max_examples=300, deadline=None)
    def test_entries_are_magnus_coefficients(self, g, w, modulus):
        assert rho(w, g, modulus) == rho_reference(w, g, modulus)

    def test_never_reads_magnus(self, monkeypatch):
        g = parse_group_word(XY, "x^-1 [x, y]^2 y^3")
        want = {w: rho_reference(XY.word(w), g, 27) for w in ("xy", "xyx", "yxy")}

        def boom(*args, **kwargs):
            raise AssertionError("rho must not call magnus")

        monkeypatch.setattr(series, "magnus", boom)
        assert not hasattr(matgrp, "magnus")
        assert {w: rho(XY.word(w), g, 27) for w in want} == want

    @pytest.mark.parametrize("e", [1, 2, 7, 40, 10**20, -1, -3, -40, -(10**20)])
    @pytest.mark.parametrize("modulus", [8, 3**4, 2**64])
    def test_syllable_is_power_of_letter_matrix(self, e, modulus):
        # The closed form against binary powering on the scalar product.
        w = XYZ.word("xxzxxxyxxxxzx")
        size = len(w) + 1
        one = UnipotentMatrix.identity(size, modulus)
        for x in "xyz":
            ones = {(i, i + 1): 1 for i in range(1, size) if str(w)[i - 1] == x}
            a = UnipotentMatrix.from_entries(size, modulus, ones)
            base = a if e > 0 else a.inverse()
            want = power(base, abs(e), operator.mul, one)
            assert rho(w, parse_group_word(XYZ, f"{x}^{e}"), modulus) == want

    def test_letter_goes_to_elementary(self):
        w = XY.word("xy")
        assert rho(w, parse_group_word(XY, "x"), 9) == E(3, 9, 1, 2)
        assert rho(w, parse_group_word(XY, "y"), 9) == E(3, 9, 2, 3)

    def test_power_of_letter(self):
        for p, n, a in [(2, 2, 3), (3, 2, 5), (5, 3, 7)]:
            got = rho(XY.word("x"), parse_group_word(XY, f"x^{a}"), p**n)
            assert got == E(2, p**n, 1, 2, a)

    def test_commutator_hits_corner(self):
        got = rho(XY.word("xy"), parse_group_word(XY, "[x,y]"), 9)
        assert got == E(3, 9, 1, 3)

    def test_homomorphism_randomized(self):
        rng = random.Random(10)
        words = [XY.word("x"), XY.word("xy"), XY.word("xyx")]
        for w in words:
            for modulus in (8, 27, 125):
                for _ in range(60):
                    g = _random_group_word(rng, 8)
                    h = _random_group_word(rng, 8)
                    assert rho(w, g * h, modulus) == rho(w, g, modulus) * rho(
                        w, h, modulus
                    )

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            rho(XY.word(""), parse_group_word(XY, "x"), 9)

    def test_modulus_must_be_prime_power(self):
        with pytest.raises(ValueError):
            rho(XY.word("xy"), parse_group_word(XY, "[x, y]"), 6)


def _random_group_word(rng, max_letters):
    return parse_group_word(
        XY,
        " ".join(
            rng.choice(["x", "y", "x^-1", "y^-1"]) for _ in range(rng.randint(0, max_letters))
        )
        or "1",
    )


class TestHomomorphismCheck:
    """homomorphism-properties tests rho against magnus, not only against itself."""

    def check(self, monkeypatch, fake_rho):
        monkeypatch.setattr(verify, "PAIR_COUNT", 50)
        monkeypatch.setattr(verify, "rho", fake_rho)
        return verify.run_check("homomorphism-properties")

    def test_passes_with_rho(self, monkeypatch):
        report = self.check(monkeypatch, rho)
        assert report["passed"]
        assert report["details"] == {"magnus_pairs": 50, "rho_pairs": 50}

    def test_one_wrong_entry_fails(self, monkeypatch):
        def wrong(w, g, modulus):
            m = rho(w, g, modulus)
            return UnipotentMatrix(m.size, modulus, (m.data[0] + 1,) + m.data[1:])

        report = self.check(monkeypatch, wrong)
        assert not report["passed"]
        assert any(f.startswith("rho vs magnus: w=") for f in report["details"]["failures"])

    def test_conjugated_rho_fails_only_against_magnus(self, monkeypatch):
        # D^-1 rho D is still a homomorphism, so only the magnus comparison sees it.
        def conjugated(w, g, modulus):
            d = E(len(w) + 1, modulus, 1, 2)
            return d.inverse() * rho(w, g, modulus) * d

        report = self.check(monkeypatch, conjugated)
        failures = report["details"]["failures"]
        assert not report["passed"] and failures
        assert all(f.startswith("rho vs magnus: w=") for f in failures)


class TestIota:
    def test_pinned_values(self):
        for p, n, s in [(2, 3, 1), (3, 3, 2), (5, 4, 2)]:
            modulus = p ** (n - s + 1)
            shift = p ** (n - s)
            assert iota(n, s, E(s + 1, modulus, 1, s + 1, shift)) == 1
            assert iota(n, s, UnipotentMatrix.identity(s + 1, modulus)) == 0
            expected = 2 % p
            assert iota(n, s, E(s + 1, modulus, 1, s + 1, 2 * shift)) == expected

    def test_residue_modulus_is_p(self):
        got = iota(3, 2, E(3, 9, 1, 3, 6))
        assert type(got) is int and got == 2

    def test_rejects_noncentral_matrix(self):
        with pytest.raises(ValueError):
            iota(3, 2, E(3, 9, 1, 2, 3))

    def test_rejects_bad_divisibility(self):
        with pytest.raises(ValueError):
            iota(3, 2, E(3, 9, 1, 3, 1))  # corner must be divisible by 3

    def test_rejects_wrong_shape_or_modulus(self):
        with pytest.raises(ValueError):
            iota(3, 2, E(4, 9, 1, 4))
        with pytest.raises(ValueError):
            iota(3, 2, E(3, 27, 1, 3, 3))
        with pytest.raises(ValueError):
            iota(2, 3, E(4, 3, 1, 4))


class TestPairingBatches:
    """The batch functions behind the matrix route of the pairing."""

    def test_letter_rows_are_rho_of_letters(self):
        # mixed lengths in one batch of size 4: each word's block, then I
        words = [XY.word(t) for t in ("xyx", "yy", "xxx", "y")]
        for letter, name in enumerate("xy"):
            g = parse_group_word(XY, name)
            rows = letter_rows(words, letter, 4, 9)
            assert rows.shape == (6, 4)
            for w, r in zip(words, rows.T):
                assert tuple(block_rows(r, 4, 0, len(w) + 1, 9).tolist()) == rho_reference(w, g, 9).data
                assert tuple(r.tolist()) == UnipotentMatrix.from_entries(4, 9, {
                    (i, i + 1): 1 for i in range(1, len(w) + 1) if w.indices[i - 1] == letter
                }).data

    @staticmethod
    def walk(ws, words, n, p):
        # the batch modulus of the shortest w'
        return tau_power_rows(tau_plan(ws), ws, words, n, p, p ** (n - min(map(len, words)) + 1))

    @staticmethod
    def assert_blocks_are_rho_of_powers(done, batch, words, n, p):
        # each infix of each w' reads its block mod p^(n-|infix|+1) off the shared batch
        size = max(map(len, words)) + 1
        assert batch.shape == (size * (size - 1) // 2, len(done), len(words))
        for w, rows in zip(done, batch.swapaxes(0, 1)):
            g = tau(w) ** p ** (n - len(w))
            for v, r in zip(words, rows.T):
                for start, end in itertools.combinations(range(len(v) + 1), 2):
                    u = v[start:end]
                    modulus = p ** (n - len(u) + 1)
                    block = block_rows(r, size, start, len(u) + 1, modulus)
                    assert tuple(block.tolist()) == rho_reference(u, g, modulus).data

    @pytest.mark.parametrize("block", [4096, 5])
    def test_tau_power_rows_are_rho_of_powers(self, block, monkeypatch):
        monkeypatch.setattr(matgrp, "BLOCK", block)
        ws = lyndon_words(XY, 4)
        words = [XY.word(t) for t in ("xyx", "x", "xxy", "yy", "yyx", "xyy", "yx")]
        seen = []
        # n = 5, p = 3: tau(w) ** 3**(5-|w|), one batch of size 4 mod 3^5
        for done, batch in self.walk(ws, words, 5, 3):
            assert len({len(w) for w in done}) == 1
            self.assert_blocks_are_rho_of_powers(done, batch, words, 5, 3)
            seen += done
        assert sorted(seen, key=str) == sorted(ws, key=str)

    @pytest.mark.parametrize("block", [1, 5, matgrp.BLOCK])
    def test_unsorted_repeated_mixed_lengths(self, block, monkeypatch):
        monkeypatch.setattr(matgrp, "BLOCK", block)
        names = ["xyy", "x", "xy", "y", "x", "xxy", "xy", "xyy", "y", "xy", "x"]
        ws = [XY.word(t) for t in names]
        words = [XY.word(t) for t in ("xyx", "y", "xxy", "xy")]
        seen = []
        for done, batch in self.walk(ws, words, 5, 3):
            assert len(done) * len(words) <= max(block, len(words))
            self.assert_blocks_are_rho_of_powers(done, batch, words, 5, 3)
            seen += done
        # each distinct word once, however often ws repeats it
        assert sorted(map(str, seen)) == sorted(set(names))

    @pytest.mark.parametrize("n, p", [(4, 3), (5, 13), (9, 13)])
    def test_one_walk_matches_walks_per_length(self, n, p):
        # One batch for all lengths reads the same blocks as one walk per
        # length, each of size s+1 mod p^(n-s+1); 13^9 takes exact ints.
        ws = lyndon_words(XYZ, 3)
        words = [XYZ.word(t) for t in ("z", "xy", "zx", "xyz", "yzx", "x", "xzy")]
        size = 4
        mixed = {}
        for done, batch in self.walk(ws, words, n, p):
            mixed.update(zip(done, batch.swapaxes(0, 1)))
        for s in (1, 2, 3):
            cols = [k for k, v in enumerate(words) if len(v) == s]
            modulus = p ** (n - s + 1)
            walks = 0
            for done, batch in self.walk(ws, [words[k] for k in cols], n, p):
                for w, rows in zip(done, batch.swapaxes(0, 1)):
                    want = block_rows(mixed[w][:, cols], size, 0, s + 1, modulus)
                    assert rows.tolist() == want.tolist()
                    walks += 1
            assert walks == len(ws)

    def test_kernel_calls_per_level_not_per_word(self, monkeypatch):
        # The xyz n=5 p=7 matrix walks the tau recursion once, on one batch
        # of size 6: 6 calls per level from 2 to 4, 3 at the top (no
        # factors to invert), none for letters.  A power stops at the first
        # N^j that vanishes, and a weight-L image has N^j = 0 once jL >= 6:
        # levels 1 to 4 take 4, 2, 1 and 1 calls, the top level's exponent
        # 1 none.  3*6 + 3 + 4 + 2 + 1 + 1 = 29.
        calls = []
        real = matgrp._mul_rows
        monkeypatch.setattr(matgrp, "_mul_rows", lambda *args: calls.append(1) or real(*args))
        pairing_matrix(5, 7, XYZ)
        assert len(calls) <= 29

    def test_iota_rows_match_iota(self):
        rng = random.Random(4)
        n, s, modulus = 4, 2, 27
        mats = [E(3, modulus, 1, 3, 9 * a) for a in range(3)]
        mats += [E(3, modulus, 1, 3, rng.randrange(1, 27)) for _ in range(5)]
        mats += [E(3, modulus, 1, 2, 9), E(3, modulus, 2, 3, 1) * E(3, modulus, 1, 3, 9)]
        rows = np.array([m.data for m in mats]).T
        for m, got in zip(mats, iota_rows(n, s, rows, modulus).tolist()):
            try:
                want = iota(n, s, m)
            except ValueError:
                want = -1
            assert got == want
        with pytest.raises(ValueError):
            iota_rows(3, s, rows, modulus)


class TestGenerateGroup:
    def test_cyclic_four(self):
        table = generate_group([E(2, 4, 1, 2)])
        assert len(table) == 4
        assert {m.data for m in table} == {(0,), (1,), (2,), (3,)}

    def test_heisenberg_mod2(self):
        table = generate_group([E(3, 2, 1, 2), E(3, 2, 2, 3)])
        assert len(table) == 8

    def test_empty_generators(self):
        table = generate_group([], size=3, modulus=4)
        assert len(table) == 1
        assert table.elements[0].is_identity()
        with pytest.raises(ValueError):
            generate_group([])

    def test_cap_enforced(self, monkeypatch):
        # the cap is the largest order allowed
        monkeypatch.setattr(matgrp, "MAX_ORDER", 25)
        assert len(generate_group([E(2, 25, 1, 2)])) == 25
        for cap in (10, 24):
            monkeypatch.setattr(matgrp, "MAX_ORDER", cap)
            with pytest.raises(ValueError, match=f"exceeds cap {cap}"):
                generate_group([E(2, 25, 1, 2)])

    def test_huge_modulus_uses_exact_ints(self):
        table = generate_group([E(2, 2**61, 1, 2, 2**60)])
        assert [m.data for m in table] == [(0,), (2**60,)]

    def test_closure_is_a_group(self):
        table = generate_group([E(3, 4, 1, 2), E(3, 4, 2, 3)])
        assert len(table) == 64
        members = set(table.elements)
        for a in list(members)[::7]:
            assert a.inverse() in members
            for b in list(members)[::11]:
                assert a * b in members

    def test_mismatched_generators(self):
        with pytest.raises(ValueError):
            generate_group([E(2, 4, 1, 2), E(3, 4, 1, 2)])


class TestLowerPCentral:
    def test_first_term_is_whole_group(self):
        table = generate_group([E(2, 4, 1, 2)])
        assert set(lower_p_central(table, 2, 1)) == set(table)

    def test_rank_one_layers(self):
        # U_2(Z/p^n): the n-th term must be I + p^(n-1) Z E_12
        for p, n in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]:
            table = generate_group([E(2, p**n, 1, 2)])
            got = lower_p_central(table, p, n)
            assert set(got.elements) == central_layer(1, p, n)

    def test_heisenberg_mod4_third_term(self):
        # s=2, p=2, n=3 over Z/4: expect I + 2Z E_13, order 2
        table = generate_group([E(3, 4, 1, 2), E(3, 4, 2, 3)])
        got = lower_p_central(table, 2, 3)
        assert set(got.elements) == central_layer(2, 2, 3)

    def test_result_is_central_small(self):
        table = generate_group([E(3, 4, 1, 2), E(3, 4, 2, 3)])
        got = lower_p_central(table, 2, 3)
        for h in got:
            for g in table:
                assert g * h == h * g

    def test_validates_input(self):
        table = generate_group([E(2, 4, 1, 2)])
        with pytest.raises(ValueError):
            lower_p_central(table, 4, 2)
        with pytest.raises(ValueError):
            lower_p_central(table, 2, 0)


MODULI = (2, 9, 49, 13**4, 2**61)


@st.composite
def matrix_pairs(draw):
    size = draw(st.integers(2, 5))
    modulus = draw(st.sampled_from(MODULI))
    count = draw(st.integers(1, 6))
    k = size * (size - 1) // 2
    entries = st.lists(st.integers(0, modulus - 1), min_size=k, max_size=k)

    def draw_matrices():
        return [UnipotentMatrix(size, modulus, draw(entries)) for _ in range(count)]

    return size, modulus, draw_matrices(), draw_matrices()


def scalar_power(x: UnipotentMatrix, k: int) -> UnipotentMatrix:
    """x^k by binary powering on the scalar ``__mul__``, not the row kernels."""
    return power(x, k, operator.mul, UnipotentMatrix.identity(x.size, x.modulus))


def assert_inverses(rows, xs):
    # Each row is a two-sided inverse of its matrix under the scalar product.
    for x, row in zip(xs, rows.T.tolist()):
        inv = UnipotentMatrix(x.size, x.modulus, row)
        assert (x * inv).is_identity() and (inv * x).is_identity()


class TestBatchedKernel:
    """The group engine's array kernel against the scalar product."""

    @settings(max_examples=200)
    @given(matrix_pairs(), st.integers(0, 13))
    def test_rows_match_scalar_operators(self, pair, k):
        size, modulus, xs, ys = pair
        a = matgrp._rows(xs, size, modulus)
        b = matgrp._rows(ys, size, modulus)
        data = lambda ms: [list(m.data) for m in ms]  # noqa: E731
        assert matgrp._mul_rows(a, b, size, modulus).T.tolist() == data(
            x * y for x, y in zip(xs, ys)
        )
        assert_inverses(matgrp._inverse_rows(a, size, modulus), xs)
        assert matgrp._pow_rows(a, k, size, modulus).T.tolist() == data(
            scalar_power(x, k) for x in xs
        )

    def test_dtype_follows_modulus(self):
        assert matgrp._rows([E(3, 13**4, 1, 2)], 3, 13**4).dtype == np.int64
        # (2^61 - 1)^2 overflows int64, so entries stay exact Python ints
        big = 2**61
        rng = random.Random(3)
        xs = [UnipotentMatrix(4, big, [rng.randrange(big) for _ in range(6)]) for _ in range(3)]
        a = matgrp._rows(xs, 4, big)
        assert a.dtype == object
        assert matgrp._mul_rows(a, a[:, ::-1], 4, big).T.tolist() == [
            list((x * y).data) for x, y in zip(xs, xs[::-1])
        ]
        assert_inverses(matgrp._inverse_rows(a, 4, big), xs)
        assert matgrp._pow_rows(a, 7, 4, big).T.tolist() == [
            list(scalar_power(x, 7).data) for x in xs
        ]

    @pytest.mark.parametrize("size", range(2, 8))
    def test_single_reduction_at_the_dtype_switch(self, size):
        # An entry sums up to size unreduced products of residues before its
        # one reduction: the largest prime whose sums fit int64, and the
        # smallest prime above it, which must take exact ints.  (A power of
        # 2 would hide an overflow, which wraps mod 2^64.)
        limit = math.isqrt(np.iinfo(np.int64).max // size) + 1
        below = next(m for m in range(limit, 0, -1) if series.is_prime(m))
        above = next(m for m in itertools.count(limit + 1) if series.is_prime(m))
        rng = random.Random(size)
        entries = size * (size - 1) // 2
        for modulus, dtype in ((below, np.int64), (above, object)):
            # the all-(m-1) matrix makes every unreduced sum as large as it gets
            xs = [UnipotentMatrix(size, modulus, [modulus - 1] * entries)]
            xs += [UnipotentMatrix(size, modulus, [rng.randrange(modulus) for _ in range(entries)])
                   for _ in range(4)]
            a = matgrp._rows(xs, size, modulus)
            assert a.dtype == dtype
            assert matgrp._mul_rows(a, a[:, ::-1], size, modulus).T.tolist() == [
                list((x * y).data) for x, y in zip(xs, xs[::-1])
            ]
            assert_inverses(matgrp._inverse_rows(a, size, modulus), xs)

    @pytest.mark.parametrize("size", range(1, 8))
    @pytest.mark.parametrize("modulus, dtype", [(13**5, np.int64), (3**25, object)])
    def test_entry_major_kernels_match_scalar(self, size, modulus, dtype):
        # one contiguous row per entry; 3^25 is near 2^40, past int64's reach
        rng = random.Random(size)
        entries = size * (size - 1) // 2
        for count in (0, 1, 6):
            xs, ys = (
                [UnipotentMatrix(size, modulus, [rng.randrange(modulus) for _ in range(entries)])
                 for _ in range(count)]
                for _ in range(2)
            )
            a, b = matgrp._rows(xs, size, modulus), matgrp._rows(ys, size, modulus)
            assert a.shape == (entries, count) and a.dtype == dtype and a.flags.c_contiguous
            product = matgrp._mul_rows(a, b, size, modulus)
            assert product.shape == (entries, count)
            assert product.T.tolist() == [list((x * y).data) for x, y in zip(xs, ys)]
            inverse = matgrp._inverse_rows(a, size, modulus)
            assert inverse.shape == (entries, count)
            assert inverse.T.tolist() == [list(x.inverse().data) for x in xs]
            assert_inverses(inverse, xs)

    def test_unique_rows_sorts_lexicographically(self):
        rows = np.array([[1, 0], [0, 2], [1, 0], [0, 1]]).T
        assert matgrp._unique_rows(rows).T.tolist() == [[0, 1], [0, 2], [1, 0]]
        assert matgrp._unique_rows(np.zeros((0, 3), dtype=np.int64)).shape == (0, 1)


class TestBinomialPowers:
    """``_pow_rows`` by the binomial series against scalar binary powering."""

    @pytest.mark.parametrize("size", range(2, 8))
    @pytest.mark.parametrize("modulus", [2**5, 13**3, 2**61])
    def test_matches_scalar_power(self, size, modulus):
        rng = random.Random(size)
        entries = size * (size - 1) // 2
        xs = [UnipotentMatrix(size, modulus, [rng.randrange(modulus) for _ in range(entries)])
              for _ in range(3)]
        a = matgrp._rows(xs, size, modulus)
        assert a.dtype == (object if modulus == 2**61 else np.int64)
        prime_powers = [p**e for p in (2, 3, 13) for e in range(1, 19) if p**e <= 13**5]
        large = [rng.randrange(2**20, 2**64) for _ in range(3)]
        for k in list(range(size + 2)) + prime_powers + large:
            assert matgrp._pow_rows(a, k, size, modulus).T.tolist() == [
                list(scalar_power(x, k).data) for x in xs
            ], k

    def test_stacks_of_batches(self):
        rng = random.Random(8)
        xs = [UnipotentMatrix(5, 7**3, [rng.randrange(7**3) for _ in range(10)])
              for _ in range(6)]
        a = matgrp._rows(xs, 5, 7**3).reshape(10, 2, 3)
        got = matgrp._pow_rows(a, 7**2, 5, 7**3).reshape(10, 6)
        assert got.T.tolist() == [list(scalar_power(x, 7**2).data) for x in xs]

    @pytest.mark.parametrize("size", range(1, 8))
    def test_at_most_size_minus_two_products(self, size, monkeypatch):
        calls = []
        real = matgrp._mul_rows
        monkeypatch.setattr(matgrp, "_mul_rows", lambda *args: calls.append(1) or real(*args))
        a = np.ones((size * (size - 1) // 2, 2), dtype=np.int64)
        for k in list(range(10)) + [13**4, 13**5, 2**40 + 1, 3**50]:
            calls.clear()
            matgrp._pow_rows(a, k, size, 13**3)
            assert len(calls) <= max(size - 2, 0)
            assert len(calls) == max(min(k, size - 1) - 1, 0)


def reference_closure(gens, identity):
    """Scalar frontier BFS: one UnipotentMatrix product at a time."""
    seen, frontier = {identity}, [identity]
    while frontier:
        new = {a * g for a in frontier for g in gens} - seen
        seen |= new
        frontier = list(new)
    return sorted(seen, key=lambda m: m.data)


def reference_lower_p_central(table, p, n):
    """Scalar all-pairs oracle for lower_p_central."""
    identity = UnipotentMatrix.identity(table.elements[0].size, table.elements[0].modulus)
    term = list(table)
    for _ in range(n - 1):
        gens = {h**p for h in term}
        gens |= {g.inverse() * h.inverse() * g * h for h in term for g in table}
        term = reference_closure(gens, identity)
    return term


def random_lift_generators(rng, s, p, n):
    # lifts of the standard generators plus one fully random element
    size, modulus = s + 1, p ** (n - s + 1)
    gens = []
    for i in range(1, size):
        unit = rng.choice([u for u in range(1, modulus) if u % p])
        entries = {(i, j): rng.randrange(modulus) for j in range(i + 2, size + 1)}
        entries[(i, i + 1)] = unit
        gens.append(UnipotentMatrix.from_entries(size, modulus, entries))
    k = size * (size - 1) // 2
    gens.append(UnipotentMatrix(size, modulus, [rng.randrange(modulus) for _ in range(k)]))
    return gens


class TestAgainstScalarOracle:
    @pytest.mark.parametrize("block", [matgrp.BLOCK, 5])
    @pytest.mark.parametrize("seed,s,p,n", [(1, 2, 2, 3), (2, 3, 2, 3), (3, 2, 3, 2)])
    def test_every_term_matches(self, monkeypatch, block, seed, s, p, n):
        monkeypatch.setattr(matgrp, "BLOCK", block)
        gens = random_lift_generators(random.Random(seed), s, p, n)
        table = generate_group(gens)
        identity = UnipotentMatrix.identity(s + 1, gens[0].modulus)
        assert list(table) == reference_closure(gens, identity)
        for k in range(1, n + 2):
            assert list(lower_p_central(table, p, k)) == reference_lower_p_central(table, p, k)


class TestMatrixJson:
    def test_roundtrip(self):
        a = UnipotentMatrix.from_entries(4, 8, {(1, 2): 3, (1, 4): 5})
        # Only nonzero strictly-upper entries, 1-based, row-major.
        assert a.to_json() == {"size": 4, "modulus": 8, "entries": [[1, 2, 3], [1, 4, 5]]}
