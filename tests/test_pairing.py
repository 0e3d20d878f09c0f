"""The duality pairing, its matrix, inversion, and vanishing rules."""

import importlib
import random

import numpy as np
import pytest

import lynmag
import lynmag.cli
import lynmag.matgrp
import lynmag.series
import lynmag.shufalg
import lynmag.verify
from lynmag.errors import ConsistencyError
from lynmag.freegrp import tau, tau_plan
from lynmag.matgrp import iota, rho
from lynmag.pairing import (
    PairingMatrix,
    dual_change_of_basis,
    h2_dimension,
    pairing,
    pairing_matrix,
    pairing_rows,
    vanishing_checks,
)
from lynmag.series import TruncatedSeries, magnus
from lynmag.words import Alphabet, Word, all_words, lyndon_words

# The package rebinds the name lynmag.pairing to the function.
PAIRING = importlib.import_module("lynmag.pairing")

X1 = Alphabet("x")
XY = Alphabet("xy")
XYZ = Alphabet("xyz")


class TestPairingValues:
    def test_diagonal_is_one(self):
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for w in lyndon_words(XY, n):
                    assert pairing(w, w, n, p) == 1

    def test_lower_pairs_vanish(self):
        # w' strictly preceq-smaller than w forces 0
        for p in (2, 3):
            ws = lyndon_words(XY, 3)
            for i, w in enumerate(ws):
                for w_prime in ws[:i]:
                    assert pairing(w, w_prime, 3, p) == 0

    def test_pinned_degree_three_values(self):
        for p in (2, 3, 5):
            assert pairing(XY.word("xxy"), XY.word("xyy"), 3, p) == 0
            got = pairing(XYZ.word("xyz"), XYZ.word("xzy"), 3, p)
            assert got == (p - 1) % p

    def test_result_is_mod_p(self):
        r = pairing(XY.word("x"), XY.word("x"), 3, 5)
        assert type(r) is int and r == 1 and 0 <= r < 5

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pairing(XY.word("yx"), XY.word("x"), 2, 3)  # not Lyndon
        with pytest.raises(ValueError):
            pairing(XY.word("x"), XY.word(""), 2, 3)  # empty w'
        with pytest.raises(ValueError):
            pairing(XY.word("xxy"), XY.word("x"), 2, 3)  # |w| > n
        with pytest.raises(ValueError):
            pairing(XY.word("x"), XY.word("x"), 2, 4)  # p not prime
        with pytest.raises(ValueError):
            pairing(XY.word("x"), XYZ.word("x"), 2, 3)


class TestDualityTableDegreeTwo:
    """The displayed degree-2 duality values, all alphabets of size <= 3."""

    def test_letter_against_own_power_row(self):
        for p in (2, 3, 5):
            for x in "xyz":
                assert pairing(XYZ.word(x), XYZ.word(x), 2, p) == 1

    def test_letter_against_other_letter(self):
        for p in (2, 3, 5):
            for x in "xyz":
                for y in "xyz":
                    if x != y:
                        assert pairing(XYZ.word(x), XYZ.word(y), 2, p) == 0

    def test_letter_against_length_two_words(self):
        # Zero throughout, except the p=2 coincidence at w' = xx, where the
        # value is the Bockstein value 1 (binom(2,2) is odd).
        for p in (2, 3, 5):
            for x in "xyz":
                w = XYZ.word(x)
                for w_prime in all_words(XYZ, 2):
                    got = pairing(w, w_prime, 2, p)
                    if p == 2 and w_prime.indices == (w.indices[0],) * 2:
                        assert got == 1
                    else:
                        assert got == 0

    def test_commutator_against_letters(self):
        for p in (2, 3, 5):
            for pair in ("xy", "xz", "yz"):
                for z in "xyz":
                    assert pairing(XYZ.word(pair), XYZ.word(z), 2, p) == 0

    def test_commutator_against_pairs(self):
        for p in (2, 3, 5):
            for pair in ("xy", "xz", "yz"):
                w = XYZ.word(pair)
                rev = pair[::-1]
                for w_prime in all_words(XYZ, 2):
                    got = pairing(w, w_prime, 2, p)
                    if str(w_prime) == pair:
                        assert got == 1
                    elif str(w_prime) == rev:
                        assert got == (p - 1) % p
                    else:
                        assert got == 0


class TestPairingMatrix:
    def test_n1_identity(self):
        for p in (2, 5):
            assert pairing_matrix(1, p, XYZ).is_identity()

    def test_n2_identity(self):
        for p in (2, 3, 5):
            for alphabet in (X1, XY, XYZ):
                M = pairing_matrix(2, p, alphabet)
                assert M.is_identity()
                assert M.dimension() == h2_dimension(2, alphabet)

    def test_n3_two_letters_identity(self):
        # no triple of distinct letters exists, so no off-diagonal entry
        M = pairing_matrix(3, 3, XY)
        assert M.is_identity()
        assert [str(w) for w in M.index] == ["x", "y", "xy", "xxy", "xyy"]

    def test_n3_three_letters_single_offdiagonal(self):
        for p in (2, 3, 5):
            M = pairing_matrix(3, p, XYZ)
            expected = np.eye(14, dtype=np.int64)
            names = [str(w) for w in M.index]
            expected[names.index("xyz"), names.index("xzy")] = (p - 1) % p
            assert np.array_equal(M.rows, expected)

    def test_entry_lookup(self):
        M = pairing_matrix(3, 5, XYZ)
        assert M.entry(XYZ.word("xyz"), XYZ.word("xzy")) == 4
        assert M.entry(XYZ.word("x"), XYZ.word("x")) == 1


class TestTriangularityCheck:
    """``pairing_matrix`` names the first entry that breaks its shape."""

    @staticmethod
    def first_offender(index, rows, n):
        # entry by entry: row by row, the diagonal before the lower entries
        for i in range(len(index)):
            if rows[i, i] != 1:
                return f"diagonal entry <{index[i]}, {index[i]}>_{n} = {rows[i, i]}, not 1"
            for j in range(i):
                if rows[i, j]:
                    return (
                        f"lower entry <{index[i]}, {index[j]}>_{n} = {rows[i, j]} "
                        "breaks upper-triangularity"
                    )
        return None

    @pytest.mark.parametrize("seed", range(30))
    def test_same_first_offender(self, seed, monkeypatch):
        rng = random.Random(seed)
        index = lyndon_words(XYZ, 3)
        rows = pairing_rows(index, index, 3, 5)
        d = len(index)
        for _ in range(rng.randrange(4)):
            i = rng.randrange(d)
            j = rng.choice([i, rng.randrange(d)])  # the diagonal half the time
            rows[i, j] = rng.randrange(5)
        monkeypatch.setattr(PAIRING, "pairing_rows", lambda *args: rows)
        want = self.first_offender(index, rows, 3)
        if want is None:
            assert np.array_equal(pairing_matrix(3, 5, XYZ).rows, rows)
        else:
            with pytest.raises(ConsistencyError) as got:
                pairing_matrix(3, 5, XYZ)
            assert str(got.value) == want


class TestDualChangeOfBasis:
    def test_n2_identity(self):
        M = pairing_matrix(2, 3, XY)
        assert np.array_equal(dual_change_of_basis(M), np.eye(3, dtype=np.int64))

    def test_n3_single_flip(self):
        for p in (2, 3, 5):
            M = pairing_matrix(3, p, XYZ)
            inv = dual_change_of_basis(M)
            names = [str(w) for w in M.index]
            expected = np.eye(14, dtype=np.int64)
            expected[names.index("xyz"), names.index("xzy")] = 1 % p
            assert np.array_equal(inv, expected)

    def test_inverse_property(self):
        for n, p, alphabet in [(3, 2, XY), (3, 5, XYZ), (4, 3, XY)]:
            M = pairing_matrix(n, p, alphabet)
            inv = dual_change_of_basis(M)
            d = M.dimension()
            assert np.array_equal((M.rows @ inv) % p, np.eye(d, dtype=np.int64))
            assert np.array_equal((inv @ M.rows) % p, np.eye(d, dtype=np.int64))


class TestH2Dimension:
    def test_pinned(self):
        assert h2_dimension(3, XY) == 5
        assert h2_dimension(2, XY) == 3
        for m, alphabet in [(1, X1), (2, XY), (3, XYZ)]:
            assert h2_dimension(1, alphabet) == m

    def test_matches_enumeration(self):
        for n in range(1, 5):
            for alphabet in (XY, XYZ):
                assert h2_dimension(n, alphabet) == len(lyndon_words(alphabet, n))


class TestVanishingChecks:
    def test_clean_report(self):
        rep = vanishing_checks(3, 3, XYZ)
        assert rep["passed"]
        assert rep["counterexamples"] == []
        assert rep["pairs_checked"] > 300
        assert rep["by_rule"]["letters"] > 0
        assert rep["by_rule"]["length-gap"] > 0

    def test_rule_examples_direct(self):
        # letters rule: w' uses z, absent from w
        assert pairing(XYZ.word("xy"), XYZ.word("xz"), 3, 3) == 0
        # length-gap rule: |w|=2 < |w'|=3 < 4
        for w_prime in all_words(XYZ, 3):
            assert pairing(XYZ.word("xy"), w_prime, 3, 3) == 0

    def test_degree_four_two_letters(self):
        rep = vanishing_checks(4, 2, XY)
        assert rep["passed"]


class TestSerialization:
    def test_json_shape(self):
        M = pairing_matrix(2, 3, XY)
        data = M.to_json()
        assert data["p"] == 3 and data["n"] == 2
        assert data["index"] == ["x", "y", "xy"]
        assert data["rows"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_csv_balanced_entries(self):
        M = pairing_matrix(3, 5, XYZ)
        csv = M.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("w,x,y,z,")
        assert len(lines) == 15
        row = next(l for l in lines if l.startswith("xyz,"))
        assert ",-1" in row  # balanced representative of 4 mod 5


def reference_pairing(w: Word, w_prime: Word, n: int, p: int) -> int:
    """The per-entry definition: expand the generator into a group word,
    read the Magnus coefficient of w', and read iota of rho(w', g)."""
    g = tau(w) ** (p ** (n - len(w)))
    s = len(w_prime)
    modulus, shift = p ** (n - s + 1), p ** (n - s)
    c = magnus(g, modulus, s).coeffs.get(w_prime.indices, 0)
    assert c % shift == 0
    assert iota(n, s, rho(w_prime, g, modulus)) == c // shift
    return c // shift


def reference_rows(ws, words, n, p) -> np.ndarray:
    return np.array([[reference_pairing(w, v, n, p) for v in words] for w in ws])


class TestRowsAgainstReference:
    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lyndon_rows_two_letters(self, n, p):
        index = lyndon_words(XY, n)
        got = pairing_rows(index, index, n, p)
        assert np.array_equal(got, reference_rows(index, index, n, p))
        assert np.array_equal(pairing_matrix(n, p, XY).rows, got)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lyndon_rows_three_letters(self, n, p):
        index = lyndon_words(XYZ, n)
        got = pairing_rows(index, index, n, p)
        assert np.array_equal(got, reference_rows(index, index, n, p))

    @pytest.mark.parametrize("p", [2, 3])
    def test_all_words_two_letters(self, p):
        index = lyndon_words(XY, 4)
        words = [w for length in range(1, 5) for w in all_words(XY, length)]
        got = pairing_rows(index, words, 4, p)
        assert np.array_equal(got, reference_rows(index, words, 4, p))

    def test_single_entry_is_one_by_one_row(self):
        w, v = XYZ.word("xyz"), XYZ.word("xzy")
        assert pairing(w, v, 3, 5) == int(pairing_rows([w], [v], 3, 5)[0, 0]) == 4

    def test_moduli_beyond_int64(self):
        # 13^9 squared overflows int64: both routes switch to exact integers
        ws = [XY.word(t) for t in ("x", "y", "xy")]
        words = [XY.word(t) for t in ("x", "y", "xy", "yx", "xx")]
        want = pairing_rows(ws, words, 2, 13)
        assert np.array_equal(pairing_rows(ws, words, 9, 13), want)
        assert want[2].tolist() == [0, 0, 1, 12, 0]
        # 2^31: factor pairs fit int32, but products of size 3 need exact ints
        assert np.array_equal(pairing_rows(ws, words, 31, 2), pairing_rows(ws, words, 2, 2))

    def test_repeated_unsorted_words(self):
        # Each route evaluates a repeated word once and fills every row of it.
        names = ["xyy", "x", "xy", "y", "x", "xxy", "xy", "xyy"]
        ws = [XY.word(t) for t in names]
        words = list(all_words(XY, 3)) + [XY.word("yx")]
        distinct = lyndon_words(XY, 3)
        want = pairing_rows(distinct, words, 4, 3)
        got = pairing_rows(ws, words, 4, 3)
        assert np.array_equal(got, want[[distinct.index(w) for w in ws]])

    def test_empty_requests(self):
        assert pairing_rows([], [XY.word("x")], 2, 3).shape == (0, 1)
        assert pairing_rows([XY.word("x")], [], 2, 3).shape == (1, 0)


class TestInfixColumns:
    """The matrix route reads each w' off a diagonal block of a cover word."""

    @staticmethod
    def per_pair(ws, words, n, p):
        return np.array([[pairing(w, v, n, p) for v in words] for w in ws])

    @pytest.mark.parametrize("n, p", [(3, 2), (4, 3), (5, 5)])
    def test_infix_that_is_no_prefix(self, n, p):
        # y and yy lie inside xyy at offset 1, and in no word at offset 0
        words = [XY.word(t) for t in ("y", "xyy", "yy")]
        covers, places = PAIRING._infix_cover(words)
        assert covers == [XY.word("xyy")]
        assert places == [(0, 1), (0, 0), (0, 1)]
        ws = lyndon_words(XY, 3)
        assert np.array_equal(pairing_rows(ws, words, n, p), self.per_pair(ws, words, n, p))

    @pytest.mark.parametrize("n, p", [(3, 2), (4, 3)])
    def test_repeated_columns(self, n, p):
        words = [XY.word(t) for t in ("xy", "y", "xy", "x", "y", "xxy", "x")]
        covers, _ = PAIRING._infix_cover(words)
        assert covers == [XY.word("xxy")]
        ws = lyndon_words(XY, 3)
        assert np.array_equal(pairing_rows(ws, words, n, p), self.per_pair(ws, words, n, p))

    @pytest.mark.parametrize("n, p", [(3, 3), (4, 2)])
    def test_columns_of_one_length(self, n, p):
        # no word of one length is a proper infix of another: each covers itself
        words = list(all_words(XY, 3))
        covers, places = PAIRING._infix_cover(words)
        assert sorted(map(str, covers)) == sorted(map(str, words))
        assert all(start == 0 for _, start in places)
        ws = lyndon_words(XY, 3)
        assert np.array_equal(pairing_rows(ws, words, n, p), self.per_pair(ws, words, n, p))


class TestSeriesWalk:
    """The series route's walk of the tau recursion on augmentation parts."""

    @pytest.mark.parametrize("degree", range(1, 7))
    @pytest.mark.parametrize("modulus", [9, 125, 2**70])
    def test_parts_are_magnus_of_tau(self, degree, modulus):
        # degree below |w| leaves factor inverses truncated below degree 0
        ws = lyndon_words(XYZ, 5)
        request = ws[::-1] + ws[:3]
        got = dict(PAIRING._tau_parts(tau_plan(request), request, degree, modulus))
        assert set(got) == set(ws)
        for w in ws:
            want = dict(magnus(tau(w), modulus, degree).coeffs)
            del want[()]
            assert got[w] == want, w


class TestFaultInjection:
    """A corrupted route must surface as a ConsistencyError naming the pair."""

    def test_series_route_off_by_one(self, monkeypatch):
        real = PAIRING.series_pow

        def shifted(f, k):
            # adds p^(n-1) x: divisibility still holds, the value moves by 1
            bump = TruncatedSeries(f.alphabet, f.modulus, f.degree, {(0,): 9})
            return real(f, k) + bump

        monkeypatch.setattr(PAIRING, "series_pow", shifted)
        with pytest.raises(ConsistencyError, match=r"routes disagree for <x, x>_3: series 2, matrix 1"):
            pairing_matrix(3, 3, XY)

    def test_series_route_divisibility(self, monkeypatch):
        real = PAIRING.series_pow

        def broken(f, k):
            return real(f, k) + TruncatedSeries(f.alphabet, f.modulus, f.degree, {(0,): 1})

        monkeypatch.setattr(PAIRING, "series_pow", broken)
        with pytest.raises(
            ConsistencyError,
            match=r"coefficient 10 of x in the image of tau\(x\)\*\*\(p\*\*2\) "
            r"is not divisible by 9 mod 27",
        ):
            pairing(XY.word("x"), XY.word("x"), 3, 3)

    def test_series_route_truncated_short(self, monkeypatch):
        # every product of the series walk drops its top degree
        real = PAIRING._combine

        def short(terms, degree, modulus):
            return real(terms, degree - 1, modulus)

        monkeypatch.setattr(PAIRING, "_combine", short)
        with pytest.raises(ConsistencyError, match=r"routes disagree for <xxy, xxy>_3: series 0, matrix 1"):
            pairing_matrix(3, 3, XY)

    def test_matrix_route_letter_image(self, monkeypatch):
        real = lynmag.matgrp.letter_rows

        def doubled(words, letter, size, modulus):
            return 2 * real(words, letter, size, modulus) % modulus

        monkeypatch.setattr(lynmag.matgrp, "letter_rows", doubled)
        with pytest.raises(ConsistencyError, match=r"routes disagree for <x, x>_3: series 1, matrix 2"):
            pairing(XY.word("x"), XY.word("x"), 3, 3)

    def test_non_central_matrix_gives_iota_message(self, monkeypatch):
        real = PAIRING.tau_power_rows

        def skewed(*args):
            for positions, batch in real(*args):
                batch = batch.copy()
                batch[0] += 1  # entry (1, 2) of every matrix
                yield positions, batch

        monkeypatch.setattr(PAIRING, "tau_power_rows", skewed)
        with pytest.raises(
            ConsistencyError,
            match=r"matrix route failed for <xy, xy>_2: "
            r"matrix is not in the central subgroup: entry \(1,2\) = 1",
        ):
            pairing(XY.word("xy"), XY.word("xy"), 2, 3)

    def test_entry_read_only_through_an_infix_block(self, monkeypatch):
        # Entry (2, 3) of the xyy batch is entry (1, 2) of the yy block at
        # offset 1.  Adding 3 leaves it 0 mod 3, where the cover xyy reads
        # it, and makes it 3 mod 9, where yy reads it.
        real = PAIRING.tau_power_rows

        def skewed(*args):
            for positions, batch in real(*args):
                batch = batch.copy()
                batch[3] += 3  # entry (2, 3) of every matrix of size 4
                yield positions, batch

        monkeypatch.setattr(PAIRING, "tau_power_rows", skewed)
        w, cover, infix = (XY.word(t) for t in ("xyy", "xyy", "yy"))
        assert pairing_rows([w], [cover], 3, 3).tolist() == [[1]]
        with pytest.raises(
            ConsistencyError,
            match=r"matrix route failed for <xyy, yy>_3: "
            r"matrix is not in the central subgroup: entry \(1,2\) = 3",
        ):
            pairing_rows([w], [cover, infix], 3, 3)


def test_routes_never_call_magnus_or_rho(monkeypatch):
    want = pairing_matrix(4, 3, XY).rows

    def forbidden(*args, **kwargs):
        raise AssertionError("the pairing must not call magnus or rho")

    for module in (lynmag, lynmag.series, lynmag.matgrp, PAIRING, lynmag.shufalg,
                   lynmag.verify, lynmag.cli):
        for name in ("magnus", "rho"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert np.array_equal(pairing_matrix(4, 3, XY).rows, want)
