"""Shuffle and infiltration products, span reduction, and the congruences."""

import random
import tracemalloc
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest

import lynmag.shufalg as shufalg
from lynmag.errors import ConsistencyError
from lynmag.freegrp import GroupWord, parse_group_word
from lynmag.linalg import rref_mod_p
from lynmag.series import TruncatedSeries, inner_product, magnus
from lynmag.shufalg import (
    cfl_check,
    infiltration,
    palindrome_identity,
    reduce_mod_shuffles,
    shuffle,
    shuffle_congruence_check,
    shuffle_span_basis,
)
from lynmag.words import Alphabet, Word, all_words, lyndon_words, necklace

XY = Alphabet(("x", "y"))
XYZ = Alphabet(("x", "y", "z"))
XYZT = Alphabet(("x", "y", "z", "t"))


def poly(alphabet, coeffs):
    keys = {alphabet.word(text).indices: c for text, c in coeffs.items()}
    return TruncatedSeries(alphabet, None, None, keys)


def random_group_word(alphabet, rng, length):
    g = GroupWord.identity(alphabet)
    for _ in range(length):
        letter = rng.choice(alphabet.letters)
        g = g * GroupWord.generator(alphabet, letter) ** rng.choice((1, -1))
    return g


class TestProducts:
    def test_shuffle_pinned(self):
        w = XYZ.word
        assert shuffle(w("xy"), w("xz")) == poly(
            XYZ, {"xyxz": 1, "xxyz": 2, "xxzy": 2, "xzxy": 1}
        )
        assert shuffle(w("x"), w("x")) == poly(XYZ, {"xx": 2})
        assert shuffle(w("x"), w("y")) == poly(XYZ, {"xy": 1, "yx": 1})

    def test_infiltration_pinned(self):
        w = XYZ.word
        assert infiltration(w("x"), w("x")) == poly(XYZ, {"xx": 2, "x": 1})
        assert infiltration(w("xy"), w("xz")) == shuffle(w("xy"), w("xz")) + poly(
            XYZ, {"xyz": 1, "xzy": 1}
        )

    def test_empty_factor_rejected(self):
        empty = Word(XY, ())
        with pytest.raises(ValueError):
            shuffle(empty, XY.word("x"))
        with pytest.raises(ValueError):
            infiltration(XY.word("x"), empty)

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            shuffle(XY.word("x"), XYZ.word("y"))

    def test_commutative_and_homogeneous(self):
        rng = random.Random(7)
        for _ in range(200):
            u = Word(XYZ, tuple(rng.randrange(3) for _ in range(rng.randint(1, 4))))
            v = Word(XYZ, tuple(rng.randrange(3) for _ in range(rng.randint(1, 4))))
            q = shuffle(u, v)
            assert q == shuffle(v, u)
            assert infiltration(u, v) == infiltration(v, u)
            assert all(len(key) == len(u) + len(v) for key in q.coeffs)
            assert all(c > 0 for c in q.coeffs.values())

    def test_top_degree_and_coefficient_sum_exhaustive(self):
        # All pairs with |u| + |v| <= 6 over three letters; alphabets of
        # one or two letters are the subsets of these using fewer letters.
        for total in range(2, 7):
            for a in range(1, total):
                for u in all_words(XYZ, a):
                    for v in all_words(XYZ, total - a):
                        q = shuffle(u, v)
                        assert infiltration(u, v).homogeneous_part(total) == q
                        assert sum(q.coeffs.values()) == comb(total, a)


# Each congruence: lhs = sum of c * (u shuffle v) + extra, exactly over Z.
CONGRUENCES = [
    ("yx", {"yx": 1}, [(1, "x", "y")], {"xy": -1}),
    ("2xx", {"xx": 2}, [(1, "x", "x")], {}),
    ("xyx", {"xyx": 1}, [(1, "x", "xy")], {"xxy": -2}),
    ("yxx", {"yxx": 1}, [(1, "x", "yx"), (-1, "xx", "y")], {"xxy": 1}),
    ("yxy", {"yxy": 1}, [(1, "xy", "y")], {"xyy": -2}),
    ("yyx", {"yyx": 1}, [(1, "yy", "x"), (-1, "y", "xy")], {"xyy": 1}),
    ("yxz", {"yxz": 1}, [(1, "y", "xz")], {"xyz": -1, "xzy": -1}),
    ("zxy", {"zxy": 1}, [(1, "z", "xy")], {"xzy": -1, "xyz": -1}),
    ("yzx", {"yzx": 1}, [(1, "zx", "y"), (-1, "x", "zy")], {"xzy": 1}),
    ("zyx", {"zyx": 1}, [(1, "yx", "z"), (-1, "x", "yz")], {"xyz": 1}),
    ("3xxx", {"xxx": 3}, [(1, "x", "xx")], {}),
]


class TestCongruenceTable:
    @pytest.mark.parametrize(
        "lhs,shuffles,extra",
        [row[1:] for row in CONGRUENCES],
        ids=[row[0] for row in CONGRUENCES],
    )
    def test_identity_exact(self, lhs, shuffles, extra):
        rhs = poly(XYZ, extra)
        for c, u, v in shuffles:
            rhs = rhs + shuffle(XYZ.word(u), XYZ.word(v)).scale(c)
        assert poly(XYZ, lhs) == rhs


class TestPalindrome:
    def test_k2_is_basic_shuffle(self):
        lhs, rhs = palindrome_identity(XY.word("xy"))
        assert lhs == shuffle(XY.word("x"), XY.word("y"))
        assert lhs == rhs

    def test_k3_signs(self):
        lhs, _ = palindrome_identity(XYZ.word("xyz"))
        assert lhs == poly(XYZ, {"xyz": 1, "zyx": -1})

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_holds_up_to_five_letters(self, k):
        alphabet = Alphabet(tuple("abcde"[:k]))
        lhs, rhs = palindrome_identity(Word(alphabet, tuple(range(k))))
        assert lhs == rhs
        # Also letter orderings other than the alphabet order.
        lhs, rhs = palindrome_identity(Word(alphabet, tuple(reversed(range(k)))))
        assert lhs == rhs

    def test_rejects_repeats_and_short_input(self):
        with pytest.raises(ValueError):
            palindrome_identity(XY.word("xyx"))
        with pytest.raises(ValueError):
            palindrome_identity(XY.word("x"))


class TestCflIdentity:
    def test_single_letter(self):
        x = XY.word("x")
        assert cfl_check(x, x, parse_group_word(XY, "x"), 25)

    def test_commutator(self):
        sigma = parse_group_word(XY, "[x, y]")
        assert cfl_check(XY.word("x"), XY.word("y"), sigma, 25)

    @pytest.mark.parametrize("modulus", [2**5, 27, 125, None])
    def test_randomized(self, modulus):
        rng = random.Random(11)
        words = [w for s in (1, 2) for w in all_words(XY, s)]
        for _ in range(30):
            sigma = random_group_word(XY, rng, rng.randint(1, 8))
            for u in words:
                for v in words:
                    assert cfl_check(u, v, sigma, modulus)

    def test_three_letters(self):
        rng = random.Random(13)
        sigma = random_group_word(XYZ, rng, 6)
        for u in all_words(XYZ, 1):
            for v in all_words(XYZ, 2):
                assert cfl_check(u, v, sigma, 27)

    def test_validation(self):
        x, y = XY.word("x"), XY.word("y")
        with pytest.raises(ValueError, match="different alphabet"):
            cfl_check(x, y, parse_group_word(XYZ, "x"), 25)
        with pytest.raises(ValueError, match="different alphabets"):
            cfl_check(x, XYZ.word("y"), parse_group_word(XY, "x"), None)
        with pytest.raises(ValueError, match="nonempty"):
            cfl_check(Word(XY, ()), y, parse_group_word(XY, "x"), 27)


class TestChecksMatchDefinition:
    """The checks read cached products; their definition builds series.

    The coefficient identity is a theorem, so cfl_check answers True on
    every input; the congruence check is the one that also answers False.
    """

    @staticmethod
    def cfl_by_definition(u, v, sigma, modulus):
        f = magnus(sigma, modulus, len(u) + len(v))
        lhs = f.coefficient(u) * f.coefficient(v)
        rhs = inner_product(f, infiltration(u, v))
        if modulus is None:
            return lhs == rhs
        return (lhs - rhs) % modulus == 0

    @staticmethod
    def congruence_by_definition(u, v, sigma, n, p):
        s = len(u) + len(v)
        f = magnus(sigma, p ** (n + 2), s)
        return inner_product(f, shuffle(u, v)) % p ** (n - s + 1) == 0

    @pytest.mark.parametrize("modulus", [None, 3**5, 2**5])
    def test_cfl_check(self, modulus):
        rng = random.Random(17)
        words = [w for s in (1, 2, 3) for w in all_words(XY, s)]
        for _ in range(8):
            sigma = random_group_word(XY, rng, rng.randint(1, 10))
            for u in words:
                for v in words:
                    want = self.cfl_by_definition(u, v, sigma, modulus)
                    assert cfl_check(u, v, sigma, modulus) == want

    @pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (4, 3), (4, 5)])
    def test_shuffle_congruence_check(self, n, p):
        rng = random.Random(19 + n * p)
        pairs = [
            (u, v)
            for a in range(1, n)
            for u in all_words(XY, a)
            for b in range(1, n - a + 1)
            for v in all_words(XY, b)
        ]
        sigmas = [random_group_word(XY, rng, rng.randint(1, 8)) for _ in range(6)]
        sigmas.append(parse_group_word(XY, f"x^{p ** (n - 1)} [x, y]^{p ** (n - 2)}"))
        answers = set()
        for sigma in sigmas:
            for u, v in pairs:
                want = self.congruence_by_definition(u, v, sigma, n, p)
                assert shuffle_congruence_check(u, v, sigma, n, p) == want
                answers.add(want)
        assert answers == {True, False}


class TestShuffleCongruence:
    def test_generator_powers_pass(self):
        # x^(p^2) lies in the third lower p-central term.
        for p in (2, 3, 5):
            sigma = parse_group_word(XY, f"x^{p**2}")
            for u in [XY.word(t) for t in ("x", "y", "xy")]:
                for v in [XY.word(t) for t in ("x", "y")]:
                    if len(u) + len(v) <= 3:
                        assert shuffle_congruence_check(u, v, sigma, 3, p)

    def test_conjugated_commutator_power_passes(self):
        sigma = parse_group_word(XY, "y^-1 [x, y]^3 y")
        assert shuffle_congruence_check(XY.word("x"), XY.word("y"), sigma, 3, 3)
        product_sigma = parse_group_word(XY, "x^27 y^-1 [x, y]^3 y")
        assert shuffle_congruence_check(XY.word("x"), XY.word("y"), product_sigma, 3, 3)

    def test_negative_control(self):
        # sigma = xy is not in the second lower p-central term, and the
        # pairing against (x) shuffle (y) detects it.
        sigma = parse_group_word(XY, "x y")
        assert not shuffle_congruence_check(XY.word("x"), XY.word("y"), sigma, 2, 3)

    def test_degenerate_control_passes_vacuously(self):
        # sigma = x is not in the term either, but this value happens to
        # be 0; the suite relies on the xy control above instead.
        sigma = parse_group_word(XY, "x")
        assert shuffle_congruence_check(XY.word("x"), XY.word("x"), sigma, 2, 3)

    def test_validation(self):
        x, y = XY.word("x"), XY.word("y")
        sigma = parse_group_word(XY, "x^9")
        with pytest.raises(ValueError):
            shuffle_congruence_check(XY.word("xy"), XY.word("xy"), sigma, 3, 3)
        with pytest.raises(ValueError):
            shuffle_congruence_check(x, y, sigma, 2, 4)
        with pytest.raises(ValueError):
            shuffle_congruence_check(x, y, sigma, 0, 3)
        with pytest.raises(ValueError, match="different alphabet"):
            shuffle_congruence_check(x, y, parse_group_word(XYZ, "x"), 3, 3)
        with pytest.raises(ValueError, match="different alphabets"):
            shuffle_congruence_check(x, XYZ.word("y"), sigma, 3, 3)
        with pytest.raises(ValueError, match="nonempty"):
            shuffle_congruence_check(x, Word(XY, ()), sigma, 3, 3)


class TestSpanBasis:
    def test_degree_one_is_zero(self):
        for alphabet in (XY, XYZ):
            basis = shuffle_span_basis(1, 5, alphabet)
            assert basis.rank == 0
            assert basis.quotient_dim == len(alphabet)

    def test_small_dimensions_pinned(self):
        assert shuffle_span_basis(2, 5, XY).quotient_dim == 1
        assert shuffle_span_basis(3, 5, XY).quotient_dim == 2
        assert shuffle_span_basis(2, 5, XYZ).quotient_dim == 3
        assert shuffle_span_basis(3, 5, XYZ).quotient_dim == 8

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("alphabet", [XY, XYZ], ids=["xy", "xyz"])
    def test_quotient_dim_is_necklace_count(self, p, alphabet):
        for d in (1, 2, 3):
            basis = shuffle_span_basis(d, p, alphabet)
            assert basis.quotient_dim == necklace(d, len(alphabet))

    def test_rows_are_reduced_echelon(self):
        basis = shuffle_span_basis(3, 5, XYZ)
        rows = dense_rows(basis)
        again, pivots = rref_mod_p(rows, 5)
        assert pivots == basis.pivots
        assert np.array_equal(again, rows)
        for row, col in enumerate(basis.pivots):
            column = rows[:, col]
            assert column[row] == 1 and column.sum() == 1

    def test_span_contains_shuffles(self):
        rng = random.Random(3)
        basis = shuffle_span_basis(4, 7, XY)
        for _ in range(20):
            a = rng.randint(1, 3)
            u = Word(XY, tuple(rng.randrange(2) for _ in range(a)))
            v = Word(XY, tuple(rng.randrange(2) for _ in range(4 - a)))
            assert basis.contains(shuffle(u, v))
        assert not basis.contains(poly(XY, {"xxxy": 1}))

    def test_lyndon_words_reduce_to_themselves(self):
        for alphabet in (XY, XYZ):
            for d in (1, 2, 3):
                basis = shuffle_span_basis(d, 5, alphabet)
                lyndon_map = basis.lyndon_map()
                for w in lyndon_words(alphabet, d):
                    if len(w) == d:
                        assert lyndon_map[w] == {w: 1}
                        assert reduce_mod_shuffles(w, 5) == {w: 1}

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(shufalg, "MAX_WORDS", 10)
        with pytest.raises(ValueError, match="exceeds cap 10"):
            shuffle_span_basis(3, 5, XYZ)
        monkeypatch.undo()
        # The degree is compared with the cap before m**d is formed, and a
        # one-letter word space (m**d = 1) is bounded by the degree alone.
        for d, alphabet in ((10**9, XYZ), (4097, Alphabet(("x",)))):
            with pytest.raises(ValueError, match=f"degree {d} "):
                shuffle_span_basis(d, 5, alphabet)

    def test_json_report(self):
        basis = shuffle_span_basis(2, 5, XY)
        report = basis.to_json()
        assert report["rank"] == 3 and report["quotient_dim"] == 1
        assert report["lyndon_map"]["yx"] == {"xy": 4}
        assert report["lyndon_map"]["xx"] == {}
        assert "lyndon_map" not in shuffle_span_basis(2, 3, XY).to_json()


def dense_rows(basis):
    """The blocks' rows scattered to full width, one row per pivot, ascending."""
    position = {c: i for i, c in enumerate(basis.pivots)}
    rows = np.zeros((basis.rank, len(basis.alphabet) ** basis.degree), dtype=np.int64)
    for block in basis.blocks.values():
        at = [position[int(block.cols[j])] for j in block.pivots]
        rows[np.ix_(at, block.cols)] = block.rows
    return rows


def global_span(d, p, alphabet):
    """Every u ш v of degree d as one full-width row, in one reduction."""
    m = len(alphabet)
    columns = {key: i for i, key in enumerate(product(range(m), repeat=d))}
    rows = []
    for a in range(1, d):
        for uk in product(range(m), repeat=a):
            for vk in product(range(m), repeat=d - a):
                vec = np.zeros(len(columns), dtype=np.int64)
                for key, c in shuffle(Word(alphabet, uk), Word(alphabet, vk)).coeffs.items():
                    vec[columns[key]] = c % p
                rows.append(vec)
    if not rows:
        return np.zeros((0, len(columns)), dtype=np.int64), ()
    return rref_mod_p(np.stack(rows), p)


class TestBlockSpanMatchesGlobal:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    @pytest.mark.parametrize("letters", ["x", "xy", "xyz", "xyzt"])
    def test_rows_and_pivots(self, letters, p):
        alphabet = Alphabet(tuple(letters))
        for d in range(1, 7 if letters in ("xy", "xyz") else 6):
            rows, pivots = global_span(d, p, alphabet)
            basis = shuffle_span_basis(d, p, alphabet)
            assert basis.pivots == pivots
            assert np.array_equal(dense_rows(basis), rows)
            assert all(b.rows.dtype == np.int64 for b in basis.blocks.values())
            assert basis.quotient_dim == len(alphabet) ** d - len(pivots)

    def test_quotient_exceeds_necklaces_for_small_primes(self):
        # For p <= d the shuffle span loses rank mod p, which is why the
        # block and global reductions are compared at p = 2 and 3 too.
        assert shuffle_span_basis(2, 2, XY).quotient_dim > necklace(2, 2)
        assert shuffle_span_basis(3, 3, XY).quotient_dim > necklace(3, 2)

    def test_blocks_of_one_pattern_share_a_reduction(self):
        # xxyzz and yyztt have the same multiplicity pattern (2, 1, 2).
        basis = shuffle_span_basis(5, 7, XYZT)
        a, b = basis.blocks[(0, 0, 1, 2, 2)], basis.blocks[(1, 1, 2, 3, 3)]
        assert a.rows is b.rows and a.pivots == b.pivots
        assert not np.array_equal(a.cols, b.cols)

    def test_each_pattern_is_reduced_once(self, monkeypatch):
        # One rref_mod_p call per multiplicity pattern with a shuffle in
        # it, not one per letter content: 15 patterns against 56 contents.
        calls = []

        def counted(matrix, p):
            calls.append(matrix.shape)
            return rref_mod_p(matrix, p)

        monkeypatch.setattr(shufalg, "rref_mod_p", counted)
        for d, want in ((5, 15), (3, 4)):
            calls.clear()
            shuffle_span_basis(d, 5, XYZT)
            assert len(calls) == want

    def test_memory_at_the_cap(self):
        # The dense rank x 4096 matrix alone took ~50 MB at xyzt d=6; the
        # blocks and a cold shuffle cache stay well below 40 MB.
        shufalg._product_keys.cache_clear()
        tracemalloc.start()
        try:
            shuffle_span_basis(6, 5, XYZT).to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


def reduce_reference(basis, vec):
    """Clear the pivots one row at a time."""
    rows = dense_rows(basis)
    out = np.array(vec, dtype=np.int64) % basis.p
    for row, col in enumerate(basis.pivots):
        if out[col]:
            out = (out - out[col] * rows[row]) % basis.p
    return out


def unit(basis, w):
    """The dense vector of one word of the basis's degree."""
    m, d = len(basis.alphabet), basis.degree
    vec = np.zeros(m**d, dtype=np.int64)
    vec[np.ravel_multi_index(w.indices, (m,) * d)] = 1
    return vec


def solve_reference(basis, w):
    """Lyndon coordinates of w by one linear solve for this word alone."""
    size = len(basis.alphabet) ** basis.degree
    free = [c for c in range(size) if c not in basis.pivots]
    lyn = [u for u in lyndon_words(basis.alphabet, basis.degree) if len(u) == basis.degree]
    images = np.zeros((len(free), len(lyn)), dtype=np.int64)
    for j, u in enumerate(lyn):
        images[:, j] = reduce_reference(basis, unit(basis, u))[free]
    target = reduce_reference(basis, unit(basis, w))[free]
    rref, pivots = rref_mod_p(np.column_stack([images, target]), basis.p)
    assert pivots == tuple(range(len(lyn)))  # one solution, and only one
    return {u: int(c) for u, c in zip(lyn, rref[:, len(lyn)]) if c}


class TestLyndonMapMatchesPerWordSolve:
    @pytest.mark.parametrize("p", [5, 7, 13])
    @pytest.mark.parametrize("letters", ["x", "xy", "xyz", "xyzt"])
    def test_every_word(self, letters, p):
        alphabet = Alphabet(tuple(letters))
        for d in (1, 2, 3):
            basis = shuffle_span_basis(d, p, alphabet)
            lyndon_map = basis.lyndon_map()
            keys = product(range(len(alphabet)), repeat=d)
            assert list(lyndon_map) == [Word(alphabet, key) for key in keys]
            for w, coords in lyndon_map.items():
                want = solve_reference(basis, w)
                assert coords == want
                assert reduce_mod_shuffles(w, p) == want
                vec = unit(basis, w)
                assert np.array_equal(basis.reduce_vector(vec), reduce_reference(basis, vec))

    @pytest.mark.parametrize("p", [2, 5, 13])
    def test_reduce_vector(self, p):
        rng = random.Random(p)
        for alphabet, d in ((XY, 4), (XYZ, 3), (Alphabet(("x",)), 3)):
            basis = shuffle_span_basis(d, p, alphabet)
            vectors = [
                [rng.randrange(-3 * p, 3 * p) for _ in range(len(alphabet) ** d)]
                for _ in range(20)
            ]
            for vec in vectors:
                assert np.array_equal(basis.reduce_vector(vec), reduce_reference(basis, vec))
            stacked = basis.reduce_vector(vectors)
            assert np.array_equal(stacked, [reduce_reference(basis, v) for v in vectors])

    def test_not_a_basis_is_a_consistency_error(self, monkeypatch):
        # xx = (x ш x)/2 vanishes mod 5, so {xx} is not a quotient basis.
        basis = shuffle_span_basis(2, 5, XY)
        monkeypatch.setattr(shufalg, "lyndon_words", lambda alphabet, d: [XY.word("xx")])
        for solve in (basis.lyndon_map, lambda: reduce_mod_shuffles(XY.word("xy"), 5)):
            with pytest.raises(ConsistencyError, match="not a quotient basis at degree 2 mod 5"):
                solve()


class TestReduceModShuffles:
    @pytest.mark.parametrize("p", [5, 7])
    def test_pinned_examples(self, p):
        assert reduce_mod_shuffles(XY.word("yx"), p) == {XY.word("xy"): p - 1}
        assert reduce_mod_shuffles(XYZ.word("zxy"), p) == {
            XYZ.word("xzy"): p - 1,
            XYZ.word("xyz"): p - 1,
        }
        assert reduce_mod_shuffles(Alphabet(("x",)).word("xxx"), p) == {}
        assert reduce_mod_shuffles(XYZ.word("xxx"), p) == {}

    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_congruence_table(self, p):
        # Classes read off the displayed congruences, mod p.
        w = XYZ.word
        expected = {
            "xx": {},
            "xyx": {w("xxy"): -2 % p},
            "yxx": {w("xxy"): 1},
            "yxy": {w("xyy"): -2 % p},
            "yyx": {w("xyy"): 1},
            "yxz": {w("xyz"): p - 1, w("xzy"): p - 1},
            "yzx": {w("xzy"): 1},
            "zyx": {w("xyz"): 1},
        }
        for text, coords in expected.items():
            assert reduce_mod_shuffles(w(text), p) == coords

    def test_identity_on_lyndon_words(self):
        for text in ("x", "xy", "xxy", "xyz", "xzy"):
            w = XYZ.word(text)
            assert reduce_mod_shuffles(w, 5) == {w: 1}

    @pytest.mark.parametrize("p", [5, 7, 13])
    @pytest.mark.parametrize("letters", ["x", "xy", "xyz", "xyzt"])
    def test_matches_per_word_solve(self, letters, p):
        # reduce_mod_shuffles reduces only the block of w's content; the
        # reference solves against the whole span of degree |w|.
        alphabet = Alphabet(tuple(letters))
        for d in (1, 2, 3):
            basis = shuffle_span_basis(d, p, alphabet)
            for w in all_words(alphabet, d):
                assert reduce_mod_shuffles(w, p) == solve_reference(basis, w)

    def test_validation(self):
        with pytest.raises(ValueError):
            reduce_mod_shuffles(XY.word("xxyy"), 5)
        with pytest.raises(ValueError):
            reduce_mod_shuffles(XY.word("xy"), 3)
        with pytest.raises(ValueError):
            reduce_mod_shuffles(XY.word("xy"), 6)


class TestAntisymmetry:
    # (x_1...x_k) - (-1)^(k-1) (x_k...x_1) lies in the shuffle span mod p
    # for p > k.

    @pytest.mark.parametrize("k,p", [(2, 5), (3, 5), (2, 7), (3, 7)])
    def test_small_degrees_whole_span(self, k, p):
        alphabet = Alphabet(tuple("abc"[:k]))
        basis = shuffle_span_basis(k, p, alphabet)
        forward = Word(alphabet, tuple(range(k)))
        backward = Word(alphabet, tuple(reversed(range(k))))
        diff = poly(alphabet, {str(forward): 1}) - poly(
            alphabet, {str(backward): (-1) ** (k - 1)}
        )
        assert basis.contains(diff)

    @pytest.mark.parametrize("k", [4, 5])
    def test_multilinear_component(self, k):
        # The span is graded by letter multidegree, so membership of a
        # multilinear element can be decided inside the multilinear
        # component alone: rows are shuffles of words on complementary
        # letter sets, columns are the permutations.
        p = 7
        alphabet = Alphabet(tuple("abcde"[:k]))
        columns = {perm: i for i, perm in enumerate(permutations(range(k)))}
        rows = []
        for a in range(1, k):
            for subset in combinations(range(k), a):
                rest = tuple(i for i in range(k) if i not in subset)
                for u in permutations(subset):
                    for v in permutations(rest):
                        q = shuffle(Word(alphabet, u), Word(alphabet, v))
                        vec = np.zeros(len(columns), dtype=np.int64)
                        for key, c in q.coeffs.items():
                            vec[columns[key]] = c % p
                        rows.append(vec)
        reduced, pivots = rref_mod_p(np.stack(rows), p)
        target = np.zeros(len(columns), dtype=np.int64)
        target[columns[tuple(range(k))]] += 1
        target[columns[tuple(reversed(range(k)))]] -= (-1) ** (k - 1)
        target %= p
        for row, col in enumerate(pivots):
            if target[col]:
                target = (target - target[col] * reduced[row]) % p
        assert not target.any()
