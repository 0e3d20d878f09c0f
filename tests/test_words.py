"""Word orders, Lyndon enumeration, necklace counts, standard factorization."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lynmag.words import (
    Alphabet,
    Word,
    all_words,
    divisors,
    is_lyndon,
    lyndon_words,
    mobius,
    necklace,
    preceq_key,
    standard_factorization,
)

XY = Alphabet("xy")
XYZ = Alphabet("xyz")
XYZT = Alphabet("xyzt")


def ref_alp_compare(u: tuple, v: tuple) -> int:
    # Reference implementation straight from the definition: first differing
    # letter decides, else the shorter (prefix) word comes first.
    for a, b in zip(u, v):
        if a != b:
            return -1 if a < b else 1
    if len(u) == len(v):
        return 0
    return -1 if len(u) < len(v) else 1


def words_up_to(alphabet: Alphabet, max_len: int):
    for n in range(max_len + 1):
        yield from all_words(alphabet, n)


class TestAlphabet:
    def test_validation(self):
        with pytest.raises(ValueError):
            Alphabet("")
        with pytest.raises(ValueError):
            Alphabet(["x", "x"])
        with pytest.raises(ValueError):
            Alphabet(["x", ""])

    def test_parse_roundtrip_single_char(self):
        w = XY.word("xxy")
        assert w.indices == (0, 0, 1)
        assert str(w) == "xxy"
        assert XY.word("") == Word(XY, ())

    def test_parse_multichar_tokens(self):
        A = Alphabet(["a1", "a2"])
        w = A.word("a1·a1·a2")
        assert w.indices == (0, 0, 1)
        assert str(w) == "a1·a1·a2"

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            XY.word("xz")

    def test_equal_alphabets_interchangeable(self):
        assert Alphabet("xy") == Alphabet("xy")
        assert Alphabet("xy").word("xy") == XY.word("xy")


class TestOrders:
    # alp order is tuple comparison of letter indices, and preceq_key
    # sorts by length first; both are checked against ref_alp_compare.

    def test_pinned_comparisons(self):
        x, y, xy, xxy = (XY.word(s).indices for s in ["x", "y", "xy", "xxy"])
        assert ref_alp_compare(x, xy) == -1  # prefix comes first
        assert ref_alp_compare(xy, y) == -1
        assert ref_alp_compare(xxy, xy) == -1
        assert ref_alp_compare(y, y) == 0
        # preceq sorts by length before spelling
        key = lambda text: preceq_key(XY.word(text))
        assert key("x") < key("y") < key("xy") < key("xxy")

    def test_alp_matches_reference_exhaustively(self):
        pool = list(words_up_to(XYZ, 4))
        for w1 in pool:
            for w2 in pool:
                expected = ref_alp_compare(w1.indices, w2.indices)
                got = (w1.indices > w2.indices) - (w1.indices < w2.indices)
                assert got == expected

    @given(
        st.lists(st.integers(0, 2), max_size=12),
        st.lists(st.integers(0, 2), max_size=12),
    )
    def test_alp_matches_reference_random(self, u, v):
        u, v = tuple(u), tuple(v)
        assert (u > v) - (u < v) == ref_alp_compare(u, v)

    @given(
        st.lists(st.integers(0, 2), max_size=10),
        st.lists(st.integers(0, 2), max_size=10),
    )
    def test_preceq_refines_length(self, u, v):
        k1, k2 = preceq_key(Word(XYZ, tuple(u))), preceq_key(Word(XYZ, tuple(v)))
        c = (k1 > k2) - (k1 < k2)
        if len(u) != len(v):
            assert c == (-1 if len(u) < len(v) else 1)
        else:
            assert c == ref_alp_compare(tuple(u), tuple(v))


class TestLyndon:
    def test_rotation_characterization(self):
        # A word is Lyndon iff it is strictly smaller than every other rotation.
        for n in range(1, 9):
            for w in all_words(XYZ, n):
                u = w.indices
                minimal = all(u < u[i:] + u[:i] for i in range(1, n))
                assert is_lyndon(w) == minimal

    def test_empty_word_not_lyndon(self):
        assert not is_lyndon(Word(XY, ()))

    def test_enumeration_matches_filter(self):
        for alphabet, max_len in [(XY, 8), (XYZ, 6), (XYZT, 5)]:
            expected = sorted(
                (w for w in words_up_to(alphabet, max_len) if is_lyndon(w)),
                key=preceq_key,
            )
            assert lyndon_words(alphabet, max_len) == expected

    def test_enumeration_sorted_strictly(self):
        ws = lyndon_words(XYZ, 5)
        keys = [preceq_key(w) for w in ws]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_counts_match_necklace_formula(self):
        for m in range(1, 5):
            alphabet = Alphabet("xyzt"[:m])
            ws = lyndon_words(alphabet, 8)
            for n in range(1, 9):
                assert sum(1 for w in ws if len(w) == n) == necklace(n, m)

    def test_counts_match_exhaustive_filter(self):
        # Independent of Duval: count words that pass the suffix test directly.
        for m in range(1, 5):
            for n in range(1, 7 if m == 4 else 9):
                count = 0
                for t in itertools.product(range(m), repeat=n):
                    if all(t < t[i:] for i in range(1, n)):
                        count += 1
                assert count == necklace(n, m), (m, n)

    def test_two_letter_list_up_to_length_four(self):
        expected = ["x", "y", "xy", "xxy", "xyy", "xxxy", "xxyy", "xyyy"]
        assert [str(w) for w in lyndon_words(XY, 4)] == expected

    def test_three_letter_list_up_to_length_three(self):
        expected = [
            "x", "y", "z",
            "xy", "xz", "yz",
            "xxy", "xxz", "xyy", "xyz", "xzy", "xzz", "yyz", "yzz",
        ]
        assert [str(w) for w in lyndon_words(XYZ, 3)] == expected

    def test_four_letter_multilinear_quartics(self):
        quartics = [
            w
            for w in lyndon_words(XYZT, 4)
            if len(w) == 4 and len(set(w.indices)) == 4
        ]
        expected = ["xyzt", "xytz", "xzyt", "xzty", "xtyz", "xtzy"]
        assert [str(w) for w in quartics] == expected


class TestCounting:
    def test_divisors(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(49) == [1, 7, 49]

    def test_mobius_frozen(self):
        expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
        assert [mobius(n) for n in range(1, 13)] == expected

    def test_necklace_frozen(self):
        assert [necklace(n, 2) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
        assert [necklace(n, 3) for n in range(1, 7)] == [3, 3, 8, 18, 48, 116]
        assert [necklace(n, 1) for n in range(1, 5)] == [1, 0, 0, 0]

    def test_necklace_rejects_bad_input(self):
        with pytest.raises(ValueError):
            necklace(0, 2)
        with pytest.raises(ValueError):
            mobius(0)


class TestStandardFactorization:
    def test_pinned_examples(self):
        cases = {
            "xy": ("x", "y"),
            "xxy": ("x", "xy"),
            "xyy": ("xy", "y"),
            "xxxy": ("x", "xxy"),
            "xxyy": ("x", "xyy"),
            "xyyy": ("xyy", "y"),
        }
        for word, (left, right) in cases.items():
            a, b = standard_factorization(XY.word(word))
            assert (str(a), str(b)) == (left, right)
        a, b = standard_factorization(XYZ.word("xyz"))
        assert (str(a), str(b)) == ("x", "yz")
        a, b = standard_factorization(XYZ.word("xzy"))
        assert (str(a), str(b)) == ("xz", "y")

    def test_properties_exhaustive(self):
        for alphabet, max_len in [(XY, 8), (XYZ, 6)]:
            for w in lyndon_words(alphabet, max_len):
                if len(w) < 2:
                    continue
                left, right = standard_factorization(w)
                assert left + right == w
                assert is_lyndon(left) and is_lyndon(right)
                assert ref_alp_compare(left.indices, right.indices) == -1
                # right factor is also the longest proper Lyndon suffix
                longest = max(
                    (i for i in range(1, len(w)) if is_lyndon(w[i:])),
                    key=lambda i: len(w) - i,
                )
                assert right == w[longest:]

    def test_rejects_non_lyndon(self):
        with pytest.raises(ValueError):
            standard_factorization(XY.word("yx"))
        with pytest.raises(ValueError):
            standard_factorization(XY.word("x"))


class TestWordBasics:
    def test_slicing_returns_words(self):
        w = XYZ.word("xyz")
        assert w[1:] == XYZ.word("yz")
        assert w[0] == XYZ.word("x")
        assert len(w[1:3]) == 2

    def test_concat_checks_alphabet(self):
        with pytest.raises(ValueError):
            XY.word("x") + XYZ.word("z")

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 1), max_size=8), st.lists(st.integers(0, 1), max_size=8))
    def test_concat_length(self, u, v):
        w = Word(XY, tuple(u)) + Word(XY, tuple(v))
        assert len(w) == len(u) + len(v)
        assert w.indices == tuple(u) + tuple(v)
