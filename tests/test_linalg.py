"""Dense linear algebra over F_p against a scalar reference."""

import numpy as np
import pytest

from lynmag.linalg import inverse_mod_p, rref_mod_p

PRIMES = [2, 3, 5, 13]


def reference_rref(matrix, p):
    """Row by row, entry by entry: the leftmost column, then the topmost row."""
    a = np.array(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a[: len(pivots)], tuple(pivots)


def random_matrix(rng, p, rows, cols):
    """Sparse entries plus repeated combinations, so ranks fall short."""
    a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.4)
    if rows > 2:
        a[-1] = (a[0] * rng.integers(1, p + 1) + a[1]) % p
        a[rows // 2] = 0
    return a


def assert_matches_reference(matrix, p):
    rows, pivots = rref_mod_p(matrix, p)
    want_rows, want_pivots = reference_rref(matrix, p)
    assert pivots == want_pivots
    assert rows.dtype == np.int64
    assert rows.shape == want_rows.shape
    assert np.array_equal(rows, want_rows)


class TestRref:
    @pytest.mark.parametrize("p", PRIMES)
    def test_random_matches_reference(self, p):
        rng = np.random.default_rng(p)
        for rows, cols in [(3, 3), (6, 4), (4, 9), (12, 12), (25, 10), (8, 30)]:
            for _ in range(15):
                assert_matches_reference(random_matrix(rng, p, rows, cols), p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_degenerate_shapes(self, p):
        rng = np.random.default_rng(100 + p)
        for shape in [(0, 0), (0, 5), (5, 0), (1, 7), (7, 1), (1, 1)]:
            assert_matches_reference(rng.integers(0, p, size=shape), p)
        assert_matches_reference(np.zeros((4, 6), dtype=np.int64), p)
        assert_matches_reference(np.zeros((1, 1), dtype=np.int64), p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_entries_outside_residue_range(self, p):
        rng = np.random.default_rng(200 + p)
        assert_matches_reference(rng.integers(-3 * p, 3 * p, size=(9, 7)), p)

    def test_input_is_not_modified(self):
        a = np.array([[2, 4], [1, 3]], dtype=np.int64)
        rref_mod_p(a, 5)
        assert a.tolist() == [[2, 4], [1, 3]]


def solve_mod_p(a, b, p):
    """The unique solution of a x = b over F_p, read off rref_mod_p of [a | b]."""
    cols = a.shape[1]
    rref, pivots = rref_mod_p(np.column_stack([a, b]), p)
    if cols in pivots:
        raise ValueError("inconsistent linear system mod p")
    if len(pivots) < cols:
        raise ValueError("underdetermined linear system mod p")
    return rref[:, cols]


class TestSolveAndInverse:
    @pytest.mark.parametrize("p", PRIMES)
    def test_unique_solution(self, p):
        rng = np.random.default_rng(300 + p)
        for size in (1, 2, 5):
            for _ in range(10):
                a = rng.integers(0, p, size=(size + 2, size))
                if len(rref_mod_p(a, p)[1]) < size:
                    continue
                x = rng.integers(0, p, size=size)
                assert np.array_equal(solve_mod_p(a, a @ x % p, p), x)

    def test_inconsistent_raises(self):
        a = np.array([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(ValueError, match="inconsistent"):
            solve_mod_p(a, np.array([1, 1, 0]), 5)

    def test_underdetermined_raises(self):
        a = np.array([[1, 2, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="underdetermined"):
            solve_mod_p(a, np.array([1, 1]), 5)

    @pytest.mark.parametrize("p", PRIMES)
    def test_inverse(self, p):
        rng = np.random.default_rng(400 + p)
        for size in (1, 3, 6):
            a = np.triu(rng.integers(0, p, size=(size, size)), 1)
            a += np.eye(size, dtype=np.int64) * rng.integers(1, p, size=size)
            a = a[::-1] if size > 1 else a
            assert np.array_equal(a @ inverse_mod_p(a, p) % p, np.eye(size))

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError, match="singular"):
            inverse_mod_p(np.array([[1, 2], [2, 4]]), 5)
        with pytest.raises(ValueError, match="singular"):
            inverse_mod_p(np.zeros((3, 3), dtype=np.int64), 7)
