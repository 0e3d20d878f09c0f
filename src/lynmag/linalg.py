"""Dense linear algebra over F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Shuffle
spans reach a few thousand rows and columns per letter-content block,
so each elimination step updates every affected row in one array
operation.  Pivots are always chosen left to right, which makes every
reduced form canonical given the row set.
"""

from __future__ import annotations

import numpy as np


def rref_mod_p(matrix: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form over F_p.

    Returns (rref rows without zero rows, pivot column indices).
    """
    a = np.array(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        # Rows r and below are zero left of c, so the swap, the scaling
        # and the elimination by row r touch only columns c onward.
        piv = r + int(below[0])
        if piv != r:
            a[[r, piv], c:] = a[[piv, r], c:]
        a[r, c:] = (a[r, c:] * pow(int(a[r, c]), -1, p)) % p
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(a[hit, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a[: len(pivots)], tuple(pivots)


def inverse_mod_p(matrix: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix over F_p; raises on singular input."""
    a = np.array(matrix, dtype=np.int64) % p
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    aug = np.concatenate([a, np.eye(d, dtype=np.int64)], axis=1)
    rref, pivots = rref_mod_p(aug, p)
    if pivots[:d] != tuple(range(d)):
        raise ValueError("matrix is singular mod p")
    return rref[:, d:]
