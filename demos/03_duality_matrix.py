"""The duality pairing between filtration generators and coefficients.

Pairing the generator tau(w)^(p^(n-|w|)) against the Magnus coefficient
of w' gives a mod-p value, computed here along two independent routes
(series coefficients and unipotent matrices) that must agree.  Indexed
by Lyndon words in length-then-alphabet order, the values form a
unipotent upper-triangular matrix whose inverse converts the coefficient
functionals into an exact dual basis.
"""

import numpy as np

from lynmag import (
    Alphabet,
    balanced,
    dual_change_of_basis,
    h2_dimension,
    pairing,
    pairing_matrix,
)

XY = Alphabet(("x", "y"))
XYZ = Alphabet(("x", "y", "z"))

print("Single pairings at depth n = 2, p = 3:")
for w, w2 in (("x", "x"), ("x", "y"), ("xy", "xy"), ("xy", "yx")):
    value = pairing(XYZ.word(w), XYZ.word(w2), 2, 3)
    print(f"  <({w}), ({w2})>_2 = {balanced(value, 3)}")

print("\nAt depth 2 the matrix is the identity for every small prime:")
for p in (2, 3, 5):
    m = pairing_matrix(2, p, XY)
    print(f"  p={p}: identity = {m.is_identity()}, dimension {m.dimension()}")

print("\nAt depth 3 over {x, y, z} a single off-diagonal -1 appears,")
print("at the row (xyz) and column (xzy):")
m = pairing_matrix(3, 5, XYZ)
for w in m.index:
    for w2 in m.index:
        v = m.entry(w, w2)
        if v and w != w2:
            print(f"  entry (({w}), ({w2})) = {balanced(v, 5)}")

print("\nDepth 4 over {x, y} is 8-dimensional (2+1+2+3 Lyndon words):")
m4 = pairing_matrix(4, 2, XY)
print("  index:", " ".join(str(w) for w in m4.index))
print("  h2_dimension(4, XY) =", h2_dimension(4, XY))
for label, row in zip(m4.index, m4.rows):
    print(f"  {str(label):5s} {row.tolist()}")

print("\nIts inverse mod p is the change of basis making the families dual:")
inv = dual_change_of_basis(m4)
print("  M * M^-1 == I mod 2:", np.array_equal((m4.rows @ inv) % 2, np.eye(8, dtype=int)))
