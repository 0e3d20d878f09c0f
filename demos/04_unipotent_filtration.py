"""Unipotent matrix groups and their lower p-central series, brute force.

The representation rho^w sends a free-group word to an (s+1) x (s+1)
unipotent matrix of Magnus coefficients of subwords of w.  Closing the
elementary matrices under multiplication gives the full finite group
U_{s+1}(Z/p^k); iterating p-th powers and commutators computes its lower
p-central series with no structural shortcuts, and the n-th term
collapses onto the corner line I + p^(n-s) Z E(1, s+1).
"""

from lynmag import (
    Alphabet,
    UnipotentMatrix,
    generate_group,
    iota,
    lower_p_central,
    parse_group_word,
    rho,
)

XY = Alphabet(("x", "y"))

print("rho^(xy) of the commutator [x, y] mod 9 (corner = coefficient of xy):")
g = parse_group_word(XY, "[x, y]")
m = rho(XY.word("xy"), g, 9)
for i in range(1, m.size + 1):
    print("  ", [m.entry(i, j) for j in range(1, m.size + 1)])

print("\niota reads the corner of a depth-n central element back mod p.")
print("At n = 3 the element [x,y]^3 lands in the corner line with corner 3:")
g3 = parse_group_word(XY, "[x, y]^3")
m3 = rho(XY.word("xy"), g3, 9)
value = iota(3, 2, m3)
print(f"  corner of rho^(xy)([x,y]^3) mod 9 is {m3.entry(1, 3)}")
print(f"  iota(3, 2, .) divides out p^(n-s): {value} mod 3")

print("\nClosing the elementary generators of U_3(Z/4):")
gens = [
    UnipotentMatrix.elementary(3, 4, 1, 2),
    UnipotentMatrix.elementary(3, 4, 2, 3),
]
table = generate_group(gens)
print(f"  group order {len(table)}")

print("\nLower 2-central series of U_3(Z/4), sizes per term:")
current = table
for n in (1, 2, 3):
    term = lower_p_central(table, 2, n)
    print(f"  term {n}: {len(term)} elements")

print("\nThe third term is exactly the corner line I + 2Z E(1,3):")
term3 = lower_p_central(table, 2, 3)
expected = {UnipotentMatrix.elementary(3, 4, 1, 3, a * 2) for a in range(2)}
print("  equals {I, I + 2E13}:", set(term3) == expected)
central = all(z * g == g * z for z in term3 for g in table)
print("  central in the full group:", central)
