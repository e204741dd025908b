"""Representations of quivers and their homological invariants.

A representation places a vector space on every vertex and a matrix on every
arrow.  All arithmetic is exact (rationals or a prime field), and Hom/Ext
dimensions come out of one linear map whose kernel is the morphism space and
whose cokernel is the extension space.
"""

from quivergrass import linalg as la
from quivergrass import (QQ, build_extension, direct_sum, dual, euler_form,
                         ext1_dim, hom_dim, injective, is_rigid,
                         linear_quiver, phi_map, projective, simple)
from quivergrass.rep import nonzero_ext_cocycle

# The quiver 1 -> 2 and its basic representations.
a2 = linear_quiver(2)
s1, s2, p1 = simple(a2, QQ, 1), simple(a2, QQ, 2), projective(a2, QQ, 1)
print("P1 has dimension vector", p1.dims, "and arrow matrix", p1.matrix(0))
print("I1 =", injective(a2, QQ, 1).dims, " I2 =", injective(a2, QQ, 2).dims)

# The Euler form computes hom minus ext without touching any matrices...
print("\n<dim S1, dim S2> =", euler_form(a2, (1, 0), (0, 1)))
# ... and the defect map recovers both terms separately.
print("[S1, S2] =", hom_dim(s1, s2), "   [S1, S2]^1 =", ext1_dim(s1, s2))
# Phi is stored as its nonzeros, one {column: value} dict per row; here it
# maps Hom(K^(1,0), K^(0,1)) = 0 to Hom(K, K) = K, so its one row is empty.
phi, cols = phi_map(s1, s2)
print("defect map:", len(phi), "x", cols, "rows of nonzeros", phi,
      "dense", la.dense(phi, QQ, cols))
phi, cols = phi_map(p1, p1)
print("defect map of P1 on itself:", len(phi), "x", cols, "rows of nonzeros", phi)

# A nonzero class in Ext^1(S1, S2) glues S2 under S1; the middle term is P1.
z = nonzero_ext_cocycle(s1, s2)
y, iota, pi = build_extension(s1, s2, z)
print("\nextension middle term has dims", y.dims, "and matrix", y.matrix(0))
print("is it P1?", hom_dim(y, p1) == hom_dim(p1, y) == hom_dim(y, y) == 1)

# Rigid representations have dense orbits; direct sums and duals are cheap.
m = direct_sum(p1, p1, s2)
print("\nP1 + P1 + S2 rigid?", is_rigid(m))
print("dual lives on the opposite quiver:", dual(m).quiver.arrows,
      "with dims", dual(m).dims)
print("double dual returns the original:", dual(dual(m)) == m)
