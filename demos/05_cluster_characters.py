"""Cluster characters and the multiplication formula.

The F-polynomial of a module collects Euler characteristics of its
Grassmannians; combined with the g-vector and the exchange matrix it becomes
a Laurent polynomial, the cluster character.  Extension classes spanning a
one-dimensional Ext space ("generating") satisfy an exact multiplication
identity, whose finite-field shadow is an affine-bundle point count.
"""

from quivergrass import QQ, linear_quiver, projective, simple
from quivergrass.cluster import (cluster_character, exchange_matrix,
                                 f_polynomial, g_vector, make_generating,
                                 psi_count_identity, verify_multiplication)
from quivergrass.typea import decompose, interval_rep

a2 = linear_quiver(2)
s1, s2, p1 = simple(a2, QQ, 1), simple(a2, QQ, 2), projective(a2, QQ, 1)

print("exchange matrix of A2:", exchange_matrix(a2))
for name, m in (("S1", s1), ("S2", s2), ("P1", p1)):
    print(f"{name}: g = {g_vector(m)},  F = "
          f"{f_polynomial(m).format(['y1', 'y2'])}")

names = ["x1", "x2", "y1", "y2"]
cc1, cc2,ccp = (cluster_character(m) for m in (s1, s2, p1))
print("\nCC(S1) =", cc1.format(names))
print("CC(S2) =", cc2.format(names))
print("CC(P1) =", ccp.format(names))
print("CC(S2)*CC(S1) - CC(P1) =", (cc2 * cc1 - ccp).format(names),
      " <- the classical exchange relation")

# The generating extension 0 -> U[2,4] -> U[1,4]+U[2,3] -> U[1,3] -> 0 on A4.
a4 = linear_quiver(4)
ge = make_generating(interval_rep(a4, QQ, 1, 3), interval_rep(a4, QQ, 2, 4))
print("\nmiddle term:", decompose(ge.y))
print("kernel subobject X_S:", decompose(ge.x_s), " image subobject S^X:",
      decompose(ge.s_x))
report = verify_multiplication(ge)
print("multiplication formula residual is zero:", report.residual.is_zero())

counts = psi_count_identity(ge, (1, 1, 1, 1), [2, 3])
print("\npoint-count identity #Gr_e(Y) = sum of image sizes times fiber sizes:")
for p, lhs, rhs in counts.prime_results:
    print(f"  p={p}: {lhs} = {rhs}")
