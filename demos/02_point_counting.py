"""Counting points of quiver Grassmannians over prime fields.

The Grassmannian of subrepresentations with a fixed dimension vector is a
projective variety; over F_p its points can be enumerated outright, and
counting at enough primes pins down the counting polynomial in q whenever
there is one.  A held-out prime double-checks the interpolation, so a
non-polynomial count is detected rather than silently reported.

The coefficients of a counting polynomial are Betti numbers only given an
affine paving (Lecture 3) or purity.  This module is of type A, so its
Betti numbers are read off the cells of its interval decomposition.
"""

from quivergrass import QQ, Representation, linear_quiver
from quivergrass.counting import (count_points, counting_polynomial,
                                  enumerate_subreps, euler_characteristic,
                                  gaussian_binomial)
from quivergrass.rep import reduce_mod, restrict, tangent_dim
from quivergrass.typea import decompose, poincare_polynomial

# Two crossing projective lines: d = (2,2) with a rank-one arrow matrix.
a2 = linear_quiver(2)
m = Representation(a2, QQ, (2, 2), [[[1, 0], [0, 0]]])

print("points over small fields:")
for p in (2, 3, 5, 7):
    print(f"  p={p}:", count_points(reduce_mod(m, p), (1, 1)))

cp = counting_polynomial(m, (1, 1))
print("counting polynomial coefficients (ascending):", cp.coefficients)
print("consistency:", cp.consistency, " held-out check:", cp.held_out)
print("Euler characteristic:", euler_characteristic(cp),
      " Betti numbers:", list(poincare_polynomial(decompose(m), (1, 1)).coefficients))

# The five F_2-points, materialized, with their tangent space dimensions:
# the crossing point sticks out.
m2 = reduce_mod(m, 2)
print("\nwitnesses over F_2 (subspace row bases at each vertex):")
for w in enumerate_subreps(m2, (1, 1)):
    print("  ", w.bases, " restriction", decompose(restrict(m2, w)),
          " tangent", tangent_dim(m2, w))

# Sanity: a single vertex gives the classical Grassmannian.
print("\n#Gr(2,4)(F_2) =", gaussian_binomial(4, 2, 2), "subspaces")
