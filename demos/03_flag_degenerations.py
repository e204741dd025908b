"""Flag varieties, their linear degenerations, and cell decompositions.

On the equioriented A_n quiver every module is a sum of interval modules
U[i,j], and everything is combinatorial: isomorphism classes are rank
sequences, a torus fixed point is a tuple of suffix starts aligned with the
rows of coefficient_quiver(m), and each fixed point carries an affine cell
whose dimension is read off the diagram.  Beside each Poincare polynomial
the demo prints the point counts at p = 2 and 3, which the polynomial gives
at q = p; the test suite checks that agreement.
"""

from quivergrass import QQ
from quivergrass.counting import count_points
from quivergrass.rep import reduce_mod
from quivergrass.typea import (cell_dimension, coefficient_quiver,
                               deg_leq_ranks, degenerate_flag_dec,
                               euler_char_cells, fixed_points, flag_dec,
                               flat_locus_class, is_catenoid,
                               min_projective_resolution, most_flat_dec,
                               poincare_polynomial, semisimple_dec, strata)

n = 2
e = (1, 2)
for name, dec in (("flag variety", flag_dec(n)),
                  ("degenerate flag variety", degenerate_flag_dec(n)),
                  ("most-flat degeneration", most_flat_dec(n))):
    pp = poincare_polynomial(dec, e)
    chi = euler_char_cells(dec, e)
    m = dec.to_representation(QQ)
    oracle = [count_points(reduce_mod(m, p), e) for p in (2, 3)]
    print(f"{name}: {dec}")
    print(f"  Poincare coefficients {pp.coefficients}, chi = {chi},"
          f" oracle counts at p=2,3: {oracle}")
    print(f"  flat locus class: {flat_locus_class(dec)}")
    for s in strata(dec, e):
        print(f"    stratum {s.isoclass}: dim {s.dim}, {s.cells} cells")

print("\nsemisimple module is", flat_locus_class(semisimple_dec(n)))
print("flag module degenerates to the most-flat one:",
      deg_leq_ranks(flag_dec(n), most_flat_dec(n)))

# A worked fixed point for n = 3: rows of the coefficient quiver of A + DA,
# and the tuple of suffix starts aligned with them (None: row not selected);
# its cell has dimension 4.
dec3 = degenerate_flag_dec(3)
rows = coefficient_quiver(dec3)
print("\nrows of the coefficient quiver of A + DA (n=3):", rows)
pt = (3, 3, 2, None, 1, None)
dim = dict(fixed_points(dec3, (1, 2, 3)))[pt]
assert dim == cell_dimension(rows, pt)
print("selected suffix starts:", pt, "-> cell dimension", dim)

# Schubert realizability is a chain condition on the support intervals.
print("\nA + DA is a catenoid:", is_catenoid(dec3))
p, r = min_projective_resolution(dec3)
print("minimal projective resolution: 0 ->", p, "->", r, "-> A + DA -> 0")
