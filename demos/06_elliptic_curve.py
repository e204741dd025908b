"""A projective cubic curve realized as a quiver Grassmannian.

The curve y^2 z = x^3 + z^3 becomes, after the degree-3 Veronese embedding,
the locus of lines in Sym^3(C^3) killed by one linear form and whose three
catalecticant slices span at most a line; that locus is exactly the variety
of (0,1,1)-dimensional subrepresentations of a representation of the quiver
.  <-  .  =>  .   (one arrow left, three arrows right).

Both sides are counted over small prime fields and agree: the curve point by
point, the Grassmannian by the planned count, which enumerates the lines of
Sym^2 and sums the source Sym^3 in closed form.
"""

import time

from quivergrass.elliptic import demo, elliptic_representation

m = elliptic_representation()
print("quiver:", m.quiver.arrows, " dims:", m.dims)

for p in (2, 3, 5):
    start = time.monotonic()
    report = demo(p)
    took = time.monotonic() - start
    print(f"p={p}: Grassmannian {report['grassmannian_points']} points,"
          f" curve {report['curve_points']} points,"
          f" difference {report['difference']}   ({took:.1f}s)")
