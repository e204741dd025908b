"""Facts from the geometry of quiver Grassmannians, checked against the type-A
cell and stratum engines.  Each side of every assertion is a theorem's
prediction, not a second engine:

- Gr_e(M) is the disjoint union of its finitely many iso-strata and of its
  affine cells, so its dimension is the largest stratum dimension, the
  largest cell dimension and the degree of its Poincare polynomial.
- For rigid M, Gr_e(M) is smooth and irreducible of dimension <e, d - e>
  (Caldero-Reineke, "On the quiver Grassmannian in the acyclic case", 2008),
  so Poincare duality makes its Poincare polynomial palindromic.
- Gr_{dim A}(A + DA) is the degenerate flag variety, of dimension n(n+1)/2,
  whose Euler characteristic is the normalised median Genocchi number
  (Cerulli Irelli-Feigin-Reineke, "Quiver Grassmannians and degenerate flag
  varieties", 2012).
"""

import itertools
from collections import Counter

from quivergrass import euler_form, linear_quiver
from quivergrass.typea import (IntervalDecomposition, cell_dimension, coefficient_quiver,
                               degenerate_flag_dec, euler_char_cells, ext_dim_decs,
                               fixed_points, path_algebra_dec, poincare_polynomial, strata)


def small_modules():
    """Every type-A module with n <= 4 and one to three interval summands."""
    for n in range(1, 5):
        intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for k in range(1, 4):
            for summands in itertools.combinations_with_replacement(intervals, k):
                yield IntervalDecomposition(n, dict(Counter(summands)))


def nonempty_grassmannians(modules):
    """(M, e, fixed points) for every e <= dim M with Gr_e(M) nonempty."""
    for dec in modules:
        for e in itertools.product(*(range(d + 1) for d in dec.dim_vector())):
            pts = fixed_points(dec, e)
            if pts:
                yield dec, e, pts


def test_dimension_is_top_stratum_top_cell_and_poincare_degree():
    pairs = 0
    for dec, e, pts in nonempty_grassmannians(small_modules()):
        rows = coefficient_quiver(dec)
        top_cell = max(cell_dimension(rows, pt) for pt in pts)
        top_stratum = max(s.dim for s in strata(dec, e))
        degree = len(poincare_polynomial(dec, e).coefficients) - 1
        assert degree == top_cell == top_stratum, (dec, e)
        pairs += 1
    assert pairs == 4813


def test_rigid_grassmannians_are_smooth_of_expected_dimension():
    rigid = [dec for dec in small_modules() if ext_dim_decs(dec, dec) == 0]
    pairs = 0
    for dec, e, _ in nonempty_grassmannians(rigid):
        d = dec.dim_vector()
        coeffs = poincare_polynomial(dec, e).coefficients
        assert coeffs == coeffs[::-1], (dec, e)
        expected = euler_form(linear_quiver(dec.n), e, tuple(a - b for a, b in zip(d, e)))
        assert len(coeffs) - 1 == expected, (dec, e)
        pairs += 1
    assert pairs == 2529


def test_degenerate_flag_variety_counts_median_genocchi_numbers():
    for n, genocchi in zip(range(1, 6), (2, 7, 38, 295, 3098)):
        dec, e = degenerate_flag_dec(n), path_algebra_dec(n).dim_vector()
        assert euler_char_cells(dec, e) == genocchi
        assert len(poincare_polynomial(dec, e).coefficients) - 1 == n * (n + 1) // 2
