"""Facts from the geometry of quiver Grassmannians, checked against the type-A
cell and stratum engines.  Each side of every assertion is a theorem's
prediction, not a second engine:

- Gr_e(M) is the disjoint union of its finitely many iso-strata and of its
  affine cells, so its dimension is the largest stratum dimension, the
  largest cell dimension and the degree of its Poincare polynomial.
- For rigid M, Gr_e(M) is smooth and irreducible of dimension <e, d - e>
  (Caldero-Reineke, "On the quiver Grassmannian in the acyclic case", 2008),
  so Poincare duality makes its Poincare polynomial palindromic.
- At a point U, the tangent space of Gr_e(M) is Hom(U, M/U), so its
  dimension bounds the dimension of every stratum through U, and every
  stratum contains the cells of its fixed points; for rigid M it is
  <e, d - e> at every point.  The points checked are the subrepresentations
  the type-A fixed points span, built by general linear algebra.
- e is a generic subdimension vector of d, e -> d (every representation of
  dimension d has a subrepresentation of dimension e), iff <e', d - e> >= 0
  for every e' -> e (Schofield, "General representations of quivers",
  1992).  A rigid M is the generic representation of its dimension, so the
  support of its F-polynomial is {e : e -> dim M}.
- By the same smoothness, the counting polynomial of Gr_e(M) for rigid M is
  zero or palindromic of degree <e, d - e>, with nonnegative coefficients
  (its Betti numbers); this holds beyond type A, where the counting engine
  rather than the cell engine computes it.
- Gr_{dim A}(A + DA) is the degenerate flag variety, of dimension n(n+1)/2,
  whose Euler characteristic is the normalised median Genocchi number
  (Cerulli Irelli-Feigin-Reineke, "Quiver Grassmannians and degenerate flag
  varieties", 2012).
"""

import functools
import itertools
from collections import Counter

from oracles import kronecker_preprojective, point_witness
from quivergrass import PrimeField, euler_form, linear_quiver, restrict, tangent_dim
from quivergrass.cluster import f_polynomial
from quivergrass.counting import counting_polynomial
from quivergrass.typea import (IntervalDecomposition, cell_dimension, coefficient_quiver,
                               decompose, degenerate_flag_dec, euler_char_cells, ext_dim_decs,
                               fixed_points, path_algebra_dec, poincare_polynomial, strata)


def small_modules():
    """Every type-A module with n <= 4 and one to three interval summands."""
    for n in range(1, 5):
        intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for k in range(1, 4):
            for summands in itertools.combinations_with_replacement(intervals, k):
                yield IntervalDecomposition(n, dict(Counter(summands)))


def sub_vectors(d):
    """Every e <= d."""
    return itertools.product(*(range(x + 1) for x in d))


def nonempty_grassmannians(modules):
    """(M, e, fixed points) for every e <= dim M with Gr_e(M) nonempty."""
    for dec in modules:
        for e in sub_vectors(dec.dim_vector()):
            pts = fixed_points(dec, e)
            if pts:
                yield dec, e, pts


def test_dimension_is_top_stratum_top_cell_and_poincare_degree():
    pairs = 0
    for dec, e, pts in nonempty_grassmannians(small_modules()):
        rows = coefficient_quiver(dec)
        top_cell = max(cell_dimension(rows, pt) for pt, _ in pts)
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


def test_tangent_space_bounds_stratum_and_cell_at_every_fixed_point():
    field = PrimeField(7)
    points = 0
    for dec in small_modules():
        m = dec.to_representation(field)
        rows = coefficient_quiver(dec)
        d = dec.dim_vector()
        rigid = ext_dim_decs(dec, dec) == 0
        for e in itertools.product(*(range(x + 1) for x in d)):
            dims = {s.isoclass: s.dim for s in strata(dec, e)}
            expected = euler_form(linear_quiver(dec.n), e, tuple(a - b for a, b in zip(d, e)))
            for pt, cell in fixed_points(dec, e):
                w = point_witness(dec, pt, field)
                assert w.dims == e and w.is_stable(m), (dec, e, pt)
                spanned = IntervalDecomposition(dec.n, Counter(
                    (a, j) for (_, j), a in zip(rows, pt) if a is not None))
                assert decompose(restrict(m, w)) == spanned, (dec, e, pt)
                tangent = tangent_dim(m, w)
                assert cell <= dims[spanned] <= tangent, (dec, e, pt)
                assert not rigid or tangent == expected, (dec, e, pt)
                points += 1
    assert points == 8102


def test_degenerate_flag_variety_counts_median_genocchi_numbers():
    for n, genocchi in zip(range(1, 6), (2, 7, 38, 295, 3098)):
        dec, e = degenerate_flag_dec(n), path_algebra_dec(n).dim_vector()
        assert euler_char_cells(dec, e) == genocchi
        assert len(poincare_polynomial(dec, e).coefficients) - 1 == n * (n + 1) // 2


def generic_subdimension_vectors(quiver, dims):
    """{e : e -> dims} by Schofield's recursion: e -> d iff <e', d - e> >= 0
    for every e' -> e, with 0 -> d and d -> d."""
    @functools.cache
    def embeds(e, d):
        if not any(e) or e == d:
            return True
        rest = tuple(a - b for a, b in zip(d, e))
        return all(euler_form(quiver, f, rest) >= 0 for f in sub_vectors(e) if embeds(f, e))

    return {e for e in sub_vectors(dims) if embeds(e, tuple(dims))}


def test_rigid_f_polynomial_support_is_the_generic_subdimension_vectors():
    rigid = [dec for dec in small_modules() if ext_dim_decs(dec, dec) == 0]
    for dec in rigid:
        assert set(f_polynomial(dec).terms) == generic_subdimension_vectors(
            linear_quiver(dec.n), dec.dim_vector()), dec
    assert len(rigid) == 226
    for n in (1, 2, 3):
        m = kronecker_preprojective(n)
        assert set(f_polynomial(m, "count").terms) == generic_subdimension_vectors(
            m.quiver, m.dims), n


def test_rigid_kronecker_counting_polynomials_are_palindromic_of_expected_degree():
    nonempty = 0
    for n in (1, 2, 3):
        m = kronecker_preprojective(n)
        for e in sub_vectors(m.dims):
            cp = counting_polynomial(m, e)
            assert cp.consistency == "verified", (n, e)
            coeffs = cp.coefficients
            if not coeffs:
                continue
            assert coeffs == coeffs[::-1] and min(coeffs) >= 0, (n, e)
            assert len(coeffs) - 1 == euler_form(
                m.quiver, e, tuple(a - b for a, b in zip(m.dims, e))), (n, e)
            nonempty += 1
    assert nonempty == 22
