"""Acceptance suite: one test per criterion, every assertion exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  No tolerances appear anywhere: all quantities are integers or
exact polynomials and are compared with equality.
"""

import random
import time

import pytest

from oracles import f_identity_sides
from quivergrass import (QQ, PrimeField, Quiver, Representation, dual,
                         euler_form, ext1_dim, hom_dim, is_rigid,
                         kronecker_quiver, linear_quiver, projective, simple,
                         tangent_dim)
from quivergrass.ardynkin import knit
from quivergrass.cluster import (cluster_character, make_generating,
                                 psi_count_identity, verify_multiplication)
from quivergrass.counting import (count_points, counting_polynomial,
                                  enumerate_subreps, euler_characteristic)
from quivergrass.elliptic import demo
from quivergrass.poly import SparsePoly
from quivergrass.rep import reduce_mod
from quivergrass.typea import (IntervalDecomposition, cell_dimension,
                               coefficient_quiver, decompose,
                               deg_leq_hom, deg_leq_ranks,
                               degenerate_flag_dec, euler_char_cells,
                               ext_interval, fixed_points, flag_dec,
                               flat_locus_class, hom_interval, interval_rep,
                               is_catenoid, most_flat_dec, poincare_polynomial,
                               random_decomposition, ranks_from_multiplicities,
                               multiplicities_from_ranks, semisimple_dec,
                               strata, translate)

from oracles import classify_strata_ff, meshes

A2 = linear_quiver(2)


def _check(criterion, ok, detail):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}",
          flush=True)
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_grassmannian_of_planes():
    dec = IntervalDecomposition(1, {(1, 1): 4})
    pp = poincare_polynomial(dec, (2,))
    cq = coefficient_quiver(dec)
    pts = fixed_points(dec, (2,))
    dims = sorted(dim for _, dim in pts)
    assert all(dim == cell_dimension(cq, pt) for pt, dim in pts)
    one_vertex = Quiver(1, [])
    m2 = Representation(one_vertex, PrimeField(2), (4,), [])
    count = count_points(m2, (2,))
    enumerated = len(enumerate_subreps(m2, (2,)))
    ok = (pp.coefficients == (1, 1, 2, 1, 1) and dims == [0, 1, 2, 2, 3, 4]
          and count == 35 and enumerated == 35)
    _check(1, ok, f"cells {pp.coefficients}, dims {dims}, count(2) {count}")


def test_criterion_02_two_projective_lines():
    m = Representation(A2, QQ, (2, 2), [[[1, 0], [0, 0]]])
    cp = counting_polynomial(m, (1, 1))
    st = strata(decompose(m), (1, 1))
    m2 = reduce_mod(m, 2)
    tangents = {}
    for w in enumerate_subreps(m2, (1, 1)):
        tangents[w.bases] = tangent_dim(m2, w)
    crossing = (((0, 1),), ((1, 0),))
    ok = (cp.coefficients == (1, 2) and cp.consistency == "verified"
          and euler_characteristic(cp) == 3
          and len(st) == 2 and all(s.dim == 1 for s in st)
          and tangents[crossing] == 2
          and sorted(tangents.values()) == [1, 1, 1, 1, 2])
    _check(2, ok, f"poly {cp.coefficients}, strata dims "
                  f"{[s.dim for s in st]}, tangents {sorted(tangents.values())}")


def test_criterion_03_plane_and_line():
    m = Representation(A2, QQ, (2, 3), [[[1, 0], [0, 0], [0, 0]]])
    cp = counting_polynomial(m, (1, 1))
    st = strata(decompose(m), (1, 1))
    ok = (cp.coefficients == (1, 2, 1) and cp.consistency == "verified"
          and euler_characteristic(cp) == 4
          and sorted(s.dim for s in st) == [1, 2])
    _check(3, ok, f"poly {cp.coefficients}, strata dims {sorted(s.dim for s in st)}")


def test_criterion_04_worked_fixed_point():
    dec = degenerate_flag_dec(3)
    pt = (3, 3, 2, None, 1, None)
    carried = dict(fixed_points(dec, (1, 2, 3)))
    assert pt in carried
    dim = cell_dimension(coefficient_quiver(dec), pt)
    _check(4, dim == 4 == carried[pt], f"cell dimension {dim}, carried {carried[pt]}")


def test_criterion_05_flag_variety():
    dec = flag_dec(2)
    m = dec.to_representation(QQ)
    assert is_rigid(m)
    m2 = reduce_mod(m, 2)
    witnesses = enumerate_subreps(m2, (1, 2))
    expected = euler_form(A2, (1, 2), (2, 1))
    tds = sorted({tangent_dim(m2, w) for w in witnesses})
    chi = euler_char_cells(dec, (1, 2))
    ok = (tds == [3] and expected == 3 and chi == 6 and len(witnesses) == 21
          and count_points(m2, (1, 2)) == 21)
    _check(5, ok, f"tangents {tds}, chi {chi}, count(2) {len(witnesses)}")


def test_criterion_06_degenerate_flag_variety():
    dec = degenerate_flag_dec(2)
    pp = poincare_polynomial(dec, (1, 2))
    m = dec.to_representation(QQ)
    counts_ok = all(pp.evaluate(p) == count_points(reduce_mod(m, p), (1, 2))
                    for p in (2, 3))
    st = strata(dec, (1, 2))
    top = [s for s in st if s.dim == max(x.dim for x in st)]
    class_a = IntervalDecomposition(2, {(1, 2): 1, (2, 2): 1})
    ok = (counts_ok and len(top) == 1 and top[0].dim == 3
          and top[0].isoclass == class_a and 3 == 2 * 3 // 2)
    _check(6, ok, f"cells {pp.coefficients}, top stratum "
                  f"{top[0].isoclass} dim {top[0].dim}")


def test_criterion_07_kronecker_points():
    q = kronecker_quiver(2)
    results = []
    for p in (2, 3, 5):
        m = Representation(q, PrimeField(p), (2, 2),
                           [[[1, 0], [0, 1]], [[0, 0], [0, 1]]])
        ws = enumerate_subreps(m, (1, 1))
        results.append((len(ws), sorted(tangent_dim(m, w) for w in ws)))
    r2 = Representation(q, PrimeField(3), (2, 2),
                        [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    ws = enumerate_subreps(r2, (1, 1))
    regular = (len(ws), [tangent_dim(r2, w) for w in ws])
    ok = (all(r == (2, [0, 0]) for r in results) and regular == (1, [1]))
    _check(7, ok, f"eigenvalue points {results}, regular point {regular}")


def test_criterion_08_closed_forms_vs_defect_map():
    pairs = 0
    for n in range(1, 7):
        q = linear_quiver(n)
        ivs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        reps = {ij: interval_rep(q, QQ, *ij) for ij in ivs}
        for a in ivs:
            for b in ivs:
                assert hom_interval(a, b) == hom_dim(reps[a], reps[b]), (a, b)
                assert ext_interval(a, b) == ext1_dim(reps[a], reps[b]), (a, b)
                pairs += 1
    _check(8, pairs == sum((n * (n + 1) // 2) ** 2 for n in range(1, 7)),
           f"{pairs} interval pairs, incl. 441 at n=6")


def test_criterion_09_rank_multiplicity_round_trip():
    rng = random.Random(2718)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        dec = random_decomposition(n, rng, max_mult=3)
        assert multiplicities_from_ranks(n, ranks_from_multiplicities(dec)) == dec
        checked += 1
    _check(9, checked == 200, f"{checked} random modules, n <= 5")


def _all_isoclasses(n, d):
    ivs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    out = []

    def rec(idx, m):
        if idx == len(ivs):
            dec = IntervalDecomposition(n, dict(m))
            if dec.dim_vector() == d:
                out.append(dec)
            return
        for mult in range(0, max(d) + 1):
            m[ivs[idx]] = mult
            rec(idx + 1, m)
        del m[ivs[idx]]

    rec(0, {})
    return out


def test_criterion_10_degeneration_orders_agree():
    total = 0
    for n, d in ((2, (2, 2)), (3, (2, 2, 2))):
        classes = _all_isoclasses(n, d)
        for a in classes:
            for b in classes:
                assert deg_leq_ranks(a, b) == deg_leq_hom(a, b), (a, b)
                total += 1
    _check(10, total > 0, f"{total} ordered pairs compared")


def test_criterion_11_flat_loci_and_catalan_strata():
    for n in (2, 3, 4):
        assert flat_locus_class(flag_dec(n)) == "flat-irreducible"
        assert flat_locus_class(degenerate_flag_dec(n)) == "flat-irreducible"
        assert flat_locus_class(most_flat_dec(n)) == "flat-only"
        assert flat_locus_class(semisimple_dec(n)) == "non-flat"
    catalan = {}
    for n in (2, 3):
        e = tuple(range(1, n + 1))
        st = strata(most_flat_dec(n), e)
        top = max(s.dim for s in st)
        catalan[n] = sum(1 for s in st if s.dim == top)
        groups = classify_strata_ff(
            reduce_mod(most_flat_dec(n).to_representation(QQ), 2), e)
        assert len(groups) == len(st)  # oracle sees the same nonempty strata
        assert sum(groups.values()) == count_points(
            reduce_mod(most_flat_dec(n).to_representation(QQ), 2), e)
    ok = catalan == {2: 2, 3: 5}
    _check(11, ok, f"maximal strata counts {catalan} (Catalan numbers)")


def test_criterion_12_catenoid():
    exercise = IntervalDecomposition(
        3, {(3, 3): 1, (2, 3): 2, (2, 2): 1, (1, 2): 1, (1, 1): 1})
    not_catenoid = IntervalDecomposition(
        4, {(2, 4): 1, (2, 3): 1, (1, 2): 1, (4, 4): 1, (3, 3): 1, (2, 2): 1})
    ok = is_catenoid(exercise) and not is_catenoid(not_catenoid)
    _check(12, ok, "exercise module accepted, marked configuration rejected")


def test_criterion_13_knitting():
    counts = {}
    d4 = Quiver(4, [(1, 4), (2, 4), (3, 4)])
    d5 = Quiver(5, [(1, 3), (2, 3), (3, 4), (4, 5)])
    for name, quiver, want in (("A4", linear_quiver(4), 10), ("D4", d4, 12),
                               ("A5", linear_quiver(5), 15), ("D5", d5, 20)):
        ar = knit(quiver)
        counts[name] = len(ar.vertices)
        n = quiver.vertex_count
        for start, middles, end in meshes(ar):
            mid = tuple(sum(ar.vertices[m][i] for m in middles) for i in range(n))
            assert mid == tuple(ar.vertices[start][i] + ar.vertices[end][i]
                                for i in range(n))
    for n in (2, 3, 4, 5):
        ar = knit(linear_quiver(n))
        for target, source in ar.tau.items():
            support = [v + 1 for v, x in enumerate(ar.vertices[target]) if x]
            ij = (support[0], support[-1])
            tau = translate(IntervalDecomposition(n, {ij: 1}), 1)
            assert ar.vertices[source] == tau.dim_vector()
    ok = counts == {"A4": 10, "D4": 12, "A5": 15, "D5": 20}
    _check(13, ok, f"vertex counts {counts}, meshes additive, translate agrees")


def _almost_split_fixtures():
    out = []
    for n in (2, 3, 4):
        quiver = linear_quiver(n)
        for i in range(1, n + 1):
            for j in range(i, n):
                out.append((interval_rep(quiver, QQ, i, j),
                            interval_rep(quiver, QQ, i + 1, j + 1)))
    a4 = linear_quiver(4)
    out.append((interval_rep(a4, QQ, 1, 3), interval_rep(a4, QQ, 2, 4)))
    return out


def test_criterion_14_multiplication_formula():
    fixtures = _almost_split_fixtures()
    for s, x in fixtures:
        ge = make_generating(s, x)
        assert verify_multiplication(ge).residual.is_zero(), (s.dims, x.dims)
        lhs, rhs = f_identity_sides(ge)
        assert lhs == rhs, (s.dims, x.dims)
    cc_s1 = cluster_character(simple(A2, QQ, 1))
    cc_s2 = cluster_character(simple(A2, QQ, 2))
    cc_p1 = cluster_character(projective(A2, QQ, 1))
    exchange = (cc_s2 * cc_s1 == cc_p1 + SparsePoly.monomial((0, 0, 1, 0)))
    _check(14, exchange, f"{len(fixtures)} extensions verified; "
                         "CC(S2)CC(S1) = CC(P1) + y^(1,0)")


def test_criterion_15_reduction_theorem_counts():
    import itertools
    fixtures = _almost_split_fixtures()
    checked = 0
    for s, x in fixtures:
        ge = make_generating(s, x)
        for e in itertools.product(*(range(dy + 1) for dy in ge.y.dims)):
            assert psi_count_identity(ge, e, [2, 3]).holds, (s.dims, x.dims, e)
            checked += 1
    _check(15, checked > 0, f"{checked} (fixture, e) pairs at p in {{2,3}}")


def test_criterion_16_duality_of_counts():
    rng = random.Random(1234)
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        arrows = []
        for _ in range(rng.randint(0, 4)):
            s, t = rng.randint(1, n), rng.randint(1, n)
            if s < t:
                arrows.append((s, t))
        quiver = Quiver(n, arrows)
        p = rng.choice([2, 3])
        field = PrimeField(p)
        dims = tuple(rng.randint(0, 3) for _ in range(n))
        mats = [[[rng.randrange(p) for _ in range(dims[s - 1])]
                 for _ in range(dims[t - 1])] for s, t in quiver.arrows]
        m = Representation(quiver, field, dims, mats)
        e = tuple(rng.randint(0, v) for v in dims)
        co = tuple(a - b for a, b in zip(dims, e))
        assert count_points(m, e) == count_points(dual(m), co)
        done += 1
    _check(16, done == 50, "50 seeded random instances")


def test_criterion_17_elliptic_demo():
    reports = []
    start = time.monotonic()
    for p in (2, 3, 5):
        reports.append(demo(p))
    elapsed = time.monotonic() - start
    ok = all(r["difference"] == 0 for r in reports) and elapsed < 60
    _check(17, ok, f"counts {[r['grassmannian_points'] for r in reports]} "
                   f"agree with the curve at p=2,3,5 in {elapsed:.1f}s")


def test_criterion_18_non_polynomial_probe():
    rng = random.Random(1)
    q = kronecker_quiver(4)
    mats = [[[rng.randint(0, 6) for _ in range(3)] for _ in range(4)]
            for _ in range(4)]
    m = Representation(q, QQ, (3, 4), mats)
    cp = counting_polynomial(m, (1, 3))
    if cp.consistency == "verified":
        print("[criterion 18] SKIP  sampled representation is non-generic",
              flush=True)
        pytest.skip("sampled representation happens to be non-generic")
    _check(18, cp.consistency == "inconsistent",
           f"flag {cp.consistency}, counts {cp.counts}")
