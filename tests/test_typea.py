"""Equioriented type A: rank sequences, decompositions, degeneration orders,
coefficient quivers, fixed points, cells, strata, catenoids, flat loci."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergrass import QQ, BudgetError, DomainError, PrimeField, Quiver, Representation, \
    ext1_dim, hom_dim, kronecker_quiver, linear_quiver
from quivergrass import linalg as la
from quivergrass.rep import reduce_mod
from quivergrass.counting import count_points
from quivergrass.typea import (
    IntervalDecomposition, Stratum, _sweep, cell_dimension,
    coefficient_quiver, decompose, deg_leq_hom, deg_leq_ranks,
    degenerate_flag_dec, euler_char_cells, ext_interval, fixed_points,
    flag_dec, generating_function, flat_locus_class, hom_interval, interval_rep, is_catenoid,
    min_projective_resolution, most_flat_dec, multiplicities_from_ranks,
    poincare_polynomial, random_decomposition, rank_sequence,
    ranks_from_multiplicities, semisimple_dec, strata, translate)

from oracles import (interval_by_arrows, interval_direct_sum, mul, poincare_by_points,
                     strata_by_points)

A2 = linear_quiver(2)
A3 = linear_quiver(3)


@pytest.mark.parametrize("seed", range(24))
def test_interval_module_is_the_direct_sum_of_its_summands(seed):
    dec = random_decomposition(1 + seed % 6, seed, max_mult=3)
    for field in (QQ, PrimeField(5)):
        assert dec.to_representation(field) == interval_direct_sum(dec, field)


@pytest.mark.parametrize("n", range(1, 7))
def test_interval_rep_keeps_the_arrow_order_of_its_quiver(n):
    reordered = Quiver(n, [(v, v + 1) for v in range(n - 1, 0, -1)])
    for quiver in (linear_quiver(n), reordered):
        for field in (QQ, PrimeField(3)):
            for i, j in itertools.combinations_with_replacement(range(1, n + 1), 2):
                u = interval_rep(quiver, field, i, j)
                assert u == interval_by_arrows(quiver, field, i, j)
                assert u.quiver is quiver


@pytest.mark.parametrize("n", range(4))
def test_zero_interval_module_is_the_zero_representation(n):
    dec = IntervalDecomposition(n, {})
    assert dec.to_representation(QQ) == interval_direct_sum(dec, QQ)
    assert dec.to_representation(QQ).is_zero()


def test_interval_module_over_the_entry_ceiling_is_refused():
    # U[1,2]^3163 would need 3163^2 > 10^7 entries; refused before building
    with pytest.raises(BudgetError, match="10004569 entries"):
        IntervalDecomposition(2, {(1, 2): 3163}).to_representation(QQ)


def test_rank_sequence_named_modules():
    for n in (2, 3, 4):
        r0 = rank_sequence(flag_dec(n).to_representation(QQ))
        r1 = rank_sequence(degenerate_flag_dec(n).to_representation(QQ))
        r2 = rank_sequence(most_flat_dec(n).to_representation(QQ))
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert r0[(i, j)] == n + 1
                assert r1[(i, j)] == n + 1 - (j - i)
                if i < j:
                    assert r2[(i, j)] == n - (j - i)
                else:
                    assert r2[(i, i)] == n + 1


def test_rank_sequence_equals_ranks_of_dense_composites():
    # the dense product of the arrow matrices is the reference for the
    # sparse composites, over Q and GF(3), with zero-dimensional vertices
    rng = random.Random(17)
    for field in (QQ, PrimeField(3)):
        for _ in range(15):
            n = rng.randint(2, 5)
            d = [rng.randint(0, 4) for _ in range(n)]
            mats = [[[rng.choice([0, 0, 1, 2, -1]) for _ in range(d[s])] for _ in range(d[s + 1])]
                    for s in range(n - 1)]
            m = Representation(linear_quiver(n), field, d, mats)
            r = rank_sequence(m)
            for i in range(1, n + 1):
                comp = la.identity(d[i - 1], field)
                for j in range(i + 1, n + 1):
                    comp = mul(m.matrix(j - 2), comp, field, d[i - 1])
                    assert r[(i, j)] == la.rank(comp, field), (i, j)


def test_decompose_a_large_multiplicity():
    # 400 copies of U[1,3]: 400 x 400 arrow matrices, whose dense composites
    # cost 400**3 products each
    dec = IntervalDecomposition(3, {(1, 3): 400})
    assert decompose(dec.to_representation(QQ)) == dec
    assert rank_sequence(dec.to_representation(QQ)) == ranks_from_multiplicities(dec)


def test_rank_sequence_rejects_wrong_quiver():
    m = Representation(kronecker_quiver(2), QQ, (1, 1), [[[1]], [[1]]])
    with pytest.raises(DomainError):
        rank_sequence(m)


def test_rank_sequence_inequalities_checked():
    with pytest.raises(DomainError):
        multiplicities_from_ranks(2, {(1, 1): 1, (2, 2): 1, (1, 2): 2})  # m would go negative
    with pytest.raises(DomainError, match=r"r\[1,2\]"):
        multiplicities_from_ranks(2, {(1, 1): 1})  # no rank given for U[1,2]


def test_multiplicities_from_ranks_example():
    dec = multiplicities_from_ranks(2, {(1, 1): 3, (2, 2): 3, (1, 2): 2})
    assert dec == IntervalDecomposition(2, {(1, 1): 1, (2, 2): 1, (1, 2): 2})
    assert dec == degenerate_flag_dec(2)


def test_multiplicities_from_ranks_accepts_exactly_the_rank_sequences():
    # every rank dict with entries 0..2 on A_1..A_3: a DomainError or a round trip
    accepted = 0
    for n in (1, 2, 3):
        keys = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for values in itertools.product(range(3), repeat=len(keys)):
            r = dict(zip(keys, values))
            try:
                dec = multiplicities_from_ranks(n, r)
            except DomainError:
                continue
            assert ranks_from_multiplicities(dec) == r
            accepted += 1
    assert accepted == 91  # of the 759 dicts


def test_single_interval_rank_support():
    dec = IntervalDecomposition(4, {(2, 3): 1})
    r = ranks_from_multiplicities(dec)
    for i in range(1, 5):
        for j in range(i, 5):
            assert r[(i, j)] == (1 if 2 <= i and j <= 3 else 0)


def test_round_trip_random():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 5)
        dec = random_decomposition(n, rng)
        assert multiplicities_from_ranks(n, ranks_from_multiplicities(dec)) == dec
    # through actual matrices too
    for seed in range(10):
        dec = random_decomposition(3, seed)
        assert decompose(dec.to_representation(QQ)) == dec


def test_interval_hom_ext_closed_forms():
    assert hom_interval((1, 2), (1, 1)) == 1
    assert ext_interval((1, 1), (2, 2)) == 1
    assert ext_interval((2, 3), (3, 3)) == 0


def test_closed_forms_match_defect_map_small():
    for n in (1, 2, 3, 4):
        q = linear_quiver(n)
        ivs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        reps = {ij: interval_rep(q, QQ, *ij) for ij in ivs}
        for a in ivs:
            for b in ivs:
                assert hom_interval(a, b) == hom_dim(reps[a], reps[b])
                assert ext_interval(a, b) == ext1_dim(reps[a], reps[b])


def test_deg_leq_ranks_chain():
    for n in (2, 3):
        m0, m1, m2 = flag_dec(n), degenerate_flag_dec(n), most_flat_dec(n)
        assert deg_leq_ranks(m0, m1) and deg_leq_ranks(m1, m2)
        assert deg_leq_ranks(m0, m2)
        assert not deg_leq_ranks(m1, m0)
        assert deg_leq_ranks(m1, m1)
    u12 = IntervalDecomposition(2, {(1, 2): 1})
    split = IntervalDecomposition(2, {(1, 1): 1, (2, 2): 1})
    assert deg_leq_ranks(u12, split) and not deg_leq_ranks(split, u12)


def test_deg_leq_hom_requires_same_dims():
    with pytest.raises(DomainError):
        deg_leq_hom(IntervalDecomposition(2, {(1, 1): 1}),
                    IntervalDecomposition(2, {(2, 2): 1}))


def _all_isoclasses(n, d):
    """Every interval multiplicity assignment with dimension vector d."""
    ivs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    out = []

    def rec(idx, m):
        if idx == len(ivs):
            dec = IntervalDecomposition(n, dict(m))
            if dec.dim_vector() == d:
                out.append(dec)
            return
        i, j = ivs[idx]
        for mult in range(0, max(d) + 1):
            m[(i, j)] = mult
            rec(idx + 1, m)
        del m[(i, j)]

    rec(0, {})
    return out


def test_deg_orders_agree_exhaustively_d22():
    classes = _all_isoclasses(2, (2, 2))
    assert len(classes) == 3
    for a in classes:
        for b in classes:
            assert deg_leq_ranks(a, b) == deg_leq_hom(a, b)


def test_flag_module_minimal_in_order():
    for n in (2, 3):
        classes = _all_isoclasses(n, (n + 1,) * n)
        m0 = flag_dec(n)
        for c in classes:
            assert deg_leq_ranks(m0, c)


def test_coefficient_quiver_rows():
    rows = coefficient_quiver(degenerate_flag_dec(3))
    assert rows == ((3, 3), (2, 3), (1, 3), (1, 3), (1, 2), (1, 1))
    assert coefficient_quiver(IntervalDecomposition(4, {(2, 3): 1})) == ((2, 3),)
    # the example-4 module sorts with S2 above P1 above S1
    rows2 = coefficient_quiver(IntervalDecomposition(
        2, {(1, 1): 1, (1, 2): 1, (2, 2): 1}))
    assert rows2 == ((2, 2), (1, 2), (1, 1))


def test_coefficient_quiver_order_kills_forward_ext():
    rng = random.Random(17)
    for _ in range(20):
        dec = random_decomposition(rng.randint(1, 5), rng)
        rows = coefficient_quiver(dec)
        for r in range(len(rows)):
            for r2 in range(r + 1, len(rows)):
                assert ext_interval(rows[r], rows[r2]) == 0


def test_fixed_points_binomial():
    dec = IntervalDecomposition(1, {(1, 1): 4})
    assert len(fixed_points(dec, (2,))) == 6


def test_fixed_points_beyond_dim_m_are_none():
    assert fixed_points(IntervalDecomposition(2, {(1, 2): 1}), (2, 0)) == []


def test_fixed_points_wrong_quiver_rejected():
    m = Representation(kronecker_quiver(2), QQ, (1, 1), [[[1]], [[1]]])
    with pytest.raises(DomainError):
        fixed_points(decompose(m), (1, 1))


def test_fixed_points_contains_worked_point():
    dec = degenerate_flag_dec(3)
    pts = [pt for pt, _ in fixed_points(dec, (1, 2, 3))]
    assert (3, 3, 2, None, 1, None) in pts


def brute_force_points(dec, e):
    """The per-row choices of dimension e, in the lexicographic order of the
    choice lists [None, j, ..., i]."""
    rows = coefficient_quiver(dec)
    expected = []
    for starts in itertools.product(*([None] + list(range(j, i - 1, -1)) for i, j in rows)):
        dims = [0] * dec.n
        for (i, j), a in zip(rows, starts):
            if a is not None:
                for v in range(a, j + 1):
                    dims[v - 1] += 1
        if tuple(dims) == tuple(e):
            expected.append(starts)
    return expected


def assert_matches_brute_force(dec, e):
    """The pruned search lists exactly the brute-force points, in their order,
    each with the dimension of its cell."""
    rows = coefficient_quiver(dec)
    points = fixed_points(dec, e)
    assert [pt for pt, _ in points] == brute_force_points(dec, e)
    assert all(dim == cell_dimension(rows, pt) for pt, dim in points)
    return points


def test_fixed_points_match_brute_force():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(1, 4)
        dec = random_decomposition(n, rng)
        d = dec.dim_vector()
        e = tuple(rng.randint(0, x) for x in d)
        assert_matches_brute_force(dec, e)


def test_fixed_points_where_the_slack_prunes():
    # vertex 1 of U[1,3] must be taken, and every suffix through it takes 2 and 3
    assert assert_matches_brute_force(IntervalDecomposition(3, {(1, 3): 1}), (1, 0, 0)) == []
    # every vertex but one is tight, so each row through one is forced; at
    # e = (3, 4, 4, 1) the last module has no point: one of the two rows
    # U[1,4], the only ones through vertex 4, must skip it and so all of it
    for dec in (degenerate_flag_dec(3), most_flat_dec(3),
                IntervalDecomposition(4, {(1, 4): 2, (2, 3): 1, (3, 3): 1, (1, 2): 1})):
        d = dec.dim_vector()
        for v in range(dec.n):
            e = tuple(x - (u == v) for u, x in enumerate(d))
            assert_matches_brute_force(dec, e)
        full = tuple(i for i, _ in coefficient_quiver(dec))
        assert assert_matches_brute_force(dec, d) == [(full, 0)]
    assert fixed_points(IntervalDecomposition(3, {}), (0, 0, 0)) == [((), 0)]


def test_generating_function_counts_the_fixed_points():
    """The row product and the fixed-point search are two engines for every
    chi(Gr_e(M)) at once, the sub-dimension vectors with no point included."""
    rng = random.Random(37)
    for dec in [IntervalDecomposition(3, {}), degenerate_flag_dec(3)] + \
            [random_decomposition(rng.randint(1, 4), rng) for _ in range(10)]:
        table = generating_function(dec).terms
        for e in itertools.product(*(range(x + 1) for x in dec.dim_vector())):
            assert table.get(e, 0) == len(fixed_points(dec, e)) == euler_char_cells(dec, e)
    assert euler_char_cells(IntervalDecomposition(2, {(1, 2): 1}), (2, 0)) == 0
    with pytest.raises(DomainError):
        euler_char_cells(IntervalDecomposition(2, {(1, 2): 1}), (1, 1, 1))


def test_cell_dimension_rejects_malformed_points():
    rows = coefficient_quiver(IntervalDecomposition(3, {(1, 2): 1, (2, 3): 1}))
    assert rows == ((2, 3), (1, 2))
    for starts in [(2,), (2, 1, None), (1, None), (None, 3)]:
        with pytest.raises(DomainError):
            cell_dimension(rows, starts)


def test_cell_dimension_worked_example():
    dec = degenerate_flag_dec(3)
    rows = coefficient_quiver(dec)
    assert cell_dimension(rows, (3, 3, 2, None, 1, None)) == 4


def test_cell_dimension_grassmannian_cells():
    dec = IntervalDecomposition(1, {(1, 1): 4})
    rows = coefficient_quiver(dec)
    assert cell_dimension(rows, (1, 1, None, None)) == 4
    assert cell_dimension(rows, (None, None, 1, 1)) == 0
    assert cell_dimension(rows, (None,) * 4) == 0


def test_poincare_polynomials():
    assert poincare_polynomial(IntervalDecomposition(1, {(1, 1): 4}), (2,)
                               ).coefficients == (1, 1, 2, 1, 1)
    fl3 = poincare_polynomial(flag_dec(2), (1, 2))
    assert euler_char_cells(flag_dec(2), (1, 2)) == 6
    assert fl3.evaluate(2) == 21
    empty = poincare_polynomial(IntervalDecomposition(1, {(1, 1): 1}), (0,))
    assert empty.coefficients == (1,)


def test_poincare_matches_oracle():
    fixtures = [
        (degenerate_flag_dec(2), (1, 2), (2, 3)),
        (flag_dec(2), (1, 2), (2, 3)),
        (most_flat_dec(2), (1, 2), (2, 3)),
        (IntervalDecomposition(3, {(1, 3): 1, (2, 2): 1, (1, 1): 1}), (1, 1, 1), (2,)),
    ]
    for dec, e, primes in fixtures:
        pp = poincare_polynomial(dec, e)
        m = dec.to_representation(QQ)
        for p in primes:
            assert pp.evaluate(p) == count_points(reduce_mod(m, p), e)
        assert pp.evaluate(1) == euler_char_cells(dec, e)


def test_poincare_equals_counting_polynomial():
    """Oracle equivalence as polynomials, not just at sampled primes."""
    from quivergrass.counting import counting_polynomial
    fixtures = [
        (degenerate_flag_dec(2), (1, 2)),
        (flag_dec(2), (1, 2)),
        (IntervalDecomposition(2, {(1, 1): 1, (1, 2): 1, (2, 2): 1}), (1, 1)),
        (IntervalDecomposition(3, {(1, 3): 1, (2, 2): 2}), (1, 2, 1)),
    ]
    for dec, e in fixtures:
        cp = counting_polynomial(dec.to_representation(QQ), e)
        assert cp.consistency == "verified"
        assert cp.coefficients == poincare_polynomial(dec, e).coefficients


def test_fixed_point_count_dual_symmetry():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 4)
        dec = random_decomposition(n, rng)
        d = dec.dim_vector()
        e = tuple(rng.randint(0, x) for x in d)
        # duality reverses the vertex labels, so complement then reverse
        co = tuple(reversed([a - b for a, b in zip(d, e)]))
        dual_dec = IntervalDecomposition(
            n, {(n + 1 - j, n + 1 - i): m for (i, j), m in dec.m.items()})
        assert len(fixed_points(dec, e)) == len(fixed_points(dual_dec, co))


def test_max_cell_dimension_lower_bound():
    """Whenever nonempty, some cell reaches <e, d-e>."""
    from quivergrass.quiver import euler_form
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 4)
        dec = random_decomposition(n, rng)
        d = dec.dim_vector()
        e = tuple(rng.randint(0, x) for x in d)
        pts = fixed_points(dec, e)
        if not pts:
            continue
        rows = coefficient_quiver(dec)
        best = max(cell_dimension(rows, pt) for pt, _ in pts)
        q = linear_quiver(n)
        assert best >= euler_form(q, e, tuple(a - b for a, b in zip(d, e)))


def test_strata_example4():
    dec = IntervalDecomposition(2, {(1, 1): 1, (1, 2): 1, (2, 2): 1})
    st = strata(dec, (1, 1))
    by_class = {repr(s.isoclass): s for s in st}
    assert set(by_class) == {"U[1,2]", "U[1,1] + U[2,2]"}
    assert all(s.dim == 1 for s in st)


def test_strata_degenerate_flag():
    st = strata(degenerate_flag_dec(2), (1, 2))
    assert max(s.dim for s in st) == 3
    top = [s for s in st if s.dim == 3]
    assert len(top) == 1
    assert top[0].isoclass == IntervalDecomposition(2, {(1, 2): 1, (2, 2): 1})


def test_strata_most_flat_catalan():
    # a regression pin, not an oracle: the Catalan count of top-dimensional
    # strata at e = (1, ..., n) is observed, not yet derived from a theorem
    for n, catalan in [(2, 2), (3, 5), (4, 14), (5, 42)]:
        st = strata(most_flat_dec(n), tuple(range(1, n + 1)))
        top = max(s.dim for s in st)
        assert top == n * (n + 1) // 2
        assert sum(1 for s in st if s.dim == top) == catalan, n


@st.composite
def small_decompositions(draw):
    """A type-A module with n <= 5 and at most six summands, and an e <= d."""
    n = draw(st.integers(0, 5))
    intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    summands = draw(st.lists(st.sampled_from(intervals), max_size=6)) if n else []
    dec = IntervalDecomposition(n, Counter(summands))
    return dec, tuple(draw(st.integers(0, x)) for x in dec.dim_vector())


def assert_sweep_equals_the_points(dec, e):
    """Poincaré polynomial and strata from the row sweep equal the folds over
    the listed fixed points, and count chi(Gr_e(M)) cells."""
    pp = poincare_polynomial(dec, e).coefficients
    found = strata(dec, e)
    assert pp == poincare_by_points(dec, e)
    assert found == strata_by_points(dec, e)
    assert sum(pp) == sum(s.cells for s in found) == generating_function(dec).coefficient(e)
    return pp, found


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_decompositions())
def test_sweep_equals_the_fold_over_the_points(case):
    assert_sweep_equals_the_points(*case)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_decompositions())
def test_fixed_points_equal_the_brute_force_points(case):
    """The listing read off the state graph against the product of the
    per-row choices, which shares no code with it: the same points in the
    same order, each with the dimension ``cell_dimension`` counts."""
    assert_matches_brute_force(*case)


def test_every_state_of_the_graph_lies_on_a_fixed_point():
    """On degenerate_flag_dec(6) at e = (2, ..., 2), 705 of the partial
    points that the choices of ``_row_choices`` reach have no completion;
    the pruned graph keeps no state of them.  Every state has an out-edge
    and an in-edge, and the partial paths into the states of each layer are
    exactly the distinct prefixes of that length of the fixed points."""
    dec, e = degenerate_flag_dec(6), (2,) * 6
    graph = _sweep(dec, e)
    layers = graph.layers
    points = fixed_points(dec, e)
    paths = [1]  # the partial paths into each state of the layer
    for r, layer in enumerate(layers, 1):
        assert all(layer)
        after = [0] * len(layers[r] if r < len(layers) else graph.keys)
        for out, k in zip(layer, paths):
            for _, _, t in out:
                after[t] += k
        assert all(after)
        paths = after
        assert sum(paths) == len({pt[:r] for pt, _ in points})
    assert len(points) == 2751
    assert sum(poincare_polynomial(dec, e).coefficients) == sum(s.cells for s in strata(dec, e)) \
        == generating_function(dec).coefficient(e) == 2751


def test_strata_past_255_rows():
    """A state's key counts every row in a bit field of its own, wide enough
    to count every row: 9 bits from 256 rows on.  The strata of 302 rows
    read back their isoclasses, and 256 rows that all select the same
    suffix fill one field with 256."""
    dec = IntervalDecomposition(2, {(1, 2): 300, (2, 2): 2})
    found = strata(dec, (1, 3))
    assert [s.isoclass for s in found] == [IntervalDecomposition(2, {(1, 2): 1, (2, 2): 2})]
    # one row of U[1,2] takes vertex 1, two of the other 301 rows take vertex 2 alone
    assert found[0].cells == sum(poincare_polynomial(dec, (1, 3)).coefficients) \
        == 300 * math.comb(301, 2)
    for e in ((0, 1), (1, 1)):
        assert strata(dec, e) == strata_by_points(dec, e)
    full = IntervalDecomposition(1, {(1, 1): 256})
    assert strata(full, (256,)) == [Stratum(full, 0, 1)]


def test_sweep_at_every_e():
    """Every e <= d of a few modules, and one past d_v at each vertex, where
    the Grassmannian is empty; e = 0 and e = d are single points."""
    zero = IntervalDecomposition(0, {})
    for dec in (degenerate_flag_dec(3), most_flat_dec(2), zero,
                IntervalDecomposition(3, {(1, 3): 1, (2, 3): 2, (2, 2): 1}),
                IntervalDecomposition(3, {})):
        d = dec.dim_vector()
        for e in itertools.product(*(range(x + 2) for x in d)):
            if any(x > y for x, y in zip(e, d)):
                assert poincare_polynomial(dec, e).coefficients == ()
                assert strata(dec, e) == []
            else:
                assert_sweep_equals_the_points(dec, e)
        for e, iso in ((d, dec), ((0,) * dec.n, IntervalDecomposition(dec.n, {}))):
            assert assert_sweep_equals_the_points(dec, e) == ((1,), [Stratum(iso, 0, 1)])
    assert strata(zero, ()) == [Stratum(zero, 0, 1)]


@pytest.mark.parametrize("engine", [fixed_points, poincare_polynomial, strata])
def test_cell_engines_refuse_bad_input(engine):
    """Each engine checks e and the quiver itself."""
    dec = degenerate_flag_dec(2)
    for e in [(1,), (1, 2, 0), (-1, 1), (1, -2), (0.5, 1)]:
        with pytest.raises(DomainError):
            engine(dec, e)
    kronecker = Representation(kronecker_quiver(2), QQ, (1, 1), [[[1]], [[1]]])
    with pytest.raises(DomainError, match="wrong quiver shape"):
        engine(kronecker, (1, 1))


def test_is_catenoid():
    chain = IntervalDecomposition(
        3, {(3, 3): 1, (2, 3): 2, (2, 2): 1, (1, 2): 1, (1, 1): 1})
    assert is_catenoid(chain)
    bad = IntervalDecomposition(
        4, {(2, 4): 1, (2, 3): 1, (1, 2): 1, (4, 4): 1, (3, 3): 1, (2, 2): 1})
    assert not is_catenoid(bad)
    assert is_catenoid(IntervalDecomposition(5, {(2, 4): 7}))


def test_flat_locus_classes():
    for n in (2, 3, 4):
        assert flat_locus_class(flag_dec(n)) == "flat-irreducible"
        assert flat_locus_class(degenerate_flag_dec(n)) == "flat-irreducible"
        assert flat_locus_class(most_flat_dec(n)) == "flat-only"
        assert flat_locus_class(semisimple_dec(n)) == "non-flat"
    with pytest.raises(DomainError):
        flat_locus_class(IntervalDecomposition(2, {(1, 2): 1}))


def test_min_projective_resolution():
    proj = IntervalDecomposition(3, {(1, 3): 2, (2, 3): 1})
    p, r = min_projective_resolution(proj)
    assert p.total_dim() == 0 and r == proj
    p, r = min_projective_resolution(degenerate_flag_dec(3))
    assert len(r.summands()) == 6
    assert p.total_dim() == 3
    assert p == IntervalDecomposition(3, {(2, 3): 1, (3, 3): 1})
    # dimension bookkeeping of 0 -> P -> R -> M -> 0
    dm = degenerate_flag_dec(3).dim_vector()
    assert tuple(a - b for a, b in zip(r.dim_vector(), p.dim_vector())) == dm
    p, r = min_projective_resolution(IntervalDecomposition(2, {(1, 1): 1}))
    assert r == IntervalDecomposition(2, {(1, 2): 1})
    assert p == IntervalDecomposition(2, {(2, 2): 1})


def test_translate():
    def u(i, j):
        return IntervalDecomposition(3, {(i, j): 1})

    assert translate(u(1, 2), 1) == u(2, 3)
    assert translate(u(2, 3), 1) == IntervalDecomposition(3, {})  # projective
    assert translate(translate(u(1, 1), 1), 1) == u(3, 3)
    assert translate(u(2, 3), -1) == u(1, 2)
    assert translate(u(1, 2), -1) == IntervalDecomposition(3, {})  # injective
    dec = IntervalDecomposition(3, {(1, 1): 2, (1, 2): 1, (2, 3): 1})
    assert translate(dec, 1) == IntervalDecomposition(3, {(2, 2): 2, (2, 3): 1})
