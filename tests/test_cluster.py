"""Cluster characters, generating extensions, and the two verification
identities (multiplication formula, affine-bundle point counts)."""

import dataclasses
import itertools
import json
import random
import timeit
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import (f_identity_sides, g_vector_by_euler_form,
                     g_vector_from_injective_resolution, hide_summands,
                     injective_multiplicities, kronecker_preprojective, rep_document,
                     specialize_ones)
from quivergrass import (QQ, DomainError, Quiver, Representation, direct_sum,
                         injective, kronecker_quiver, linear_quiver,
                         projective, simple, zero_rep)
from quivergrass.cli import run
from quivergrass.cluster import (cluster_character, exchange_matrix, f_polynomial,
                                 g_vector, make_generating, psi_count_identity,
                                 verify_multiplication)
from quivergrass.poly import SparsePoly
from quivergrass.typea import (IntervalDecomposition, decompose,
                               degenerate_flag_dec, ext_dim_decs, ext_interval,
                               fixed_points, flag_dec, format_intervals, interval_rep,
                               most_flat_dec, translate)

A2 = linear_quiver(2)


def test_exchange_matrix():
    b = exchange_matrix(A2)
    assert b == ((0, -1), (1, 0))
    for quiver in (A2, linear_quiver(4), kronecker_quiver(3)):
        bb = exchange_matrix(quiver)
        n = quiver.vertex_count
        assert all(bb[i][j] == -bb[j][i] for i in range(n) for j in range(n))
    assert exchange_matrix(kronecker_quiver(4))[1][0] == 4


def test_g_vector():
    assert g_vector(simple(A2, QQ, 1)) == (-1, 0)
    assert g_vector(zero_rep(A2, QQ)) == (0, 0)
    assert g_vector(projective(A2, QQ, 1)) == (0, -1)


def test_g_vector_against_injective_resolution():
    mods = []
    for quiver in (A2, linear_quiver(3)):
        for k in range(1, quiver.vertex_count + 1):
            mods.append(simple(quiver, QQ, k))
            mods.append(projective(quiver, QQ, k))
            mods.append(injective(quiver, QQ, k))
        mods.append(direct_sum(projective(quiver, QQ, 1), simple(quiver, QQ, 1)))
        mods.append(degenerate_flag_dec(quiver.vertex_count).to_representation(QQ))
    for m in mods:
        assert g_vector(m) == g_vector_from_injective_resolution(m)


@st.composite
def semisimple_on_random_quivers(draw):
    """A semisimple module on an acyclic quiver with parallel arrows and
    vertices of several arrows in and out: arrows point from the earlier to
    the later vertex of a random order."""
    n = draw(st.integers(1, 6))
    rank = draw(st.permutations(range(1, n + 1)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda a: a[0] < a[1]), max_size=10))
    arrows = [(rank[a], rank[b]) for a, b in pairs]
    quiver = Quiver(n, arrows + arrows[:2])
    dims = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return direct_sum(zero_rep(quiver, QQ), *(simple(quiver, QQ, k + 1)
                                              for k, d in enumerate(dims) for _ in range(d)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(semisimple_on_random_quivers())
def test_g_vector_against_the_euler_form(m):
    assert g_vector(m) == g_vector_by_euler_form(m)


@pytest.mark.parametrize("quiver", [linear_quiver(n) for n in range(1, 6)]
                         + [Quiver(4, [(1, 4), (2, 4), (3, 4)])],
                         ids=["A1", "A2", "A3", "A4", "A5", "D4"])
def test_injective_multiplicities_inverts_sums_of_injectives(quiver):
    # the oracle g_vector_from_injective_resolution reads I_1 this way
    n = quiver.vertex_count
    inj = [injective(quiver, QQ, k).dims for k in range(1, n + 1)]
    for f in itertools.product(range(3), repeat=n):
        dims = tuple(sum(fk * d[v] for fk, d in zip(f, inj)) for v in range(n))
        assert injective_multiplicities(quiver, dims) == f


def test_injective_multiplicities_refuses_non_injective_dims():
    # dim S_2 = (0, 1) = dim I_2 - dim I_1 on A_2, a coefficient of -1
    with pytest.raises(AssertionError):
        injective_multiplicities(A2, (0, 1))
    with pytest.raises(AssertionError):
        injective_multiplicities(linear_quiver(3), (1, 2, 1))


def test_f_polynomial_examples():
    fp = f_polynomial(projective(A2, QQ, 1))
    assert fp == SparsePoly(2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    assert f_polynomial(simple(A2, QQ, 1)) == SparsePoly(2, {(0, 0): 1, (1, 0): 1})
    assert fp.coefficient((0, 0)) == 1  # constant term is the empty subrep


def test_f_polynomial_strategies_agree():
    fixtures = [
        degenerate_flag_dec(2).to_representation(QQ),
        projective(A2, QQ, 1),
        IntervalDecomposition(3, {(1, 2): 1, (2, 3): 1}).to_representation(QQ),
        Representation(A2, QQ, (2, 2), [[[1, 0], [0, 0]]]),
    ]
    for m in fixtures:
        assert f_polynomial(m, "cells") == f_polynomial(m, "count")


def test_f_polynomial_degenerate_flag_coefficient():
    m = degenerate_flag_dec(2).to_representation(QQ)
    fp = f_polynomial(m, "cells")
    assert fp.coefficient((1, 2)) == len(fixed_points(degenerate_flag_dec(2), (1, 2)))


def test_cluster_character_examples():
    cc = cluster_character(simple(A2, QQ, 1))
    assert cc == SparsePoly(4, {(-1, 0, 0, 0): 1, (-1, 1, 1, 0): 1})
    assert cluster_character(zero_rep(A2, QQ)) == SparsePoly.one(4)


def test_cluster_character_specializes_to_total_euler():
    for m in (projective(A2, QQ, 1),
              degenerate_flag_dec(2).to_representation(QQ)):
        cc = cluster_character(m)
        total = sum(
            len(fixed_points(decompose(m), e))
            for e in __import__("itertools").product(*[range(d + 1) for d in m.dims]))
        assert specialize_ones(cc) == total


def test_exchange_relation_a2():
    cc_s1 = cluster_character(simple(A2, QQ, 1))
    cc_s2 = cluster_character(simple(A2, QQ, 2))
    cc_p1 = cluster_character(projective(A2, QQ, 1))
    y1 = SparsePoly.monomial((0, 0, 1, 0))
    assert cc_s2 * cc_s1 == cc_p1 + y1


def test_make_generating_split():
    p1, s2 = projective(A2, QQ, 1), simple(A2, QQ, 2)
    ge = make_generating(s2, p1)  # Ext^1(S2, P1) = 0
    assert ge.kind == "split"
    assert ge.y == direct_sum(p1, s2)


def test_make_generating_rejects_big_ext():
    a4 = linear_quiver(4)
    s = direct_sum(interval_rep(a4, QQ, 1, 1), interval_rep(a4, QQ, 1, 3))
    x = direct_sum(interval_rep(a4, QQ, 2, 2), interval_rep(a4, QQ, 2, 4))
    with pytest.raises(DomainError):
        make_generating(s, x)


def test_make_generating_almost_split():
    # X = tau S: the class is generalized almost split, S^X = S and X_S = 0
    for n in (2, 3, 4):
        quiver = linear_quiver(n)
        for i in range(1, n + 1):
            for j in range(i, n):
                s = interval_rep(quiver, QQ, i, j)
                x = interval_rep(quiver, QQ, i + 1, j + 1)
                ge = make_generating(s, x)
                assert ge.kind == "nonsplit"
                assert ge.x_s.total_dim == 0
                assert decompose(ge.s_x) == decompose(s)
                assert ge.s_mod_sx.total_dim == 0


def test_make_generating_interval_example():
    a4 = linear_quiver(4)
    s = interval_rep(a4, QQ, 1, 3)
    x = interval_rep(a4, QQ, 2, 4)
    ge = make_generating(s, x)
    assert decompose(ge.y) == IntervalDecomposition(4, {(1, 4): 1, (2, 3): 1})
    assert ge.x_s.total_dim == 0
    assert decompose(ge.s_x) == decompose(s)


def test_computed_image_vs_shifted_interval():
    """S^X is the image of tau^- X -> S: supported on [k-1, j], which differs
    from the translate of X itself whenever l > j+1."""
    a5 = linear_quiver(5)
    s = interval_rep(a5, QQ, 1, 3)   # (i,j) = (1,3)
    x = interval_rep(a5, QQ, 2, 5)   # (k,l) = (2,5)
    ge = make_generating(s, x)
    assert decompose(ge.s_x) == IntervalDecomposition(5, {(1, 3): 1})
    assert decompose(ge.x_s) == IntervalDecomposition(5, {(5, 5): 1})
    rep = verify_multiplication(ge)
    assert rep.residual.is_zero()
    lhs, rhs = f_identity_sides(ge)
    assert lhs == rhs


def test_verify_multiplication_a2():
    ge = make_generating(simple(A2, QQ, 1), simple(A2, QQ, 2))
    rep = verify_multiplication(ge)
    assert rep.holds
    assert ge.s_x.dims == (1, 0)
    # x^f = 1 rests on X/X_S = U[2,2] = tau S^X, which is asserted
    with pytest.raises(AssertionError):
        verify_multiplication(dataclasses.replace(ge, x_mod_xs=zero_rep(A2, QQ)))
    # the difference of the two cluster characters is exactly y^(1,0)
    cc_s1 = cluster_character(simple(A2, QQ, 1))
    cc_s2 = cluster_character(simple(A2, QQ, 2))
    cc_p1 = cluster_character(projective(A2, QQ, 1))
    assert (cc_s2 * cc_s1 - cc_p1) == SparsePoly.monomial((0, 0, 1, 0))


def test_verify_multiplication_split_rejected():
    ge = make_generating(simple(A2, QQ, 2), projective(A2, QQ, 1))
    with pytest.raises(DomainError):
        verify_multiplication(ge)


def test_verify_multiplication_random_extensions():
    rng = random.Random(3)
    made = 0
    while made < 10:
        n = rng.randint(2, 5)
        quiver = linear_quiver(n)
        i = rng.randint(1, n)
        j = rng.randint(i, n)
        k = rng.randint(1, n)
        l = rng.randint(k, n)
        if ext_interval((i, j), (k, l)) != 1:
            continue
        ge = make_generating(interval_rep(quiver, QQ, i, j),
                             interval_rep(quiver, QQ, k, l))
        rep = verify_multiplication(ge)
        assert rep.holds, ((i, j), (k, l), n)
        lhs, rhs = f_identity_sides(ge)
        assert lhs == rhs, ((i, j), (k, l), n)
        made += 1


def test_decomposable_generating_extensions():
    """Interval sums with a one-dimensional Ext space also satisfy the
    multiplication formula, in its CC and its F form, and the point-count
    identity; exercises translate computation on decomposable ends."""
    import itertools
    from quivergrass.typea import ext_dim_decs
    rng = random.Random(5150)
    cases = 0
    while cases < 6:
        n = rng.randint(2, 4)
        quiver = linear_quiver(n)

        def rand_dec():
            m = {}
            for _ in range(rng.randint(1, 2)):
                i = rng.randint(1, n)
                j = rng.randint(i, n)
                m[(i, j)] = m.get((i, j), 0) + 1
            return IntervalDecomposition(n, m)

        sdec, xdec = rand_dec(), rand_dec()
        if ext_dim_decs(sdec, xdec) != 1:
            continue
        ge = make_generating(sdec.to_representation(QQ),
                             xdec.to_representation(QQ))
        rep = verify_multiplication(ge)
        assert rep.holds, (sdec, xdec)
        lhs, rhs = f_identity_sides(ge)
        assert lhs == rhs, (sdec, xdec)
        for e in itertools.product(*(range(d + 1) for d in ge.y.dims)):
            assert psi_count_identity(ge, e, [2]).holds, (sdec, xdec, e)
        cases += 1


def test_psi_count_identity():
    ge = make_generating(simple(A2, QQ, 1), simple(A2, QQ, 2))
    report = psi_count_identity(ge, (1, 1), [2, 3])
    assert report.holds
    a4 = linear_quiver(4)
    ge2 = make_generating(interval_rep(a4, QQ, 1, 3), interval_rep(a4, QQ, 2, 4))
    assert psi_count_identity(ge2, (1, 1, 1, 0), [2]).holds


def test_psi_count_identity_needs_a_prime():
    ge = make_generating(simple(A2, QQ, 1), simple(A2, QQ, 2))
    with pytest.raises(DomainError):
        psi_count_identity(ge, (1, 1), [])


def test_psi_count_identity_split_case():
    ge = make_generating(simple(A2, QQ, 2), projective(A2, QQ, 1))
    for e in [(0, 1), (1, 1), (1, 2), (0, 2)]:
        assert psi_count_identity(ge, e, [2, 3]).holds


def test_count_strategy_refuses_an_unverified_polynomial_and_an_unknown_name():
    # maps I and a rotation: #Gr_(1,1) counts the roots of x^2 + 1, so the
    # counts at the default primes fit no one polynomial
    rotation = Representation(kronecker_quiver(2), QQ, (2, 2),
                              [[[1, 0], [0, 1]], [[0, -1], [1, 0]]])
    with pytest.raises(DomainError, match="is inconsistent, not verified"):
        f_polynomial(rotation, "count")
    with pytest.raises(DomainError, match="unknown strategy 'nope'"):
        f_polynomial(rotation, "nope")


def test_count_strategy_rejects_finite_field_input():
    from quivergrass.rep import reduce_mod
    m = reduce_mod(projective(A2, QQ, 1), 3)
    with pytest.raises(DomainError):
        f_polynomial(m, "count")


# one side of the Kronecker quiver at most 1-dimensional, so that no
# summand is a band module whose eigenvalues meet modulo some prime
PRODUCT_QUIVERS = ((linear_quiver(2), (2, 2)), (linear_quiver(3), (2, 2, 2)),
                   (kronecker_quiver(2), (1, 2)))


@st.composite
def tree_modules(draw, quiver, bounds):
    """A module over Q with at most one 1 in each row and column of each
    arrow matrix and zeros elsewhere, at most 3-dimensional, or the same
    module after ``hide_summands``: isomorphic over every prime field, so its
    counts are polynomials in p."""
    dims = tuple(draw(st.integers(0, b)) for b in bounds)
    assume(sum(dims) <= 3)
    mats = []
    for s, t in quiver.arrows:
        rows, cols = dims[t - 1], dims[s - 1]
        to = draw(st.permutations(range(max(rows, cols))))
        # a column is kept (nonzero) three times in four
        kept = draw(st.lists(st.integers(0, 3), min_size=cols, max_size=cols))
        mats.append([[int(kept[c] and to[c] == r) for c in range(cols)] for r in range(rows)])
    m = Representation(quiver, QQ, dims, mats)
    return hide_summands(m) if draw(st.booleans()) else m


@pytest.mark.parametrize("quiver, bounds", PRODUCT_QUIVERS, ids=["A2", "A3", "K2"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_count_strategy_is_multiplicative_on_direct_sums(quiver, bounds, data):
    a, b = (data.draw(tree_modules(quiver, bounds)) for _ in range(2))
    total = direct_sum(a, b)
    assume(max(total.dims) <= 3)
    product = f_polynomial(a, "count") * f_polynomial(b, "count")
    assert f_polynomial(total, "count") == product
    # counted whole, as one block when the base change hides every summand
    assert f_polynomial(hide_summands(total), "count") == product
    assert cluster_character(total, "count") == \
        cluster_character(a, "count") * cluster_character(b, "count")


def _best_of_three(call):
    return min(timeit.repeat(call, number=1, repeat=3))


@pytest.mark.parametrize("family", [flag_dec, degenerate_flag_dec, most_flat_dec],
                         ids=lambda f: f.__name__)
def test_count_strategy_answers_a3_flag_modules_at_once(family):
    # counted whole, flag_dec(3) took 31 s; by summands each is a few ms
    argv = ["fpoly", "--intervals", format_intervals(family(3)), "--n", "3",
            "--format", "machine"]
    outputs = {}
    for strategy in ("cells", "count"):
        code, text = run(argv + ["--strategy", strategy])
        assert code == 0
        outputs[strategy] = json.loads(text)["outputs"]
    assert outputs["count"] == outputs["cells"]
    assert _best_of_three(lambda: run(argv + ["--strategy", "count"])) < 0.1


def test_count_strategy_answers_a_kronecker_sum_at_the_default_budget(tmp_path):
    # refused at any budget up to 10**9 when counted whole
    a, b = kronecker_preprojective(2), kronecker_preprojective(3)
    path = tmp_path / "k2k3.rep"
    path.write_text(json.dumps(rep_document(direct_sum(a, b))))
    argv = ["fpoly", "--strategy", "count", "--rep", str(path), "--format", "machine"]
    code, text = run(argv)
    assert code == 0
    product = f_polynomial(a, "count") * f_polynomial(b, "count")
    assert {tuple(e): c for e, c in json.loads(text)["outputs"]["f_polynomial"]} == product.terms
    assert _best_of_three(lambda: run(argv)) < 0.1


def _interval_sums(n):
    """Every sum of one or two interval modules of A_n."""
    intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return [IntervalDecomposition(n, Counter(summands))
            for r in (1, 2) for summands in itertools.combinations_with_replacement(intervals, r)]


def _assert_injective_exponent_is_zero(sdec, xdec):
    ge = make_generating(sdec.to_representation(QQ), xdec.to_representation(QQ))
    assert decompose(ge.x_mod_xs) == translate(decompose(ge.s_x), 1), (sdec, xdec)
    rep = verify_multiplication(ge)
    assert rep.holds, (sdec, xdec)


def test_injective_exponent_is_zero_for_every_pair_up_to_a3():
    pairs = [(s, x) for n in (1, 2, 3) for s in _interval_sums(n) for x in _interval_sums(n)
             if ext_dim_decs(s, x) == 1]
    assert len(pairs) == 138
    for sdec, xdec in pairs:
        _assert_injective_exponent_is_zero(sdec, xdec)


def test_injective_exponent_is_zero_on_sampled_a4_pairs():
    sums = _interval_sums(4)
    pairs = [(s, x) for s in sums for x in sums if ext_dim_decs(s, x) == 1]
    for sdec, xdec in random.Random(11).sample(pairs, 150):
        _assert_injective_exponent_is_zero(sdec, xdec)
