"""The finite-field oracle: subspace enumeration, point counts, counting
polynomials, and stratum classification."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from quivergrass import counting
from quivergrass import linalg as la
from quivergrass import (QQ, BudgetError, DomainError, PrimeField, Quiver,
                         Representation, direct_sum, dual, kronecker_quiver,
                         linear_quiver, tangent_dim)
from quivergrass.cluster import _visible_summands, f_polynomial
from quivergrass.counting import (CountPlan, CountPoly, SubspaceIter, _newton_interpolation,
                                  _outside, _rank_groups,
                                  batched_rank_mod_p, count_points,
                                  counting_polynomial, enumerate_subreps,
                                  euler_characteristic, gaussian_binomial, plan_count)
from quivergrass.elliptic import (curve_count, demo as elliptic_demo, elliptic_quiver,
                                  elliptic_representation)
from quivergrass.rep import reduce_mod
from quivergrass.typea import (IntervalDecomposition, decompose, degenerate_flag_dec,
                               flag_dec, interval_rep, most_flat_dec, poincare_polynomial)

from oracles import (census, classify_strata_ff, hide_summands, hom_fingerprint, mul, neg,
                     rank_mod_p, rep_document, solve)

A2 = linear_quiver(2)


def example4_rep(field=QQ):
    return Representation(A2, field, (2, 2), [[[1, 0], [0, 0]]])


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(2, 3, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", range(7))
def test_subspace_iterator_counts(d, p):
    for e in range(min(d, 3) + 1):
        mats = list(SubspaceIter(d, e, p))
        assert len(mats) == gaussian_binomial(d, e, p)
        assert len(set(mats)) == len(mats)


def test_subspace_batches_match_iterator(monkeypatch):
    monkeypatch.setattr(counting, "_CHUNK", 11)
    it = list(SubspaceIter(4, 2, 3))
    flat = [tuple(tuple(int(x) for x in row) for row in m)
            for batch in SubspaceIter(4, 2, 3).batches() for m in batch]
    assert flat == it


# Each case of the grid below lists its subspaces in pure Python, so it is
# capped at BATCH_ROWS_PER_CHUNK * chunk rows and at 40,000.  Left out are:
# at p = 3, d = 6 with 2 <= e <= 4 for chunk <= 5 and e = 3 for chunk 11; at
# p = 5, d = 6 with 2 <= e <= 4 (500,000 rows and more), and for chunk <= 5
# also d = 5 with e in {2, 3} (and at chunk 1, d = 6 with e in {1, 5}).  d = 6,
# e = 3 at p = 3 (33,880 rows) is in with chunk 2**15, across its boundary.
BATCH_ROWS_PER_CHUNK = 2000


@pytest.mark.parametrize("chunk", [1, 5, 11, 2 ** 15])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_subspace_batches_fill_across_pivot_patterns(p, chunk, monkeypatch):
    monkeypatch.setattr(counting, "_CHUNK", chunk)
    checked = 0
    for d in range(7):
        for e in range(d + 1):
            total = gaussian_binomial(d, e, p)
            if total > min(BATCH_ROWS_PER_CHUNK * chunk, 40_000):
                continue
            batches = list(SubspaceIter(d, e, p).batches())
            assert all(b.shape[0] == chunk for b in batches[:-1])
            assert 1 <= batches[-1].shape[0] <= chunk
            flat = [tuple(tuple(int(x) for x in row) for row in m)
                    for batch in batches for m in batch]
            assert flat == list(SubspaceIter(d, e, p))
            # each basis lies in its own row space, and a unit vector off the
            # pivots of a basis lies outside it (at d = 0 there is no vector)
            for batch in batches if d else ():
                assert not _outside(batch, batch, p).any()
                for i in (0, batch.shape[0] - 1):
                    off = sorted(set(range(d)) - set((batch[i] != 0).argmax(axis=1).tolist()))
                    if off:
                        unit = np.eye(d, dtype=batch.dtype)[off[:1]]
                        assert _outside(unit, batch[i], p).all()
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("d, e, p", [(5, 2, 3), (4, 1, 5), (3, 0, 5)])
def test_outside_a_filtered_mixed_batch(d, e, p):
    # rows dropped from a batch (as the stability test drops them) leave
    # runs of equal pattern that need not be whole patterns.  Each side of
    # the test, a stack or a single matrix, is checked row by row against
    # la.row_space_contains; at e = 0 (one basis, the zero space) every
    # nonzero vector lies outside
    rng = random.Random(d * p + e)
    field = PrimeField(p)
    batch = next(SubspaceIter(d, e, p).batches())
    kept = batch[np.arange(batch.shape[0]) % 7 != 3]
    m = kept.shape[0]
    x = np.array([[[rng.randrange(p) * (rng.random() < 0.7) for _ in range(d)]
                   for _ in range(2)] for _ in range(m + 5)], dtype=kept.dtype)
    # every other x lies inside its paired basis: combinations of its rows
    inside = np.matmul(x[:m, :, :e], kept) % p
    x[:m:2] = inside[::2]
    fixed = kept[m // 2]

    def outside(basis, vectors):
        basis = [tuple(map(int, row)) for row in basis]
        pivots = [row.index(1) for row in basis]
        return not all(la.row_space_contains(basis, pivots, tuple(map(int, v)), field)
                       for v in vectors)
    assert _outside(x[:m], kept, p).tolist() == [outside(b, v) for b, v in zip(kept, x)]
    assert not _outside(x[:m:2], kept[::2], p).any()
    assert _outside(x, fixed, p).tolist() == [outside(fixed, v) for v in x]
    for v in (x[1], x[-1]):
        assert _outside(v, kept, p).tolist() == [outside(b, v) for b in kept]
    if e == 0:
        assert _outside(x, fixed, p).tolist() == [bool(v.any()) for v in x]


def test_count_across_a_chunk_boundary():
    # [4,2]_17 = 89,030 planes at the one enumerated vertex: three full
    # batches of 2**15 rows would not hold them
    dec = flag_dec(3)
    m = reduce_mod(dec.to_representation(QQ), 17)
    plan = plan_count(m.quiver, m.dims, (1, 2, 3), 17)
    assert plan.enumerated == (2,) and plan.estimate == 89_030 > 2 * 2 ** 15
    assert count_points(m, (1, 2, 3)) == poincare_polynomial(dec, (1, 2, 3)).evaluate(17)


def test_batched_rank():
    import numpy as np
    rng = random.Random(5)
    for p in (2, 3, 5, 1_000_000_007, 2 ** 31 - 1):
        field = PrimeField(p)
        mats = [[[rng.randrange(p) for _ in range(4)] for _ in range(3)]
                for _ in range(40)]
        from quivergrass import linalg
        want = [linalg.rank(tuple(map(tuple, m)), field) for m in mats]
        got = batched_rank_mod_p(np.array(mats, dtype=np.int64), p)
        assert list(got) == want


@pytest.mark.parametrize("p", [2, 5, 181, 191, 46349, 3037000493, 3037000507])
def test_left_kernel_against_linalg(p):
    # the numpy elimination behind a summed source's rank, at every width
    # (int16 | int32 | int64 | object edges), against linalg's nullspace
    field, rng = PrimeField(p), random.Random(p)
    for _ in range(25):
        h, n = rng.randrange(7), rng.randrange(7)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(h)]
        if h > 2:
            rows[2] = [(x + 2 * y) % p for x, y in zip(rows[0], rows[1])]
        mat = np.array(rows, dtype=counting._residue_dtype(p, 6)).reshape(h, n)
        rank, c = counting._left_kernel(mat, p)
        kernel = la.nullspace(la.transpose(rows, n), field, h) if h else []
        c = [[int(x) for x in row] for row in c]
        assert rank == h - len(kernel) and len(c) == len(kernel)
        assert all(0 <= x < p for row in c for x in row)
        assert all(sum(row[i] * rows[i][j] for i in range(h)) % p == 0
                   for row in c for j in range(n))
        assert not c or len(la.rref(c, field, h)[1]) == len(c)


def test_batched_rank_reduces_big_entries_before_narrowing():
    # 2**70 = 4 mod 5, so the matrix is [[4, 1], [3, 0]], of rank 2
    assert list(batched_rank_mod_p([[[2 ** 70, 1], [3, 5]]], 5)) == [2]
    assert list(batched_rank_mod_p(np.array([[[2 ** 64 - 1, 1]]], dtype=np.uint64), 3)) == [1]
    # 2**61 - 1 is past the int64 bound; 2**64 - 1 = 7 mod it: [[5, 1], [7, 3]]
    held = np.array([[[np.int64(5), 1], [np.uint64(2 ** 64 - 1), 3]]], dtype=object)
    assert list(batched_rank_mod_p(held, 2 ** 61 - 1)) == [2]
    # -2**63 + 4 = 1 mod 5, so the determinant is 0 mod 5; eliminating the
    # unreduced entry would leave int64
    assert list(batched_rank_mod_p(np.array([[[1, 4], [4, -2 ** 63 + 4]]]), 5)) == [1]


@pytest.mark.parametrize("p, width", [(181, np.int16), (191, np.int32),
                                     (46337, np.int32), (46349, np.int64)])
def test_batched_rank_at_the_width_edges(p, width):
    # At the largest prime of a width (181, 46337) the lazy interval is one
    # step, so the trailing block is reduced after every step.  At the first
    # prime of the next width (191, 46349) it is not reduced within 12
    # columns, and after two steps its entries can pass the narrower range.
    assert counting._residue_dtype(p, 1) is width
    rng = random.Random(p)
    for rows, cols in ((12, 12), (16, 12), (12, 16)):
        mats = [[[p - 1] * cols for _ in range(rows)]]
        for _ in range(40):
            inner = rng.randrange(1, min(rows, cols) + 2)
            a = [[rng.choice((p - 1, p - 2, rng.randrange(p))) for _ in range(inner)]
                 for _ in range(rows)]
            b = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(cols)]
                 for _ in range(inner)]
            mats.append([[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
                         for row in a])
        got = batched_rank_mod_p(np.array(mats, dtype=np.int64), p)
        assert got.tolist() == [rank_mod_p(m, p) for m in mats]
        assert min(got) < min(rows, cols) == max(got)


@pytest.mark.parametrize("p, width", [(53, np.int16), (59, np.int32)])
def test_zero_map_star_counts_on_both_sides_of_the_int16_bound(p, width):
    # n = 10: 10 (p-1)**2 < 2**15 - 1 holds at p = 53, not at 59
    star = Quiver(3, [(1, 2), (1, 3)])
    dims = (10, 2, 3)
    assert counting._residue_dtype(p, max(dims)) is width
    m = Representation(star, PrimeField(p), dims, [[[0] * 10] * 2, [[0] * 10] * 3])
    for e in ((1, 1, 1), (4, 1, 2), (10, 2, 0), (0, 1, 2), (9, 0, 3), (5, 1, 1)):
        want = 1
        for d, x in zip(dims, e):
            want *= gaussian_binomial(d, x, p)
        assert count_points(m, e) == want, e


def test_count_whose_products_pass_int16_at_a_prime_ranked_in_int16():
    # p = 181 ranks in int16, but the image of the line (1, 180, 180) under
    # (179, 180, 180) sums to 64979 = 181 * 359 before it is reduced, so the
    # search at n = 3 runs wider; wrapped, that kernel line would be lost
    p = 181
    m = Representation(linear_quiver(3), PrimeField(p), (1, 3, 1),
                       [[[0], [0], [0]], [[179, 180, 180]]])
    assert count_points(m, (0, 1, 0)) == p + 1


def test_the_width_each_fixture_gets():
    # a later widening of any of these shows up here, not only as a slowdown
    n = max(elliptic_representation().dims)
    assert n == 10
    for p in (2, 3, 5, 11, 13, 17):
        assert counting._residue_dtype(p, n) is np.int16
    for family in (flag_dec, degenerate_flag_dec, most_flat_dec):
        m = family(3).to_representation(QQ)
        assert max(m.dims) == 4
        for e in ((0, 1, 2), (0, 1, 1)):
            cp = counting_polynomial(m, e)
            ladder = cp.primes + cp.held_out[:1]
            assert max(ladder) <= 23
            assert all(counting._residue_dtype(p, 4) is np.int16 for p in ladder)
    assert counting._residue_dtype(2 ** 31 - 1, 1) is np.int64
    assert counting._residue_dtype(2 ** 61 - 1, 1) is object


def test_batched_rank_refuses_non_integer_entries():
    with pytest.raises(DomainError):
        batched_rank_mod_p([[[1.5, 2]]], 5)
    with pytest.raises(DomainError):
        batched_rank_mod_p(np.array([[[Fraction(1, 2), 1]]], dtype=object), 5)


def test_count_points_grassmannian():
    one_vertex = Quiver(1, [])
    m = Representation(one_vertex, PrimeField(2), (4,), [])
    assert count_points(m, (2,)) == 35
    assert len(enumerate_subreps(m, (2,))) == 35


def test_count_points_example4():
    assert count_points(example4_rep(PrimeField(2)), (1, 1)) == 5
    assert len(enumerate_subreps(example4_rep(PrimeField(2)), (1, 1))) == 5
    assert count_points(example4_rep(PrimeField(3)), (1, 1)) == 7


def test_count_points_kronecker_two_points():
    q = kronecker_quiver(2)
    for p in (2, 3, 5):
        m = Representation(q, PrimeField(p), (2, 2),
                           [[[1, 0], [0, 1]], [[0, 0], [0, 1]]])
        witnesses = enumerate_subreps(m, (1, 1))
        assert count_points(m, (1, 1)) == len(witnesses) == 2
        assert [tangent_dim(m, w) for w in witnesses] == [0, 0]


def test_enumerate_subreps_edges():
    q = kronecker_quiver(2)
    r2 = Representation(q, PrimeField(2), (2, 2),
                        [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    assert enumerate_subreps(r2, (1, 0)) == []
    assert len(enumerate_subreps(r2, (1, 1))) == 1
    full = enumerate_subreps(r2, (2, 2))
    assert len(full) == 1 and full[0].dims == (2, 2)


def test_budget_exceeded():
    one_vertex = Quiver(1, [])
    m = Representation(one_vertex, PrimeField(5), (12,), [])
    with pytest.raises(BudgetError) as err:
        enumerate_subreps(m, (6,), budget=1000)
    assert err.value.estimate > 1000
    # the library default is the CLI's: no enumeration of [6,1]_29 lines
    with pytest.raises(BudgetError) as err:
        elliptic_demo(29)
    assert err.value.estimate == gaussian_binomial(6, 1, 29) == 21_243_690


def test_counting_polynomial_example4():
    cp = counting_polynomial(example4_rep(), (1, 1))
    assert cp.coefficients == (1, 2)          # 2q + 1
    assert cp.consistency == "verified"
    assert euler_characteristic(cp) == 3
    # the Betti numbers come from the cells of the type-A decomposition
    assert poincare_polynomial(decompose(example4_rep()), (1, 1)).coefficients \
        == cp.coefficients


def test_counting_polynomial_p2_p1_union():
    m = Representation(A2, QQ, (2, 3), [[[1, 0], [0, 0], [0, 0]]])
    cp = counting_polynomial(m, (1, 1))
    assert cp.coefficients == (1, 2, 1)       # q^2 + 2q + 1
    assert cp.consistency == "verified"
    assert euler_characteristic(cp) == 4


def test_counting_polynomial_grassmannian():
    one_vertex = Quiver(1, [])
    m = Representation(one_vertex, QQ, (4,), [])
    cp = counting_polynomial(m, (2,))
    assert cp.coefficients == (1, 1, 2, 1, 1)
    assert cp.consistency == "verified"


def test_counting_polynomial_without_held_out_is_assumed():
    cp = counting_polynomial(example4_rep(), (1, 1), primes=[2, 3, 5])
    assert cp.consistency == "assumed"
    with pytest.raises(DomainError):
        counting_polynomial(example4_rep(), (1, 1), primes=[2, 3])


def test_counting_polynomial_skips_bad_reduction():
    m = Representation(A2, QQ, (1, 1), [[["1/2"]]])
    cp = counting_polynomial(m, (1, 1), primes=[2, 3, 5, 7])
    assert cp.skipped_primes == (2,)
    assert cp.consistency == "verified"
    with pytest.raises(DomainError, match="0 is not prime"):
        counting_polynomial(m, (1, 1), primes=[0, 2, 3, 5])
    # a denominator of 3 skips 3 among the primes drawn when none are given
    cp = counting_polynomial(Representation(A2, QQ, (1, 1), [[["1/3"]]]), (1, 1))
    assert 3 in cp.skipped_primes and 3 not in cp.primes + cp.held_out[:1]
    assert (cp.coefficients, cp.consistency) == ((1,), "verified")


def test_euler_characteristic_refuses_inconsistent():
    bad = CountPoly((), "inconsistent")
    with pytest.raises(DomainError):
        euler_characteristic(bad)
    assert euler_characteristic(CountPoly((), "verified")) == 0


def test_classify_strata_example4():
    # the open stratum [P1] is an affine line (2 points over F_2: the lines
    # <e1> and <e1+e2> upstairs), the closed one [S1+S2] a projective line
    m = example4_rep(PrimeField(2))
    groups = classify_strata_ff(m, (1, 1))
    fam = [interval_rep(A2, PrimeField(2), i, j)
           for i in (1, 2) for j in range(i, 3)]
    p1_fp = hom_fingerprint(fam, interval_rep(A2, PrimeField(2), 1, 2))
    s1s2 = IntervalDecomposition(2, {(1, 1): 1, (2, 2): 1})
    s1s2_fp = hom_fingerprint(fam, s1s2.to_representation(PrimeField(2)))
    assert groups == {p1_fp: 2, s1s2_fp: 3}


def test_classify_strata_full_e_single_class():
    m = example4_rep(PrimeField(2))
    groups = classify_strata_ff(m, (2, 2))
    assert len(groups) == 1 and sum(groups.values()) == 1


def test_classify_strata_degenerate_flag():
    p = PrimeField(2)
    m = degenerate_flag_dec(2).to_representation(QQ)
    groups = classify_strata_ff(reduce_mod(m, 2), (1, 2))
    fam = [interval_rep(A2, p, i, j) for i in (1, 2) for j in range(i, 3)]
    a_fp = hom_fingerprint(
        fam, IntervalDecomposition(2, {(1, 2): 1, (2, 2): 1}).to_representation(p))
    assert groups.get(a_fp, 0) > 0


def test_classify_strata_needs_family_off_type_a():
    q = kronecker_quiver(2)
    m = Representation(q, PrimeField(2), (1, 1), [[[1]], [[0]]])
    with pytest.raises(DomainError):
        classify_strata_ff(m, (1, 1))
    groups = classify_strata_ff(m, (0, 1), test_family=[m])
    assert sum(groups.values()) == 1


def _random_acyclic(rng):
    n = rng.randint(1, 3)
    arrows = []
    for _ in range(rng.randint(0, 4)):
        s, t = rng.randint(1, n), rng.randint(1, n)
        if s < t:
            arrows.append((s, t))
    return Quiver(n, arrows)


def test_duality_of_counts_random():
    rng = random.Random(2024)
    for _ in range(25):
        q = _random_acyclic(rng)
        p = rng.choice([2, 3])
        field = PrimeField(p)
        dims = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
        mats = [[[rng.randrange(p) for _ in range(dims[s - 1])]
                 for _ in range(dims[t - 1])] for s, t in q.arrows]
        m = Representation(q, field, dims, mats)
        e = tuple(rng.randint(0, x) for x in dims)
        co_e = tuple(a - b for a, b in zip(dims, e))
        assert count_points(m, e) == count_points(dual(m), co_e)


def test_total_count_over_all_e():
    """Summing counts over every e gives the number of stable tuples."""
    m = example4_rep(PrimeField(2))
    total = 0
    for e1 in range(3):
        for e2 in range(3):
            c = count_points(m, (e1, e2))
            assert c == len(enumerate_subreps(m, (e1, e2)))
            total += c
    # independent recount: one pass over the full product, stability tested
    from quivergrass import linalg
    field = PrimeField(2)
    stable = 0
    all1 = [b for e in range(3) for b in SubspaceIter(2, e, 2)]
    all2 = list(all1)
    for b1, b2 in itertools.product(all1, all2):
        piv = linalg.rref(b2, field)[1] if b2 else []
        ok = True
        for row in b1:
            img = linalg.mat_vec(m.matrix(0), row, field)
            if not b2:
                ok = not any(img)
            else:
                ok = linalg.row_space_contains(b2, piv, img, field)
            if not ok:
                break
        stable += ok
    assert total == stable


def test_rigid_module_tangent_dims_constant():
    m = reduce_mod(flag_dec(2).to_representation(QQ), 2)
    for w in enumerate_subreps(m, (1, 2)):
        assert tangent_dim(m, w) == 3


def test_dfs_count_matches_enumeration_on_branching_quivers():
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        n = rng.randint(2, 4)
        arrows = []
        for _ in range(rng.randint(1, 5)):
            s, t = rng.randint(1, n), rng.randint(1, n)
            if s < t:
                arrows.append((s, t))
        if not arrows:
            continue
        quiver = Quiver(n, arrows)
        p = rng.choice([2, 3])
        field = PrimeField(p)
        dims = tuple(rng.randint(0, 3) for _ in range(n))
        mats = [[[rng.randrange(p) for _ in range(dims[s - 1])]
                 for _ in range(dims[t - 1])] for s, t in arrows]
        m = Representation(quiver, field, dims, mats)
        e = tuple(rng.randint(0, x) for x in dims)
        assert count_points(m, e) == len(enumerate_subreps(m, e))
        checked += 1


def test_sink_summed_equals_exhaustive():
    fixtures = [
        (example4_rep(PrimeField(3)), (1, 1)),
        (reduce_mod(degenerate_flag_dec(2).to_representation(QQ), 2), (1, 2)),
        (Representation(kronecker_quiver(4), PrimeField(3), (2, 2),
                        [[[1, 0], [0, 1]], [[0, 1], [0, 0]],
                         [[1, 1], [0, 1]], [[0, 0], [1, 0]]]), (1, 1)),
        # the source is summed: [4,2]_3 = 130 planes against 4 * 4 line pairs
        (Representation(Quiver(3, [(1, 2), (1, 3)]), PrimeField(3), (4, 2, 2),
                        [[[1, 0, 2, 0], [0, 1, 0, 0]], [[0, 0, 1, 1], [0, 0, 0, 0]]]),
         (2, 1, 1)),
    ]
    assert plan_count(fixtures[-1][0].quiver, (4, 2, 2), (2, 1, 1), 3).summed == (1,)
    for m, e in fixtures:
        assert count_points(m, e) == len(enumerate_subreps(m, e))


def test_summed_path_ends_match_exhaustive():
    # both ends summed: the leaf's basis feeds the ranks of the sink and of
    # the source; on A_4 the search draws vertices 2 and 3 in both orders,
    # so arrows are tested from either end
    rng = random.Random(11)
    for dims in ((2, 3, 2), (2, 3, 2, 2), (2, 2, 3, 2)):
        n = len(dims)
        for _ in range(3):
            mats = [[[rng.randrange(3) for _ in range(dims[s])] for _ in range(dims[s + 1])]
                    for s in range(n - 1)]
            m = Representation(linear_quiver(n), PrimeField(3), dims, mats)
            for middle in itertools.product(*(range(1, d) for d in dims[1:-1])):
                e = (1,) + middle + (1,)
                assert plan_count(m.quiver, dims, e, 3).summed == (1, n)
                assert count_points(m, e) == len(enumerate_subreps(m, e))


# (quiver, d, p, whether enumerate_subreps sums the census too)
CENSUS = {
    "kronecker-2-2": (kronecker_quiver(2), (2, 2), 2, False),
    "kronecker-1-2-p3": (kronecker_quiver(2), (1, 2), 3, True),
    "d4-sink-of-degree-3": (Quiver(4, [(1, 4), (2, 4), (3, 4)]), (1, 1, 1, 2), 2, True),
    "a3-1-2-1-p3": (linear_quiver(3), (1, 2, 1), 3, False),
    "a4-1-2-2-1": (linear_quiver(4), (1, 2, 2, 1), 2, False),
}


@pytest.mark.parametrize("case", sorted(CENSUS))
def test_census_of_every_module_of_a_dimension_vector(case):
    """Summed over every M in R_d(F_p), the point counts of Gr_e(M) are the
    closed form of ``oracles.census``, for every e <= d: zero maps, rank
    drops and coinciding images all included."""
    quiver, d, p, enumerate_too = CENSUS[case]
    modules, sums = census(quiver, d, p)
    for e, total in sums.items():
        assert sum(count_points(m, e) for m in modules) == total, e
        if enumerate_too:
            assert sum(len(enumerate_subreps(m, e)) for m in modules) == total, e


def test_census_cases_reach_a_degree_3_vertex_parallel_arrows_and_a_deep_plan():
    quivers = [q for q, _, _, _ in CENSUS.values()]
    assert any(3 in Counter(v for a in q.arrows for v in a).values() for q in quivers)
    assert any(len(set(q.arrows)) < len(q.arrows) for q in quivers)
    quiver, d, p, _ = CENSUS["a4-1-2-2-1"]
    plan = plan_count(quiver, d, (1, 1, 1, 0), p)
    # two enumerated vertices with more than one subspace each
    assert {2, 3} <= set(plan.enumerated) and plan.estimate == 9


def test_plan_sums_the_cheaper_side():
    for p, lines in ((2, 63), (3, 364), (5, 3906)):
        plan = plan_count(elliptic_quiver(), (1, 10, 6), (0, 1, 1), p)
        assert (plan.summed, plan.enumerated, plan.estimate) == ((2,), (1, 3), lines)
    star = plan_count(Quiver(3, [(1, 2), (1, 3)]), (6, 3, 3), (3, 1, 2), 3)
    assert (star.summed, star.enumerated, star.estimate) == ((1,), (2, 3), 13 * 13)
    fixed_source = plan_count(Quiver(3, [(1, 2), (1, 3)]), (1, 6, 6), (1, 3, 3), 31)
    assert (fixed_source.summed, fixed_source.enumerated) == ((2, 3), (1,))
    a3 = plan_count(linear_quiver(3), (4, 4, 4), (1, 2, 3), 5)
    assert (a3.summed, a3.enumerated, a3.estimate) == ((1, 3), (2,), 806)
    alone = plan_count(Quiver(2, []), (4, 3), (2, 1), 2)
    assert (alone.summed, alone.enumerated, alone.estimate) == ((1, 2), (), 1)


def _random_rep(quiver, dims, p, rng):
    mats = [[[rng.randrange(p) for _ in range(dims[s - 1])] for _ in range(dims[t - 1])]
            for s, t in quiver.arrows]
    return Representation(quiver, PrimeField(p), dims, mats)


@pytest.mark.parametrize("p", [2, 3])
def test_summed_source_over_two_enumerated_sinks(p):
    # the summed source 1 is ranked through the stack built from U_2 and U_3,
    # and no arrow joins the enumerated sinks, so no arrow is tested;
    # e_2, e_3 run through 0 and full
    rng = random.Random(p)
    star = Quiver(3, [(1, 2), (1, 3)])
    for _ in range(4):
        m = _random_rep(star, (4, 2, 2), p, rng)
        for e in itertools.product((1, 2, 3), range(3), range(3)):
            assert plan_count(star, m.dims, e, p).summed == (1,)
            assert count_points(m, e) == len(enumerate_subreps(m, e)), e


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("e_t", [1, 2])
def test_summed_source_stack(p, parallel, e_t):
    """The source 1 sends `parallel` arrows into 2 (d = 3, 3), beside a
    source 3 -> 2 that makes summing both sources the cheaper plan.  Its
    rank is R - sum e_t plus the rank of the (sum e_t) x K stack, K = 3
    parallel - R: one arrow of rank 1 leaves K = 2, two random ones K >= 0,
    at e_2 = 1 and at e_2 = d_2 - 1.  The count agrees with enumeration and
    duality."""
    rng = random.Random(10 * p + parallel)
    quiver = Quiver(3, [(1, 2)] * parallel + [(3, 2)])
    dims, e = (3, 3, 2), (1, e_t, 1)
    rank_one = [[x * y % p for y in (0, 1, 1)] for x in (1, 1, 0)]
    mats = [rank_one] if parallel == 1 else \
        [[[rng.randrange(p) for _ in range(3)] for _ in range(3)] for _ in range(2)]
    mats.append([[rng.randrange(p) for _ in range(2)] for _ in range(3)])
    m = Representation(quiver, PrimeField(p), dims, mats)
    plan = plan_count(quiver, dims, e, p)
    assert plan.summed == (1, 3) and plan.enumerated == (2,)
    offset, k, _ = counting._PlannedCount(m, e, plan).forms[1]
    assert offset + parallel * e_t == 3 * parallel - k and (parallel == 2 or k == 2)
    assert count_points(m, e) == len(enumerate_subreps(m, e))
    assert count_points(m, e) == count_points(dual(m), tuple(d - x for d, x in zip(dims, e)))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dims, order", [((2, 3, 2, 2), (3, 2)), ((2, 2, 3, 2), (2, 3))])
def test_arrow_tested_between_enumerated_neighbours(p, dims, order):
    # A_4 with both ends summed and the arrow 2 -> 3 between the enumerated
    # vertices.  With 3 drawn first the batch at 2 is tested against the
    # chosen U_3; with 2 drawn first the batch at 3 against the chosen U_2.
    # The test is skipped where e_2 = 0 or e_3 = d_3, and e_3 = 0 leaves no
    # room in U_3 for any nonzero image.
    rng = random.Random(len(dims) * p + dims[1])
    a4 = linear_quiver(4)
    for _ in range(3):
        m = _random_rep(a4, dims, p, rng)
        for e2, e3 in itertools.product(range(dims[1] + 1), range(dims[2] + 1)):
            e = (1, e2, e3, 1)
            plan = plan_count(a4, dims, e, p)
            assert plan.summed == (1, 4)
            if 0 < e2 < dims[1] and 0 < e3 < dims[2]:
                assert plan.enumerated == order
            assert count_points(m, e) == len(enumerate_subreps(m, e)), e


@pytest.mark.parametrize("p", [2, 3])
def test_arrows_tested_in_and_out_of_one_vertex(p):
    # 1 -> 2 => 3 -> 4 -> 5 with both ends summed: the batch at 3, drawn last
    # at e = 1 throughout, is tested against the chosen U_2 through both
    # parallel arrows and against the chosen U_4, one arrow into 3 and one
    # out of it.  Every e of the middle is counted against enumeration and
    # against the dual count.
    rng = random.Random(p)
    quiver = Quiver(5, [(1, 2), (2, 3), (2, 3), (3, 4), (4, 5)])
    dims = (2, 2, 3, 2, 2)
    plan = plan_count(quiver, dims, (1,) * 5, p)
    assert plan.summed == (1, 5) and plan.enumerated[-1] == 3
    m = _random_rep(quiver, dims, p, rng)
    assert counting._PlannedCount(m, (1,) * 5, plan).tests[3] == \
        [(1, 2, 3), (2, 2, 3), (3, 3, 4)]
    for e2, e3, e4 in itertools.product(range(3), range(4), range(3)):
        e = (1, e2, e3, e4, 1)
        count = count_points(m, e)
        assert count == len(enumerate_subreps(m, e)), e
        assert count == count_points(dual(m), tuple(d - x for d, x in zip(dims, e))), e


def test_summed_sinks_stay_exact_beyond_int64():
    m = Representation(Quiver(3, [(1, 2), (1, 3)]), PrimeField(31), (1, 6, 6),
                       [[[0]] * 6, [[0]] * 6])
    assert count_points(m, (1, 3, 3)) == gaussian_binomial(6, 3, 31) ** 2 \
        == 748038345947502395744358400


@pytest.mark.parametrize("p", [1_000_000_007, 2 ** 31 - 1])
def test_count_at_large_primes(p):
    # the source line maps onto a line in each sink: [2,1]_p planes through each
    q = Quiver(3, [(1, 2), (1, 3)])
    m = Representation(q, PrimeField(p), (1, 3, 3),
                       [[[p - 1], [5], [0]], [[0], [0], [p - 2]]])
    assert count_points(m, (1, 2, 2)) == (p + 1) ** 2
    assert count_points(m, (0, 1, 2)) == (p ** 2 + p + 1) * (p ** 2 + p + 1)


@pytest.mark.parametrize("p", [3037000493, 3037000507])
def test_count_at_the_int64_boundary(p):
    # the largest prime ranked in int64 (the trailing block is reduced after
    # every step) and the first one ranked in Python ints
    field = PrimeField(p)
    dec = IntervalDecomposition(2, {(1, 2): 1, (2, 2): 1})
    m = reduce_mod(dec.to_representation(QQ), p)
    assert count_points(m, (1, 1)) == 1 == poincare_polynomial(dec, (1, 1)).evaluate(p)
    assert count_points(m, (0, 1)) == p + 1 == poincare_polynomial(dec, (0, 1)).evaluate(p)
    # U_1 = F_p^2 is forced and U_2 must contain its image, which is a line mod
    # p (the second column is -2 times the first) though a plane over Z
    m = Representation(A2, field, (2, 3), [[[p - 1, 2], [1, p - 2], [5, p - 10]]])
    for e, want in (((2, 1), 1), ((2, 2), p + 1), ((2, 3), 1), ((0, 2), p ** 2 + p + 1)):
        assert plan_count(A2, m.dims, e, p).estimate == 1
        assert count_points(m, e) == want, e


def test_leaf_groups_rank_vectors_of_several_summed_vertices():
    # a one-source, three-sink star: all three sinks are summed and complete
    # at the one enumerated vertex, so the leaf groups rank vectors of width 3
    star = Quiver(4, [(1, 2), (1, 3), (1, 4)])
    m = Representation(star, PrimeField(3), (3, 2, 2, 2),
                       [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [0, 0, 0]], [[1, 1, 0], [0, 0, 1]]])
    checked = 0
    for e in itertools.product(range(1, 3), range(3), range(3), range(3)):
        plan = plan_count(star, m.dims, e, 3)
        if plan.summed == (2, 3, 4):
            assert count_points(m, e) == len(enumerate_subreps(m, e)), e
            checked += 1
    assert checked == 14


def test_leaf_without_summed_vertices():
    # on A_4 the summed sink 4 completes at vertex 3, before the leaf 2, so
    # the leaf groups rank vectors of width 0
    a4 = linear_quiver(4)
    dims = (2, 3, 1, 2)
    m = Representation(a4, PrimeField(3), dims,
                       [[[1, 0], [0, 1], [1, 1]], [[0, 1, 1]], [[1], [2]]])
    for e in ((0, 1, 0, 1), (0, 1, 1, 1), (0, 2, 1, 2)):
        assert plan_count(a4, dims, e, 3) == CountPlan((1, 3, 2), (4,), 13)
        assert count_points(m, e) == len(enumerate_subreps(m, e)), e


def test_rank_groups_are_exact_at_any_width():
    rng = random.Random(3)
    for width in (0, 1, 3, 40):
        rows = [tuple(rng.randrange(3) for _ in range(width)) for _ in range(300)]
        distinct, counts = _rank_groups(np.array(rows, dtype=np.int64).reshape(300, width))
        assert dict(zip(map(tuple, distinct.tolist()), counts.tolist())) == Counter(rows)


def test_elliptic_counts_at_7_and_the_supersingular_11():
    # 11 = 2 mod 3, so y^2 z = x^3 + z^3 is supersingular over F_11 and has
    # p + 1 points: an oracle that shares no code with curve_count
    assert elliptic_demo(11)["grassmannian_points"] == 12 == 11 + 1
    assert elliptic_demo(7)["grassmannian_points"] == 12


def test_elliptic_counts_at_13_and_the_supersingular_17():
    # 17 = 2 mod 3, so the curve is supersingular over F_17: p + 1 points
    assert elliptic_demo(13)["grassmannian_points"] == 12 == curve_count(13)
    assert elliptic_demo(17)["grassmannian_points"] == 18 == 17 + 1


def test_counting_polynomial_checks_budget_before_counting(monkeypatch):
    import quivergrass.counting as counting

    def refuse(*args, **kwargs):
        raise AssertionError("a prime was counted before the budget check")
    monkeypatch.setattr(counting, "count_points", refuse)
    with pytest.raises(BudgetError) as err:
        counting_polynomial(flag_dec(3).to_representation(QQ), (1, 2, 2), budget=1_000_000)
    assert err.value.estimate == gaussian_binomial(4, 2, 41) == 2_898_086


def _hidden_flag(n):
    """flag_dec(n) in a basis that joins its n + 1 summands into one block, so
    that the count strategy interpolates the whole module."""
    m = hide_summands(flag_dec(n).to_representation(QQ))
    assert list(_visible_summands(m).values()) == [1]
    return m


def test_count_strategy_reduces_each_prime_once(monkeypatch):
    import quivergrass.rep as rep
    calls = Counter()
    reduce = rep.reduce_mod

    def counted(m_rep, p):
        calls[p] += 1
        return reduce(m_rep, p)
    monkeypatch.setattr(rep, "reduce_mod", counted)
    f = f_polynomial(_hidden_flag(2), "count")
    # every e with e_1, e_2 in {1, 2} has degree bound 4: six primes, 2 to 13
    assert set(calls) == {2, 3, 5, 7, 11, 13}
    assert set(calls.values()) == {1}
    assert f.terms[(0, 0)] == 1 and f.terms[(3, 3)] == 1


def _refuse_counts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a prime was counted before every budget was checked")
    monkeypatch.setattr(counting, "count_points", refuse)


def test_count_strategy_checks_every_budget_before_the_first_count(monkeypatch, tmp_path):
    from quivergrass.cli import run
    _refuse_counts(monkeypatch)
    m = _hidden_flag(3)
    with pytest.raises(BudgetError) as err:
        f_polynomial(m, "count", budget=10 ** 6)
    assert err.value.estimate == 1_927_590
    path = tmp_path / "flag3.rep"
    path.write_text(json.dumps(rep_document(m)))
    assert run(["fpoly", "--strategy", "count", "--rep", str(path), "--budget", "1000000"]) == \
        (3, "budget error: enumeration of ~1927590 tuples exceeds budget 1000000\n")


@pytest.mark.parametrize("estimate,size", [(10 ** 30 - 1, str(10 ** 30 - 1)),
                                           (10 ** 30, "10^30"), (2 * 10 ** 30, "10^30"),
                                           (8 * 10 ** 30, "10^31"), (10 ** 60600, "10^60600")],
                         ids=["30 digits", "31 digits", "2e30", "8e30", "60601 digits"])
def test_budget_refusals_write_long_estimates_as_powers_of_ten(estimate, size):
    """At most 30 digits in full, past that ~10^k; the estimate stays exact."""
    with pytest.raises(BudgetError) as err:
        counting._check_budget(estimate, 5)
    assert str(err.value) == f"enumeration of ~{size} tuples exceeds budget 5"
    assert err.value.estimate == estimate


def test_plan_floor_refuses_before_the_plans_are_tried():
    # sources 1, 2 and sinks 3, 4 at costs 3, 7, 7, 3 (p = 2): the dearest
    # arrow 2 -> 3 is matched alone, so the floor is 7, and the plan that
    # enumerates 2 only leaves 1 -> 3 summed at both ends; every plan
    # enumerates 21 tuples
    quiver, dims, e = Quiver(4, [(1, 3), (2, 3), (2, 4)]), (2, 3, 3, 2), (1, 1, 1, 1)
    cost = {v: gaussian_binomial(d, x, 2) for v, d, x in zip(range(1, 5), dims, e)}
    assert counting._plan_floor(quiver, cost) == (7, False)
    assert plan_count(quiver, dims, e, 2).estimate == 21
    m = _random_rep(quiver, dims, 2, random.Random(0))
    with pytest.raises(BudgetError) as err:
        count_points(m, e, budget=10)
    assert (str(err.value), err.value.estimate) == \
        ("enumeration of ~21 tuples exceeds budget 10", 21)
    # only the floor, checked before any subset is tried, refuses at 7
    with pytest.raises(BudgetError) as err:
        count_points(m, e, budget=6)
    assert (str(err.value), err.value.estimate) == \
        ("enumeration of at least ~7 tuples exceeds budget 6", 7)
    # A_3: the interior vertex alone, a floor that plan_count attains
    cost = {1: 1, 2: gaussian_binomial(4, 2, 41), 3: 1}
    assert counting._plan_floor(linear_quiver(3), cost) == (cost[2], True)


def test_count_strategy_checks_every_summand_budget_before_the_first_count(monkeypatch):
    # the simple S_1 is counted first and fits any budget; the hidden flag
    # module after it does not, and is refused before S_1 counts a prime
    _refuse_counts(monkeypatch)
    s1 = IntervalDecomposition(3, {(1, 1): 1}).to_representation(QQ)
    m = direct_sum(s1, _hidden_flag(3))
    assert list(_visible_summands(m).items()) == [(s1, 1), (_hidden_flag(3), 1)]
    with pytest.raises(BudgetError) as err:
        f_polynomial(m, "count", budget=10 ** 6)
    assert err.value.estimate == 1_927_590


def test_all_e_ladder_gives_each_e_its_lone_primes():
    # bad reduction at 3 and 11: the degree bounds 0, 1 and 2 end their
    # ladders at 5, 7 and 13, so 11 is skipped only where D_e = 2
    m = Representation(A2, QQ, (2, 2), [[["1/3", 0], [0, "1/11"]]])
    es = list(itertools.product(range(3), repeat=2))
    ladder = list(counting._counting_polynomials(m, es))
    assert ladder == [counting_polynomial(m, e) for e in es]
    assert {(cp.held_out[0], cp.skipped_primes) for cp in ladder} == \
        {(5, (3,)), (7, (3,)), (13, (3, 11))}
    assert all(cp.consistency == "verified" for cp in ladder)


def test_non_integral_interpolation_is_inconsistent(monkeypatch):
    import quivergrass.counting as counting
    # (q^2 + q) / 2 takes integer values at every prime
    monkeypatch.setattr(counting, "count_points",
                        lambda m, e, budget: (m.field.p ** 2 + m.field.p) // 2)
    cp = counting_polynomial(example4_rep(), (1, 1))
    assert (cp.coefficients, cp.consistency, cp.primes) == ((), "inconsistent", (2, 3, 5))
    assert cp.counts == (3, 6, 15) and cp.held_out == ()


def test_counting_polynomial_of_degree_zero():
    cp = counting_polynomial(example4_rep(), (0, 0))
    assert (cp.coefficients, cp.consistency, cp.primes, cp.held_out) == \
        ((1,), "verified", (2,), (3, 1))


def _rotation_kronecker():
    """Kronecker module with maps I and the rotation [[0, -1], [1, 0]]: its
    subrepresentations at e = (1, 1) are the eigenlines of the rotation, so
    #Gr_(1,1) over F_p counts the roots of x^2 + 1."""
    return Representation(kronecker_quiver(2), QQ, (2, 2),
                          [[[1, 0], [0, 1]], [[0, -1], [1, 0]]])


def test_held_out_prime_that_disagrees_is_inconsistent():
    # 5, 13 and 17 are 1 mod 4 (two roots each) and interpolate 2; 3 has none
    cp = counting_polynomial(_rotation_kronecker(), (1, 1), primes=[5, 13, 17, 3])
    assert cp.counts == (2, 2, 2) and cp.held_out == (3, 0)
    assert (cp.coefficients, cp.consistency) == ((), "inconsistent")


def test_library_refusals():
    with pytest.raises(DomainError, match="out of range"):
        SubspaceIter(2, 3, 5)
    with pytest.raises(DomainError, match="GF\\(p\\)"):
        count_points(example4_rep(), (1, 1))
    with pytest.raises(DomainError, match="over Q"):
        counting_polynomial(example4_rep(PrimeField(5)), (1, 1))


def test_counting_polynomial_plans_the_budget_once(monkeypatch):
    import quivergrass.counting as counting
    calls = []

    def counted(quiver, dims, e, p, budget=None):
        calls.append((p, budget))
        return plan_count(quiver, dims, e, p, budget)
    monkeypatch.setattr(counting, "plan_count", counted)
    cp = counting_polynomial(flag_dec(3).to_representation(QQ), (0, 1, 2))
    # one plan at the largest prime checks the budget, one per count does not
    primes = list(cp.primes) + [cp.held_out[0]]
    assert calls == [(max(primes), counting.DEFAULT_BUDGET)] + [(p, None) for p in primes]
    assert len(calls) == 10


@st.composite
def quiver_dims_and_e(draw):
    """An acyclic quiver on at most six vertices (parallel arrows allowed),
    dimensions at most 4 and a sub-dimension vector."""
    n = draw(st.integers(1, 6))
    arrow = st.integers(1, n - 1).flatmap(lambda s: st.tuples(st.just(s), st.integers(s + 1, n)))
    arrows = draw(st.lists(arrow, max_size=8)) if n > 1 else []
    dims = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    e = tuple(draw(st.integers(0, d)) for d in dims)
    return Quiver(n, arrows), dims, e


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(quiver_dims_and_e())
def test_plan_estimate_is_nondecreasing_in_p(case):
    # [d, e]_p has nonnegative coefficients in p, so one budget check at the
    # largest prime stands for every smaller one
    quiver, dims, e = case
    estimates = [plan_count(quiver, dims, e, p).estimate for p in (2, 3, 5, 7, 11, 13, 31)]
    assert estimates == sorted(estimates)


@st.composite
def small_reps(draw, max_dim=3):
    """A representation on at most four vertices over GF(2), GF(3) or GF(5)
    and a sub-dimension vector."""
    n = draw(st.integers(1, 4))
    arrow = st.integers(1, n - 1).flatmap(lambda s: st.tuples(st.just(s), st.integers(s + 1, n)))
    arrows = draw(st.lists(arrow, min_size=1, max_size=5)) if n > 1 else []
    p = draw(st.sampled_from([2, 3, 5]))
    dims = tuple(draw(st.lists(st.integers(0, max_dim), min_size=n, max_size=n)))
    entry = st.integers(0, p - 1)
    mats = [[[draw(entry) for _ in range(dims[s - 1])] for _ in range(dims[t - 1])]
            for s, t in arrows]
    e = tuple(draw(st.integers(0, d)) for d in dims)
    return Representation(Quiver(n, arrows), PrimeField(p), dims, mats), e


def _tuples(m, e):
    out = 1
    for d, x in zip(m.dims, e):
        out *= gaussian_binomial(d, x, m.field.p)
    return out


_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


@_PROPERTY
@given(small_reps())
def test_planned_count_equals_exhaustive(rep_and_e):
    m, e = rep_and_e
    assume(_tuples(m, e) <= 3000)
    assert count_points(m, e) == len(enumerate_subreps(m, e))


@pytest.mark.parametrize("width", [np.int32, np.int64, object],
                         ids=["int32", "int64", "object"])
@_PROPERTY
@given(small_reps())
def test_planned_count_at_every_wider_width(width, rep_and_e):
    # these fixtures run at int16, so forcing each wider width keeps an
    # oracle on the int32, int64 and object paths of the engine and kernel
    m, e = rep_and_e
    assume(_tuples(m, e) <= 3000)
    assert counting._residue_dtype(m.field.p, max(m.dims)) is np.int16
    natural = count_points(m, e)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_residue_dtype", lambda p, n: width)
        assert count_points(m, e) == natural == len(enumerate_subreps(m, e))


@_PROPERTY
@given(small_reps())
def test_planned_count_is_dual_invariant(rep_and_e):
    m, e = rep_and_e
    co_e = tuple(d - x for d, x in zip(m.dims, e))
    assert count_points(m, e) == count_points(dual(m), co_e)


RANK_PRIMES = [2, 3, 5, 7, 181, 191, 46337, 46349, 2 ** 31 - 1, 3037000493, 3037000507,
               2 ** 61 - 1]


@st.composite
def rank_stacks(draw):
    """A prime and a stack of 0..40 integer matrices of one shape, at most
    7 x 7, tall or wide.  Each matrix is either arbitrary or a product of a
    thin pair (rank at most the inner size); entries are unreduced and signed."""
    p = draw(st.sampled_from(RANK_PRIMES))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.integers(-3 * p, 3 * p)

    def matrix(r, c):
        return [[draw(entry) for _ in range(c)] for _ in range(r)]

    mats = []
    for _ in range(draw(st.integers(0, 40))):
        inner = draw(st.integers(0, 8))
        if inner < min(rows, cols):
            a, b = matrix(rows, inner), matrix(inner, cols)
            mats.append([[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
                         for i in range(rows)])
        else:
            mats.append(matrix(rows, cols))
    return p, rows, cols, mats


@_PROPERTY
@given(rank_stacks())
def test_batched_rank_equals_linalg_rank(case):
    p, rows, cols, mats = case
    field = PrimeField(p)
    want = [la.rank(la.mat(m, field), field) for m in mats]
    stack = np.array(mats, dtype=object).reshape(len(mats), rows, cols)
    stacks = [stack]
    if all(-2 ** 63 <= x < 2 ** 63 for x in stack.flat):
        stacks.append(stack.astype(np.int64))
    for a in stacks:
        got = batched_rank_mod_p(a, p)
        assert got.dtype == np.int64 and got.shape == (len(mats),)
        assert list(got) == want


@st.composite
def sparse_matrices(draw):
    """A prime p, mostly zero rational matrices a (r x k) and b (k x c), whose
    denominators are prime to p, and a vector v of length k."""
    p = draw(st.sampled_from([2, 7, 2**31 - 1]))
    r, k, c = draw(st.integers(0, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                      st.integers(1, 6).filter(lambda q: q % p))

    def sparse(rows, cols):
        cells = draw(st.dictionaries(st.tuples(st.integers(0, rows - 1),
                                               st.integers(0, cols - 1)),
                                     entry, max_size=rows * cols)) if rows else {}
        return [[cells.get((i, j), 0) for j in range(cols)] for i in range(rows)]

    return p, sparse(r, k), sparse(k, c), sparse(1, k)[0]


def _dense_rref(a, field):
    """Dense Gauss-Jordan elimination: the reference la.rref must equal."""
    of = field.of
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [of(inv * x) for x in m[r]]
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                m[i] = [of(x - f * y) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m), pivots


def _entries(*results):
    for x in results:
        if isinstance(x, (tuple, list)):
            yield from _entries(*x)
        else:
            yield x


@_PROPERTY
@given(sparse_matrices())
def test_linalg_entries_stay_in_the_field(case):
    p, a, b, v = case
    gf = PrimeField(p)
    k, c = len(v), len(b[0])
    for field, in_field in ((gf, lambda x: type(x) is int and 0 <= x < p),
                            (QQ, lambda x: type(x) is Fraction)):
        fa, fb, fv = la.mat(a, field), la.mat(b, field), la.mat([v], field)[0]
        rows, pivots = la.rref(fa, field)
        want, want_pivots = _dense_rref(fa, field)
        basis = la.dense(rows, field, k)
        assert (basis, pivots) == (want[:len(want_pivots)], want_pivots), field
        stored = [x for row in rows for x in row.values()]
        assert all(stored), field
        kernel = la.nullspace(fa, field, k)
        assert len(kernel) == k - len(pivots)
        assert all(not any(la.mat_vec(fa, x, field)) for x in kernel)
        results = (mul(fa, fb, field, c), la.mat_vec(fa, fv, field),
                   neg(fa, field), stored, basis, kernel,
                   la.reduce_by(basis, pivots, fv, field))
        assert all(in_field(x) for x in _entries(results)), field
    qa, qb, qv = la.mat(a, QQ), la.mat(b, QQ), la.mat([v], QQ)[0]
    pa, pb, pv = la.mat(a, gf), la.mat(b, gf), la.mat([v], gf)[0]
    assert mul(pa, pb, gf, c) == la.mat(mul(qa, qb, QQ, c), gf)
    assert la.mat_vec(pa, pv, gf) == la.mat([la.mat_vec(qa, qv, QQ)], gf)[0]
    # a factor with no rows still gives the product its width: (2 x 0)(0 x 3)
    assert mul(((), ()), (), QQ, 3) == la.zeros(2, 3, QQ)


@_PROPERTY
@given(sparse_matrices(), st.integers(0, 3))
def test_rref_reads_dict_rows_as_dense_rows(case, zero_rows):
    p, a, _, v = case
    cols = len(v)
    a = a + [[0] * cols] * zero_rows  # zero rows, and no rows at all when a is empty
    for field in (QQ, PrimeField(p)):
        dense = la.mat(a, field)
        rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
        given_rows = [dict(row) for row in rows]
        want = la.rref(dense, field)
        reference, pivots = _dense_rref(dense, field)
        assert want[1] == pivots
        assert la.dense(want[0], field, cols) == reference[:len(pivots)]
        assert la.rref(rows, field, cols) == want
        assert la.rank(rows, field, cols) == len(want[1])
        assert la.nullspace(rows, field, cols) == la.nullspace(dense, field, cols)
        assert la.dense(rows, field, cols) == dense
        assert rows == given_rows  # the caller's dicts are left as they were


@st.composite
def echelon_cases(draw):
    """A field (Q, GF(2), GF(7) or GF(2^61 - 1)) and a matrix over it, with
    zero rows and repeated rows among its rows; over Q the entries are
    Fractions, most of them not integers."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(7), PrimeField(2**61 - 1)]))
    cols = draw(st.integers(0, 7))
    if field == QQ:
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    else:
        entry = st.one_of(st.integers(0, 3), st.integers(0, field.p - 1))
    row = st.lists(entry, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(rows)) if rows and draw(st.booleans()) else [0] * cols
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return field, cols, la.mat(rows, field)


@_PROPERTY
@given(echelon_cases())
def test_rref_rows_are_the_reference_s_nonzero_rows(case):
    field, cols, dense = case
    reference, pivots = _dense_rref(dense, field)
    dict_rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
    in_field = ((lambda x: type(x) is Fraction) if field == QQ
                else (lambda x: type(x) is int and 0 <= x < field.p))
    for a in (dense, dict_rows):
        rows, got = la.rref(a, field, cols)
        assert got == pivots
        assert la.dense(rows, field, cols) == reference[:len(pivots)]
        # every stored value is a nonzero element of the field
        assert all(x and in_field(x) for row in rows for x in row.values())
        assert la.rank(a, field, cols) == len(pivots)


FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


@st.composite
def interpolation_cases(draw):
    """Distinct primes and integer values at them: either arbitrary, so that
    the interpolant is rarely integral, or those of an integral polynomial
    of lower degree."""
    xs = draw(st.lists(st.sampled_from(FIRST_PRIMES), min_size=1, max_size=9, unique=True))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=len(xs)))
        ys = [sum(c * x ** i for i, c in enumerate(coeffs)) for x in xs]
    else:
        ys = draw(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=len(xs), max_size=len(xs)))
    return xs, ys


@_PROPERTY
@given(interpolation_cases())
def test_newton_interpolation_equals_the_vandermonde_solve(case):
    xs, ys = case
    vandermonde = la.mat([[x ** k for k in range(len(xs))] for x in xs], QQ)
    want = [row[0] for row in solve(vandermonde, la.mat([[y] for y in ys], QQ), QQ)]
    got = _newton_interpolation(xs, ys)
    if all(c.denominator == 1 for c in want):
        assert got == [int(c) for c in want]
    else:
        assert got is None
