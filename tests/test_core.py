"""Homological linear algebra over exact fields: defect map, Hom/Ext,
canonical constructions, subquotients, extensions, embeddings."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergrass import linalg as la
from quivergrass import (
    QQ, BudgetError, DomainError, PrimeField, Quiver, Representation, SubrepWitness,
    build_extension, direct_sum, dual, elliptic, euler_form, ext1_dim,
    hom_basis, hom_dim, injective, is_rigid, kronecker_quiver, linear_quiver, phi_map,
    projective, quotient, restrict, simple, tangent_dim,
)
from quivergrass.ardynkin import classify, tau_dim
from quivergrass.cluster import (cluster_character, f_polynomial, make_generating,
                                 psi_count_identity, verify_multiplication)
from quivergrass.counting import count_points
from quivergrass.fields import _is_prime
from quivergrass.poly import SparsePoly
from quivergrass.rep import (arrow_stable, morphism_image_witness, morphism_kernel_witness,
                             nonzero_ext_cocycle, reduce_mod)
from quivergrass.typea import (IntervalDecomposition, deg_leq_hom, deg_leq_ranks,
                               degenerate_flag_dec, ext_dim_decs,
                               fixed_points, flag_dec, hom_dim_decs, interval_rep,
                               most_flat_dec, path_algebra_dec, random_decomposition)

from oracles import (dense_ext_cocycle, full_witness, hide_summands, hom_fingerprint,
                     injective_cokernel_exponent, mul, neg, zero_witness)

A2 = linear_quiver(2)
A3 = linear_quiver(3)


def example4_rep(field=QQ):
    return Representation(A2, field, (2, 2), [[[1, 0], [0, 0]]])


def test_quiver_rejects_cycles():
    with pytest.raises(DomainError):
        Quiver(2, [(1, 2), (2, 1)])
    with pytest.raises(DomainError):
        Quiver(2, [(1, 3)])
    Quiver(2, [(1, 2), (1, 2)])  # parallel arrows are fine


def _psi_s1_s2(e):
    s1, s2 = interval_rep(A2, QQ, 1, 1), interval_rep(A2, QQ, 2, 2)
    return psi_count_identity(make_generating(s1, s2), e, [2])


@pytest.mark.parametrize("call", [
    lambda: count_points(flag_dec(2).to_representation(PrimeField(2)), (0.5, 1)),
    lambda: Representation(A2, QQ, (1.5, 1), [[[1]]]),
    lambda: IntervalDecomposition(2, {(1, 2): 2.9}),
    lambda: euler_form(A2, (1.9, 0), (1, 1)),
    lambda: fixed_points(flag_dec(2), (0.5, 1.9)),
    lambda: _psi_s1_s2((0.5, 1)),
], ids=["count_points", "Representation", "IntervalDecomposition", "euler_form",
        "fixed_points", "psi_count_identity"])
def test_non_integer_dimensions_refused(call):
    # int() would truncate each of these to a valid input and answer for it
    with pytest.raises(DomainError, match="must be integers"):
        call()


def test_euler_form_values():
    assert euler_form(A2, (1, 0), (0, 1)) == -1
    assert euler_form(A2, (1, 1), (1, 1)) == 1
    # flag-variety dimension n(n+1)/2 for n=3
    assert euler_form(A3, (1, 2, 3), (3, 2, 1)) == 6
    with pytest.raises(DomainError):
        euler_form(A2, (1,), (1, 1))


def test_phi_map_shapes_and_ranks():
    s1, s2, p1 = simple(A2, QQ, 1), simple(A2, QQ, 2), projective(A2, QQ, 1)
    phi, cols = phi_map(s1, s1)
    assert (len(phi), cols) == (0, 1)  # map from a 1-dim space to a 0-dim space
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s1, s2) == 0 and ext1_dim(s1, s2) == 1
    assert hom_dim(p1, p1) == 1 and ext1_dim(p1, p1) == 0


def _dense_phi(n_rep, m_rep):
    phi, cols = phi_map(n_rep, m_rep)
    return la.dense(phi, n_rep.field, cols), cols


def test_phi_map_matrix_is_reproducible():
    m = example4_rep()
    phi1, _ = _dense_phi(m, m)
    phi2, _ = _dense_phi(m, m)
    assert phi1 == phi2
    assert len(phi1) == 2 * 2 and len(phi1[0]) == 2 * 2 + 2 * 2


def _phi_by_kron(n_rep, m_rep):
    """Phi written with Kronecker products: vec(M_a f_s) = (I (x) M_a) vec(f_s)
    and vec(f_t N_a) = (N_a^T (x) I) vec(f_t)."""
    def kron(a, b):
        return [[field.of(x * y) for x in ra for y in rb] for ra in a for rb in b]

    field, e, d = n_rep.field, n_rep.dims, m_rep.dims
    offsets = [sum(x * y for x, y in zip(e[:i], d[:i])) for i in range(len(e) + 1)]
    rows = []
    for a, (s, t) in enumerate(n_rep.quiver.arrows):
        left = kron(la.identity(e[s - 1], field), m_rep.matrix(a))
        nat = la.transpose(n_rep.matrix(a), cols=e[s - 1])
        right = kron(neg(nat, field), la.identity(d[t - 1], field))
        for lrow, rrow in zip(left, right):
            row = [field.zero] * offsets[-1]
            row[offsets[s - 1]:offsets[s]] = lrow
            row[offsets[t - 1]:offsets[t]] = rrow
            rows.append(tuple(row))
    return tuple(rows), offsets[-1]


@pytest.mark.parametrize("seed", range(6))
def test_phi_map_equals_the_kronecker_formula(seed):
    n = 2 + seed % 3
    a, b = random_decomposition(n, seed), random_decomposition(n, seed + 100)
    for field in (QQ, PrimeField(5)):
        n_rep, m_rep = a.to_representation(field), b.to_representation(field)
        assert _dense_phi(n_rep, m_rep) == _phi_by_kron(n_rep, m_rep)
        assert _dense_phi(m_rep, n_rep) == _phi_by_kron(m_rep, n_rep)


class _CountingPrime(int):
    """A prime counting the reductions ``x % p`` taken by it: one per entry an
    elimination over GF(p) writes (int's ``%`` defers to this reflected one)."""

    def __rmod__(self, x):
        self.calls += 1
        return int.__rmod__(self, x)


def test_rank_of_the_defect_map_follows_its_nonzeros():
    field = PrimeField(7)
    phi, cols = phi_map(degenerate_flag_dec(6).to_representation(field),
                        most_flat_dec(6).to_representation(field))
    assert (len(phi), cols) == (245, 294)
    # phi_map stores the 385 nonzeros of the 72,030 entries, and no zero
    assert sum(len(row) for row in phi) == 385
    assert all(x for row in phi for x in row.values())
    field.p = _CountingPrime(7)
    field.p.calls = 0
    assert la.rank(phi, field, cols) == 225
    # 370 on its 385 nonzeros; a dense Gauss-Jordan makes 116,130
    assert field.p.calls == 370


@pytest.mark.parametrize("pair", [(degenerate_flag_dec(7), most_flat_dec(7)),
                                  (flag_dec(6), path_algebra_dec(6))],
                         ids=["degenerate_flag_7-most_flat_7", "flag_6-path_algebra_6"])
def test_hom_ext_over_q_on_large_modules(pair):
    a, b = pair
    n_rep, m_rep = a.to_representation(QQ), b.to_representation(QQ)
    assert hom_dim(n_rep, m_rep) == hom_dim_decs(a, b)
    assert ext1_dim(n_rep, m_rep) == ext_dim_decs(a, b)


def test_interval_hom_values_match_closed_forms():
    # [U12, U11] = 1 on A2; ext(U12, U23) = 1 on A3
    from quivergrass.typea import interval_rep
    u12 = interval_rep(A2, QQ, 1, 2)
    u11 = interval_rep(A2, QQ, 1, 1)
    assert hom_dim(u12, u11) == 1
    a, b = interval_rep(A3, QQ, 1, 2), interval_rep(A3, QQ, 2, 3)
    assert ext1_dim(a, b) == 1


def test_projective_injective_simple():
    p1 = projective(A2, QQ, 1)
    assert p1.dims == (1, 1) and p1.matrix(0) == ((QQ.one,),)
    i2 = injective(A3, QQ, 2)
    assert i2.dims == (1, 1, 0)
    s2 = simple(A2, QQ, 2)
    assert s2.dims == (0, 1) and s2 == projective(A2, QQ, 2)
    with pytest.raises(DomainError):
        projective(A2, QQ, 3)

    # on the doubled chain, two arrows v -> v+1, P_1 and I_n have 2^(v-1)
    # and 2^(n-v) paths at v; at 16 vertices their arrow matrices are over
    # the ceiling, refused before any path is listed
    def chain(n):
        return Quiver(n, [(v, v + 1) for v in range(1, n) for _ in range(2)])

    small = chain(10)
    assert projective(small, QQ, 1).dims == tuple(2 ** v for v in range(10))
    assert injective(small, QQ, 10).dims == tuple(2 ** (9 - v) for v in range(10))
    big = chain(16)
    for build in (lambda: projective(big, QQ, 1), lambda: injective(big, QQ, 16)):
        start = time.perf_counter()
        with pytest.raises(BudgetError):
            build()
        assert time.perf_counter() - start < 1


def test_dual_and_direct_sum():
    p1 = projective(A2, QQ, 1)
    d = dual(p1)
    assert d.quiver.arrows == ((2, 1),)
    assert d == injective(d.quiver, QQ, 1)
    assert dual(d) == p1
    s = direct_sum(p1, simple(A2, QQ, 2))
    assert s.dims == (1, 2)
    m = example4_rep()
    assert dual(dual(m)) == m


def test_restrict_quotient_edge_cases():
    m = example4_rep()
    full = full_witness(m)
    assert restrict(m, full) == m
    assert quotient(m, full).dims == (0, 0)
    zero = zero_witness(m)
    assert quotient(m, zero) == m
    assert restrict(m, zero).dims == (0, 0)


def test_restrict_quotient_example4():
    from quivergrass.typea import decompose, IntervalDecomposition
    m = example4_rep()
    w = SubrepWitness(A2, QQ, [((1, 0),), ((1, 0),)])
    assert decompose(restrict(m, w)) == IntervalDecomposition(2, {(1, 2): 1})
    assert decompose(quotient(m, w)) == \
        IntervalDecomposition(2, {(1, 1): 1, (2, 2): 1})


def test_restrict_rejects_unstable_witness():
    m = example4_rep()
    w = SubrepWitness(A2, QQ, [((1, 0),), ((0, 1),)])  # image e1 not in <e2>
    assert not w.is_stable(m)
    for f in (restrict, quotient, tangent_dim):
        with pytest.raises(DomainError):
            f(m, w)


def test_witness_outside_the_module_is_refused():
    m = example4_rep()
    for w in (SubrepWitness(A2, QQ, [((1, 0, 0),), ((1, 0),)]),  # row longer than d_1
              SubrepWitness(A3, QQ, [(), (), ()]),  # another quiver
              SubrepWitness(A2, PrimeField(3), [(), ()])):  # another field
        with pytest.raises(DomainError):
            w.is_stable(m)
        for f in (restrict, quotient, tangent_dim):
            with pytest.raises(DomainError):
                f(m, w)


def test_arrow_stable_with_a_zero_target():
    m = example4_rep()
    assert not arrow_stable(m, [((1, 0),), ()], [(0,), ()])  # e1 -> e1, not 0
    assert arrow_stable(m, [((0, 1),), ()], [(1,), ()])  # e2 -> 0


def test_witness_validation():
    with pytest.raises(DomainError):
        SubrepWitness(A2, QQ, [((1, 1), (0, 1)), ()])  # not reduced
    with pytest.raises(DomainError):
        SubrepWitness(A2, QQ, [((0, 0),), ()])  # rank deficient
    with pytest.raises(DomainError):
        SubrepWitness(A2, QQ, [((1, 0), (0,)), ()])  # ragged
    # equal witnesses live on the same quiver over the same field
    assert SubrepWitness(linear_quiver(2), QQ, [(), ()]) \
        != SubrepWitness(kronecker_quiver(2), PrimeField(3), [(), ()])
    assert SubrepWitness(A2, QQ, [((1, 0),), ()]) == SubrepWitness(A2, QQ, [((1, 0),), ()])


def test_representation_rejects_ragged_matrix():
    with pytest.raises(DomainError):
        Representation(A2, QQ, (2, 2), [[[1, 0], [1]]])


def test_tangent_dims():
    # rigid module: tangent = <e, d - e> at every point
    p13 = direct_sum(*[projective(A2, QQ, 1)] * 3)
    assert is_rigid(p13)
    w = SubrepWitness(A2, QQ, [((1, 0, 0),), ((1, 0, 0), (0, 1, 0))])
    assert w.is_stable(p13)
    assert tangent_dim(p13, w) == euler_form(A2, (1, 2), (2, 1)) == 3
    # regular Kronecker module of quasi-length 2: one point, tangent dim 1
    kron = kronecker_quiver(2)
    r2 = Representation(kron, QQ, (2, 2), [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
    w2 = SubrepWitness(kron, QQ, [((1, 0),), ((1, 0),)])
    assert tangent_dim(r2, w2) == 1
    # the crossing point of the two-lines example
    m = example4_rep()
    sing = SubrepWitness(A2, QQ, [((0, 1),), ((1, 0),)])
    smooth = SubrepWitness(A2, QQ, [((0, 1),), ((0, 1),)])
    assert tangent_dim(m, sing) == 2
    assert tangent_dim(m, smooth) == 1


def test_is_rigid():
    assert is_rigid(direct_sum(*[projective(A3, QQ, 1)] * 4))
    from quivergrass.typea import degenerate_flag_dec
    assert not is_rigid(degenerate_flag_dec(2).to_representation(QQ))
    one_vertex = Quiver(1, [])
    assert is_rigid(Representation(one_vertex, QQ, (5,), []))


def test_build_extension():
    s1, s2 = simple(A2, QQ, 1), simple(A2, QQ, 2)
    y0, _, _ = build_extension(s1, s2, [()])
    assert y0 == direct_sum(s2, s1)
    y, iota, pi = build_extension(s1, s2, [((1,),)])
    p1 = projective(A2, QQ, 1)
    fam = [p1, y]
    assert hom_fingerprint(fam, y) == hom_fingerprint(fam, p1) == (1, 1)
    # shape mismatch rejected, including a block that should be 0 x 0
    for s, x, z in ((s1, s2, ((1, 1),)), (s2, s1, ((), (), ()))):
        with pytest.raises(DomainError):
            build_extension(s, x, [z])


def test_build_extension_interval_example():
    from quivergrass.typea import decompose, interval_rep, IntervalDecomposition
    a4 = linear_quiver(4)
    s = interval_rep(a4, QQ, 1, 3)
    x = interval_rep(a4, QQ, 2, 4)
    z = nonzero_ext_cocycle(s, x)
    y, _, _ = build_extension(s, x, z)
    assert decompose(y) == IntervalDecomposition(4, {(1, 4): 1, (2, 3): 1})


@st.composite
def interval_pairs(draw):
    """(S, X): interval modules on A_n, n <= 4, over Q or GF(7), each written
    in a basis without zeros or not."""
    n = draw(st.integers(1, 4))
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]

    def module():
        m = IntervalDecomposition(n, draw(st.dictionaries(st.sampled_from(intervals),
                                                          st.integers(1, 2), max_size=3)))
        rep = m.to_representation(field)
        return hide_summands(rep) if draw(st.booleans()) else rep
    return module(), module()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(interval_pairs())
def test_ext_cocycle_equals_the_dense_search(pair):
    """The first unit vector outside the image of Phi, read off the sparse
    reduced columns, is the one the dense search finds; both refuse together."""
    s, x = pair
    want = dense_ext_cocycle(s, x)
    if want is None:
        assert ext1_dim(s, x) == 0
        with pytest.raises(DomainError, match="Ext\\^1\\(S,X\\) = 0"):
            nonzero_ext_cocycle(s, x)
    else:
        assert ext1_dim(s, x) > 0 and nonzero_ext_cocycle(s, x) == want


def test_nonsplit_extension_differs_from_split():
    from quivergrass.typea import interval_rep
    fixtures = [(simple(A2, QQ, 1), simple(A2, QQ, 2)),
                (interval_rep(linear_quiver(4), QQ, 1, 3),
                 interval_rep(linear_quiver(4), QQ, 2, 4))]
    for s, x in fixtures:
        assert ext1_dim(s, x) > 0
        y, _, _ = build_extension(s, x, nonzero_ext_cocycle(s, x))
        split = direct_sum(x, s)
        fam = [x, s, y, split]
        assert hom_fingerprint(fam, y) != hom_fingerprint(fam, split)


def test_injective_exponent_matches_embedding_search():
    # verify_multiplication takes x^f = 1 since X/X_S = tau S^X, which it
    # asserts; a seeded embedding X/X_S -> tau S^X must then have no cokernel
    rng = random.Random(11)

    def rand_dec(n):
        m = {}
        for _ in range(rng.randint(1, 2)):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            m[(i, j)] = m.get((i, j), 0) + 1
        return IntervalDecomposition(n, m)

    cases = 0
    while cases < 60:
        n = rng.randint(2, 4)
        sdec, xdec = rand_dec(n), rand_dec(n)
        if ext_dim_decs(sdec, xdec) != 1:
            continue
        ge = make_generating(sdec.to_representation(QQ), xdec.to_representation(QQ))
        report = verify_multiplication(ge)
        assert report.holds, (sdec, xdec)
        assert injective_cokernel_exponent(ge) == (0,) * n, (sdec, xdec)
        cases += 1


def _random_rep(rng, quiver, field, maxdim=2):
    dims = tuple(rng.randint(0, maxdim) for _ in range(quiver.vertex_count))
    mats = []
    for s, t in quiver.arrows:
        mats.append([[field.of(rng.randint(-2, 2)) for _ in range(dims[s - 1])]
                     for _ in range(dims[t - 1])])
    return Representation(quiver, field, dims, mats)


def _random_quiver(rng):
    n = rng.randint(1, 4)
    arrows = []
    for _ in range(rng.randint(0, 5)):
        s = rng.randint(1, n)
        t = rng.randint(1, n)
        if s != t:
            arrows.append((min(s, t), max(s, t)))  # ascending arrows: acyclic
    return Quiver(n, arrows)


def test_euler_form_homological_interpretation():
    rng = random.Random(42)
    for _ in range(30):
        q = _random_quiver(rng)
        n = _random_rep(rng, q, QQ)
        m = _random_rep(rng, q, QQ)
        assert hom_dim(n, m) - ext1_dim(n, m) == euler_form(q, n.dims, m.dims)


def test_projectives_and_injectives_have_no_ext():
    rng = random.Random(43)
    for _ in range(15):
        q = _random_quiver(rng)
        x = _random_rep(rng, q, QQ)
        for k in range(1, q.vertex_count + 1):
            assert ext1_dim(projective(q, QQ, k), x) == 0
            assert ext1_dim(x, injective(q, QQ, k)) == 0


def test_hom_dim_dual_symmetry():
    rng = random.Random(44)
    for _ in range(20):
        q = _random_quiver(rng)
        n = _random_rep(rng, q, QQ)
        m = _random_rep(rng, q, QQ)
        assert hom_dim(n, m) == hom_dim(dual(m), dual(n))


def test_hom_basis_spans_hom():
    rng = random.Random(45)
    quivers = [A2, A3, kronecker_quiver(2), Quiver(2, [])]
    for field in (QQ, PrimeField(2), PrimeField(3)):
        for q in quivers:
            for _ in range(8):
                n, m = _random_rep(rng, q, field), _random_rep(rng, q, field)
                e, d = n.dims, m.dims
                basis = hom_basis(n, m)
                assert len(basis) == hom_dim(n, m)
                flat = [tuple(x for block in f for row in block for x in row) for f in basis]
                assert la.rank(flat, field) == len(basis)
                for f in basis:
                    assert len(f) == q.vertex_count
                    assert all(len(f[i]) == d[i] and all(len(row) == e[i] for row in f[i])
                               for i in range(q.vertex_count))
                    for a, (s, t) in enumerate(q.arrows):
                        assert mul(m.matrix(a), f[s - 1], field, e[s - 1]) == \
                            mul(f[t - 1], n.matrix(a), field, e[s - 1])
                if basis:
                    ker = morphism_kernel_witness(basis[0], n, m)
                    img = morphism_image_witness(basis[0], n, m)
                    assert ker.is_stable(n) and img.is_stable(m)
                    assert tuple(a + b for a, b in zip(ker.dims, img.dims)) == e


def test_restrict_quotient_dims_sum():
    m = example4_rep(PrimeField(3))
    from quivergrass.counting import enumerate_subreps
    for e in [(1, 1), (2, 1), (1, 2), (0, 1)]:
        for w in enumerate_subreps(m, e):
            dl = restrict(m, w).dims
            dq = quotient(m, w).dims
            assert tuple(a + b for a, b in zip(dl, dq)) == m.dims


def test_field_and_quiver_mismatch_rejected():
    m = example4_rep()
    mp = example4_rep(PrimeField(3))
    with pytest.raises(DomainError):
        hom_dim(m, mp)
    other = Representation(kronecker_quiver(2), QQ, (2, 2),
                           [[[1, 0], [0, 1]], [[0, 0], [0, 0]]])
    with pytest.raises(DomainError):
        hom_dim(m, other)


def test_reduce_mod_bad_reduction():
    m = Representation(A2, QQ, (1, 1), [[["1/2"]]])
    with pytest.raises(DomainError):
        reduce_mod(m, 2)
    assert reduce_mod(m, 3).matrix(0) == ((2,),)


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == by_trial_division(n) for n in range(20_000))


def test_prime_field_of_a_large_prime():
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    # strong pseudoprimes to every base up to 23, and up to 37
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    with pytest.raises(DomainError, match="not prime"):
        PrimeField(2**61 + 1)
    with pytest.raises(DomainError, match="exact only below"):
        PrimeField(10**25 + 13)


def test_prime_field_coerces_a_fraction_string_and_refuses_a_float():
    assert PrimeField(7).of("1/3") == 5  # 3 * 5 = 15 = 1 mod 7
    with pytest.raises(DomainError, match="cannot coerce 1.5 into GF"):
        PrimeField(7).of(1.5)


@pytest.mark.parametrize("p", [2, 7, 2**61 - 1])
def test_prime_field_of_a_fraction(p):
    field = PrimeField(p)
    # an integral Fraction maps as its integer does, negative or past p
    for a in (-3 * p - 1, -p, -1, 0, 1, p - 1, p, p + 5, 7 * p + 3, 10**30):
        got = field.of(Fraction(a))
        assert type(got) is int and got == a % p, a
    # a proper Fraction is its numerator times the inverse of its denominator
    for x in (Fraction(1, 3), Fraction(-5, 9), Fraction(2**70 + 1, 15), Fraction(-1, 2**40 + 1)):
        if x.denominator % p:
            assert field.of(x) == x.numerator * pow(x.denominator, p - 2, p) % p, x
    # a denominator divisible by p has no reduction
    for x in (Fraction(1, p), Fraction(-3, 5 * p), Fraction(p + 1, p * p)):
        with pytest.raises(DomainError, match="bad reduction"):
            field.of(x)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
@pytest.mark.parametrize("entry", ["1/0", "abc"])
def test_a_malformed_entry_string_is_a_domain_error(field, entry):
    """Neither Fraction's ZeroDivisionError nor its ValueError escapes raw."""
    with pytest.raises(DomainError, match="cannot read") as caught:
        Representation(A2, field, (1, 1), [[[entry]]])
    assert type(caught.value) is DomainError


@pytest.mark.parametrize("call, message", [
    (lambda: classify(Quiver(0, [])), "empty quiver"),
    (lambda: Quiver(-1, []), "vertex_count must be nonnegative"),
    (lambda: A2.check_dim_vector((1, -1)), "entries must be >= 0"),
    (lambda: Representation(A2, QQ, (1, 1), []), "expected 1 matrices, got 0"),
    (lambda: simple(A2, QQ, 3), "bad vertex 3"),
    (lambda: projective(A2, QQ, 0), "bad vertex 0"),
    (lambda: direct_sum(), "direct_sum of nothing"),
    (lambda: SubrepWitness(A2, QQ, [[[1]]]), "one basis matrix per vertex"),
    (lambda: build_extension(simple(A2, QQ, 1), simple(A2, QQ, 2), []),
     "one cocycle matrix per arrow"),
    (lambda: nonzero_ext_cocycle(simple(A2, QQ, 2), simple(A2, QQ, 1)), "Ext^1(S,X) = 0"),
    (lambda: reduce_mod(reduce_mod(simple(A2, QQ, 1), 3), 5), "expects a representation over Q"),
    (lambda: interval_rep(A2, QQ, 2, 1), "bad interval (2,1) for n=2"),
    (lambda: IntervalDecomposition(-1, {}), "vertex_count must be nonnegative"),
    (lambda: deg_leq_ranks(IntervalDecomposition(2, {}), IntervalDecomposition(3, {})),
     "different A_n quivers"),
    (lambda: deg_leq_hom(IntervalDecomposition(2, {}), IntervalDecomposition(3, {})),
     "different A_n quivers"),
    (lambda: elliptic.demo(1), "p must be a prime >= 2"),
    (lambda: QQ.of(object()), "cannot coerce"),
    (lambda: A2.check_dim_vector(3), "dimension vector entries must be integers"),
    (lambda: SparsePoly(2, {(1,): 1}), "wrong arity for 2 variables"),
    (lambda: tau_dim(A2, (2, 1)), "(2, 1) is not the dimension vector"),
    (lambda: la.rref([{0: QQ.one}], QQ), "need the column count"),
    (lambda: la.nullspace([[QQ.one, QQ.zero]], QQ, 3), "matrix width 2, expected 3"),
    (lambda: la.rref([{-1: QQ.one}], QQ, 3), "outside range(3)"),
    (lambda: la.nullspace([{-1: QQ.one}], QQ, 3), "outside range(3)"),
    (lambda: la.rank([{5: QQ.one}], QQ, 3), "outside range(3)"),
    # the ladder's own check, worded for every caller of the ladder
    (lambda: f_polynomial(simple(A2, PrimeField(5), 1), strategy="count"),
     "counting polynomials need a representation over Q"),
    (lambda: cluster_character(simple(A2, PrimeField(5), 1), strategy="count"),
     "counting polynomials need a representation over Q"),
], ids=["classify-empty", "negative-vertex-count", "negative-dims", "matrix-count",
        "simple-vertex", "projective-vertex", "empty-direct-sum", "witness-bases",
        "cocycle-count", "ext-zero-cocycle", "reduce-gf-p", "interval-rep",
        "negative-interval-n", "deg-leq-ranks-n", "deg-leq-hom-n", "elliptic-p",
        "qq-of-object", "dims-not-iterable", "exponent-arity", "tau-dim-non-root",
        "rref-dict-rows-no-cols", "nullspace-width", "rref-column-below-0",
        "nullspace-column-below-0", "rank-column-past-cols", "fpoly-count-gf-p", "cc-count-gf-p"])
def test_library_refusals(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert message in str(err.value)
