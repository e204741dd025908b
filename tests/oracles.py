"""Oracles that only the tests use, sharing no code with what they check.

``classify_strata_ff`` groups the enumerated points of Gr_e(M) over F_p by
the Hom fingerprint of the subrepresentation, the finite-field oracle of
``typea.strata`` (which reads strata off torus fixed points).
``injective_cokernel_exponent`` embeds X/X_S into tau S^X by a seeded random
search of Hom and decomposes the cokernel, the oracle of the exponent f that
``cluster`` proves is 0 for interval modules and asserts through the
isomorphism X/X_S = tau S^X.  ``convolve`` multiplies two
polynomials term by term over exponent tuples, the oracle of the packed-key
product ``SparsePoly.__mul__``, and ``substitute`` maps each exponent tuple
through a monomial substitution, the oracle of ``SparsePoly.monomial_image``.
``added`` sums (exponent, coefficient) pairs one at a time, the oracle of
sums, differences and scalar multiples, and ``row_by_tuples`` writes the row
factor of U[i,j] as a dict of dense tuples (``interval_dims``), the oracle
of the 0/1 arrays ``typea.generating_function`` builds its rows from.
``f_identity_sides`` writes both sides of the F-polynomial form of the
multiplication formula with ``convolve``, each F_M the cell count of M: the
oracle of ``cluster.verify_multiplication``, which checks the CC form.
``pretty`` writes sorted terms as text one term at a time, the oracle of the
table-driven ``SparsePoly.format``, and ``specialize_ones`` sums the
coefficients (every variable set to 1).
``poincare_by_points`` and ``strata_by_points`` fold the listed torus fixed
points of ``typea.fixed_points``, one at a time, into the Poincaré
polynomial and the iso-strata: the oracles of the row sweep, which merges
partial points by their suffixes and never lists a point.
``point_witness`` turns a type-A torus fixed point into the subspaces it
spans, so that general linear algebra (arrow stability, tangent spaces) can
check the cell and stratum engines at it.  ``interval_by_arrows`` writes
U[i,j] arrow by arrow, a 1x1 identity on every arrow inside [i, j], the
oracle of ``typea.interval_rep``.  ``interval_direct_sum`` builds an
interval module as the direct sum of one such representation per summand,
the oracle of the block matrices ``IntervalDecomposition.to_representation``
writes at once.  ``coxeter_by_inverse`` is -E^-1 E^T for the Euler matrix E,
inverted over Q by Gaussian elimination (``solve``, with the matrix product
``mul`` and ``neg``), the oracle of the Coxeter matrix ``ardynkin`` reads
off the Euler form and the path counts; ``solve`` is also the Vandermonde
solve that checks ``counting``'s Newton interpolation, and ``mul`` checks
that Hom bases commute with the arrows and composes type-A arrow matrices.
``full_witness`` and ``zero_witness`` are the largest and the smallest
subrepresentation, the edge cases of ``restrict`` and ``quotient``.
``meshes`` reads the meshes off a knitted AR quiver, so that the tests can
check that dimension vectors are additive on them.
``g_vector_from_injective_resolution`` reads g = [I_1] - [I_0] off the
minimal injective resolution (socle dimensions by rank, the multiplicities
of I_1 by ``injective_multiplicities``), the oracle of ``cluster.g_vector``,
which sums over the arrows once.  ``g_vector_by_euler_form`` is its second
oracle, -<S_i, dim M> by one Euler form per unit vector S_i.
``incidence_by_scan`` reads a quiver's incidence by scanning its arrow list
for every question, as ``Quiver`` once did: the oracle of the arrow index
the constructor builds once.
``dense_ext_cocycle`` finds the first unit vector outside the image of the
defect map against its dense transpose, the oracle of the sparse search of
``rep.nonzero_ext_cocycle``.
``hide_summands`` writes a representation in a new basis at every vertex,
one whose arrow matrices join the coordinate blocks of its direct summands:
the input that makes the count strategy of ``cluster.euler_char_table``
count a split module whole, independently of its product over the summands.
``kronecker_preprojective(n)`` is the rigid Kronecker module of dimension
(n, n + 1), written with one 1 per column of each arrow matrix.
``rep_document`` writes an integral representation over Q as the JSON
document of a ``--rep`` file, one entry at a time.
``rank_mod_p`` ranks one integer matrix mod p by Gaussian elimination on
Python ints, row by row: the oracle of the batched, lazily reduced,
fixed-width rank kernel ``counting.batched_rank_mod_p``.
``census`` lists every representation of a dimension vector over F_p with
the closed form of the sum of their point counts, for every e: the oracle
of the counting engines on every degenerate map at once.
``exhaustive_plan`` tries every subset of one side of the sources and
sinks, the planner's search before it became a minimum cut: the oracle of
``counting.plan_count`` and of its tie rules.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

from quivergrass import linalg as la
from quivergrass import (QQ, DomainError, PrimeField, Representation, SubrepWitness, direct_sum,
                         euler_form, hom_basis, hom_dim, kronecker_quiver, linear_quiver,
                         quotient, restrict, zero_rep)
from quivergrass.counting import CountPlan, enumerate_subreps
from quivergrass.poly import SparsePoly
from quivergrass.rep import _unvec, morphism_image_witness, phi_map
from quivergrass.typea import (IntervalDecomposition, Stratum, coefficient_quiver, decompose,
                               fixed_points, generating_function, hom_dim_decs, interval_rep,
                               translate)


def hom_fingerprint(test_family, n_rep):
    """Tuple of Hom dimensions [T, N] over a fixed test family."""
    return tuple(hom_dim(t, n_rep) for t in test_family)


def interval_test_family(n, field):
    """All interval modules of the equioriented A_n quiver, (i,j) lex order."""
    q = linear_quiver(n)
    return [interval_rep(q, field, i, j)
            for i in range(1, n + 1) for j in range(i, n + 1)]


def classify_strata_ff(m_rep, e, test_family=None):
    """Group enumerated witnesses by the Hom fingerprint of their restriction.

    The fingerprint of a witness W is ([T, restrict(M,W)] for T in the test
    family).  For equioriented A_n input the family defaults to all interval
    modules, making the fingerprint a complete isoclass invariant.
    """
    if test_family is None:
        if not m_rep.quiver.is_linear_equioriented():
            raise DomainError("a test family is required away from equioriented A_n")
        test_family = interval_test_family(m_rep.quiver.vertex_count, m_rep.field)
    out = {}
    for w in enumerate_subreps(m_rep, e):
        fp = hom_fingerprint(test_family, restrict(m_rep, w))
        out[fp] = out.get(fp, 0) + 1
    return out


def generic_embedding(n_rep, m_rep, trials=80, seed=11):
    """Witness of the image of an injective morphism N -> M found by seeded
    random sampling of Hom(N, M), or None when no sample is injective."""
    if n_rep.is_zero():
        return zero_witness(m_rep)
    field = n_rep.field
    basis = hom_basis(n_rep, m_rep)
    if not basis:
        return None
    rng = random.Random(seed)
    for trial in range(trials):
        coeffs = [field.of(rng.randint(-2 - trial, 2 + trial)) for _ in basis]
        # the morphism sum_j c_j b_j, one (d_i x e_i) matrix per vertex
        mats = [tuple(tuple(field.of(sum(c * b[i][r][k] for c, b in zip(coeffs, basis)))
                            for k in range(e))
                      for r in range(d))
                for i, (e, d) in enumerate(zip(n_rep.dims, m_rep.dims))]
        if all(la.rank(mat, field) == e for mat, e in zip(mats, n_rep.dims)):
            return morphism_image_witness(mats, n_rep, m_rep)
    return None


def injective_cokernel_exponent(ge):
    """f with I = (+) I_j^(f_j), read off the decomposed cokernel of a found
    embedding X/X_S -> tau S^X; every summand must be an injective U[1,j]."""
    target = translate(decompose(ge.s_x), 1).to_representation(ge.s.field)
    emb = generic_embedding(ge.x_mod_xs, target)
    assert emb is not None, "no embedding X/X_S -> tau S^X found"
    f = [0] * ge.s.quiver.vertex_count
    for (i, j), mult in decompose(quotient(target, emb)).m.items():
        assert i == 1, f"cokernel summand U[{i},{j}] is not injective"
        f[j - 1] += mult
    return tuple(f)


def convolve(p, q):
    """The terms of p * q by the plain double loop over exponent tuples."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def added(*terms):
    """{exponent tuple: coefficient} of iterables of (exponent tuple,
    coefficient) pairs, equal exponents added one pair at a time and zero
    sums dropped: the oracle of ``SparsePoly``'s +, - and scalar * and of its
    constructor given an exponent more than once."""
    out = {}
    for e, c in itertools.chain(*terms):
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def f_identity_sides(ge):
    """F_X F_S and F_Y + y^(dim S^X) F_(X_S) F_(S/S^X) as {exponent:
    coefficient} dicts, for a nonsplit generating extension: each F_M is
    ``generating_function(decompose(M))`` and each product ``convolve``."""
    f_x, f_s, f_y, f_xs, f_ssx = (generating_function(decompose(m))
                                  for m in (ge.x, ge.s, ge.y, ge.x_s, ge.s_mod_sx))
    rhs = dict(f_y.terms)
    for e, c in convolve(f_xs, f_ssx).items():
        e = tuple(a + b for a, b in zip(e, ge.s_x.dims))
        rhs[e] = rhs.get(e, 0) + c
    return convolve(f_x, f_s), {e: c for e, c in rhs.items() if c}


def substitute(p, images, offset):
    """The terms of p under y_j -> x^images[j], times x^offset, one exponent
    tuple at a time."""
    out = {}
    for e, c in p.terms.items():
        x = tuple(o + sum(ej * a[i] for ej, a in zip(e, images)) for i, o in enumerate(offset))
        out[x] = out.get(x, 0) + c
    return {x: c for x, c in out.items() if c}


def pretty(terms, names):
    """Sorted (exponent tuple, coefficient) terms as text, e.g.
    "1 + 2*y2 - y1^-1*y2^2", one term at a time; "0" for no terms."""
    if not terms:
        return "0"
    pieces = []
    for exp, coeff in terms:
        if pieces:
            pieces.append(" - " if coeff < 0 else " + ")
        elif coeff < 0:
            pieces.append("-")
        coeff = abs(coeff)
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(names, exp) if e)
        if not mono:
            pieces.append(str(coeff))
        elif coeff == 1:
            pieces.append(mono)
        else:
            pieces.append(f"{coeff}*{mono}")
    return "".join(pieces)


def specialize_ones(p):
    """The sum of the coefficients of p: its value with every variable 1."""
    return sum(p.terms.values())


def poincare_by_points(dec, e):
    """The coefficients of sum q^(cell dimension) over the listed fixed points."""
    counts = Counter(dim for _, dim in fixed_points(dec, e))
    return tuple(counts[k] for k in range(max(counts, default=-1) + 1))


def strata_by_points(dec, e):
    """The iso-strata as ``typea.strata`` lists them, from the listed fixed
    points grouped by the sorted suffixes (a, j) each one selects."""
    rows = coefficient_quiver(dec)
    classes = Counter(tuple(sorted((a, j) for (_, j), a in zip(rows, pt) if a is not None))
                      for pt, _ in fixed_points(dec, e))
    out = []
    for summands, cells in classes.items():
        iso = IntervalDecomposition(dec.n, Counter(summands))
        out.append(Stratum(iso, hom_dim_decs(iso, dec) - hom_dim_decs(iso, iso), cells))
    out.sort(key=lambda s: (-s.dim, sorted(s.isoclass.m.items())))
    return out


def point_witness(dec, starts, field):
    """The point of Gr_e(M), M = ``dec.to_representation(field)``, spanned by
    the suffixes U[a, j] that ``starts`` selects.

    M is the direct sum of the rows of ``coefficient_quiver(dec)`` in order,
    so at vertex v its coordinates are the rows containing v, in row order;
    the point takes the unit vector of each selected row whose suffix
    contains v.
    """
    rows = coefficient_quiver(dec)
    bases = []
    for v in range(1, dec.n + 1):
        through = [r for r, (i, j) in enumerate(rows) if i <= v <= j]
        units = [k for k, r in enumerate(through) if starts[r] is not None and starts[r] <= v]
        bases.append([[field.one if c == k else field.zero for c in range(len(through))]
                      for k in units])
    return SubrepWitness(linear_quiver(dec.n), field, bases)


def dense_ext_cocycle(s_rep, x_rep):
    """The cocycle of ``rep.nonzero_ext_cocycle`` by the dense route: Phi
    written out, its transpose eliminated, and the unit vectors tested one at
    a time against the dense row space; None when Ext^1(S,X) = 0."""
    phi, cols = phi_map(s_rep, x_rep)
    field = x_rep.field
    nrows = len(phi)
    rows, pivots = la.rref(la.transpose(la.dense(phi, field, cols), cols), field)
    image = la.dense(rows, field, nrows)
    for j in range(nrows):
        unit = tuple(field.one if i == j else field.zero for i in range(nrows))
        if not la.row_space_contains(image, pivots, unit, field):
            return list(_unvec(unit, [(x_rep.dims[t - 1], s_rep.dims[s - 1])
                                      for s, t in x_rep.quiver.arrows]))
    return None


def interval_dims(n, i, j):
    """dim U[i,j] on A_n: 1 at the vertices i, ..., j, 0 elsewhere."""
    return tuple(1 if i <= v <= j else 0 for v in range(1, n + 1))


def row_by_tuples(n, i, j):
    """The row polynomial of U[i,j], the sum of y^dim U[a,j] over a = i, ...,
    j + 1, built from a dict of dense n-tuples: the oracle of the 0/1 exponent
    array ``typea.generating_function`` builds it from."""
    return SparsePoly(n, {interval_dims(n, a, j): 1 for a in range(i, j + 2)})


def interval_by_arrows(quiver, field, i, j):
    """U[i,j] on an A_n quiver, its arrows in any order: [[1]] on each arrow
    inside [i, j], an empty matrix on every other."""
    mats = [((field.one,),) if i <= s and t <= j else () for s, t in quiver.arrows]
    return Representation(quiver, field, interval_dims(quiver.vertex_count, i, j), mats)


def interval_direct_sum(dec, field):
    """``dec`` as ``direct_sum`` of one ``interval_by_arrows`` per summand, in
    ``summands()`` order; the zero module when there are none."""
    q = linear_quiver(dec.n)
    parts = [interval_by_arrows(q, field, i, j) for (i, j) in dec.summands()]
    return direct_sum(*parts) if parts else zero_rep(q, field)


def neg(a, field):
    """-a, entrywise."""
    return tuple(tuple(field.of(-x) for x in row) for row in a)


def mul(a, b, field, cols):
    """The matrix product a @ b, where b has ``cols`` columns: each row of
    the product is b^T times a row of a."""
    bt = la.transpose(b, cols)
    return tuple(la.mat_vec(bt, row, field) for row in a)


def solve(a, b, field):
    """Solve a @ X = b exactly (b may have several columns); None if inconsistent."""
    ca, cb = la.shape(a)[1], la.shape(b)[1]
    rows, pivots = la.rref(la.hstack([a, b]) if ca else b, field)
    if pivots and pivots[-1] >= ca:
        return None
    x = [[field.zero] * cb for _ in range(ca)]
    for row, pc in zip(la.dense(rows, field, ca + cb), pivots):
        x[pc] = list(row[ca:])
    return tuple(tuple(row) for row in x)


def rank_mod_p(rows, p):
    """The rank mod p of an integer matrix given as a list of rows."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def coxeter_by_inverse(quiver):
    """-E^-1 E^T as int tuples, E = I - (arrow counts) inverted by ``solve``
    over Q; AssertionError unless the product is integral."""
    n = quiver.vertex_count
    e = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for s, t in quiver.arrows:
        e[s - 1][t - 1] -= 1
    inv = solve(e, la.identity(n, QQ), QQ)
    c = neg(mul(inv, la.transpose(e, cols=n), QQ, n), QQ)
    assert all(x.denominator == 1 for row in c for x in row), "Coxeter matrix not integral"
    return tuple(tuple(int(x) for x in row) for row in c)


def full_witness(m_rep):
    """The whole of M as a point of its own Grassmannian."""
    q, f = m_rep.quiver, m_rep.field
    return SubrepWitness(q, f, [la.identity(d, f) for d in m_rep.dims])


def zero_witness(m_rep):
    """The zero subrepresentation of M."""
    return SubrepWitness(m_rep.quiver, m_rep.field, [()] * m_rep.quiver.vertex_count)


def meshes(ar):
    """(start, middles, end) for every mesh of the AR quiver ``ar``, where
    end = tau^- start and the middles are the sources of the arrows into end."""
    return [(start, [s for s, t in ar.arrows if t == end], end)
            for end, start in ar.tau.items()]


def socle_dims(m_rep):
    """Per-vertex socle dimensions: kernel of the stacked outgoing maps."""
    q = m_rep.quiver
    return tuple(
        m_rep.dims[v - 1]
        - la.rank(la.vstack([m_rep.matrix(a) for a, _, _ in q.arrows_from(v)]), m_rep.field)
        for v in range(1, q.vertex_count + 1))


def injective_multiplicities(quiver, dims):
    """The nonnegative integer f with sum_k f_k dim I_k = dims.

    The dim I_k are the columns of E^-1 for the Euler matrix E, so f = E dims,
    that is f_v = <e_v, dims>.  AssertionError when some f_v is negative,
    that is when dims is not the dimension vector of an injective module.
    """
    n = quiver.vertex_count
    f = tuple(euler_form(quiver, tuple(int(i == j) for j in range(n)), dims)
              for i in range(n))
    if any(x < 0 for x in f):
        raise AssertionError(f"{tuple(dims)} is not the dimension vector of an injective")
    return f


def g_vector_from_injective_resolution(m_rep):
    """g = [I_1] - [I_0] read from the minimal injective resolution.

    I_0 = (+) I_k^(socle dim at k); the multiplicities of I_1 are solved from
    dim I_1 = dim I_0 - dim M (injective dimension vectors are independent).
    """
    q = m_rep.quiver
    n = q.vertex_count
    a = socle_dims(m_rep)
    inj_dims = q.opposite().projective_dims()
    i0 = tuple(sum(a[k] * inj_dims[k][v] for k in range(n)) for v in range(n))
    i1 = tuple(i0[v] - m_rep.dims[v] for v in range(n))
    return tuple(bv - av for bv, av in zip(injective_multiplicities(q, i1), a))


def g_vector_by_euler_form(m):
    """(g_M)_i = -<S_i, dim M>, one Euler form per unit vector S_i."""
    n = m.quiver.vertex_count
    return tuple(-euler_form(m.quiver, tuple(int(i == j) for j in range(n)), m.dims)
                 for i in range(n))


def incidence_by_scan(quiver):
    """arrows_from, arrows_into and neighbours per vertex, sources, sinks,
    is_connected and topological_order, each read by scanning the arrows."""
    n, arrows = quiver.vertex_count, quiver.arrows
    vertices = range(1, n + 1)
    out = {v: [(i, s, t) for i, (s, t) in enumerate(arrows) if s == v] for v in vertices}
    into = {v: [(i, s, t) for i, (s, t) in enumerate(arrows) if t == v] for v in vertices}
    adj = {v: set() for v in vertices}
    for s, t in arrows:
        adj[s].add(t)
        adj[t].add(s)
    seen, stack = {1}, [1]
    while n and stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    indeg = {v: len(into[v]) for v in vertices}
    queue, order = sorted(v for v in vertices if indeg[v] == 0), []
    while queue:
        v = queue.pop(0)
        order.append(v)
        for _, _, t in out[v]:
            indeg[t] -= 1
            if indeg[t] == 0:
                queue.append(t)
        queue.sort()
    return {"arrows_from": out, "arrows_into": into, "neighbours": adj,
            "sources": [v for v in vertices if v not in {t for _, t in arrows}],
            "sinks": [v for v in vertices if v not in {s for s, _ in arrows}],
            "is_connected": n <= 1 or len(seen) == n, "topological_order": tuple(order)}


def _power(g, k, field, d):
    out = la.identity(d, field)
    for _ in range(k):
        out = mul(out, g, field, d)
    return out


def hide_summands(m_rep):
    """M_a -> g_t M_a g_s^-1 for the arrows a: s -> t, with g_v = (L U)^v at
    vertex v, L and U the lower and upper triangular matrices of ones.

    L U has the entries min(i, j) + 1 > 0, so an identity M_a with t > s
    becomes (L U)^(t - s), a matrix without zeros, and the summands of
    U[1,n]^k are no longer blocks.  L and U have integral inverses, so the
    new module is isomorphic to M over Q and modulo every prime.
    """
    field, dims = m_rep.field, m_rep.dims
    forward, backward = {}, {}
    for v, d in enumerate(dims, 1):
        ones = [[field.of(min(i, j) + 1) for j in range(d)] for i in range(d)]
        u_inv = [[field.of(int(i == j) - int(j == i + 1)) for j in range(d)] for i in range(d)]
        inverse = mul(u_inv, la.transpose(u_inv, d), field, d)
        forward[v], backward[v] = _power(ones, v, field, d), _power(inverse, v, field, d)
    mats = [mul(mul(forward[t], m_rep.matrix(a), field, dims[s - 1]), backward[s], field,
                dims[s - 1])
            for a, (s, t) in enumerate(m_rep.quiver.arrows)]
    return Representation(m_rep.quiver, field, dims, mats)


def rep_document(m_rep):
    """The ``--rep`` document of a representation over Q with integer entries."""
    return {"vertices": m_rep.quiver.vertex_count,
            "arrows": [list(a) for a in m_rep.quiver.arrows], "field": "Q",
            "dims": list(m_rep.dims),
            "matrices": {str(a): [[int(x) for x in row] for row in m_rep.matrix(a)]
                         for a in range(m_rep.quiver.arrow_count)}}


def kronecker_preprojective(n):
    """The rigid Kronecker module of dimension (n, n+1): A = [I; 0], B = [0; I]."""
    a = [[int(i == j) for j in range(n)] for i in range(n + 1)]
    return Representation(kronecker_quiver(2), QQ, (n, n + 1), [a, [[0] * n] + a[:n]])


def q_binomial(n, k, q):
    """The Gaussian binomial [n, k]_q, the number of k-dimensional subspaces
    of F_q^n, as the product of (q^(n-i) - 1) / (q^(i+1) - 1) over i < k."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def census(quiver, d, p):
    """(every representation of quiver with dimension vector d over F_p,
    {e: the sum over them of #Gr_e(M)(F_p)} for every e <= d).

    The sum counts the pairs (M, U), U a subrepresentation of dimension
    vector e, by choosing U first: U_v in [d_v, e_v]_p ways at each vertex,
    and then each arrow matrix must map U_s into U_t, which fixes
    e_s (d_t - e_t) of its d_s d_t entries at 0 (Reineke's double count):

        prod_v [d_v, e_v]_p * p^(sum over arrows of d_s d_t - e_s (d_t - e_t)).
    """
    shapes = [(d[t - 1], d[s - 1]) for s, t in quiver.arrows]
    field = PrimeField(p)
    modules = []
    for entries in itertools.product(range(p), repeat=sum(r * c for r, c in shapes)):
        it = iter(entries)
        modules.append(Representation(quiver, field, d, [[[next(it) for _ in range(c)]
                                                           for _ in range(r)]
                                                          for r, c in shapes]))
    sums = {}
    for e in itertools.product(*(range(x + 1) for x in d)):
        total = p ** sum(d[s - 1] * d[t - 1] - e[s - 1] * (d[t - 1] - e[t - 1])
                         for s, t in quiver.arrows)
        for x, y in zip(d, e):
            total *= q_binomial(x, y, p)
        sums[e] = total
    return modules, sums


def exhaustive_plan(quiver, dims, e, p):
    """The counting plan found by trying every subset of the smaller side of
    the non-isolated sources and sinks, smallest subsets first, keeping the
    first plan of least (estimate, number of enumerated vertices): the oracle
    of the minimum cut of ``counting.plan_count``, and of its tie rules."""
    n = quiver.vertex_count
    cost = {v: q_binomial(dims[v - 1], e[v - 1], p) for v in range(1, n + 1)}
    neighbours = {v: quiver.neighbours(v) for v in range(1, n + 1)}
    isolated = {v for v in neighbours if not neighbours[v]}
    side = [v for v in quiver.sources() if v not in isolated]
    other = [v for v in quiver.sinks() if v not in isolated]
    if len(side) > len(other):
        side, other = other, side
    choices = [v for v in side if cost[v] > 1]
    best = None
    for k in range(len(choices) + 1):
        for chosen in itertools.combinations(choices, k):
            blocked = set().union(*(neighbours[v] for v in chosen))
            summed = isolated | set(chosen) | {v for v in other if v not in blocked}
            rest = [v for v in quiver.topological_order if v not in summed]
            estimate = 1
            for v in rest:
                estimate *= cost[v]
            if best is None or (estimate, len(rest)) < (best.estimate, len(best.enumerated)):
                # the search runs over the cheap vertices first, the leaf is the dearest
                rest.sort(key=lambda v: cost[v])
                best = CountPlan(tuple(rest), tuple(sorted(summed)), estimate)
    return best
