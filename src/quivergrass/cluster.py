"""F-polynomials, g-vectors, cluster characters, generating extensions, and
the two identities they satisfy: the cluster multiplication formula and the
affine-bundle point-count identity over finite fields.

The Euler characteristic engine is either the type-A cell count (the
generating function of torus fixed points, ``typea.generating_function``) or
finite-field interpolation; where both apply they must agree, and the test
suite asserts that.

Euler characteristics are multiplicative on direct sums: C* scaling the
summand N of M (+) N has the fixed locus of Gr_e(M (+) N) the disjoint union
over f of Gr_f(M) x Gr_(e-f)(N), so F_(M(+)N) = F_M F_N and
CC(M (+) N) = CC(M) CC(N) (Caldero-Chapoton, Comment. Math. Helv. 81, 2006;
Derksen-Weyman-Zelevinsky, J. Amer. Math. Soc. 23, 2010).  The count
strategy interpolates only the direct summands that the given basis shows,
the coordinate blocks the nonzero entries of the arrow matrices join; a
splitting that the basis hides is not searched for, and such a module is
counted whole.  Counting polynomials do not multiply this way, so ``count``
and ``poly`` always count the whole module.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import mul

from . import rep as rp
from . import typea as ta
from .counting import (DEFAULT_BUDGET, _counting_polynomials, count_points,
                       euler_characteristic)
from .errors import DomainError, check_ceiling
from .fields import QQ
from .poly import SparsePoly
from .quiver import euler_form


def exchange_matrix(quiver):
    """Skew-symmetric b[i][j] = #(arrows j -> i) - #(arrows i -> j)."""
    n = quiver.vertex_count
    b = [[0] * n for _ in range(n)]
    for s, t in quiver.arrows:
        b[t - 1][s - 1] += 1
        b[s - 1][t - 1] -= 1
    return tuple(tuple(row) for row in b)


def g_vector(m):
    """(g_M)_i = -<S_i, dim M> = -(d_i - sum of d_t(a) over the arrows a out
    of i), in one pass over the arrows, for a representation or an
    IntervalDecomposition."""
    d = m.dims
    g = [-x for x in d]
    for s, t in m.quiver.arrows:
        g[s - 1] += d[t - 1]
    return tuple(g)


def _sub_dim_vectors(d):
    return itertools.product(*(range(x + 1) for x in d))


def _visible_summands(m):
    """The direct summands of m that its basis shows, with multiplicities.

    Union-find over the pairs (vertex, basis index) joins the source and
    target coordinate of every nonzero matrix entry; each class spans a
    summand, restricted to its coordinates as a representation of the same
    quiver.  Equal summands (``Representation.__eq__``) are counted together,
    in the order of their first coordinate.
    """
    offsets = list(itertools.accumulate(m.dims, initial=0))
    root = list(range(offsets[-1]))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for a, (s, t) in enumerate(m.quiver.arrows):
        for r, row in enumerate(m.matrix(a)):
            for c, x in enumerate(row):
                if x:
                    root[find(offsets[s - 1] + c)] = find(offsets[t - 1] + r)
    classes = {}
    for x in range(offsets[-1]):
        classes.setdefault(find(x), []).append(x)
    summands = Counter()
    for coords in classes.values():
        at = [[x - lo for x in coords if lo <= x < hi]
              for lo, hi in zip(offsets, offsets[1:])]
        mats = [[[m.matrix(a)[r][c] for c in at[s - 1]] for r in at[t - 1]]
                for a, (s, t) in enumerate(m.quiver.arrows)]
        summands[rp.Representation(m.quiver, m.field, tuple(map(len, at)), mats)] += 1
    return summands


def _ladder(m, budget):
    """(e, counting polynomial) for every e <= dim m: every budget is checked
    in this call, and the primes are counted as the returned iterator is read."""
    es = list(_sub_dim_vectors(m.dims))
    return zip(es, _counting_polynomials(m, es, budget=budget))


def euler_char_table(m, strategy="cells", budget=DEFAULT_BUDGET):
    """F_M(y) = sum over e <= dim M of chi(Gr_e(M)) y^e, as a SparsePoly.

    m is a representation or, for an A_n module, its IntervalDecomposition.
    The cells strategy returns ``typea.generating_function`` as it is, its
    terms held as sorted key and coefficient arrays (``poly``).  The count
    strategy uses F_(M(+)N) = F_M F_N (Caldero-Chapoton 2006,
    Derksen-Weyman-Zelevinsky 2010) on the direct summands visible in the
    given basis (``_visible_summands``): each distinct one interpolates a
    counting polynomial per e over Q, all from its own ladder of primes
    (``counting._counting_polynomials``), and F_M is the product of their
    tables, each raised to its multiplicity.  A splitting that the basis
    hides is not used: such a module is one summand and is counted whole.
    Every summand's budget is checked before any summand counts a prime, and
    an e of any summand that is not verified raises DomainError.
    """
    if strategy == "cells":
        return ta.generating_function(
            m if isinstance(m, ta.IntervalDecomposition) else ta.decompose(m))
    if strategy == "count":
        if isinstance(m, ta.IntervalDecomposition):
            m = m.to_representation(QQ)
        # the zero module has no summands and F = 1, counted at e = 0
        summands = _visible_summands(m) or {m: 1}
        # a list, so that every ladder has checked its budgets before one counts
        ladders = [(_ladder(s, budget), k) for s, k in summands.items()]
        factors = []
        for ladder, k in ladders:
            out = {}
            for e, cp in ladder:
                if cp.consistency != "verified":
                    raise DomainError(
                        f"counting polynomial at e={e} is {cp.consistency}, not verified")
                if chi := euler_characteristic(cp):
                    out[e] = chi
            factors += [SparsePoly(m.quiver.vertex_count, out)] * k
        return reduce(mul, factors)
    raise DomainError(f"unknown strategy {strategy!r}")


def f_polynomial(m, strategy="cells", budget=DEFAULT_BUDGET):
    """F_M(y) = sum over e of chi(Gr_e(M)) y^e (``euler_char_table``)."""
    return euler_char_table(m, strategy=strategy, budget=budget)


def cluster_character(m, strategy="cells", budget=DEFAULT_BUDGET):
    """CC_M(x,y) = x^(g_M) F_M(x^(B e_1) y_1, ..., x^(B e_n) y_n), that is
    the sum over e of chi(Gr_e(M)) x^(B e + g_M) y^e.

    A sparse polynomial in 2n variables x_1..x_n, y_1..y_n with the x
    exponents allowed to be negative: F_M under a ring map, applied to its
    key array at once (``SparsePoly.monomial_image``).  m is a representation or
    an IntervalDecomposition, as for ``euler_char_table``.  BudgetError before
    anything is built when the ring map's n images of 2n exponents would be
    above the ceiling (``errors.check_ceiling``).
    """
    n = m.quiver.vertex_count
    check_ceiling(2 * n * n, "the ring map of a cluster character on {} vertices", n)
    b = exchange_matrix(m.quiver)
    return euler_char_table(m, strategy=strategy, budget=budget).monomial_image(
        [tuple(row[j] for row in b) + tuple(int(i == j) for i in range(n)) for j in range(n)],
        g_vector(m) + (0,) * n)


@dataclass
class GeneratingExtension:
    """A generating class xi in Ext^1(S,X) with its middle term and, in the
    nonsplit case, the subobjects controlling the image of the induced map on
    Grassmannians: X_S = Ker(X -> tau S), S^X = Im(tau^- X -> S)."""

    s: object
    x: object
    kind: str               # "split" | "nonsplit"
    y: object
    x_s: object = None      # Representation
    s_x: object = None      # Representation (the subobject S^X of S)
    x_mod_xs: object = None
    s_mod_sx: object = None


def make_generating(s_rep, x_rep):
    """Build the generating extension of S by X (requires dim Ext^1(S,X) <= 1).

    For the nonsplit case X_S and S^X are computed from explicit Hom-space
    bases (kernel of X -> tau S, image of tau^- X -> S); this needs S and X to
    be equioriented type A interval sums so the translates are available.
    """
    ext = rp.ext1_dim(s_rep, x_rep)
    if ext > 1:
        raise DomainError(f"Ext^1(S,X) has dimension {ext} > 1: not generating")
    if ext == 0:
        # the zero cocycle: the middle term is the blockwise direct sum
        return GeneratingExtension(s_rep, x_rep, "split", rp.direct_sum(x_rep, s_rep))
    y, _, _ = rp.build_extension(s_rep, x_rep, rp.nonzero_ext_cocycle(s_rep, x_rep))
    field = s_rep.field
    tau_s = ta.translate(ta.decompose(s_rep), 1).to_representation(field)
    f_basis = rp.hom_basis(x_rep, tau_s)
    if len(f_basis) != 1:
        raise AssertionError(f"[X, tau S] = {len(f_basis)}, expected 1 when Ext^1 = 1")
    xs_w = rp.morphism_kernel_witness(f_basis[0], x_rep, tau_s)
    tau_inv_x = ta.translate(ta.decompose(x_rep), -1).to_representation(field)
    g_basis = rp.hom_basis(tau_inv_x, s_rep)
    if len(g_basis) != 1:
        raise AssertionError(f"[tau^- X, S] = {len(g_basis)}, expected 1 when Ext^1 = 1")
    sx_w = rp.morphism_image_witness(g_basis[0], tau_inv_x, s_rep)
    return GeneratingExtension(
        s_rep, x_rep, "nonsplit", y,
        x_s=rp.restrict(x_rep, xs_w), s_x=rp.restrict(s_rep, sx_w),
        x_mod_xs=rp.quotient(x_rep, xs_w), s_mod_sx=rp.quotient(s_rep, sx_w))


@dataclass
class MultiplicationReport:
    lhs: object
    rhs: object
    residual: object

    @property
    def holds(self):
        return self.residual.is_zero()


def verify_multiplication(ge):
    """Check CC(X) CC(S) = CC(Y) + y^(dim S^X) CC(X_S) CC(S/S^X) exactly.

    The correction is y^(dim S^X) alone: the formula's x^f, f the exponent
    of the injective cokernel I of X/X_S -> tau S^X, is 1.  Ext^1(S, X) = 1
    between interval sums comes from one pair of summands, S' = U[k,l] and X' = U[i,j] with
    k+1 <= i <= l+1 <= j, whose maps X' -> tau S' = U[k+1,l+1] and
    tau^- X' = U[i-1,j-1] -> S' have images X/X_S = U[i,l+1] and
    S^X = U[i-1,l].  So X/X_S = tau S^X and I = 0; AssertionError when the
    isomorphism fails.

    The F-polynomial identity F_X F_S = F_Y + y^(dim S^X) F_(X_S) F_(S/S^X)
    follows: F_M is CC_M at x = 1, and x -> 1 is a ring map.  The report
    carries both sides and the residual (zero iff the identity holds).
    """
    if ge.kind != "nonsplit":
        raise DomainError("the multiplication formula applies to nonsplit extensions")
    if ta.decompose(ge.x_mod_xs) != ta.translate(ta.decompose(ge.s_x), 1):
        raise AssertionError("X/X_S and tau S^X are not isomorphic")
    n = ge.s.quiver.vertex_count
    cc_x, cc_s, cc_y, cc_xs, cc_ssx = (
        cluster_character(m) for m in (ge.x, ge.s, ge.y, ge.x_s, ge.s_mod_sx))
    lhs = cc_x * cc_s
    rhs = cc_y + SparsePoly.monomial((0,) * n + ge.s_x.dims) * cc_xs * cc_ssx
    return MultiplicationReport(lhs, rhs, lhs - rhs)


@dataclass
class PsiCountReport:
    prime_results: list   # (p, lhs, rhs)

    @property
    def holds(self):
        return all(lhs == rhs for _, lhs, rhs in self.prime_results)


def psi_count_identity(ge, e, primes, budget=DEFAULT_BUDGET):
    """Point-count form of the reduction theorem at each given prime:

    #Gr_e(Y) = sum over f+g=e of #Im(Psi)_{f,g} p^<g, dim X - f>,

    where the image over F_p is the full product for a split class and the
    full product minus #Gr_f(X_S) #Gr_{g - dim S^X}(S/S^X) otherwise.
    """
    e = ge.y.quiver.check_dim_vector(e)
    if not primes:
        raise DomainError("the identity needs at least one prime")
    if len(set(primes)) != len(primes):
        raise DomainError(f"repeated primes in {list(primes)}")
    results = []
    for p in primes:
        yp = rp.reduce_mod(ge.y, p)
        lhs = count_points(yp, e, budget=budget)
        xp = rp.reduce_mod(ge.x, p)
        sp = rp.reduce_mod(ge.s, p)
        if ge.kind == "nonsplit":
            xsp = rp.reduce_mod(ge.x_s, p)
            ssxp = rp.reduce_mod(ge.s_mod_sx, p)
        rhs = 0
        for f in _sub_dim_vectors(ge.x.dims):
            g = tuple(a - b for a, b in zip(e, f))
            if any(v < 0 for v in g) or any(a > b for a, b in zip(g, ge.s.dims)):
                continue
            full = count_points(xp, f, budget=budget) * count_points(sp, g, budget=budget)
            excluded = 0
            if ge.kind == "nonsplit":
                g_shift = tuple(a - b for a, b in zip(g, ge.s_x.dims))
                if all(v >= 0 for v in g_shift) and \
                        all(a <= b for a, b in zip(g_shift, ge.s_mod_sx.dims)) and \
                        all(a <= b for a, b in zip(f, ge.x_s.dims)):
                    excluded = count_points(xsp, f, budget=budget) * \
                        count_points(ssxp, g_shift, budget=budget)
            image = full - excluded
            if image == 0:
                continue
            fiber_exp = euler_form(ge.x.quiver, g,
                                   tuple(a - b for a, b in zip(ge.x.dims, f)))
            if fiber_exp < 0:
                raise AssertionError("affine bundle rank came out negative")
            rhs += image * p ** fiber_exp
        results.append((p, lhs, rhs))
    return PsiCountReport(results)
