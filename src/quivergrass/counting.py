"""Point counts of quiver Grassmannians over prime fields: engine and oracle.

``enumerate_subreps`` is the independent oracle of the package: it enumerates
subspace tuples as reduced-row-echelon bases and tests each for arrow
stability through ``rep.arrow_stable``, not through the engine's numpy test
(``_PlannedCount._stable``), with no input from the structural algorithms it
validates.

Enumeration order is fixed (pivot patterns in colexicographic order, free
entries odometer-style, vertices ascending) so golden tests are stable.

Counting (``count_points``) does not enumerate every vertex.  Once the
neighbours of a sink t are chosen, the admissible U_t are the e_t-spaces
containing the span of the images, r-dimensional say: [d_t - r, e_t - r]_p of
them.  Dually (Gr_e(M) = Gr_{d-e}(DM)), once the targets of a source s are
chosen, the admissible U_s are the e_s-spaces inside the intersection of the
preimages M_a^-1(U_t), of codimension r say: [d_s - r, e_s]_p of them.
``plan_count`` picks an independent set of sources and sinks to sum this way,
minimising the product of Gaussian binomials over the vertices still
enumerated, once a floor under every plan's product (``_plan_floor``) fits the
budget; the executor runs one depth-first search over those, testing each
vertex a numpy batch at a time.  A summed source w is ranked through Psi, its
arrow matrices stacked, whose rank R and left-kernel basis C
(``_left_kernel``) are found once per count: r = R - sum_a e_t(a) + rank of C
restricted to the sum V of the U_t, a (sum e_t) x (sum d_t - R) matrix per
tuple.  An arrow s -> t between two enumerated vertices is tested on the
RREF bases alone: M_a U_s lies in U_t when every row of B_s M_a^T, reduced
against B_t, leaves no residue (``_outside``).  A batch is a fixed number of
rows that runs across pivot patterns, so the cost of a count follows its rows
and not its batches.  The rows of the last vertex are grouped by their rank
vector (one lexsort over its columns, whatever their number), so every
distinct product of Gaussian binomials is formed once and every sum and
product is taken exactly in Python ints.  The
ranks come from ``batched_rank_mod_p``, one lazily reduced forward elimination
per batch.  Every array of the search and of the rank kernel runs at the
narrowest exact width, ``_residue_dtype(p, n)``: int16, then int32, then
int64, and Python ints (dtype=object) beyond, by the one bound n (p-1)**2 <
max of the width, n the largest dimension (1 for the rank kernel).  At n = 1
the edges are p = 181 | 191, 46337 | 46349 and 3037000493 | 3037000507; the
elliptic representation (n = 10) runs at int16 up to p = 53.  Exhaustive
(``enumerate_subreps``) and planned counts are cross-asserted on random small
representations in the test suite.

A counting polynomial (``counting_polynomial``) is the interpolant of counts
at D + 1 primes, D the degree bound, by Newton divided differences in exact
integers, checked against one more prime.  ``_counting_polynomials`` runs
it for every e of ``cluster.euler_char_table`` too, once per direct summand
the basis shows: one ladder of primes, M reduced once per prime, and every
e's budget checked before the first count.  Its coefficients are the Betti
numbers of Gr_e(M) only when Gr_e(M) has an affine paving (Lecture 3: the
cells of ``typea.poincare_polynomial``) or is pure, and neither is checked
here: the nodal cubic, a quiver Grassmannian, counts q with b_0 = b_1 = b_2 = 1.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from . import rep as rp
from .errors import DEFAULT_BUDGET, BudgetError, DomainError, integer
from .fields import PrimeField, QQ, _is_prime
_CHUNK = 1 << 15  # matrices per batch of ``SubspaceIter.batches``


def gaussian_binomial(d, e, p):
    """Number of e-dimensional subspaces of F_p^d (0 when e is out of range)."""
    if e < 0 or e > d:
        return 0
    num = den = 1
    for i in range(e):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


def pivot_patterns(d, e):
    """All e-subsets of columns 0..d-1 in colexicographic order."""
    return sorted(itertools.combinations(range(d), e), key=lambda J: tuple(reversed(J)))


def free_positions(pattern, d):
    """Free entries of an RREF matrix with the given pivot columns, row-major."""
    piv = set(pattern)
    out = []
    for r, j in enumerate(pattern):
        for c in range(j + 1, d):
            if c not in piv:
                out.append((r, c))
    return out


class SubspaceIter:
    """Iterator over all e-dimensional subspaces of F_p^d as RREF bases."""

    def __init__(self, d, e, p):
        d, e = integer(d, "subspace dimensions"), integer(e, "subspace dimensions")
        if e < 0 or e > d:
            raise DomainError(f"subspace dimension {e} out of range 0..{d}")
        self.d, self.e, self.p = d, e, PrimeField(p).p

    def __iter__(self):
        d, e, p = self.d, self.e, self.p
        for pattern in pivot_patterns(d, e):
            free = free_positions(pattern, d)
            base = [[0] * d for _ in range(e)]
            for r, j in enumerate(pattern):
                base[r][j] = 1
            for values in itertools.product(range(p), repeat=len(free)):
                m = [row[:] for row in base]
                for (r, c), v in zip(free, values):
                    m[r][c] = v
                yield tuple(tuple(row) for row in m)

    def batches(self):
        """Same subspaces, same order, as int64 arrays of shape (m, e, d).

        Every batch but the last holds exactly ``_CHUNK`` matrices; a batch
        runs on from one pivot pattern into the next.  Each batch is
        allocated once, zeroed, and its run of each pattern is written into
        its slice in place.
        """
        d, e, p = self.d, self.e, self.p
        left = gaussian_binomial(d, e, p)
        mats, fill = None, 0
        for pattern in pivot_patterns(d, e):
            free = free_positions(pattern, d)
            k = len(free)
            total, start = p ** k, 0
            while start < total:
                if mats is None:
                    mats, fill = np.zeros((min(_CHUNK, left), e, d), dtype=np.int64), 0
                stop = min(start + mats.shape[0] - fill, total)
                run = mats[fill:fill + stop - start]
                run[:, range(e), list(pattern)] = 1
                if k:
                    digits = np.unravel_index(np.arange(start, stop), (p,) * k)
                    for idx, (r, c) in enumerate(free):
                        run[:, r, c] = digits[idx]
                fill += stop - start
                left -= stop - start
                start = stop
                if fill == mats.shape[0]:
                    yield mats
                    mats = None


def _residue_dtype(p, n):
    """The narrowest of int16, int32 and int64 in which residues mod p are
    exact, for sums of n products of two residues; object (Python ints) beyond.

    A width w holds when n (p-1)**2 < max_w, so that a matrix product summing
    at most n products of entries reduced below p cannot wrap, and when the
    rank kernel's lazy interval k = (max_w - p) // (p-1)**2 is at least 1 (see
    ``batched_rank_mod_p``).  The width is a function of p and n alone.  At
    n = 1 the edges are p = 181 | 191 (int16 | int32), 46337 | 46349
    (int32 | int64) and 3037000493 | 3037000507 (int64 | object); at n = 10,
    int16 holds up to p = 53.
    """
    square = (p - 1) ** 2
    for dtype in (np.int16, np.int32, np.int64):
        top = np.iinfo(dtype).max
        if max(n, 1) * square < top and (top - p) // square >= 1:
            return dtype
    return object


def _residue_stack(mats, p):
    """A stack (m, r, c) of integer matrices as a reduced (cols, rows, m) copy.

    The stack is transposed when it is wide, so that rows >= cols, and laid
    out column first and matrix index last, so that a column, a pivot row
    and a trailing block of the elimination are each contiguous.  The dtype
    is ``_residue_dtype(p, 1)`` and every entry lies in [0, p).  A stack
    with an entry outside [0, p) is reduced before it is narrowed, so no entry
    wraps: a numpy integer stack in its own width (uint64, or int64 for every
    other one), a stack of Python ints or of numpy integers held as objects,
    or any stack bound for object, as Python ints.  A non-integer stack is
    refused.
    """
    dtype = _residue_dtype(p, 1)
    a = np.asarray(mats)
    if a.dtype.kind == "O":
        if not all(isinstance(x, (int, np.integer)) for x in a.flat):
            raise DomainError("batched_rank_mod_p needs integer entries")
        a = np.array([int(x) % p for x in a.flat], dtype=object).reshape(a.shape)
    elif a.dtype.kind not in "biu":
        raise DomainError(f"batched_rank_mod_p needs integer entries, not {a.dtype}")
    elif dtype is object:
        a = a.astype(object) % p
    elif a.size and (a.min() < 0 or a.max() >= p):
        a = a.astype(np.uint64 if a.dtype == np.uint64 else np.int64) % p
    _, rows, cols = a.shape
    return a.transpose((2, 1, 0) if rows >= cols else (1, 2, 0)).astype(dtype, order="C")


def _inverses(x, p):
    """x**(p-2) mod p elementwise: the inverses of nonzero residues (Fermat)."""
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = out * x % p
        e >>= 1
        if e:
            x = x * x % p
    return out


def batched_rank_mod_p(mats, p):
    """Ranks mod p of a stack of integer matrices, shape (m, rows, cols).

    One forward elimination runs over the whole stack, with the narrow side
    as the columns (a wide stack is ranked transposed).  Per matrix a mask
    keeps the rows not yet used as pivots; no row is swapped or copied out.
    At column c only that column and the pivot row are reduced mod p, the
    pivot row is scaled by the inverse of its pivot (a Fermat power, computed
    for the whole column at once), and only the columns right of c of the
    rows still free are updated.  The trailing block is reduced once every
    k steps (see ``_residue_dtype``), so int64 is exact up to p = 3037000493
    and Python ints take over beyond.  Returns the ranks as int64, shape
    (m,).  DomainError for a stack of non-integer dtype or a p that
    ``PrimeField`` refuses.
    """
    p = PrimeField(p).p
    a = _residue_stack(mats, p)
    cols, rows, m = a.shape
    rank = np.zeros(m, dtype=np.int64)
    # Python ints cannot overflow: their block is never reduced
    lazy = cols if a.dtype == object else (np.iinfo(a.dtype).max - p) // (p - 1) ** 2
    free = np.ones((rows, m), dtype=bool)
    update = np.empty_like(a)
    at = np.arange(m)
    steps = 0
    for c in range(cols):
        col = a[c] % p
        usable = free & (col != 0)
        piv = usable.argmax(axis=0)
        has = usable[piv, at]
        rank += has
        if c + 1 == cols or not has.any():
            continue
        free[piv, at] &= ~has
        scale = _inverses(col[piv, at], p) * has
        pivot_row = a[c + 1:, piv, at] % p * scale % p
        a[c + 1:] -= np.multiply(pivot_row[:, None], col * free, out=update[c + 1:])
        steps += 1
        if steps % lazy == 0:
            a[c + 1:] %= p
    return rank


def _left_kernel(mat, p):
    """(R, C) for an (h, n) matrix over GF(p) with entries in [0, p): its rank
    R and a basis C of its left kernel, (h - R, h), entries in [0, p).

    One forward elimination of [mat | I_h] in numpy, whose rows with the
    left part eliminated are the basis.  As in ``batched_rank_mod_p``, only
    the pivot column and the pivot row are reduced at each step, and the rows
    below once every k steps, so int64 is exact up to p = 3037000493 and
    Python ints take over beyond.
    """
    h, n = mat.shape
    dtype = np.int64 if _residue_dtype(p, 1) != object else object
    a = np.concatenate([mat, np.eye(h, dtype=mat.dtype)], axis=1).astype(dtype)
    lazy = n if dtype == object else (np.iinfo(dtype).max - p) // (p - 1) ** 2
    rank = 0
    for c in range(n):
        col = a[rank:, c] % p
        nonzero = np.flatnonzero(col)
        if not nonzero.size:
            continue
        top = rank + nonzero[0]
        a[[rank, top]] = a[[top, rank]]
        col[[0, nonzero[0]]] = col[[nonzero[0], 0]]
        pivot_row = a[rank, c + 1:] % p * pow(int(col[0]), -1, p) % p
        a[rank + 1:, c + 1:] -= col[1:, None] * pivot_row
        rank += 1
        if rank == h:
            break
        if rank % lazy == 0:
            a[rank:] %= p
    return rank, a[rank:, n:] % p


def _require_prime_field(m_rep):
    if not isinstance(m_rep.field, PrimeField):
        raise DomainError("finite-field enumeration needs a representation over GF(p)")
    return m_rep.field.p


def check_sub_dim_vector(m_rep, e):
    """e as a dimension vector of m_rep's quiver; DomainError unless e <= dim M."""
    e = m_rep.quiver.check_dim_vector(e)
    if any(x > d for x, d in zip(e, m_rep.dims)):
        raise DomainError(f"e={e} exceeds dim M={m_rep.dims}")
    return e


def enumerate_subreps(m_rep, e, budget=DEFAULT_BUDGET):
    """All subrepresentation witnesses of dimension vector e, materialized."""
    p = _require_prime_field(m_rep)
    e = check_sub_dim_vector(m_rep, e)
    q, field = m_rep.quiver, m_rep.field
    estimate = 1
    for v in range(q.vertex_count):
        estimate *= gaussian_binomial(m_rep.dims[v], e[v], p)
    _check_budget(estimate, budget)
    # each vertex's candidates as (RREF basis, pivot columns)
    per_vertex = [[(b, la.rref(b, field)[1]) for b in SubspaceIter(m_rep.dims[v], e[v], p)]
                  for v in range(q.vertex_count)]
    out = []
    for choice in itertools.product(*per_vertex):
        bases = [b for b, _ in choice]
        if rp.arrow_stable(m_rep, bases, [piv for _, piv in choice]):
            out.append(rp.SubrepWitness(q, field, bases))
    return out


@dataclass(frozen=True)
class CountPlan:
    """How count_points counts: vertices enumerated (search order, leaf last),
    sources and sinks summed in closed form, and the enumeration estimate."""

    enumerated: tuple
    summed: tuple
    estimate: int


def plan_count(quiver, dims, e, p, budget=None):
    """The independent set of sources and sinks whose summing leaves the fewest
    tuples to enumerate, the product of [d_v, e_v]_p over the others.

    Sources are never adjacent to sources, nor sinks to sinks, so a plan is
    fixed by its summed sources (or sinks): every sink (source) not adjacent
    to one of them is summed too.  All subsets of the smaller side are
    tried.  Isolated vertices are always summed; summing a vertex with a
    single subspace (e_v in {0, d_v}) saves nothing, so none is tried.

    Given a budget, BudgetError unless the plan's estimate fits it: the
    floor under every plan's estimate (``_plan_floor``) is checked before any
    subset is tried, and where no plan attains the floor the message says the
    estimate is at least it.
    """
    n = quiver.vertex_count
    cost = {v: gaussian_binomial(dims[v - 1], e[v - 1], p) for v in range(1, n + 1)}
    if budget is not None:
        floor, attained = _plan_floor(quiver, cost)
        _check_budget(floor, budget, attained)
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
    if budget is not None:
        _check_budget(best.estimate, budget)
    return best


def _plan_floor(quiver, cost):
    """(a lower bound on the estimate of every plan, whether a plan attains
    it), from the vertex costs [d_v, e_v]_p, without trying any subset.

    Every plan enumerates each vertex that is neither a source nor a sink.
    It sums an independent set, so it enumerates an end of each arrow from a
    source to a sink; over a matching of such arrows, taken greedily dearest
    first, those ends are distinct vertices.  The bound is the product of the
    interior costs and of min(c_s, c_t) over the matching.  The plan that
    enumerates exactly these vertices, the cheaper end of each matched arrow,
    attains it unless it leaves both ends of a source -> sink arrow summed.
    """
    sources, sinks = set(quiver.sources()), set(quiver.sinks())
    floor, enumerated, matched = 1, set(), set()
    for v, c in cost.items():
        if v not in sources and v not in sinks:
            floor *= c
    ends = [(min(cost[s], cost[t]), s, t) for s, t in quiver.arrows
            if s in sources and t in sinks]
    ends.sort(key=lambda end: end[0], reverse=True)
    for c, s, t in ends:
        if s not in matched and t not in matched:
            matched |= {s, t}
            floor *= c
            enumerated.add(s if cost[s] == c else t)
    return floor, all(s in enumerated or t in enumerated for _, s, t in ends)


def _check_budget(estimate, budget, exact=True):
    """BudgetError when estimate > budget; an estimate that is only a lower
    bound (not exact) is written as at least its size.  An estimate of more
    than 30 digits is written ~10^k, k = log10 2^(b - 1/2) rounded for its
    bit length b, so the message stays short and no long int is converted to
    text; ``BudgetError.estimate`` is the estimate, in full."""
    if estimate > budget:
        size = estimate if estimate < 10 ** 30 else \
            f"10^{round((estimate.bit_length() - 0.5) * 0.30103)}"
        raise BudgetError(f"enumeration of {'' if exact else 'at least '}~{size} tuples "
                          f"exceeds budget {budget}", estimate=estimate)


def count_points(m_rep, e, budget=DEFAULT_BUDGET):
    """Number of points of the Grassmannian of e-dimensional subreps over F_p.

    The count follows ``plan_count``: the summed sources and sinks each
    contribute a Gaussian-binomial factor and only the other vertices are
    enumerated.  The plan is checked against the budget, unless it is None
    (a caller that has checked a bound on it already).
    """
    p = _require_prime_field(m_rep)
    e = check_sub_dim_vector(m_rep, e)
    plan = plan_count(m_rep.quiver, m_rep.dims, e, p, budget)
    return _PlannedCount(m_rep, e, plan).total()


def _mul(a, b, p):
    return np.matmul(a, b) % p


def _differ(a, b):
    """Per row of two 2-d arrays of one width, whose first axes broadcast,
    whether they differ in some entry: an OR of one column compare at a
    time, which on the short rows of a batch is several times faster than
    ``.any`` over them.
    """
    out = np.zeros(max(a.shape[0], b.shape[0]), dtype=bool)
    for j in range(a.shape[1]):
        out |= a[:, j] != b[:, j]
    return out


def _outside(x, basis, p):
    """Per matrix, whether some row of x lies outside the row space of the
    RREF basis beside it, both with entries in [0, p).

    As in ``la.reduce_by``: x taken at the basis's pivot columns (each row's
    leading column) times the basis is x itself exactly when x lies in the
    row space.  One of x and basis is a stack (m, k, d) or (m, e, d), the
    other a single matrix or a stack of the same m.
    """
    x, basis = (a if a.ndim == 3 else a[None] for a in (x, basis))
    at = np.take_along_axis(x, (basis != 0).argmax(axis=2)[:, None], axis=2)
    residue = _mul(at, basis, p)
    return _differ(*(a.reshape(a.shape[0], a.shape[1] * a.shape[2]) for a in (x, residue)))


def _rank_groups(ranks):
    """The distinct rows of a nonempty (m, w) integer array with their counts.

    One lexsort over the w columns and a diff at the group boundaries: exact
    for any w, with no packed key to overflow.
    """
    if ranks.shape[1]:
        ranks = ranks[np.lexsort(ranks.T)]
    starts = np.flatnonzero(np.r_[True, _differ(ranks[1:], ranks[:-1])])
    return ranks[starts], np.diff(np.r_[starts, ranks.shape[0]])


class _PlannedCount:
    """The executor of a CountPlan: a depth-first search over the enumerated
    vertices, each tested a batch of subspaces at a time.

    A chosen vertex holds its RREF basis and nothing else.  Each arrow
    s -> t between two enumerated vertices is tested when its later endpoint
    is drawn, unless U_s = 0 (e_s = 0) or U_t is the whole space (e_t = d_t),
    by reducing B_s M_a^T against B_t (``_outside``).  Each summed vertex has
    one rank form, built once per count: a sink the transposes of its arrows
    into it, a source the left kernel of its stacked arrows
    (``_left_kernel``, ``_cokernel``).  It is ranked when its last neighbour
    is drawn.  The rows of the leaf are grouped by their rank vector
    (``_rank_groups``), so each distinct product of Gaussian binomials is
    formed once, in Python ints.
    """

    def __init__(self, m_rep, e, plan):
        q = self.quiver = m_rep.quiver
        self.p, self.dims, self.e, self.plan = m_rep.field.p, m_rep.dims, e, plan
        self.dtype = _residue_dtype(self.p, max(self.dims, default=1))
        self.mats = [np.array(m_rep.matrix(a), dtype=self.dtype).reshape(
            self.dims[t - 1], self.dims[s - 1]) for a, (s, t) in enumerate(q.arrows)]
        self.sinks = set(q.sinks())
        self.forms = {w: (0, self.dims[w - 1], [(s, self.mats[a].T)
                                                for a, s, _ in q.arrows_into(w)])
                      if w in self.sinks else self._cokernel(w) for w in plan.summed}
        pos = {v: i for i, v in enumerate(plan.enumerated)}
        self.completes = {v: [] for v in plan.enumerated}
        self.tests = {v: [] for v in plan.enumerated}
        for a, (s, t) in enumerate(q.arrows):
            if s in pos and t in pos and e[s - 1] and e[t - 1] < self.dims[t - 1]:
                self.tests[max(s, t, key=pos.__getitem__)].append((a, s, t))
        self.subspaces = {v: SubspaceIter(self.dims[v - 1], e[v - 1], self.p)
                          for v in plan.enumerated}
        self.constant = 1
        for w in plan.summed:
            if around := q.neighbours(w):
                self.completes[max(around, key=pos.__getitem__)].append(w)
            else:
                self.constant *= gaussian_binomial(self.dims[w - 1], e[w - 1], self.p)
        self.chosen = {}

    def _cokernel(self, w):
        """(R - sum_a e_t(a), K, [(t(a), C_a^T)]) for a summed source w.

        Psi stacks the arrow matrices M_a out of w (parallel arrows apart), R
        is its rank and C, K x sum_a d_t(a) with K = sum_a d_t(a) - R, a
        basis of its left kernel, so that im Psi = ker C.  For V the sum of
        the U_t(a), dim Psi^-1(V) = dim ker Psi + dim V - rank(C|_V): the
        codimension of the intersection of the M_a^-1(U_t(a)) is R - sum_a
        e_t(a) + rank of the (sum_a e_t(a)) x K matrix [B_t(a) C_a^T]_a, B_t
        the basis rows of U_t.
        """
        arrows = self.quiver.arrows_from(w)
        rank, c = _left_kernel(np.concatenate([self.mats[a] for a, _, _ in arrows]), self.p)
        c = c.astype(self.dtype)
        blocks, top = [], 0
        for _, _, t in arrows:
            blocks.append((t, c[:, top:top + self.dims[t - 1]].T))
            top += self.dims[t - 1]
        return rank - sum(self.e[t - 1] for _, _, t in arrows), c.shape[0], blocks

    def total(self):
        """The constant times the sum, over the chosen rows of the vertices
        above the leaf, of their factors times the leaf's sum below them.

        The search keeps one row iterator (``_rows``) per enumerated vertex
        above the leaf on an explicit stack, with the product of the factors
        chosen above it, so its depth is not bounded by the interpreter's
        recursion limit.
        """
        if not self.constant or not self.plan.enumerated:
            return self.constant
        leaf = len(self.plan.enumerated) - 1
        if not leaf:
            return self.constant * self._leaf()
        total = 0
        stack = [(self._rows(0), self.constant)]
        while stack:
            rows, weight = stack[-1]
            factor = next(rows, 0)
            if not factor:
                stack.pop()
            elif len(stack) == leaf:
                total += weight * factor * self._leaf()
            else:
                stack.append((self._rows(len(stack)), weight * factor))
        return total

    def _batches(self, v):
        """Per batch of subspaces at v with a stable row: the stable rows, as
        RREF bases, and their ranks at the vertices that v completes, one
        column each."""
        for batch in self.subspaces[v].batches():
            batch = batch.astype(self.dtype, copy=False)
            ok = self._stable(v, batch)
            if ok is not None and not ok.all():
                keep = np.flatnonzero(ok)
                if not keep.size:
                    continue
                batch = batch[keep]
            completes = self.completes[v]
            ranks = np.stack([self._rank(w, v, batch) for w in completes], axis=1) \
                if completes else np.zeros((batch.shape[0], 0), dtype=np.int64)
            yield batch, ranks

    def _rows(self, k):
        """The nonzero factors of the rows of the k-th enumerated vertex, in
        order; each row is the vertex's choice while its factor is current."""
        v = self.plan.enumerated[k]
        completes = self.completes[v]
        for batch, ranks in self._batches(v):
            for i, row in enumerate(ranks):
                factor = self._factor(completes, row)
                if factor:
                    self.chosen[v] = batch[i]
                    yield factor

    def _leaf(self):
        """The sum over the rows of the last enumerated vertex of their factors,
        each distinct rank vector formed once (``_rank_groups``)."""
        v = self.plan.enumerated[-1]
        completes = self.completes[v]
        total = 0
        for _, ranks in self._batches(v):
            for row, count in zip(*_rank_groups(ranks)):
                total += int(count) * self._factor(completes, row)
        return total

    def _stable(self, v, batch):
        """Rows of the batch at v mapping into, and mapped into by, the chosen
        neighbours, M_a U_s in U_t: no row of B_s M_a^T lies outside the row
        space of B_t (``_outside``), whichever of s and t is v.  None when no
        arrow at v is tested."""
        ok = None
        for a, s, t in self.tests[v]:
            x = _mul(batch if s == v else self.chosen[s], self.mats[a].T, self.p)
            passed = ~_outside(x, batch if t == v else self.chosen[t], self.p)
            ok = passed if ok is None else ok & passed
        return ok

    def _rank(self, w, v, batch):
        """Per row of the batch at v: offset + the rank of the stacked B_u Y
        over the rank form (offset, width, [(u, Y)]) of the summed vertex w.
        For a sink that is the rank r of the images, B_s M_a^T; for a source
        the codimension r of the intersection of the M_a^-1(U_t), R - sum e_t
        plus the rank of the stacked B_t C_a^T (``_cokernel``).

        Each product is written into its rows of one preallocated stack, so
        no piece is held beside the stack while it is ranked.
        """
        offset, width, blocks = self.forms[w]
        factors = [(batch if u == v else self.chosen[u], y) for u, y in blocks]
        stack = np.empty((batch.shape[0], sum(x.shape[-2] for x, _ in factors), width),
                         dtype=self.dtype)
        top = 0
        for x, y in factors:
            rows = stack[:, top:top + x.shape[-2]]
            if x.ndim == 3:
                np.matmul(x, y, out=rows)
                rows %= self.p
            else:
                rows[:] = _mul(x, y, self.p)
            top += x.shape[-2]
        return offset + batched_rank_mod_p(stack, self.p)

    def _factor(self, summed, ranks):
        """Product of the Gaussian-binomial factors of summed vertices at their ranks."""
        out = 1
        for w, r in zip(summed, ranks):
            d, ew, r = self.dims[w - 1], self.e[w - 1], int(r)
            out *= gaussian_binomial(d - r, ew - r if w in self.sinks else ew, self.p)
        return out


@dataclass(frozen=True)
class CountPoly:
    """Integer counting polynomial in q with a consistency verdict.

    coefficients are ascending powers of q; consistency is "verified" when a
    held-out prime reproduced the interpolation, "assumed" when no held-out
    prime was available, "inconsistent" when interpolation or the held-out
    check failed (coefficients are then empty).  The coefficients are Betti
    numbers only given an affine paving (Lecture 3) or purity.
    """

    coefficients: tuple
    consistency: str
    primes: tuple = ()
    counts: tuple = ()
    held_out: tuple = ()
    skipped_primes: tuple = ()

    def evaluate(self, q):
        return sum(c * q ** i for i, c in enumerate(self.coefficients))


def _newton_interpolation(xs, ys):
    """The polynomial of degree < len(xs) through the integer points (x, y),
    as ascending integer coefficients, or None when they are not all integers.

    The divided differences are formed in place, O(len(xs)**2) exact integer
    divisions.  The interpolant is integral exactly when every divided
    difference is an integer (each one of an integral polynomial at integer
    nodes is a sum of its coefficients times monomials in the nodes), so the
    first inexact division answers None.  The Newton form is then expanded
    by Horner's rule.
    """
    diffs = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            num, den = diffs[i] - diffs[i - 1], xs[i] - xs[i - k]
            if num % den:
                return None
            diffs[i] = num // den
    poly = [diffs[-1]]
    for x, c in zip(xs[-2::-1], diffs[-2::-1]):
        # poly * (q - x) + c
        poly = [c - x * poly[0]] + [a - x * b for a, b in zip(poly, poly[1:])] + [poly[-1]]
    return poly


def counting_polynomial(m_rep, e, primes=None, budget=DEFAULT_BUDGET):
    """Interpolate #Gr_e(M) over F_p through enough good-reduction primes.

    M lives over Q; the degree bound is D = sum e_i (d_i - e_i), so D+1 primes
    interpolate (exact Newton divided differences in integers) and one more
    is held out for the consistency check.  A prime where M has bad
    reduction is skipped.  The budget is checked once, at the largest of these
    primes, before any is counted.  Given primes must be distinct primes
    (DomainError otherwise).  This is ``_counting_polynomials`` at one e.
    """
    return next(_counting_polynomials(m_rep, [e], primes, budget))


def _counting_polynomials(m_rep, es, primes=None, budget=DEFAULT_BUDGET):
    """The counting polynomials of M at every e of es, in that order, from one
    ladder of primes: the given ones, or 2, 3, 5, ... until max_e D_e + 2
    have good reduction.  M is reduced once per prime.

    Each e interpolates at the first D_e + 1 good primes of the ladder and
    holds out the next one; its skipped primes are the bad ones below its
    last prime, or all of them when the primes are given.  Every e's budget
    is checked at its largest prime before anything is counted; the counts
    then run e by e, lazily, as the returned iterator is read.
    """
    if m_rep.field != QQ:
        raise DomainError("counting polynomials need a representation over Q")
    es = [check_sub_dim_vector(m_rep, e) for e in es]
    bounds = [sum(ei * (di - ei) for ei, di in zip(e, m_rep.dims)) for e in es]
    if primes is not None and len(set(primes)) != len(primes):
        raise DomainError(f"repeated primes in {list(primes)}")
    reductions, bad, wanted = [], [], max(bounds, default=0) + 2
    for p in filter(_is_prime, itertools.count(2)) if primes is None else primes:
        if primes is None and len(reductions) == wanted:
            break
        p = PrimeField(p).p  # DomainError unless p is a prime
        try:
            reductions.append(rp.reduce_mod(m_rep, p))
        except DomainError:
            bad.append(p)
    plans = []
    for e, bound in zip(es, bounds):
        used = reductions[:bound + 2]
        if len(used) < bound + 1:
            raise DomainError(f"need at least {bound + 1} good-reduction primes, "
                              f"have {len(used)}")
        # [d, e]_p has nonnegative coefficients in p, so every plan's estimate,
        # and their minimum, is largest at the largest prime
        plan_count(m_rep.quiver, m_rep.dims, e, max(r.field.p for r in used), budget)
        skipped = bad if primes is not None else [p for p in bad if p < used[-1].field.p]
        plans.append((e, used[:bound + 1], used[bound + 1:], tuple(skipped)))
    return (_interpolate(*plan) for plan in plans)


def _interpolate(e, interp, held, skipped):
    """The CountPoly of e from the reductions it interpolates and holds out.

    Their counts check no budget: it was checked at the largest of their
    primes, where every plan's estimate is largest."""
    interp_primes = tuple(r.field.p for r in interp)
    counts = tuple(count_points(r, e, budget=None) for r in interp)
    poly = _newton_interpolation(interp_primes, counts)
    if poly is None:
        return CountPoly((), "inconsistent", interp_primes, counts, (), skipped)
    while poly and poly[-1] == 0:
        poly.pop()
    coeffs = tuple(poly)
    if not held:
        return CountPoly(coeffs, "assumed", interp_primes, counts, (), skipped)
    p = held[0].field.p
    fresh = count_points(held[0], e, budget=None)
    if sum(c * p ** i for i, c in enumerate(coeffs)) != fresh:
        return CountPoly((), "inconsistent", interp_primes, counts, (p, fresh), skipped)
    return CountPoly(coeffs, "verified", interp_primes, counts, (p, fresh), skipped)


def euler_characteristic(count_poly):
    """Evaluation at q=1; refuses an inconsistent counting polynomial."""
    if count_poly.consistency == "inconsistent":
        raise DomainError("counting polynomial is inconsistent; no Euler characteristic")
    return sum(count_poly.coefficients)
