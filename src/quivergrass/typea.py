"""Structure theory of the equioriented A_n quiver 1 -> 2 -> ... -> n.

Everything here runs on closed forms.  Indecomposables are the interval
modules U[i,j] (1 <= i <= j <= n), and an isoclass is an
``IntervalDecomposition``: the multiplicity of each U[i,j].  ``decompose``
reads it off a representation through the ranks r[i,j] of the composite
arrow maps, a plain dict whose inclusion-exclusion inverse is
``multiplicities_from_ranks``.  Hom and Ext^1 between intervals are 0/1 by
explicit inequalities.  A torus fixed point of a Grassmannian is a plain
tuple with one suffix start (or None) per row of ``coefficient_quiver(m)``,
and each fixed point carries an attracting cell whose dimension is read off
the diagram.  ``_row_choices`` holds the one pruning rule: given the state
after the earlier rows, it lists the admissible choices of the next row
with their cell-dimension increments.  ``_sweep`` applies it once per state
of a forward sweep that merges the partial points which have selected the
same suffixes, and keeps the result as a layered state graph with the
states that lead to no point dropped.  The graph has three readers:
``fixed_points`` lists every path through it with its cell dimension, for
the ``cells`` subcommand, and ``poincare_polynomial`` and ``strata`` fold
the cell counts per isoclass over it (``_tallies``) without listing the
points.  ``generating_function`` sums the Euler
characteristics of all the Grassmannians of a module as one product of row
polynomials, without listing the fixed points.
"""

import random as _random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import gt
from typing import NamedTuple

import numpy as np

from . import linalg as la
from . import rep as rp
from .counting import CountPoly
from .errors import DomainError, check_ceiling, integer
from .poly import SparsePoly
from .quiver import linear_quiver


def _require_linear(quiver):
    if not quiver.is_linear_equioriented():
        raise DomainError("wrong quiver shape: expected the equioriented A_n quiver")
    return quiver.vertex_count


def interval_rep(quiver, field, i, j):
    """The thin indecomposable U[i,j] supported on vertices i..j: the
    ``IntervalDecomposition`` U[i,j] over field, in the quiver's arrow order."""
    u = IntervalDecomposition(_require_linear(quiver), {(i, j): 1}).to_representation(field)
    return rp.Representation(quiver, field, u.dims, [u.matrix(s - 1) for s, _ in quiver.arrows])


class IntervalDecomposition:
    """Multiset of intervals: M = (+) U[i,j]^m[i,j], a complete isoclass key.

    n, the interval ends and the multiplicities go through the integer rule
    (``errors.integer``).  ``quiver`` (the shared ``linear_quiver(n)``) and
    ``dims``, as a Representation names them, are set at construction, once
    n is checked against the ceiling (``errors.check_ceiling``).
    """

    def __init__(self, n, multiplicities):
        self.n = n = integer(n, "vertex counts")
        m = {}
        for ij, mult in multiplicities.items():
            if not (isinstance(ij, tuple) and len(ij) == 2):
                raise DomainError(f"an interval is a pair (i, j), got {ij!r}")
            i, j = integer(ij[0], "interval ends"), integer(ij[1], "interval ends")
            mult = integer(mult, "multiplicities")
            if mult < 0:
                raise DomainError("multiplicities must be nonnegative")
            if not (1 <= i <= j <= n):
                raise DomainError(f"bad interval ({i},{j}) for n={n}")
            if mult:
                m[(i, j)] = mult
        # checked last: for n < 0 every interval above is already refused
        if n < 0:
            raise DomainError("vertex_count must be nonnegative")
        check_ceiling(n, "the dimension vector of A_{}", n)
        self.m = m
        self.quiver = linear_quiver(n)
        d = [0] * n
        for (i, j), mult in m.items():
            for v in range(i - 1, j):
                d[v] += mult
        self.dims = tuple(d)

    def dim_vector(self):
        return self.dims

    def _row_order(self):
        """The distinct intervals in coefficient-quiver row order."""
        return sorted(self.m, key=lambda ij: (-ij[1], -ij[0]))

    def summands(self):
        """Intervals with multiplicity, in coefficient-quiver row order."""
        out = []
        for ij in self._row_order():
            out.extend([ij] * self.m[ij])
        return out

    def total_dim(self):
        return sum(self.dims)

    def to_representation(self, field):
        """The direct sum of ``summands()`` in that order, one block matrix per
        arrow: arrow v -> v+1 has a 1 at (row, column) for each summand through
        v and v+1, at its place among the summands through v+1 and through v.

        BudgetError, before anything is allocated, when the arrow matrices
        would be above the ceiling (``rep.check_matrix_ceiling``).
        """
        d = self.dims
        rp.check_matrix_ceiling(self.quiver, d, self)
        zero, one = field.zero, field.one
        order = self._row_order()
        mats = []
        for v in range(1, self.n):
            mat = [[zero] * d[v - 1] for _ in range(d[v])]
            r = c = 0  # the first row and column of the next summand's block
            for (i, j) in order:
                mult = self.m[(i, j)]
                if i <= v < j:
                    for k in range(mult):
                        mat[r + k][c + k] = one
                r += mult if i <= v + 1 <= j else 0
                c += mult if i <= v <= j else 0
            mats.append(mat)
        return rp.Representation(self.quiver, field, d, mats)

    def __eq__(self, other):
        return (isinstance(other, IntervalDecomposition) and other.n == self.n
                and other.m == self.m)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.m.items()))))

    def __repr__(self):
        return format_intervals(self)


def format_intervals(dec):
    """The interval notation "U[i,j]^m + ..." (sorted; "0" when empty) that
    ``repfile.parse_intervals`` reads."""
    return " + ".join(f"U[{i},{j}]" + (f"^{m}" if m > 1 else "")
                      for (i, j), m in sorted(dec.m.items())) or "0"


def rank_sequence(m_rep):
    """{(i, j): r} with r the rank of the composite map from vertex i to j.

    The composites are kept as rows of {column: value} nonzeros, which
    ``la.rank`` reads as given: each step multiplies by the next arrow's
    nonzeros only, so the cost follows the nonzeros of the composites and
    not the cube of the dimension.  BudgetError, before anything is built,
    when the n(n+1)/2 ranks are above the ceiling (``errors.check_ceiling``).
    """
    n = _require_linear(m_rep.quiver)
    check_ceiling(n * (n + 1) // 2, "the rank sequence of A_{}", n)
    field = m_rep.field
    d = m_rep.dims
    # the arrow out of vertex s, as {column: value} rows
    sparse = {s: [{k: x for k, x in enumerate(row) if x} for row in m_rep.matrix(a)]
              for a, (s, _) in enumerate(m_rep.quiver.arrows)}
    r = {}
    for i in range(1, n + 1):
        r[(i, i)] = d[i - 1]
        comp = None  # the composite from i to j, starting at the arrow out of i
        for j in range(i + 1, n + 1):
            arrow = sparse[j - 1]
            comp = arrow if comp is None else [_sparse_row_times(row, comp, field)
                                               for row in arrow]
            r[(i, j)] = la.rank(comp, field, d[i - 1])
    return r


def _sparse_row_times(row, rows, field):
    """The {column: value} nonzeros of row @ M, for M given by its rows as dicts."""
    out = {}
    for k, x in row.items():
        for c, y in rows[k].items():
            out[c] = out.get(c, field.zero) + x * y
    return {c: v for c, x in out.items() if (v := field.of(x))}


def multiplicities_from_ranks(n, r):
    """Inclusion-exclusion inverse of ranks_from_multiplicities.

    m[i,j] = r[i,j] - r[i-1,j] - r[i,j+1] + r[i-1,j+1] (r = 0 outside
    1 <= i <= j <= n); a negative m[i,j] is the failed rank inequality
    r[i,j] + r[i-1,j+1] >= r[i,j+1] + r[i-1,j], so r is not a rank sequence
    exactly when this raises DomainError, as does an r that misses an
    interval.
    """
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if (i, j) not in r:
                raise DomainError(f"rank sequence has no r[{i},{j}]")

    def g(i, j):
        return r[(i, j)] if 1 <= i and j <= n else 0

    return IntervalDecomposition(n, {
        (i, j): g(i, j) - g(i - 1, j) - g(i, j + 1) + g(i - 1, j + 1)
        for i in range(1, n + 1) for j in range(i, n + 1)})


def ranks_from_multiplicities(dec):
    """{(i, j): r}: U[k,l] contributes to r[i,j] iff k <= i <= j <= l.
    BudgetError when the n(n+1)/2 ranks are above the ceiling."""
    check_ceiling(dec.n * (dec.n + 1) // 2, "the rank sequence of A_{}", dec.n)
    return {(i, j): sum(mult for (k, l), mult in dec.m.items() if k <= i and j <= l)
            for i in range(1, dec.n + 1) for j in range(i, dec.n + 1)}


def decompose(m_rep):
    """The interval decomposition of an A_n representation."""
    return multiplicities_from_ranks(m_rep.quiver.vertex_count, rank_sequence(m_rep))


def hom_interval(ij, kl):
    """dim Hom(U[i,j], U[k,l]): 1 iff k <= i <= l <= j."""
    (i, j), (k, l) = ij, kl
    return 1 if k <= i <= l <= j else 0


def ext_interval(kl, ij):
    """dim Ext^1(U[k,l], U[i,j]): 1 iff k+1 <= i <= l+1 <= j."""
    (k, l), (i, j) = kl, ij
    return 1 if k + 1 <= i <= l + 1 <= j else 0


def hom_dim_decs(a, b):
    """[A, B] for interval sums, by the closed form."""
    return sum(ma * mb * hom_interval(ij, kl)
               for ij, ma in a.m.items() for kl, mb in b.m.items())


def ext_dim_decs(a, b):
    return sum(ma * mb * ext_interval(ij, kl)
               for ij, ma in a.m.items() for kl, mb in b.m.items())


def deg_leq_ranks(m, n):
    """Degeneration order by rank conditions: equal diagonal, m ranks >= n ranks."""
    if m.n != n.n:
        raise DomainError("rank sequences live on different A_n quivers")
    rm, rn = ranks_from_multiplicities(m), ranks_from_multiplicities(n)
    return all(rm[i, j] == rn[i, j] if i == j else rm[i, j] >= rn[i, j] for i, j in rm)


def deg_leq_hom(m, n):
    """Degeneration order by Hom conditions: [U, M] <= [U, N] for all intervals."""
    if m.n != n.n:
        raise DomainError("modules live on different A_n quivers")
    if m.dims != n.dims:
        raise DomainError("degeneration order compares equal dimension vectors only")
    for k in range(1, m.n + 1):
        for l in range(k, m.n + 1):
            u = IntervalDecomposition(m.n, {(k, l): 1})
            if hom_dim_decs(u, m) > hom_dim_decs(u, n):
                return False
    return True


def coefficient_quiver(m):
    """Rows of the string diagram: the summand intervals, in the order of
    ``IntervalDecomposition.summands()``, so Ext^1(row r, row r') = 0 for r < r'.

    That order (j descending, then i descending) realizes the property:
    Ext^1(U[a,b], U[c,d]) != 0 forces d >= b+1 > b, so a row can never have
    an extension into a row sorted after it.  Equal rows are adjacent, which
    is harmless since equal rows commute.

    BudgetError, before any row is listed, when (rows + 1) * n entries, an
    n-vector of the sweep at each of its rows + 1 layers with one row per
    summand counted with multiplicity, are above the ceiling
    (``errors.check_ceiling``).
    """
    rows = sum(m.m.values())
    check_ceiling((rows + 1) * m.n, "the coefficient quiver of {} rows on A_{}", rows, m.n)
    return tuple(m.summands())


def _row_choices(i, j, cap, remaining, selected):
    """The admissible choices of the row [i, j], as a list of (start,
    increment) pairs in the order None, j, j - 1, ...: the start a of the
    suffix U[a, j] the row selects (None for nothing) and what the choice
    adds to the cell dimension.  This is the one pruning rule of the state
    graph (``_sweep``), which calls it once per state.

    The state is the demand still to place at each vertex, ``remaining``,
    and the starts the earlier rows selected at each vertex, ``selected``;
    ``cap``, the capacity of a vertex, counts this row and the later ones
    whose support contains it.  The choice a takes one from the demand at
    a, ..., j and adds one start at a.

    The slack of a vertex is its capacity minus its demand.  A row that
    skips a vertex of its support lowers the vertex's slack by one, and a
    row that takes it leaves the slack as it was.  So a row must take every
    vertex of its support with no slack left: its start is at or before the
    first such vertex, and None is not allowed.  A suffix stops growing at
    a vertex with no demand left, since every longer suffix contains it
    too.  Every choice cut this way would leave a vertex with more demand
    than rows to fill it, so no fixed point is lost; and slack stays >= 0
    on every choice kept, so after the last row, which leaves no capacity,
    the demand is 0 everywhere.  A choice can still lead to a state where
    a later row has no choice at all; ``_sweep`` drops such states.

    The choice a adds the number of earlier selected starts in [i, a - 1],
    and None those in [i, j] (``cell_dimension``).
    """
    below = 0
    tight = None  # the first vertex of the support with no slack
    for v in range(i - 1, j):
        below += selected[v]
        if tight is None and remaining[v] == cap[v]:
            tight = v + 1
    out = []
    if tight is None:
        out.append((None, below))
        tight = j
    a = j + 1
    while a > i and remaining[a - 2]:
        a -= 1
        below -= selected[a - 1]
        if a <= tight:
            out.append((a, below))
    return out


class _Graph(NamedTuple):
    """The state graph of ``_sweep``.  ``layers[r][s]`` lists the out-edges
    of state s of layer r, (start a or None, cell-dimension increment,
    target state of layer r + 1); layer 0 holds the one empty point.
    ``keys[s]`` is the key of state s after the last row: its multiset of
    suffixes as an integer of b-bit fields, b = ``len(layers).bit_length()``,
    field k from the least significant the count of ``suffixes[k]``."""

    layers: list
    keys: list
    suffixes: list

    def multiplicities(self, key):
        """The multiset of suffixes a key holds, {(a, j): mult}."""
        b = len(self.layers).bit_length()
        mask = (1 << b) - 1
        return {ij: mult for k, ij in enumerate(self.suffixes) if (mult := key >> b * k & mask)}


def _sweep(m, e):
    """The forward sweep over the rows of ``coefficient_quiver(m)``, built
    once as a layered state graph (``_Graph``), or None when Gr_e(M) has no
    fixed point (as when some e_v exceeds d_v); DomainError on a module of
    another quiver or an e of the wrong length or with a negative entry.
    Its readers: ``fixed_points`` lists its paths, ``poincare_polynomial``
    and ``strata`` fold tallies over it (``_tallies``).

    A state of layer r is a class of partial points through the rows before
    r: those that have selected the same multiset of suffixes U[a, j].  The
    multiset fixes the demand still to place and the starts histogram that
    the increments read, so such points have the same completions with the
    same dimension increments: a state's out-edges are the choices of
    ``_row_choices`` on it, in that order; the capacities it reads drop
    over each row's support once the row's layer is built.  After the last
    row a state is one isoclass N, since a fixed point spans the sum of its
    suffixes.  A state's key is its multiset as one integer with a field of
    b = len(rows).bit_length() bits per suffix, enough to count every row,
    so choosing suffix k adds 1 << b*k.  Fields go to the suffixes in the
    order they are first chosen, so none is spent on a suffix no row selects.

    One backward pass then drops every state with no path to the last row
    and renumbers the rest, so every state kept lies on a fixed point and
    no reader walks a dead end.
    """
    quiver = m.quiver
    _require_linear(quiver)
    e = quiver.check_dim_vector(e)
    if any(map(gt, e, m.dims)):
        return None
    rows = coefficient_quiver(m)
    bits = len(rows).bit_length()
    # weights[j][a]: the weight of U[a, j] in a key
    weights, suffixes = {}, []
    # cap[v - 1]: the rows from the current one on whose support contains v
    cap = list(m.dims)
    states = [(0, e, [0] * m.n)]  # (key, demand, starts at each vertex)
    layers = []
    for i, j in rows:
        weight = weights.setdefault(j, {})
        index, after, layer = {}, [], []
        for key, remaining, selected in states:
            out = []
            for a, inc in _row_choices(i, j, cap, remaining, selected):
                to = key
                if a is not None:
                    w = weight.get(a)
                    if w is None:
                        w = weight[a] = 1 << bits * len(suffixes)
                        suffixes.append((a, j))
                    to += w
                t = index.get(to)
                if t is None:
                    t = index[to] = len(after)
                    demand, starts = list(remaining), selected[:]
                    if a is not None:
                        starts[a - 1] += 1
                        for v in range(a - 1, j):
                            demand[v] -= 1
                    after.append((to, demand, starts))
                out.append((a, inc, t))
            layer.append(out)
        layers.append(layer)
        states = after
        for v in range(i - 1, j):
            cap[v] -= 1
    # the backward pass: alive[t] is whether state t of the next layer has
    # a path to the last row (None: all have), and kept[t] its number once
    # the dead are gone
    alive = None
    for r in range(len(layers) - 1, -1, -1):
        if alive is not None:
            kept = list(accumulate(alive, initial=0))
            layers[r] = [[(a, inc, kept[t]) for a, inc, t in out if alive[t]]
                         for out in layers[r]]
        alive = None if all(layers[r]) else list(map(bool, layers[r]))
        if alive is not None:
            layers[r] = list(compress(layers[r], alive))
    if layers and not layers[0]:
        return None
    return _Graph(layers, [key for key, _, _ in states], suffixes)


def fixed_points(m, e):
    """All torus fixed points of Gr_e, as (starts, cell dimension) pairs.

    Row r of ``coefficient_quiver(m)`` is an interval [i, j]; its nonzero
    subrepresentations are exactly the suffixes U[a, j] with i <= a <= j, so
    a fixed point selects one start a (or None, nothing) in every row.
    Points come in lexicographic order of the per-row choices None, j, ..., i.

    Every path through the state graph of ``_sweep`` is one point, its
    dimension the sum of the increments on its edges.  A depth-first walk
    takes the out-edges of each state in their order, so it lists the paths
    in that lexicographic order.  It keeps an iterator over the out-edges
    still to take at each layer down to the current one in a list, not on
    the call stack, so its depth is not bounded by the interpreter's
    recursion limit.  Every state lies on a point, so the walk never enters
    a dead end; it makes one step per edge of a path and one tuple per
    point, and no choice is worked out again.  (Extending all the partial
    points layer by layer instead copies each one's starts at every layer,
    which is quadratic in the number of rows.)
    """
    graph = _sweep(m, e)
    if graph is None:
        return []
    layers = graph.layers
    if not layers:
        return [((), 0)]  # d = 0, so e = 0: the zero subrepresentation
    out = []
    last = len(layers) - 1
    # the out-edges still to take at every layer down to the current one,
    # r, and the cell dimension before each; starts[:r] are the choices above
    edges, dims, starts = [None] * len(layers), [0] * len(layers), [None] * len(layers)
    edges[0] = iter(layers[0][0])
    r = 0
    while r >= 0:
        if r == last:
            for a, inc, _ in edges[r]:
                starts[r] = a
                out.append((tuple(starts), dims[r] + inc))
            r -= 1
            continue
        for a, inc, t in edges[r]:
            starts[r] = a
            r += 1
            dims[r] = dims[r - 1] + inc
            edges[r] = iter(layers[r][t])
            break
        else:
            r -= 1
    return out


def _tallies(graph):
    """The tally {cell dimension: number of fixed points} of each state of
    the last layer of the state graph, in the order of ``graph.keys``; none
    when there is no graph.

    The tallies are folded forward over the graph: a state carries the
    dimensions of the partial points it merges as one tally, and each
    out-edge adds that tally, shifted by its increment, to its target's.
    No point is listed.
    """
    if graph is None:
        return []
    layers = graph.layers
    sizes = [len(layer) for layer in layers[1:]] + [len(graph.keys)]
    tallies = [{0: 1}]
    for layer, size in zip(layers, sizes):
        after = [{} for _ in range(size)]
        for out, tally in zip(layer, tallies):
            for _, inc, t in out:
                merged = after[t]
                for dim, count in tally.items():
                    merged[dim + inc] = merged.get(dim + inc, 0) + count
        tallies = after
    return tallies


def cell_dimension(rows, starts):
    """Dimension of the attracting cell of the fixed point ``starts``.

    For each selected suffix, its leftmost vertex is a source of the black
    subdiagram; the cell dimension is the number of white vertices lying
    strictly below such a source in the same column (rows after r whose
    support contains the column but whose selection does not).  This is the
    per-point definition; the state graph of ``_sweep`` sums the same count
    row by row, the increments of ``_row_choices``.
    """
    if len(starts) != len(rows):
        raise DomainError("one suffix choice per row required")
    for (i, j), a in zip(rows, starts):
        if a is not None and not (i <= a <= j):
            raise DomainError(f"suffix start {a} outside row [{i},{j}]")
    dim = 0
    for r, a in enumerate(starts):
        if a is None:
            continue
        for r2 in range(r + 1, len(rows)):
            i2, j2 = rows[r2]
            if i2 <= a <= j2:
                a2 = starts[r2]
                if a2 is None or a < a2:
                    dim += 1
    return dim


def poincare_polynomial(m, e):
    """Sum of q^(cell dimension) over all torus fixed points of Gr_e(M): the
    tallies folded over the state graph of ``_sweep`` (``_tallies``) added
    up, without listing the points."""
    counts = Counter()
    for tally in _tallies(_sweep(m, e)):
        counts.update(tally)
    return CountPoly(tuple(counts[k] for k in range(max(counts, default=-1) + 1)), "assumed")


def generating_function(m):
    """sum over e of chi(Gr_e(M)) y^e, a SparsePoly in n variables.

    Every torus fixed point is one affine cell, so chi(Gr_e(M)) is the number
    of fixed points of dimension vector e.  A fixed point picks a suffix (or
    nothing) in each coefficient-quiver row independently, so the sum is a
    product over rows: a copy of U[i,j] sums y^dim U[a,j] over its suffixes,
    the empty one (a = j + 1) included, and U[i,j]^m gives that row to the
    m-th power.  A row's factor is built from its exponent array, one 0/1
    row per suffix, with no tuple per term (``SparsePoly._from_exponents``);
    the product runs on the sorted key and coefficient arrays of
    ``SparsePoly`` and keeps them (``poly``).
    """
    n = m.n
    poly = None
    for (i, j), mult in m.m.items():
        # one 0/1 exponent row per suffix U[a,j], a = i, ..., j + 1, vertex v
        # in column v - 1
        a, v = np.arange(i, j + 2)[:, None], np.arange(1, n + 1)
        row = SparsePoly._from_exponents(n, ((a <= v) & (v <= j)).astype(np.int64),
                                         np.ones(j - i + 2, dtype=np.int64))
        for _ in range(mult):
            poly = row if poly is None else poly * row
    return SparsePoly.one(n) if poly is None else poly


def euler_char_cells(m, e):
    """chi(Gr_e(M)): the coefficient of y^e in ``generating_function(m)``."""
    return generating_function(m).coefficient(m.quiver.check_dim_vector(e))


@dataclass(frozen=True)
class Stratum:
    isoclass: IntervalDecomposition
    dim: int
    cells: int


def strata(m, e):
    """Nonempty iso-strata of Gr_e(M), their dimensions, and their cell counts.

    A stratum is nonempty exactly when it contains a torus fixed point (every
    cell lies in the stratum of its fixed point), so the strata are the
    states the graph of ``_sweep`` ends with and the cells of one are its
    tally's sum (``_tallies``); its dimension is [N,M] - [N,N] by the
    closed-form interval Homs.
    """
    graph = _sweep(m, e)
    if graph is None:
        return []
    out = []
    for key, tally in zip(graph.keys, _tallies(graph)):
        iso = IntervalDecomposition(m.n, graph.multiplicities(key))
        dim = hom_dim_decs(iso, m) - hom_dim_decs(iso, iso)
        out.append(Stratum(iso, dim, sum(tally.values())))
    out.sort(key=lambda s: (-s.dim, sorted(s.isoclass.m.items())))
    return out


def is_catenoid(m):
    """True when the distinct summand intervals lie on one oriented path of
    the AR quiver, i.e. form a chain under componentwise <=."""
    intervals = sorted(m.m)
    for a in intervals:
        for b in intervals:
            if not (a[0] <= b[0] and a[1] <= b[1]) and not (b[0] <= a[0] and b[1] <= a[1]):
                return False
    return True


def flat_locus_class(m):
    """Position of a d = (n+1,...,n+1) module in the flat locus of the
    universal Grassmannian degenerating the complete flag variety."""
    n = m.n
    if m.dims != (n + 1,) * n:
        raise DomainError(f"flat-locus classification needs d = {(n + 1,) * n}")
    ranks = ranks_from_multiplicities(m)

    def at_least(threshold):
        return all(ranks[(i, j)] >= threshold(i, j)
                   for i in range(1, n + 1) for j in range(i + 1, n + 1))

    if at_least(lambda i, j: n + 1 - (j - i)):
        return "flat-irreducible"
    if at_least(lambda i, j: n - (j - i)):
        return "flat-only"
    return "non-flat"


def min_projective_resolution(m):
    """0 -> P -> R -> M -> 0 with R projective covering M summand by summand.

    Each summand U[i,j] lifts to P_i = U[i,n]; its syzygy is P_{j+1} = U[j+1,n]
    when j < n and vanishes when U[i,j] is already projective.
    """
    n = m.n
    r = {}
    p = {}
    for (i, j), mult in m.m.items():
        r[(i, n)] = r.get((i, n), 0) + mult
        if j < n:
            p[(j + 1, n)] = p.get((j + 1, n), 0) + mult
    return IntervalDecomposition(n, p), IntervalDecomposition(n, r)


def translate(dec, k):
    """The AR translate tau^k: U[i,j] -> U[i+k,j+k], dropping the summands
    that would leave 1..n (the projectives U[i,n] for tau, k = 1, and the
    injectives U[1,j] for tau^-, k = -1)."""
    n = dec.n
    return IntervalDecomposition(n, {(i + k, j + k): mult for (i, j), mult in dec.m.items()
                                     if 1 <= i + k and j + k <= n})


# Named modules of the theory, as interval decompositions.

def flag_dec(n):
    """P_1^(n+1): the module whose Grassmannian at e=(1,...,n) is the flag variety."""
    return IntervalDecomposition(n, {(1, n): n + 1})


def path_algebra_dec(n):
    """A = (+) P_i."""
    return IntervalDecomposition(n, {(i, n): 1 for i in range(1, n + 1)})


def injective_cogenerator_dec(n):
    """DA = (+) I_k."""
    return IntervalDecomposition(n, {(1, k): 1 for k in range(1, n + 1)})


def degenerate_flag_dec(n):
    """A (+) DA, the degenerate flag variety module."""
    m = {}
    for (i, j), mult in list(path_algebra_dec(n).m.items()) + \
            list(injective_cogenerator_dec(n).m.items()):
        m[(i, j)] = m.get((i, j), 0) + mult
    return IntervalDecomposition(n, m)


def most_flat_dec(n):
    """The most degenerate flat fiber: (+)P_i (+) I_1..I_{n-1} (+) all simples."""
    m = {}
    for i in range(1, n + 1):
        m[(i, n)] = m.get((i, n), 0) + 1
    for j in range(1, n):
        m[(1, j)] = m.get((1, j), 0) + 1
    for k in range(1, n + 1):
        m[(k, k)] = m.get((k, k), 0) + 1
    return IntervalDecomposition(n, m)


def semisimple_dec(n):
    return IntervalDecomposition(n, {(k, k): n + 1 for k in range(1, n + 1)})


def random_decomposition(n, rng_or_seed=0, max_mult=2):
    """Seeded random interval multiplicities (test plumbing)."""
    rng = rng_or_seed if isinstance(rng_or_seed, _random.Random) \
        else _random.Random(rng_or_seed)
    m = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            mult = rng.randint(0, max_mult)
            if mult:
                m[(i, j)] = mult
    return IntervalDecomposition(n, m)
