"""Finite acyclic quivers.

Vertices are the integers 1..n (the convention of the representation-theory
literature); arrows are (source, target) pairs, parallel arrows allowed,
oriented cycles rejected at construction.  The constructor takes the vertex
count and the endpoints by the integer rule (``errors.integer``) and indexes
the arrows once, as the (index, source, target) tuples out of and into each
vertex: every reader of a vertex's arrows, neighbours or degree reads them.
"""

import heapq
from functools import lru_cache

from .errors import DomainError, integer


class Quiver:
    def __init__(self, vertex_count, arrows):
        n = integer(vertex_count, "vertex counts")
        if n < 0:
            raise DomainError("vertex_count must be nonnegative")
        arrows = tuple(_arrow(a) for a in arrows)
        out = {v: [] for v in range(1, n + 1)}
        into = {v: [] for v in range(1, n + 1)}
        for i, (s, t) in enumerate(arrows):
            if not (1 <= s <= n and 1 <= t <= n):
                raise DomainError(f"arrow ({s},{t}) out of range 1..{n}")
            out[s].append((i, s, t))
            into[t].append((i, s, t))
        self.vertex_count, self.arrows = n, arrows
        self._out = {v: tuple(a) for v, a in out.items()}
        self._into = {v: tuple(a) for v, a in into.items()}
        self.topological_order = self._topo_sort()

    def _topo_sort(self):
        # Kahn's algorithm, the smallest ready vertex first
        indeg = {v: len(a) for v, a in self._into.items()}
        ready = [v for v in indeg if not indeg[v]]
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for _, _, t in self._out[v]:
                indeg[t] -= 1
                if not indeg[t]:
                    heapq.heappush(ready, t)
        if len(order) != self.vertex_count:
            raise DomainError("quiver has an oriented cycle")
        return tuple(order)

    @property
    def arrow_count(self):
        return len(self.arrows)

    def arrows_from(self, v):
        return self._out.get(v, ())

    def arrows_into(self, v):
        return self._into.get(v, ())

    def neighbours(self, v):
        """The vertices joined to v by an arrow, either way."""
        return {t for _, _, t in self.arrows_from(v)} | {s for _, s, _ in self.arrows_into(v)}

    def sinks(self):
        return [v for v, a in self._out.items() if not a]

    def sources(self):
        return [v for v, a in self._into.items() if not a]

    def opposite(self):
        """Reverse every arrow, keeping arrow order (so dual is an involution)."""
        return Quiver(self.vertex_count, [(t, s) for s, t in self.arrows])

    def is_connected(self):
        if self.vertex_count <= 1:
            return True
        seen = {1}
        stack = [1]
        while stack:
            for w in self.neighbours(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    def is_linear_equioriented(self):
        """True for the quiver 1 -> 2 -> ... -> n in this exact labeling."""
        return sorted(self.arrows) == [(i, i + 1) for i in range(1, self.vertex_count)]

    def paths_from(self, k):
        """All paths starting at k, as arrow-index tuples, grouped by endpoint.

        Includes the empty path at k.  Within each endpoint the paths are
        sorted by (length, arrow indices), which fixes the basis order of the
        indecomposable projectives.
        """
        if not (1 <= k <= self.vertex_count):
            raise DomainError(f"bad vertex {k}")
        by_vertex = {v: [] for v in range(1, self.vertex_count + 1)}
        stack = [(k, ())]
        while stack:
            v, path = stack.pop()
            by_vertex[v].append(path)
            for i, _, t in self.arrows_from(v):
                stack.append((t, path + (i,)))
        for v in by_vertex:
            by_vertex[v].sort(key=lambda p: (len(p), p))
        return by_vertex

    def projective_dims(self):
        """Dimension vectors of the indecomposable projectives P_1..P_n.

        (dim P_v)_w counts the paths v -> w, so in reverse topological order
        dim P_v = e_v + sum of dim P_t over the arrows v -> t (parallel arrows
        once each): a path count, not a path list.  These are the rows of
        E^-1 for the Euler matrix E of ``euler_form``.  The injectives I_k
        are the projectives of ``opposite()``.
        """
        n = self.vertex_count
        dims = {}
        for v in reversed(self.topological_order):
            row = [int(w == v) for w in range(1, n + 1)]
            for _, _, t in self.arrows_from(v):
                row = [a + b for a, b in zip(row, dims[t])]
            dims[v] = tuple(row)
        return tuple(dims[v] for v in range(1, n + 1))

    def check_dim_vector(self, d):
        """d as a tuple of nonnegative ints, one per vertex."""
        d = _integer_vector(d, self.vertex_count)
        if any(x < 0 for x in d):
            raise DomainError("dimension vector entries must be >= 0")
        return d

    def __eq__(self, other):
        return (isinstance(other, Quiver) and other.vertex_count == self.vertex_count
                and other.arrows == self.arrows)

    def __hash__(self):
        return hash((self.vertex_count, self.arrows))

    def __repr__(self):
        return f"Quiver({self.vertex_count}, {list(self.arrows)})"


def _arrow(a):
    """a as a (source, target) pair of ints; DomainError for anything else."""
    try:
        s, t = a
    except (TypeError, ValueError):
        raise DomainError(f"an arrow is a pair (source, target), got {a!r}") from None
    return integer(s, "arrow endpoints"), integer(t, "arrow endpoints")


def _integer_vector(d, n):
    """d as a tuple of n ints, by the integer rule."""
    try:
        d = tuple(d)
    except TypeError:
        raise DomainError(f"dimension vector entries must be integers, got {d!r}") from None
    d = tuple(integer(x, "dimension vector entries") for x in d)
    if len(d) != n:
        raise DomainError(f"dimension vector length {len(d)} != {n}")
    return d


@lru_cache(maxsize=None, typed=True)
def linear_quiver(n):
    """The equioriented quiver 1 -> 2 -> ... -> n, one shared instance per n."""
    return Quiver(n, [(i, i + 1) for i in range(1, integer(n, "vertex counts"))])


def kronecker_quiver(arrow_count=2):
    return Quiver(2, [(1, 2)] * arrow_count)


def euler_form(quiver, e, d):
    """<e,d> = sum_i e_i d_i - sum_{a} e_{s(a)} d_{t(a)}, a bilinear form on
    Z^n, so negative entries are allowed."""
    e = _integer_vector(e, quiver.vertex_count)
    d = _integer_vector(d, quiver.vertex_count)
    total = sum(ei * di for ei, di in zip(e, d))
    for s, t in quiver.arrows:
        total -= e[s - 1] * d[t - 1]
    return total
