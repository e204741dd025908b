"""Finite acyclic quivers.

Vertices are the integers 1..n (the convention of the representation-theory
literature); arrows are (source, target) pairs, parallel arrows allowed,
oriented cycles rejected at construction.
"""

import operator

from .errors import DomainError


class Quiver:
    def __init__(self, vertex_count, arrows):
        if vertex_count < 0:
            raise DomainError("vertex_count must be nonnegative")
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        for s, t in arrows:
            if not (1 <= s <= vertex_count and 1 <= t <= vertex_count):
                raise DomainError(f"arrow ({s},{t}) out of range 1..{vertex_count}")
        self.vertex_count = vertex_count
        self.arrows = arrows
        self.topological_order = self._topo_sort()

    def _topo_sort(self):
        n = self.vertex_count
        indeg = [0] * (n + 1)
        succ = [[] for _ in range(n + 1)]
        for s, t in self.arrows:
            indeg[t] += 1
            succ[s].append(t)
        queue = sorted(v for v in range(1, n + 1) if indeg[v] == 0)
        order = []
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
            queue.sort()
        if len(order) != n:
            raise DomainError("quiver has an oriented cycle")
        return tuple(order)

    @property
    def arrow_count(self):
        return len(self.arrows)

    def arrows_from(self, v):
        return [(i, s, t) for i, (s, t) in enumerate(self.arrows) if s == v]

    def arrows_into(self, v):
        return [(i, s, t) for i, (s, t) in enumerate(self.arrows) if t == v]

    def sinks(self):
        src = {s for s, _ in self.arrows}
        return [v for v in range(1, self.vertex_count + 1) if v not in src]

    def sources(self):
        tgt = {t for _, t in self.arrows}
        return [v for v in range(1, self.vertex_count + 1) if v not in tgt]

    def opposite(self):
        """Reverse every arrow, keeping arrow order (so dual is an involution)."""
        return Quiver(self.vertex_count, [(t, s) for s, t in self.arrows])

    def is_connected(self):
        if self.vertex_count <= 1:
            return True
        adj = {v: set() for v in range(1, self.vertex_count + 1)}
        for s, t in self.arrows:
            adj[s].add(t)
            adj[t].add(s)
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    def is_linear_equioriented(self):
        """True for the quiver 1 -> 2 -> ... -> n in this exact labeling."""
        want = [(i, i + 1) for i in range(1, self.vertex_count)]
        return sorted(self.arrows) == want and len(self.arrows) == len(set(self.arrows))

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


def _integer_vector(d, n):
    """d as a tuple of n ints; a float, a Fraction or a string is refused,
    not truncated."""
    try:
        d = tuple(d)
        d = tuple(map(operator.index, d))
    except TypeError:
        raise DomainError(f"dimension vector entries must be integers, got {d!r}") from None
    if len(d) != n:
        raise DomainError(f"dimension vector length {len(d)} != {n}")
    return d


def linear_quiver(n):
    """The equioriented quiver 1 -> 2 -> ... -> n."""
    return Quiver(n, [(i, i + 1) for i in range(1, n)])


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
