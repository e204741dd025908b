"""Auslander-Reiten quivers of Dynkin quivers by knitting, at the level of
dimension vectors, plus the Coxeter transform read off the Euler form.

``classify`` decides Dynkin, affine or wild by the Tits form q(x) = <x, x>
(Gabriel's criterion), from the signs of its leading principal minors.

Knitting builds the preprojective component mesh by mesh: starting from the
projectives (with the irreducible maps rad P -> P), a vertex X is completed
once every irreducible map out of it is known, and then

    dim tau^- X = sum of middle dims - dim X.

For a Dynkin quiver this produces every indecomposable exactly once (one per
positive root) and terminates at the injectives.
"""

import heapq
from dataclasses import dataclass
from operator import sub

from .errors import DomainError, check_ceiling
from .quiver import euler_form


@dataclass(frozen=True)
class Classification:
    kind: str           # "dynkin" | "affine" | "wild"
    letter: str = ""    # "A" | "D" | "E" for Dynkin
    rank: int = 0

    @property
    def name(self):
        return f"{self.letter}{self.rank}" if self.kind == "dynkin" else self.kind


def classify(quiver):
    """Gabriel's criterion: Dynkin iff the Tits form q(x) = <x, x> is positive
    definite, affine iff it is positive semidefinite but not definite, wild
    otherwise.

    The kind is read off the leading principal minors of C = 2I - A, the
    matrix of <x, y> + <y, x> (A[i][j] counts the arrows between i and j),
    by Bareiss elimination in ints up to the first minor <= 0.  All positive
    is Dynkin.  The first n - 1 positive and the last 0 is affine, in any
    vertex order, since every proper subgraph of an extended Dynkin diagram
    is Dynkin.  Anything else is wild.  A Dynkin graph
    is a tree: A without a trivalent vertex, else D or E as the branch vertex
    has two or more leaves as neighbours, or one.  BudgetError before C is
    built when its n^2 entries are above the ceiling (``errors.check_ceiling``).
    """
    n = quiver.vertex_count
    if n == 0:
        raise DomainError("empty quiver")
    check_ceiling(n * n, "the symmetrised Euler form of a quiver on {} vertices", n)
    if not quiver.is_connected():
        raise DomainError("classification expects a connected quiver")
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for s, t in quiver.arrows:
        c[s - 1][t - 1] -= 1
        c[t - 1][s - 1] -= 1
    prev = 1
    for k in range(n):
        pivot = c[k][k]  # the (k+1)-th leading minor
        if pivot <= 0:
            return Classification("affine" if pivot == 0 and k == n - 1 else "wild")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                c[i][j] = (c[i][j] * pivot - c[i][k] * c[k][j]) // prev
        prev = pivot
    deg = {v: len(quiver.neighbours(v)) for v in range(1, n + 1)}
    branch = next((v for v in deg if deg[v] == 3), None)
    if branch is None:
        return Classification("dynkin", "A", n)
    leaves = sum(deg[u] == 1 for u in quiver.neighbours(branch))
    return Classification("dynkin", "D" if leaves >= 2 else "E", n)


def positive_root_count(letter, rank):
    if letter == "A":
        return rank * (rank + 1) // 2
    if letter == "D":
        return rank * (rank - 1)
    return {6: 36, 7: 63, 8: 120}[rank]


def check_knit_ceiling(letter, rank):
    """BudgetError when the AR quiver of the Dynkin quiver of type letter and
    rank, one dimension vector of rank entries per positive root, is above
    the ceiling (``errors.check_ceiling``)."""
    check_ceiling(positive_root_count(letter, rank) * rank,
                  "the AR quiver of {}{}", letter, rank)


class ARQuiver:
    """Mesh quiver on dimension vectors: vertices, arrows, and the translate."""

    def __init__(self, vertices, arrows, tau, projectives, injectives):
        self.vertices = tuple(vertices)          # dim vectors
        self.arrows = tuple(arrows)              # (source index, target index)
        self.tau = dict(tau)                     # target index -> translate index
        self.projectives = tuple(projectives)    # vertex indices of the P_k
        self.injectives = tuple(injectives)

    def __repr__(self):
        return f"ARQuiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


def knit(quiver):
    """AR quiver of a Dynkin quiver by preprojective knitting.

    BudgetError before knitting when its roots x n entries are above the
    ceiling (``errors.check_ceiling``): before the quiver is classified, for
    the fewest roots of any Dynkin quiver on its n vertices, A_n's n(n+1)/2
    (D_n has n(n-1), E_6/7/8 have 36/63/120), so that n >= 272 is refused at
    once whatever the quiver; then for its type (``check_knit_ceiling``).
    Each vertex keeps its out-neighbours, in arrow order, and the number of
    its predecessors (one per arrow) that are neither injective nor
    completed; the ready vertices, whose number is 0, wait on a heap, and
    the smallest is completed first.
    """
    n = quiver.vertex_count
    check_ceiling(n * n * (n + 1) // 2,
                  "the smallest AR quiver of a Dynkin quiver on {} vertices", n)
    cls = classify(quiver)
    if cls.kind != "dynkin":
        raise DomainError(f"knitting requires a Dynkin quiver, got {cls.kind}")
    check_knit_ceiling(cls.letter, cls.rank)
    proj_dims = quiver.projective_dims()
    inj_dims = quiver.opposite().projective_dims()
    inj_set = set(inj_dims)

    vertices = list(proj_dims)
    index = {d: i for i, d in enumerate(vertices)}
    arrows = []
    outs = [[] for _ in vertices]
    pending = [0] * len(vertices)

    def add_arrow(s, t):
        arrows.append((s, t))
        outs[s].append(t)
        pending[t] += vertices[s] not in inj_set

    # irreducible maps into a projective come from the summands of its radical
    for k, j in quiver.arrows:
        add_arrow(index[proj_dims[j - 1]], index[proj_dims[k - 1]])
    ready = [x for x, d in enumerate(vertices) if not pending[x] and d not in inj_set]
    heapq.heapify(ready)
    tau = {}
    while ready:
        x = heapq.heappop(ready)
        new_dim = tuple(map(sub, map(sum, zip(*(vertices[t] for t in outs[x]))), vertices[x]))
        if not any(new_dim) or min(new_dim) < 0:
            raise AssertionError(f"mesh at {vertices[x]} produced {new_dim}")
        if new_dim in index:
            raise AssertionError(f"dimension vector {new_dim} produced twice")
        new_idx = len(vertices)
        vertices.append(new_dim)
        index[new_dim] = new_idx
        outs.append([])
        pending.append(0)
        for t in outs[x]:
            add_arrow(t, new_idx)
            pending[t] -= 1
            if not pending[t] and vertices[t] not in inj_set:
                heapq.heappush(ready, t)
        if not pending[new_idx] and new_dim not in inj_set:
            heapq.heappush(ready, new_idx)
        tau[new_idx] = x
    roots = positive_root_count(cls.letter, cls.rank)
    if len(vertices) != roots:
        raise AssertionError(
            f"knitting produced {len(vertices)} vertices, expected {roots} positive roots")
    return ARQuiver(vertices, arrows,
                    tau,
                    [index[d] for d in proj_dims],
                    [index[d] for d in inj_dims])


def coxeter_matrix(quiver):
    """Integer matrix C with dim tau M = C dim M for non-projective M.

    C = -E^-1 E^T for the Euler matrix E, whose inverse has the rows dim P_i,
    so C[i][j] = -<e_j, dim P_i>.
    """
    n = quiver.vertex_count
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return tuple(tuple(-euler_form(quiver, u, p) for u in units)
                 for p in quiver.projective_dims())


def tau_dim(quiver, dim):
    """Coxeter transform of a non-projective positive root's dimension
    vector: (dim tau M)_i = -<dim M, dim P_i>."""
    dim = quiver.check_dim_vector(dim)
    proj_dims = quiver.projective_dims()
    if dim in proj_dims:
        raise DomainError(
            f"dimension vector of the projective P_{proj_dims.index(dim) + 1} has no translate")
    out = tuple(-euler_form(quiver, dim, p) for p in proj_dims)
    if any(v < 0 for v in out):
        raise DomainError(f"{dim} is not the dimension vector of a non-projective module")
    return out
