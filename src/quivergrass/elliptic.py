"""A plane cubic as a quiver Grassmannian, checked by double counting.

The curve y^2 z = x^3 + z^3 in P^2 is cut out, after the degree-3 Veronese
map, by one linear form phi on Sym^3(V) together with the decomposability
condition, which is itself linear once expressed through the three component
maps psi_1, psi_2, psi_3 : Sym^3(V) -> Sym^2(V).  Packaging (phi; psi_*) as a
representation of the quiver  . <- . => .  makes the curve the Grassmannian
of subrepresentations of dimension vector (0,1,1).

Both sides of that isomorphism are counted over F_p and must agree; nothing
is assumed.  The curve is counted point by point in P^2(F_p); the
Grassmannian by the planned count (``counting.count_points``), which
enumerates the lines of Sym^2(V) and sums the source Sym^3(V) in closed form.
"""

from itertools import combinations_with_replacement

from .counting import DEFAULT_BUDGET, count_points
from .errors import DomainError
from .fields import QQ
from .quiver import Quiver
from .rep import Representation, reduce_mod

SYM3_BASIS = list(combinations_with_replacement((1, 2, 3), 3))
SYM2_BASIS = list(combinations_with_replacement((1, 2, 3), 2))


def elliptic_quiver():
    """Vertex 1 = scalars, vertex 2 = Sym^3(V), vertex 3 = Sym^2(V)."""
    return Quiver(3, [(2, 1), (2, 3), (2, 3), (2, 3)])


def _phi_matrix():
    row = [0] * len(SYM3_BASIS)
    row[SYM3_BASIS.index((2, 2, 3))] = 1
    row[SYM3_BASIS.index((1, 1, 1))] = -1
    row[SYM3_BASIS.index((3, 3, 3))] = -1
    return [row]


def _psi_matrix(m):
    """Flattening slice: (psi_m w)_(j,k) = w_(sorted(m,j,k)).

    In monomial coordinates the degree-3 Veronese point of v has coordinates
    w_(i,j,k) = v_i v_j v_k, so psi_m(w) = v_m * (v_j v_k)_(j<=k) identically
    over any coefficient ring; decomposability of w is the statement that the
    three slices span at most a line.  (Pushing the symmetrization map through
    the tensor basis instead produces the same maps scaled by multinomial
    multiplicities, an equivalent model only where 6 is invertible.)
    """
    out = [[0] * len(SYM3_BASIS) for _ in range(len(SYM2_BASIS))]
    for row, (j, k) in enumerate(SYM2_BASIS):
        out[row][SYM3_BASIS.index(tuple(sorted((m, j, k))))] = 1
    return out


def elliptic_representation():
    """The representation (phi; psi_1, psi_2, psi_3) over Q, integer entries."""
    q = elliptic_quiver()
    dims = (1, len(SYM3_BASIS), len(SYM2_BASIS))
    return Representation(q, QQ, dims,
                          [_phi_matrix(), _psi_matrix(1), _psi_matrix(2), _psi_matrix(3)])


def grassmannian_count(p, budget=DEFAULT_BUDGET):
    """#Gr_(0,1,1) of the representation over F_p, by the planned count: the
    lines of Sym^2 enumerated, the source Sym^3 summed in closed form."""
    return count_points(reduce_mod(elliptic_representation(), p), (0, 1, 1),
                        budget=budget)


def curve_count(p):
    """Projective solutions of y^2 z = x^3 + z^3 over F_p, by enumeration."""
    count = 0
    points = [(1, y, z) for y in range(p) for z in range(p)]
    points += [(0, 1, z) for z in range(p)]
    points += [(0, 0, 1)]
    for x, y, z in points:
        if (y * y * z - x ** 3 - z ** 3) % p == 0:
            count += 1
    return count


def demo(p, budget=DEFAULT_BUDGET):
    """Both counts and their difference (which a correct build makes 0)."""
    if p < 2:
        raise DomainError("p must be a prime >= 2")
    qg = grassmannian_count(p, budget=budget)
    curve = curve_count(p)
    return {"p": p, "grassmannian_points": qg, "curve_points": curve,
            "difference": qg - curve}
