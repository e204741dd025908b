"""Expected answers computed by routes that do not go through the code under test.

Each function here answers one kind of benchmark query without calling the
library path that the query exercises:

* Gaussian binomials and the plane-cubic point count are computed from
  scratch (the cubic by counting square roots, not by testing every point);
* type-A F-polynomials come from a plain dictionary convolution over the rows
  of the coefficient quiver, not from ``SparsePoly`` or ``cluster``;
* g-vectors, catenoids and positive-root counts use their closed forms for
  the equioriented A_n quiver and for Dynkin types.

The remaining routes are closed forms of the library that avoid the engine
they check: the cell Poincare polynomial (``typea``) for point counts and
counting polynomials, the interval Hom/Ext formulas for the defect map, and
the Coxeter transform for the knitted AR translate.
"""

from collections import defaultdict


def gaussian_binomial(d, e, q):
    """Number of e-dimensional subspaces of F_q^d."""
    if e < 0 or e > d:
        return 0
    num = den = 1
    for i in range(e):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def star_count(dims, sub, p):
    """Points of Gr_e(M) for a representation whose every arrow map is zero.

    Every choice of subspaces is a subrepresentation, so the count is the
    product of the Grassmannians of the vertices.
    """
    out = 1
    for d, e in zip(dims, sub):
        out *= gaussian_binomial(d, e, p)
    return out


def cubic_points(p):
    """Projective points of y^2 z = x^3 + z^3 over F_p.

    The line z = 0 meets the curve only in (0:1:0); on z = 1 each x gives as
    many y as y^2 = x^3 + 1 has roots, read off a table of squares.
    """
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    return 1 + sum(roots[(x ** 3 + 1) % p] for x in range(p))


def f_polynomial(n, multiplicities):
    """Type-A F-polynomial as {e: chi(Gr_e(M))}.

    Each interval summand U[i,j] contributes the factor 1 + sum over a of
    y^dim U[a,j]: its subrepresentations are the suffixes U[a,j], and every
    torus fixed point picks one suffix (or none) per summand.  Exponents are
    packed into one integer in the mixed radix (d_1+1, ..., d_n+1), where no
    sum of them carries.
    """
    d = dim_vector(n, multiplicities)
    radix = [1]
    for x in d[:-1]:
        radix.append(radix[-1] * (x + 1))
    poly = {0: 1}
    for (i, j), mult in sorted(multiplicities.items()):
        factor = [0] + [sum(radix[a - 1:j]) for a in range(i, j + 1)]
        for _ in range(mult):
            nxt = defaultdict(int)
            for key, coeff in poly.items():
                for f in factor:
                    nxt[key + f] += coeff
            poly = nxt
    return {tuple(key // r % (x + 1) for r, x in zip(radix, d)): c
            for key, c in poly.items()}


def dim_vector(n, multiplicities):
    d = [0] * n
    for (i, j), mult in multiplicities.items():
        for v in range(i, j + 1):
            d[v - 1] += mult
    return tuple(d)


def g_vector(n, multiplicities):
    """g_i = -<S_i, dim M> = d_(i+1) - d_i on 1 -> 2 -> ... -> n."""
    d = dim_vector(n, multiplicities) + (0,)
    return [d[i + 1] - d[i] for i in range(n)]


def is_catenoid(multiplicities):
    """The distinct intervals form a chain under componentwise order.

    Sorted lexicographically, a chain must also be sorted in its second
    coordinates, so comparing neighbours suffices.
    """
    intervals = sorted(multiplicities)
    return all(b[1] >= a[1] for a, b in zip(intervals, intervals[1:]))


def positive_root_count(letter, rank):
    if letter == "A":
        return rank * (rank + 1) // 2
    if letter == "D":
        return rank * (rank - 1)
    return {6: 36, 7: 63, 8: 120}[rank]


def apply_matrix(c, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in c)
