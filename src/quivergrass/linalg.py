"""Exact dense linear algebra over Q or GF(p).

Matrices are tuples of tuples of field elements (rows), always acting on
column vectors.  Entries are Python numbers and the arithmetic is Python's
own ``+ - *``; ``field.of`` brings each result back into the field (``% p``
over GF(p)), so every entry returned is a ``Fraction`` over Q and an int in
``range(p)`` over GF(p), given entries of that kind (as ``mat`` makes them).
A matrix with no rows is ``()`` whatever its width, so it carries no width:
``transpose``, ``mul`` and ``nullspace`` take the column count ``cols`` from
the caller.  Everything here is plain Gaussian elimination with exact
division; no pivoting heuristics are needed since arithmetic is exact.
"""


def mat(rows, field):
    """Normalize nested iterables into an immutable matrix over ``field``."""
    return tuple(tuple(field.of(x) for x in row) for row in rows)


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def zeros(r, c, field):
    z = field.zero
    return tuple(tuple(z for _ in range(c)) for _ in range(r))


def identity(n, field):
    z, o = field.zero, field.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def transpose(a, cols=None):
    if a:
        return tuple(zip(*a))
    return tuple(() for _ in range(cols)) if cols else ()


def neg(a, field):
    return tuple(tuple(field.of(-x) for x in row) for row in a)


def _dot(row, v, field):
    return field.of(sum(x * y for x, y in zip(row, v) if x and y))


def mul(a, b, field, cols):
    """Matrix product a @ b, where b has ``cols`` columns."""
    if (a and len(a[0]) != len(b)) or (b and len(b[0]) != cols):
        raise ValueError(f"shape mismatch {shape(a)} @ {shape(b)}, expected {cols} columns")
    bt = transpose(b, cols)
    return tuple(tuple(_dot(row, col, field) for col in bt) for row in a)


def mat_vec(a, v, field):
    return tuple(_dot(row, v, field) for row in a)


def hstack(blocks):
    rows = len(blocks[0])
    return tuple(tuple(x for b in blocks for x in b[i]) for i in range(rows))


def vstack(blocks):
    return tuple(row for b in blocks for row in b)


def kron(a, b, field):
    """Kronecker product: row (i, k), column (j, l) holds a[i][j] * b[k][l]."""
    return tuple(tuple(field.of(x * y) for x in ra for y in rb) for ra in a for rb in b)


def rref(a, field):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    of = field.of
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [of(inv * x) for x in m[r]]
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                m[i] = [of(x - f * y) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m), pivots


def rank(a, field):
    return len(rref(a, field)[1])


def row_basis(a, field):
    """The nonzero rows of rref(a): the canonical basis of the row space of a."""
    r, pivots = rref(a, field)
    return r[:len(pivots)]


def nullspace(a, field, cols):
    """Basis of the right kernel of the (rows x cols) matrix a, as a list of
    column vectors (tuples).

    One basis vector per free column, with a 1 in the free position; this is
    the canonical basis read off the reduced echelon form, so the output is
    deterministic.
    """
    if a and shape(a)[1] != cols:
        raise ValueError(f"nullspace: matrix width {shape(a)[1]}, expected {cols}")
    r, pivots = rref(a, field)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [field.zero] * cols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.of(-r[i][fc])
        basis.append(tuple(v))
    return basis


def solve(a, b, field):
    """Solve a @ X = b exactly (b may have several columns); None if inconsistent."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ra != rb:
        raise ValueError("solve: row mismatch")
    aug = hstack([a, b]) if ca else b
    r, pivots = rref(aug, field)
    for i in range(len(pivots)):
        if pivots[i] >= ca:
            return None
    x = [[field.zero] * cb for _ in range(ca)]
    for i, pc in enumerate(pivots):
        for j in range(cb):
            x[pc][j] = r[i][ca + j]
    return tuple(tuple(row) for row in x)


def reduce_by(rref_basis, pivots, v, field):
    """v minus its component in the row space of an RREF row basis.

    The coefficient of each basis row is v's entry at that row's pivot column,
    which subtracting the other rows leaves unchanged.
    """
    for c, row in zip(pivots, rref_basis):
        coef = v[c]
        if coef:
            v = [field.of(x - coef * y) for x, y in zip(v, row)]
    return tuple(v)


def row_space_contains(rref_basis, pivots, v, field):
    """Membership test against an RREF row basis with known pivot columns."""
    return not any(reduce_by(rref_basis, pivots, v, field))

