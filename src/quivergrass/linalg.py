"""Exact dense linear algebra over an abstract field.

Matrices are tuples of tuples of field elements (rows), always acting on
column vectors.  Everything here is plain Gaussian elimination with exact
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


def add(a, b, field):
    return tuple(tuple(field.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def neg(a, field):
    return tuple(tuple(field.neg(x) for x in row) for row in a)


def mul(a, b, field):
    """Matrix product a @ b."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {shape(a)} @ {shape(b)}")
    bt = transpose(b, cols=cb) if rb else tuple(() for _ in range(cb))
    z = field.zero
    out = []
    for row in a:
        orow = []
        for col in bt:
            s = z
            for x, y in zip(row, col):
                if not field.is_zero(x) and not field.is_zero(y):
                    s = field.add(s, field.mul(x, y))
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def mat_vec(a, v, field):
    z = field.zero
    out = []
    for row in a:
        s = z
        for x, y in zip(row, v):
            if not field.is_zero(x) and not field.is_zero(y):
                s = field.add(s, field.mul(x, y))
        out.append(s)
    return tuple(out)


def hstack(blocks):
    rows = len(blocks[0])
    return tuple(tuple(x for b in blocks for x in b[i]) for i in range(rows))


def vstack(blocks):
    return tuple(row for b in blocks for row in b)


def kron(a, b, field):
    ra, ca = shape(a)
    rb, cb = shape(b)
    out = []
    for i in range(ra):
        for k in range(rb):
            row = []
            for j in range(ca):
                aij = a[i][j]
                if field.is_zero(aij):
                    row.extend([field.zero] * cb)
                else:
                    row.extend(field.mul(aij, b[k][l]) for l in range(cb))
            out.append(tuple(row))
    return tuple(out)


def rref(a, field):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if not field.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m), pivots


def rank(a, field):
    return len(rref(a, field)[1])


def nullspace(a, field):
    """Basis of the right kernel of a, as a list of column vectors (tuples).

    One basis vector per free column, with a 1 in the free position; this is
    the canonical basis read off the reduced echelon form, so the output is
    deterministic.
    """
    r, pivots = rref(a, field)
    rows, cols = shape(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * cols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(r[i][fc])
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


def row_space_contains(rref_basis, pivots, v, field):
    """Membership test against an RREF row basis with known pivot columns."""
    coeffs = [v[c] for c in pivots]
    residue = list(v)
    for coef, row in zip(coeffs, rref_basis):
        if not field.is_zero(coef):
            residue = [field.sub(x, field.mul(coef, y)) for x, y in zip(residue, row)]
    return all(field.is_zero(x) for x in residue)


def column_space_as_row_basis(a, field):
    """RREF row basis of the column space of a (image of the map x -> a x)."""
    cols = shape(a)[1]
    t = transpose(a, cols=cols)
    r, pivots = rref(t, field)
    return tuple(r[i] for i in range(len(pivots)))
