"""Exact linear algebra over Q or GF(p).

Matrices are tuples of tuples of field elements (rows), always acting on
column vectors.  Entries are Python numbers and the arithmetic is Python's
own ``+ - *``; ``field.of`` brings each result back into the field (``% p``
over GF(p)), so every entry returned is a ``Fraction`` over Q and an int in
``range(p)`` over GF(p), given entries of that kind (as ``mat`` makes them).
A matrix with no rows is ``()`` whatever its width, so it carries no width:
``transpose`` and ``nullspace`` take the column count ``cols`` from the
caller.

Every elimination is one ``rref``.  It reduces rows held as ``{column:
value}`` dicts of their nonzeros, so its work follows the nonzeros and their
fill-in rather than rows x columns, and it returns the reduced rows in that
form: ``rank`` counts them and ``nullspace`` reads them without a dense
matrix being written; ``dense`` writes them out where a caller needs tuples.
Its input rows may be given in either form: dense, or already as such dicts
(``rank`` and ``nullspace`` pass them on), in which case the caller gives
the width ``cols`` and the elimination never reads a zero entry.  No
pivoting heuristics are needed since arithmetic is exact, and the reduced
echelon form is unique.
"""

from .errors import DomainError
from .fields import PrimeField


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


def mat_vec(a, v, field):
    return tuple(field.of(sum(x * y for x, y in zip(row, v) if x and y)) for row in a)


def hstack(blocks):
    rows = len(blocks[0])
    return tuple(tuple(x for b in blocks for x in b[i]) for i in range(rows))


def vstack(blocks):
    return tuple(row for b in blocks for row in b)


def dense(rows, field, cols):
    """The dense form of rows given as {column: value} dicts, ``cols`` wide."""
    out = []
    for row in rows:
        full = [field.zero] * cols
        for j, x in row.items():
            full[j] = x
        out.append(tuple(full))
    return tuple(out)


def rref(a, field, cols=None):
    """Reduced row echelon form; returns (rows, pivot column list).

    Rows of a are dense or {column: value} dicts; dict rows need the width
    ``cols``, which dense rows carry themselves, and a column outside
    ``range(cols)`` is a DomainError.  The rows returned are the nonzero rows
    of the reduced echelon form, in pivot order, as {column: value} dicts of
    their nonzeros (``dense`` writes them out).  Each row of a is copied into
    a dict of its nonzeros and reduced by the pivot rows found so far at its
    leading column until it vanishes or leads at a new column, where it
    becomes a pivot row, divided by its pivot unless that is 1.  Back
    substitution, from the last pivot column to the first, then clears each
    pivot column in the other rows.  The arithmetic is inline: ``% p`` over
    GF(p), and bare ``Fraction`` arithmetic over Q, where ``field.of`` has
    nothing to do.
    """
    if cols is None:
        if a and isinstance(a[0], dict):
            raise DomainError("rref: rows given as dicts need the column count cols")
        cols = len(a[0]) if a else 0
    zero = field.zero
    p = field.p if isinstance(field, PrimeField) else 0  # 0: over Q, no reduction
    lead = {}  # pivot column -> its pivot row, {column: value}, 1 at the pivot

    def subtract(row, f, pivot_row):
        get = row.get
        for j, y in pivot_row.items():
            x = get(j, zero) - f * y
            if p:
                x %= p
            if x:
                row[j] = x
            else:
                del row[j]

    for source in a:
        items = source.items() if isinstance(source, dict) else enumerate(source)
        row = {j: x for j, x in items if x}  # a copy: the caller's dict is kept
        while row:
            c = min(row)
            pivot_row = lead.get(c)
            if pivot_row is None:
                if row[c] != 1:
                    inv = field.inv(row[c])
                    row = ({j: inv * x % p for j, x in row.items()} if p
                           else {j: inv * x for j, x in row.items()})
                lead[c] = row
                break
            subtract(row, row[c], pivot_row)
    pivots = sorted(lead)
    for c in reversed(pivots):
        row = lead[c]
        # the pivot rows to the right are reduced already, so each
        # subtraction clears its pivot column and leaves the others zero
        for j in [j for j in row if j != c and j in lead]:
            subtract(row, row[j], lead[j])
    rows = [lead[c] for c in pivots]
    # every input row lies in the row space, so a column outside range(cols)
    # shows as the first pivot below 0 or as a reduced row reaching cols
    if pivots and (pivots[0] < 0 or max(max(row) for row in rows) >= cols):
        raise DomainError(f"rref: a row has a column outside range({cols})")
    return rows, pivots


def rank(a, field, cols=None):
    return len(rref(a, field, cols)[1])


def row_basis(a, field):
    """The rows of rref(a), dense: the canonical basis of the row space of a."""
    return dense(rref(a, field)[0], field, len(a[0]) if a else 0)


def nullspace(a, field, cols):
    """Basis of the right kernel of the (rows x cols) matrix a, dense or with
    dict rows as ``rref`` takes them, as a list of column vectors (tuples).

    One basis vector per free column, with a 1 in the free position and minus
    the reduced rows' entries in that column at their pivots; this is the
    canonical basis read off the reduced echelon form, so the output is
    deterministic.
    """
    if a and not isinstance(a[0], dict) and len(a[0]) != cols:
        raise DomainError(f"nullspace: matrix width {len(a[0])}, expected {cols}")
    rows, pivots = rref(a, field, cols)
    pivot_set = set(pivots)
    zero = field.zero
    basis = []
    for fc in (c for c in range(cols) if c not in pivot_set):
        v = [zero] * cols
        v[fc] = field.one
        for row, pc in zip(rows, pivots):
            v[pc] = field.of(-row.get(fc, zero))
        basis.append(tuple(v))
    return basis


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

