"""Quiver representations over an exact field, and their homological algebra.

The central computation is the defect map of a pair of representations N, M:

    Phi : Hom(e,d) -> Hom(e,d[1]),   (f_i)_i |-> (M_a f_{s(a)} - f_{t(a)} N_a)_a

whose kernel is Hom_Q(N,M) and whose cokernel is Ext^1_Q(N,M).  Its matrix is
written in a fixed basis (vertices ascending, column-major inside each block),
so phi_map output is reproducible bit for bit.  Each row holds at most
dim M_t + dim N_s nonzeros out of sum_i e_i d_i columns, so phi_map stores
only those, one {column: value} dict per row; ``hom_dim`` and ``ext1_dim``
hand the dicts to ``linalg.rank`` as they are, and the cocycle search hands
its columns to ``linalg.rref`` as {row: value} dicts, so no dense matrix of
Phi is written.

Conventions: arrow matrices have shape (d_target x d_source) and act on column
vectors; subspaces are row spaces of reduced-row-echelon basis matrices.  A
(d x 0) matrix is d empty rows and a (0 x c) matrix is ``()``, so every kernel,
rank and row basis below is one ``linalg`` call whose shape comes from the
dimension vector.
"""

from . import linalg as la
from .errors import DomainError, check_ceiling
from .fields import QQ, PrimeField


def check_matrix_ceiling(quiver, dims, what):
    """BudgetError when the arrow matrices of a representation of quiver
    with dimension vector dims would be above the ceiling
    (``errors.check_ceiling``); ``what`` names it in the message, formatted
    only then.  Every representation built from a size alone runs this before
    it allocates."""
    check_ceiling(sum(dims[s - 1] * dims[t - 1] for s, t in quiver.arrows),
                  "the arrow matrices of {}", what)


class Representation:
    """Immutable: a quiver, a field, a dimension vector, one matrix per arrow."""

    def __init__(self, quiver, field, dims, matrices):
        dims = quiver.check_dim_vector(dims)
        matrices = [la.mat(m, field) for m in matrices]
        if len(matrices) != quiver.arrow_count:
            raise DomainError(f"expected {quiver.arrow_count} matrices, got {len(matrices)}")
        for i, (s, t) in enumerate(quiver.arrows):
            want = (dims[t - 1], dims[s - 1])
            m = matrices[i]
            if not m and 0 in want:
                # an empty matrix stands for one with a zero dimension
                matrices[i] = la.zeros(*want, field)
                continue
            if la.shape(m) != want:
                raise DomainError(f"arrow {i} matrix shape {la.shape(m)}, expected {want}")
            if any(len(row) != want[1] for row in m):
                raise DomainError(f"arrow {i} matrix has rows of unequal length")
        self.quiver = quiver
        self.field = field
        self.dims = dims
        self.matrices = tuple(matrices)

    def matrix(self, i):
        """Arrow matrix i, of shape (d_target x d_source)."""
        return self.matrices[i]

    @property
    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim == 0

    def __eq__(self, other):
        return (isinstance(other, Representation) and other.quiver == self.quiver
                and other.field == self.field and other.dims == self.dims
                and tuple(other.matrix(i) for i in range(other.quiver.arrow_count))
                == tuple(self.matrix(i) for i in range(self.quiver.arrow_count)))

    def __hash__(self):
        return hash((self.quiver, self.field, self.dims))

    def __repr__(self):
        return f"Representation(dims={self.dims}, field={self.field})"


def zero_rep(quiver, field):
    return Representation(quiver, field, (0,) * quiver.vertex_count,
                          [()] * quiver.arrow_count)


def _check_pair(n, m):
    if n.quiver != m.quiver:
        raise DomainError("representations live on different quivers")
    if n.field != m.field:
        raise DomainError("representations live over different fields")


def phi_map(n_rep, m_rep):
    """Matrix of Phi for the pair (N, M); kernel = Hom(N,M), cokernel = Ext^1.

    Returns (rows, cols), each row a {column: value} dict of its nonzeros, as
    ``linalg.rref`` takes them with the width ``cols``; ``linalg.dense``
    writes the matrix out.  Columns index Hom(e,d) = sum of blocks
    Hom(K^{e_i}, K^{d_i}), vertices ascending, each block vectorized
    column-major.  Rows index Hom(e,d[1]), arrows in quiver order, blocks
    vectorized the same way.  Row c*d_t + r of the block of a: s -> t is entry
    (r, c) of M_a f_s - f_t N_a, which holds M_a[r][j] at column j of column c
    of f_s and -N_a[k][c] at row r of column k of f_t; only these nonzeros are
    stored (s != t since the quiver is acyclic, so they never share a column).
    """
    _check_pair(n_rep, m_rep)
    quiver, field = n_rep.quiver, n_rep.field
    e, d = n_rep.dims, m_rep.dims
    col_offsets = []
    off = 0
    for i in range(quiver.vertex_count):
        col_offsets.append(off)
        off += e[i] * d[i]
    total_cols = off
    rows = []
    for a, (s, t) in enumerate(quiver.arrows):
        ma = [[(j, x) for j, x in enumerate(row) if x] for row in m_rep.matrix(a)]
        na = [[(k, field.of(-x)) for k, x in enumerate(col) if x]
              for col in la.transpose(n_rep.matrix(a), cols=e[s - 1])]
        ds, dt = d[s - 1], d[t - 1]
        ls, rs = col_offsets[s - 1], col_offsets[t - 1]
        for c in range(e[s - 1]):
            left = ls + c * ds
            for r in range(dt):
                row = {left + j: x for j, x in ma[r]}
                for k, x in na[c]:
                    row[rs + k * dt + r] = x
                rows.append(row)
    return tuple(rows), total_cols


def hom_dim(n_rep, m_rep):
    phi, cols = phi_map(n_rep, m_rep)
    return cols - la.rank(phi, n_rep.field, cols)


def ext1_dim(n_rep, m_rep):
    """dim Ext^1(N,M) = dim Hom(N,M) - <dim N, dim M> (cokernel rank of Phi)."""
    phi, cols = phi_map(n_rep, m_rep)
    r = la.rank(phi, n_rep.field, cols)
    return len(phi) - r


def hom_basis(n_rep, m_rep):
    """Basis of Hom_Q(N,M) as tuples of per-vertex matrices (d_i x e_i)."""
    phi, cols = phi_map(n_rep, m_rep)
    shapes = list(zip(m_rep.dims, n_rep.dims))
    return [_unvec(v, shapes) for v in la.nullspace(phi, n_rep.field, cols)]


def _unvec(vec, shapes):
    """Split a coordinate vector into matrices of the given (rows, cols) shapes.

    The inverse of the vectorization phi_map uses: blocks in order, each
    column-major, so entry (r, c) of a block with R rows is block[c * R + r].
    """
    out = []
    off = 0
    for rows, cols in shapes:
        out.append(tuple(tuple(vec[off + c * rows + r] for c in range(cols))
                         for r in range(rows)))
        off += rows * cols
    return tuple(out)


def is_rigid(m_rep):
    return ext1_dim(m_rep, m_rep) == 0


def simple(quiver, field, k):
    if not (1 <= k <= quiver.vertex_count):
        raise DomainError(f"bad vertex {k}")
    dims = tuple(1 if v == k else 0 for v in range(1, quiver.vertex_count + 1))
    mats = [la.zeros(dims[t - 1], dims[s - 1], field) for s, t in quiver.arrows]
    return Representation(quiver, field, dims, mats)


def projective(quiver, field, k):
    """P_k: basis at vertex i = paths k -> i, arrows act by concatenation.
    BudgetError before any path is listed when its arrow matrices are above
    the ceiling (``check_matrix_ceiling``)."""
    if not (1 <= k <= quiver.vertex_count):
        raise DomainError(f"bad vertex {k}")
    check_matrix_ceiling(quiver, quiver.projective_dims()[k - 1], f"P_{k}")
    paths = quiver.paths_from(k)
    dims = tuple(len(paths[v]) for v in range(1, quiver.vertex_count + 1))
    index = {v: {p: j for j, p in enumerate(paths[v])} for v in paths}
    mats = []
    for a, (s, t) in enumerate(quiver.arrows):
        m = [[field.zero] * dims[s - 1] for _ in range(dims[t - 1])]
        for j, p in enumerate(paths[s]):
            q = p + (a,)
            m[index[t][q]][j] = field.one
        mats.append(tuple(tuple(r) for r in m))
    return Representation(quiver, field, dims, mats)


def injective(quiver, field, k):
    """I_k = D(projective of the opposite quiver at k)."""
    return dual(projective(quiver.opposite(), field, k))


def dual(m_rep):
    """Linear dual over the opposite quiver: reverse arrows, transpose matrices."""
    q = m_rep.quiver
    mats = []
    for i, (s, t) in enumerate(q.arrows):
        mats.append(la.transpose(m_rep.matrix(i), cols=m_rep.dims[s - 1]))
    return Representation(q.opposite(), m_rep.field, m_rep.dims, mats)


def direct_sum(*reps):
    if not reps:
        raise DomainError("direct_sum of nothing")
    first = reps[0]
    for r in reps[1:]:
        _check_pair(first, r)
    q, field = first.quiver, first.field
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(q.vertex_count))
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        rtot = sum(r.dims[t - 1] for r in reps)
        ctot = sum(r.dims[s - 1] for r in reps)
        out = [[field.zero] * ctot for _ in range(rtot)]
        r0 = c0 = 0
        for r in reps:
            rr, cc = r.dims[t - 1], r.dims[s - 1]
            for i, row in enumerate(r.matrix(a)):
                out[r0 + i][c0:c0 + cc] = row
            r0 += rr
            c0 += cc
        mats.append(tuple(tuple(row) for row in out))
    return Representation(q, field, dims, mats)


class SubrepWitness:
    """A point of a quiver Grassmannian: per-vertex RREF row bases inside M.

    bases[i] is an (e_i x d_i) full-row-rank reduced-row-echelon matrix whose
    row space is the chosen subspace at vertex i+1.
    """

    def __init__(self, quiver, field, bases):
        bases = tuple(la.mat(b, field) for b in bases)
        if len(bases) != quiver.vertex_count:
            raise DomainError("one basis matrix per vertex required")
        pivots = []
        for b in bases:
            if len({len(row) for row in b}) > 1:
                raise DomainError("witness basis rows must have equal length")
            rows, piv = la.rref(b, field)
            width = len(b[0]) if b else 0
            if la.dense(rows, field, width) + la.zeros(len(b) - len(piv), width, field) != b:
                raise DomainError("witness bases must be in reduced row echelon form")
            if len(piv) != len(b):
                raise DomainError("witness bases must have full row rank")
            pivots.append(tuple(piv))
        self.quiver = quiver
        self.field = field
        self.bases = bases
        self.pivots = tuple(pivots)

    @property
    def dims(self):
        return tuple(len(b) for b in self.bases)

    def ambient_dims(self):
        return tuple(len(b[0]) if b else None for b in self.bases)

    def is_stable(self, m_rep):
        """Arrow stability against M (see ``arrow_stable``).

        DomainError if the witness does not live in M: another quiver or
        field, or a basis row whose length is not d_v.
        """
        if (self.quiver != m_rep.quiver or self.field != m_rep.field
                or any(a not in (None, d) for a, d in zip(self.ambient_dims(), m_rep.dims))):
            raise DomainError("witness does not live in the representation")
        return arrow_stable(m_rep, self.bases, self.pivots)

    def __eq__(self, other):
        return (isinstance(other, SubrepWitness) and other.quiver == self.quiver
                and other.field == self.field and other.bases == self.bases)

    def __hash__(self):
        return hash((self.quiver, self.field, self.bases))

    def __repr__(self):
        return f"SubrepWitness(dims={self.dims})"


def arrow_stable(m_rep, bases, pivots):
    """Whether M_a(U_{s(a)}) lies in U_{t(a)} for every arrow a of M.

    U_v is the row space of bases[v-1], an RREF row basis of a subspace of
    M_v whose pivot columns are pivots[v-1]; an empty basis is the zero space.
    """
    field = m_rep.field
    return all(la.row_space_contains(bases[t - 1], pivots[t - 1],
                                     la.mat_vec(m_rep.matrix(a), row, field), field)
               for a, (s, t) in enumerate(m_rep.quiver.arrows) for row in bases[s - 1])


def restrict(m_rep, witness):
    """The subrepresentation L with matrices written in the witness row bases.

    DomainError if the witness does not live in M or is not arrow-stable.
    """
    if not witness.is_stable(m_rep):
        raise DomainError("witness is not arrow-stable")
    field = m_rep.field
    mats = []
    for a, (s, t) in enumerate(m_rep.quiver.arrows):
        imgs = [la.mat_vec(m_rep.matrix(a), row, field) for row in witness.bases[s - 1]]
        # coordinates of a vector in the RREF row basis are its pivot entries
        mats.append(tuple(tuple(img[p] for img in imgs) for p in witness.pivots[t - 1]))
    return Representation(m_rep.quiver, field, witness.dims, mats)


def quotient(m_rep, witness):
    """M/L in the complementary coordinates (non-pivot columns of the bases).

    DomainError if the witness does not live in M or is not arrow-stable.
    """
    if not witness.is_stable(m_rep):
        raise DomainError("witness is not arrow-stable")
    q, field = m_rep.quiver, m_rep.field
    d = m_rep.dims
    e = witness.dims
    qdims = tuple(d[i] - e[i] for i in range(q.vertex_count))
    nonpiv = [tuple(c for c in range(d[i]) if c not in witness.pivots[i])
              for i in range(q.vertex_count)]

    def project(i, v):
        # subtract the witness component, read off non-pivot coordinates
        v = la.reduce_by(witness.bases[i], witness.pivots[i], v, field)
        return tuple(v[c] for c in nonpiv[i])

    mats = []
    for a, (s, t) in enumerate(q.arrows):
        ma = m_rep.matrix(a)
        # column c of M_a, projected to M_t / L_t
        cols = [project(t - 1, tuple(row[c] for row in ma)) for c in nonpiv[s - 1]]
        mats.append(la.transpose(cols, cols=qdims[t - 1]))
    return Representation(q, field, qdims, mats)


def tangent_dim(m_rep, witness):
    """dim of the Grassmannian tangent space at the witness: [L, M/L].

    DomainError if the witness does not live in M or is not arrow-stable.
    """
    return hom_dim(restrict(m_rep, witness), quotient(m_rep, witness))


def build_extension(s_rep, x_rep, cocycle):
    """Middle term of the extension of S by X given by a degree-one cocycle.

    cocycle is one matrix per arrow, of shape (dim X_{t(a)} x dim S_{s(a)});
    the result Y has Y_a = [[X_a, z_a], [0, S_a]] with X occupying the leading
    coordinates.  Returns (Y, iota, pi): per-vertex matrices of the inclusion
    X -> Y and the projection Y -> S.
    """
    _check_pair(x_rep, s_rep)
    q, field = x_rep.quiver, x_rep.field
    dx, ds = x_rep.dims, s_rep.dims
    if len(cocycle) != q.arrow_count:
        raise DomainError("one cocycle matrix per arrow required")
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        rx, cx, rs, cs = dx[t - 1], dx[s - 1], ds[t - 1], ds[s - 1]
        z = la.mat(cocycle[a], field) or la.zeros(rx, cs, field)  # empty block means zero
        if len(z) != rx or any(len(row) != cs for row in z):
            raise DomainError(f"cocycle matrix {a} must have {rx} rows of length {cs}")
        mats.append(la.vstack([la.hstack([x_rep.matrix(a), z]),
                               la.hstack([la.zeros(rs, cx, field), s_rep.matrix(a)])]))
    y = Representation(q, field, tuple(a + b for a, b in zip(dx, ds)), mats)
    iota = tuple(la.vstack([la.identity(dx[i], field), la.zeros(ds[i], dx[i], field)])
                 for i in range(q.vertex_count))
    pi = tuple(la.hstack([la.zeros(ds[i], dx[i], field), la.identity(ds[i], field)])
               for i in range(q.vertex_count))
    return y, iota, pi


def nonzero_ext_cocycle(s_rep, x_rep):
    """A cocycle whose class spans Ext^1(S,X); requires that space nonzero.

    Found as the first standard basis vector e_j of Hom(dim S, dim X[1])
    outside the column space of Phi_S^X, so the output is deterministic.  The
    columns of Phi are eliminated once, as {row: value} dicts; a vector of
    their span is the sum of the reduced rows weighted by its entries at the
    pivots, so e_j lies in it exactly when {j: 1} is a reduced row.
    """
    phi, cols = phi_map(s_rep, x_rep)
    field, nrows = x_rep.field, len(phi)
    columns = [{} for _ in range(cols)]
    for r, row in enumerate(phi):
        for c, x in row.items():
            columns[c][r] = x
    image, pivots = la.rref(columns, field, nrows)
    outside = set(range(nrows)) - {c for c, row in zip(pivots, image) if len(row) == 1}
    if not outside:
        raise DomainError("Ext^1(S,X) = 0, no nonzero class")
    j = min(outside)
    return list(_unvec([field.one if i == j else field.zero for i in range(nrows)],
                       [(x_rep.dims[t - 1], s_rep.dims[s - 1]) for s, t in x_rep.quiver.arrows]))


def morphism_image_witness(phi_mats, source, target):
    """Witness for the per-vertex image of a morphism source -> target."""
    field = target.field
    # the column space of phi_i is the row space of its transpose
    bases = [la.row_basis(la.transpose(m, e), field) for m, e in zip(phi_mats, source.dims)]
    return SubrepWitness(target.quiver, field, bases)


def morphism_kernel_witness(phi_mats, source, target):
    """Witness for the per-vertex kernel of a morphism source -> target."""
    field = source.field
    bases = [la.row_basis(la.nullspace(m, field, e), field)
             for m, e in zip(phi_mats, source.dims)]
    return SubrepWitness(source.quiver, field, bases)


def reduce_mod(m_rep, p):
    """Reduce a rational representation mod p; DomainError on bad reduction."""
    if m_rep.field != QQ:
        raise DomainError("reduce_mod expects a representation over Q")
    # the constructor coerces each entry (PrimeField.of refuses a bad reduction)
    return Representation(m_rep.quiver, PrimeField(p), m_rep.dims, m_rep.matrices)

