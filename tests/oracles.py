"""Independent oracles used by the tests.

``rank``, ``kernel_basis`` and ``solve`` are the reference exact kernel: a
dense Gauss-Jordan elimination on ``Fraction``s that scans columns left to
right, kept here so that the sparse incremental ``arckit.exact.Echelon``
can be checked against it for exact equality.

``restrict`` is the reference graded submatrix: dense row and column
slicing, to check ``SparseMatrix.restrict`` against.

``hom_cohomology`` computes the cohomology dimensions of the hom complex
between two explicit projective complexes directly with sparse linear
algebra, without going through the Ext-algebra machinery, so it can serve
as a cross-check for resolutions produced by either construction.  Its
ranks come from the reference kernel, so it does not share code with the
kernel under test.
"""

from fractions import Fraction

from arckit import SparseMatrix
from arckit.arcalg import AlgebraElement, hom_basis, multiply


def _rref(matrix: SparseMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Dense RREF and its pivot columns, in order.

    Columns are scanned left to right; within a column the first row (top
    to bottom) with a nonzero entry is the pivot row.
    """
    m = matrix.dense()
    nrows, ncols = matrix.rows, matrix.cols
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sel = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m, pivots


def rank(matrix: SparseMatrix) -> int:
    return len(_rref(matrix)[1])


def kernel_basis(matrix: SparseMatrix) -> list[list[Fraction]]:
    """One vector per free column: that variable 1, the other free ones 0."""
    m, pivots = _rref(matrix)
    basis = []
    for fc in (c for c in range(matrix.cols) if c not in pivots):
        vec = [Fraction(0)] * matrix.cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


def solve(matrix: SparseMatrix, rhs) -> list[Fraction] | None:
    """The solution with every free variable 0, or None if inconsistent."""
    entries = dict(matrix.entries)
    entries.update({(r, matrix.cols): v for r, v in enumerate(rhs) if v})
    m, pivots = _rref(SparseMatrix(matrix.rows, matrix.cols + 1, entries))
    if matrix.cols in pivots:
        return None
    x = [Fraction(0)] * matrix.cols
    for i, pc in enumerate(pivots):
        x[pc] = m[i][matrix.cols]
    return x


def restrict(matrix: SparseMatrix, rows, cols) -> list[list[Fraction]]:
    """The dense submatrix on the given rows and columns, in that order."""
    dense = matrix.dense()
    return [[dense[r][c] for c in cols] for r in rows]


def _hom_space(C, D, k):
    out = []
    for p, comp in enumerate(C.components):
        q = p - k
        if not 0 <= q < len(D.components):
            continue
        for s, (nu, _) in enumerate(comp):
            for t, (nu2, _) in enumerate(D.components[q]):
                for diagram in hom_basis(nu, nu2):
                    out.append((p, s, t, diagram))
    return out


def _dmatrix(C, D, k, dom, cod):
    index = {v: i for i, v in enumerate(cod)}
    entries: dict[tuple[int, int], Fraction] = {}

    def add(row, col, value):
        entries[(row, col)] = entries.get((row, col), Fraction(0)) + value

    for col, (p, s, t, diagram) in enumerate(dom):
        u = AlgebraElement.from_diagram(diagram)
        q = p - k
        if 1 <= q < len(D.components):
            for (t2, u2), d_entry in D.differentials[q - 1].items():
                if t2 == t:
                    for dgm, c in multiply(u, d_entry):
                        add(index[(p, s, u2, dgm)], col, c)
        if p + 1 < len(C.components):
            sign = Fraction((-1) ** (k + 1))
            for (s2, s0), d_entry in C.differentials[p].items():
                if s0 == s:
                    for dgm, c in multiply(d_entry, u):
                        add(index[(p + 1, s2, t, dgm)], col, sign * c)
    entries = {key: v for key, v in entries.items() if v}
    return SparseMatrix(len(cod), len(dom), entries)


def hom_cohomology(C, D) -> dict[int, int]:
    """{k: dim H^k(hom(C, D))} with zero entries omitted."""
    kmin = -(len(D.components) - 1)
    kmax = len(C.components) - 1
    spaces = {k: _hom_space(C, D, k) for k in range(kmin - 1, kmax + 2)}
    dims = {}
    for k in range(kmin, kmax + 1):
        d_k = _dmatrix(C, D, k, spaces[k], spaces[k + 1])
        d_prev = _dmatrix(C, D, k - 1, spaces[k - 1], spaces[k])
        h = (len(spaces[k]) - rank(d_k)) - rank(d_prev)
        if h:
            dims[k] = h
    return dims
