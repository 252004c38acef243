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

``blocks``, ``block_compose`` and ``block_differential`` are the reference
hom complex: an element as nested blocks ``{p: {(s, t): AlgebraElement}}``
read off ``hom_space``, composed and differentiated block by block with
``multiply``.  ``arckit.extalg`` works on coordinates over ``hom_space``
with d as one matrix built from the resolutions, and is checked against
these.

``lambda_n``, ``m_n``, ``stasheff_check`` and ``vanishing_report`` are the
reference A-infinity operations: every λ_n by the recursion from scratch,
every Stasheff term through fresh inner and outer m_n, and each vanishing
flag by applying Q again.  ``arckit.ainfty`` reads the same quantities off
one memo per splitting and is checked against these.
"""

from fractions import Fraction

from arckit import SparseMatrix
from arckit.ainfty import _class_key, composable_tuples
from arckit.arcalg import AlgebraElement, hom_basis, multiply
from arckit.extalg import ExtClass, HomElement, compose, hom_space, resolution, zero_hom


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


# ---------------------------------------------------------------------------
# the hom complex by blocks
# ---------------------------------------------------------------------------


def _clean(entries: dict) -> dict:
    out = {}
    for p, block in entries.items():
        kept = {key: u for key, u in block.items() if not u.is_zero()}
        if kept:
            out[p] = kept
    return out


def blocks(f: HomElement) -> dict:
    """f as {p: {(s, t): block}}: the block from summand s of component p
    of the source resolution to summand t of component p−k of the target."""
    entries: dict = {}
    space = hom_space(f.source, f.target, f.k)
    for i, c in f.coords.items():
        p, s, t, diagram, j = space[i]
        assert j == f.j, "coordinate outside the element's shift"
        block = entries.setdefault(p, {})
        term = AlgebraElement.from_diagram(diagram, c)
        block[(s, t)] = block.get((s, t), AlgebraElement()) + term
    return _clean(entries)


def block_differential(f: HomElement) -> dict:
    """The blocks of d(f) = f∘d_target − (−1)^k d_source∘f."""
    src, tgt = resolution(f.source), resolution(f.target)
    sign = Fraction((-1) ** f.k)
    entries: dict = {}

    def add(p, s, u, element):
        block = entries.setdefault(p, {})
        block[(s, u)] = block.get((s, u), AlgebraElement()) + element

    for p, block in blocks(f).items():
        q = p - f.k
        if 1 <= q < len(tgt):
            for (s, t), u in block.items():
                for (t2, u2), d_entry in tgt.differentials[q - 1].items():
                    if t2 == t:
                        add(p, s, u2, multiply(u, d_entry))
        if p + 1 < len(src):
            for (s2, s), d_entry in src.differentials[p].items():
                for (t0, t), u in block.items():
                    if t0 == s:
                        add(p + 1, s2, t, -sign * multiply(d_entry, u))
    return _clean(entries)


def block_compose(f: HomElement, g: HomElement) -> dict:
    """The blocks of the left-to-right product f·g (apply f first)."""
    assert f.target == g.source
    gblocks = blocks(g)
    entries: dict = {}
    for p, block in blocks(f).items():
        out = entries.setdefault(p, {})
        for (s, t), u in block.items():
            for (t0, v), w in gblocks.get(p - f.k, {}).items():
                if t0 == t:
                    out[(s, v)] = out.get((s, v), AlgebraElement()) + multiply(u, w)
    return _clean(entries)


# ---------------------------------------------------------------------------
# the A-infinity operations by direct evaluation
# ---------------------------------------------------------------------------


def _as_elements(items) -> list[HomElement]:
    return [x.element if isinstance(x, ExtClass) else x for x in items]


def _composable(elements: list[HomElement]) -> bool:
    return all(
        elements[i].target == elements[i + 1].source
        for i in range(len(elements) - 1)
    )


def lambda_n(split, items) -> HomElement:
    """λ_n(a_1, …, a_n) by the per-call sub-interval recursion; the
    arguments may be any hom elements."""
    elements = _as_elements(items)
    n = len(elements)
    if n < 2:
        raise ValueError("λ_n needs at least two arguments")
    k_total = sum(a.k for a in elements) + 2 - n
    j_total = sum(a.j for a in elements)
    if not _composable(elements) or any(a.is_zero() for a in elements):
        return zero_hom(elements[0].source, elements[-1].target, k_total, j_total)

    qlam: dict[tuple[int, int], HomElement] = {}
    for i, a in enumerate(elements):
        qlam[(i, i + 1)] = Fraction(-1) * a  # the formal seed Qλ_1 = −Id
    degree = [a.k for a in elements]

    def lam_interval(i: int, j: int) -> HomElement:
        if j - i == 2:
            return compose(elements[i], elements[i + 1])
        total = None
        for cut in range(i + 1, j):
            k_len, l_len = cut - i, j - cut
            exponent = (
                k_len
                + (l_len - 1) * sum(degree[i:cut])
                + (k_len - 1) * sum(degree[cut:j])
            )
            term = (
                Fraction(-((-1) ** exponent))
                * compose(qlam[(i, cut)], qlam[(cut, j)])
            )
            total = term if total is None else total + term
        return total

    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            value = lam_interval(i, j)
            if width < n:
                qlam[(i, j)] = split.q(value)
            else:
                return value
    raise AssertionError("unreachable")


def m_n(split, items) -> HomElement:
    return split.pi(lambda_n(split, items))


def stasheff_total(split, chain) -> HomElement | None:
    """Σ (−1)^{r+st+s(|a_1|+…+|a_r|)} m_{r+t+1}(1^r ⊗ m_s ⊗ 1^t) on one
    chain, every inner and outer m evaluated afresh (None: no terms)."""
    elements = _as_elements(chain)
    n = len(elements)
    total = None
    for s in range(2, n + 1):
        for r in range(0, n - s + 1):
            t = n - s - r
            if r + t + 1 < 2:
                continue  # outer m_1 vanishes on the minimal model
            inner = m_n(split, elements[r : r + s])
            if inner.is_zero():
                continue
            outer_args = elements[:r] + [inner] + elements[r + s :]
            term = m_n(split, outer_args)
            if term.is_zero():
                continue
            exponent = r + s * t + s * sum(a.k for a in elements[:r])
            term = Fraction((-1) ** exponent) * term
            total = term if total is None else total + term
    return total


def stasheff_check(split, arity: int) -> dict:
    classes = split.all_h_classes(include_idempotents=False)
    violations = []
    checked = 0
    for n in range(2, arity + 1):
        for chain in composable_tuples(classes, n):
            total = stasheff_total(split, chain)
            checked += 1
            if total is not None and not total.is_zero():
                violations.append(tuple(_class_key(c) for c in chain))
    return {"arity": arity, "checked": checked, "violations": violations}


def vanishing_report(split, arity: int) -> dict:
    classes = split.all_h_classes(include_idempotents=False)
    m, n = split.block

    q2_zero = True
    for a1, a2 in composable_tuples(classes, 2):
        if not split.q(compose(a1, a2)).is_zero():
            q2_zero = False
            break

    q2q2_zero = True
    for chain in composable_tuples(classes, 4):
        a1, a2, a3, a4 = _as_elements(chain)
        product = compose(
            split.q(compose(a1, a2)), split.q(compose(a3, a4))
        )
        if not product.is_zero():
            q2q2_zero = False
            break

    q3_zero = True
    for chain in composable_tuples(classes, 3):
        if not split.q(lambda_n(split, chain)).is_zero():
            q3_zero = False
            break

    per_arity: dict[int, dict] = {}
    for width in range(2, arity + 1):
        max_abs = Fraction(0)
        nonzero = []
        for chain in composable_tuples(classes, width):
            coeffs = split.pi_coefficients(lambda_n(split, chain))
            if coeffs:
                nonzero.append(tuple(_class_key(c) for c in chain))
                max_abs = max(max_abs, max(abs(v) for v in coeffs.values()))
        per_arity[width] = {
            "max_abs_coefficient": max_abs,
            "nonzero_tuples": nonzero,
        }

    return {
        "block": split.block,
        "mode": split.mode,
        "general_bound": n * n + 2,
        "q_lambda2_zero": q2_zero,
        "q_lambda2_products_zero": q2q2_zero,
        "q_lambda3_zero": q3_zero,
        "per_arity": per_arity,
    }
