"""Independent oracles used by the tests.

Every reference reads a complex's differential entries as
``AlgebraElement``s through ``ProjectiveComplex.entry`` (``differential``), not
as the (basis id, coeff) terms the complex holds; ``element`` reads such
terms through ``basis(m, n)`` for the tests.

``relative_length`` and ``bruhat_leq`` are the reference Bruhat order:
every prefix count recomputed from the labels, with the blocks recounted
on each call.  ``arckit.diagrams`` compares in one pass with a running
count and is checked against these.

``rank``, ``kernel_basis`` and ``solve`` are the reference exact kernel: a
dense Gauss-Jordan elimination on ``Fraction``s that scans columns left to
right, kept here so that the sparse incremental ``arckit.exact.Echelon``
can be checked against it for exact equality.

``not_exact`` is the reference scalar convention: it lists the values
that are neither an ``int`` nor a ``Fraction`` with denominator > 1.

``from_rows`` builds a sparse matrix from dense rows for the tests, and
``dense_rows`` reads them back; ``identity``, ``transpose`` and ``apply``
(a matrix times a sparse vector, in the vector format of ``arckit.exact``)
are the matrix helpers only the tests use.
``sparse`` and ``dense`` convert a vector between the dense list the
reference kernel uses and the sparse ``{index: scalar}`` dict that
``arckit`` uses everywhere, and ``vectorize`` is the dense coordinate list
of a hom element.

``differential_matrix`` is d: hom^k → hom^{k+1} as one whole matrix, every
column of ``arckit.extalg._d_columns`` at once; the package builds d by
columns only where it reads them.  ``decompose`` writes a cocycle over a
list of classes plus a coboundary by one ``arckit.exact.solve`` against
the classes and every column of d_{k−1}; the package reads Ext coordinates
off the split alone (``Splitting.pi_coefficients``, ``ext_quiver``) and is
checked against it.  ``graded_dimension`` counts an explicit module's
basis vectors by degree.

``hom_cohomology`` computes the cohomology dimensions of the hom complex
between two explicit projective complexes directly with sparse linear
algebra, without going through the Ext-algebra machinery, so it can serve
as a cross-check for resolutions produced by either construction.  Its
ranks come from the reference kernel, so it does not share code with the
kernel under test.

``ext_dims_hom_complex`` is the reference Ext dimension count: the rank of
every d_k of the full hom complex hom(P_•(λ), P_•(μ)) over ``hom_space``,
each d ranked once.  ``arckit.extalg.ext_dims`` ranks the much smaller
complex Hom(P_•(λ), M(μ)) with ``arckit.exact.rank`` and is checked
against it; the reference ranks with the reference kernel.

``hom_into_module_dims_reference`` counts the same small complex over the
action matrices of an explicit module, ``cell_module(μ)``, and ranks with
the reference kernel; ``arckit.extalg.ext_dims`` reads each entry as one
coefficient of one surgery product and is checked against it.

``cover_reference``, ``flat_differential_reference``,
``homogeneous_kernel_reference`` and ``head_generators_reference`` are the
reference generic resolution steps: each cover summand's basis filtered
from ``basis``, a differential's matrix by ``multiply`` on every basis
column, its kernel in every degree by the reference ``kernel_basis``, and
the head of a syzygy span with the radical from every positive-degree
diagram, kept per (cup-weight, degree) block in a dense span.
``resolve_generic_reference`` chains them into a whole resolution that
assumes no linearity.  ``arckit.resolve`` caches each summand's basis and
each diagram's right action, solves only the degree-(i + 1) kernel after
d_i and takes all of it as the generators, and is checked against these.
``right_action_reference`` is a diagram's right-action table with every x
of the degree surgered; ``arckit.resolve._right_action`` skips each x
whose product lands in an empty graded piece, and must give the same
table.

``verify_homology_reference`` is the reference d² and exactness check of
a resolution: the full matrix of every differential by
``flat_differential_reference``, d² as the product of the full matrices,
and each degree's homology ranked by the reference kernel on the entries
bucketed out of them.  ``arckit.resolve.verify_resolution`` asks each d_i
once for one matrix per degree of its source, checks d² on the
generators only and ranks the per-degree matrices as they are; on a
graded complex its d² and homology failures must equal these, message
for message and in order.

``lift_chain_map_reference`` is the reference chain-map lift of the cone
construction: one linear system per homological degree k, an unknown per
degree-one basis diagram of every e_s K e_t, an equation per basis
diagram of every product it meets, indexed by the diagrams themselves,
and solved by the dense reference ``solve``.  ``arckit.resolve`` solves
each summand s on its own against the cup-weight-ν_s column block of
d^upper_k's degree-one matrix, and is checked against it, every f_k.

``kl_poly_at`` is the Kazhdan-Lusztig recursion with its first step taken
at a chosen 'v^' pair of λ and every later one by ``kl_poly_recursive``,
which always takes the first pair: the recursion's value must not depend
on that choice.

``surgery_product_reference`` is the reference surgery product: vertices
are (line, position) pairs, a state is a tuple of labels, and every cut
finds the components it reads again by a depth-first walk for every state.
``arckit.arcalg`` compiles the cuts of each cup/cap triple once into
bitmask steps and is checked against it, term order included.
``plan_reference`` reads those steps off the same walk, rescanning the
remaining pairs for the leftmost admissible one after every cut;
``arckit.arcalg`` cuts in the order of the left endpoints, sorted once,
and is checked against it, plan for plan.

``blocks``, ``block_compose`` and ``block_differential`` are the reference
hom complex: an element as nested blocks ``{p: {(s, t): AlgebraElement}}``
read off ``hom_space``, each basis id mapped back to its diagram through
``basis(m, n)``, composed and differentiated block by block with
``multiply``; ``from_blocks`` reads blocks back into coordinates.
``arckit.extalg`` works on coordinates over ``hom_space`` with d as one
matrix built from the resolutions and composes on basis ids through the
product table, and is checked against these.

``module_action``, ``projective_action`` and ``cell_action`` are the
reference module actions: every algebra basis diagram acts on every module
vector through ``multiply`` on wrapped elements, and ``constructed_hom_basis``
builds e_α K e_β by trying every middle weight.  ``arckit.repmod`` multiplies
only the pairs that stack, and ``arckit.arcalg.hom_basis`` hands out the
objects of ``basis``; both are checked against these.

``lambda_n``, ``m_n``, ``stasheff_check`` and ``vanishing_report`` are the
reference A-infinity operations: every λ_n by the recursion from scratch,
every Stasheff term through fresh inner and outer m_n, and each vanishing
flag by applying Q again; every product is ``block_compose`` read back by
``from_blocks``, not ``arckit.extalg.compose``.  Their chains come from
``composable_tuples``, a depth-first search over class objects, and each
class is named by ``class_key``, which finds its position among the
classes of its hom^k.  ``arckit.ainfty`` reads the same quantities off one
memo per splitting, over chains of class indices, and is checked against
these.

``nullhomotopic_element``, ``find_homotopy`` and ``hom_windows_ok`` are
checks only tests call: the A and B product families, the homotopy half
of ``decompose(f, [])``, and the five admissible (k, j) windows of the
n = 2 hom complex.

``lambda_degree_bound_holds`` is the paper's general vanishing bound as an
inequality on a chain of classes: with k_i = l(μ_i) − l(μ_{i+1}) − d_i, a
nonzero λ_l needs Σd_i ≤ n² + 2 − l.

``reflect_weight`` and ``reflect_diagram`` are the reflection ρ of
(m|n) onto (n|m): the labels read right to left with v and ^ swapped, and
every arc (i, j) sent to (N−1−j, N−1−i) and every ray r to N−1−r.  They are
built only through ``Weight.parse``, the arc-diagram constructors and
``__str__``, with no other ``arckit`` logic, so ρ is a check that needs no
reference implementation: the product and Ext dimensions commute with it,
and any rule that treats left and right, or v and ^, unevenly breaks that.

``build_pair`` is the reference splitting of one (λ, μ) pair, with no code
from ``arckit.exact``.  Each hom^k is split by its own dense elimination:
B = d(L_{k-1}), then H, each vector of which must raise the dense rank of
the vectors kept so far, then L, the explicit homotopies in canonical mode
and then unit vectors.  Generic H is the first vectors of the reference
``kernel_basis`` of d_k that raise that rank; canonical H is the labelled
classes built from their closed formulas and the ranges in
``tests/tables.py``.  The count of that kernel basis checks that B ⊕ H
exhausts the cocycles, and [B | H | L] is inverted by dense Gauss-Jordan
on [M | I]; like the splitting, it keeps the L vectors sparse and, of each
inverse column, the B and H rows.  ``extalg._split_pair``, which
``Splitting._build_pair`` calls, builds each hom^k in one tagged
``Echelon`` pass that also picks H, and is checked against it pair by
pair.
"""

from collections import Counter
from fractions import Fraction

from arckit import QPoly, SparseMatrix, exact, kl_poly_recursive
from arckit.exact import rational
from arckit.ainfty import _SpaceSplit
from arckit.arcalg import AlgebraElement, _product_table, basis, hom_basis, multiply
from arckit.diagrams import (
    CapDiagram,
    CupDiagram,
    OrientedCircleDiagram,
    Weight,
    associated_cap_diagram,
    associated_cup_diagram,
    cup_oriented,
    length,
    weights_in_block,
)
from arckit.extalg import (
    ExtClass,
    HomElement,
    _d_columns,
    _in_window,
    _k_range,
    _sigma,
    construct_element,
    ext_basis,
    hom_element,
    hom_space,
    homotopy_seeds,
    resolution,
    zero_hom,
)
from arckit.resolve import ProjectiveComplex
from tables import PRODUCT_LABELS, homotopy_in_range
from tables import in_range as label_in_range


def differential(c, i: int) -> dict:
    """d_i of the complex c as {(s, t): AlgebraElement}, each entry read
    through ``ProjectiveComplex.entry``."""
    return {(s, t): c.entry(i, s, t) for s, t in c.differentials[i - 1]}


def element(block, terms) -> AlgebraElement:
    """The element of K with these (basis id, coeff) terms, each id the
    position of its diagram in ``basis`` of the block."""
    diagrams = basis(*block)
    return AlgebraElement({diagrams[x]: c for x, c in terms})


def _block(weight) -> tuple[int, int]:
    labels = weight.labels
    return (sum(1 for c in labels if c == "v"), sum(1 for c in labels if c == "^"))


def relative_length(i: int, lam, mu) -> int:
    """l_i(λ,μ): (# of 'v' in λ at positions <= i) - (same count for μ)."""
    if _block(lam) != _block(mu):
        raise ValueError("weights from different blocks")
    count = 0
    for j in range(i + 1):
        if lam.labels[j] == "v":
            count += 1
        if mu.labels[j] == "v":
            count -= 1
    return count


def bruhat_leq(lam, mu) -> bool:
    """λ <= μ iff every prefix relative length is >= 0."""
    if _block(lam) != _block(mu):
        raise ValueError("weights from different blocks")
    return all(relative_length(i, lam, mu) >= 0 for i in range(len(lam.labels)))


def kl_poly_at(lam, mu, index: int) -> QPoly:
    """p_{λ,μ} by the recursion with its first step at the 'v^' pair of λ
    at (index, index + 1), every later step ``kl_poly_recursive``'s own."""
    if lam == mu:
        return QPoly.one()
    if not bruhat_leq(lam, mu):
        return QPoly.zero()
    swapped = kl_poly_recursive(lam.swap(index), mu).shift(1)
    if mu.has_down_up_at(index):
        return kl_poly_recursive(lam.delete(index), mu.delete(index)) + swapped
    return swapped


def _rref(matrix: SparseMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Dense RREF and its pivot columns, in order.

    Columns are scanned left to right; within a column the first row (top
    to bottom) with a nonzero entry is the pivot row.  Every entry is read
    in as a ``Fraction``, so no step divides two ints.
    """
    m = [[Fraction(v) for v in row] for row in dense_rows(matrix)]
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
        m[row] = [x * inv if x else x for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b if b else a for a, b in zip(m[r], m[row])]
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


def not_exact(values) -> list:
    """The values that break the scalar convention."""
    return [
        v
        for v in values
        if not (type(v) is int or (type(v) is Fraction and v.denominator > 1))
    ]


def from_rows(rows) -> SparseMatrix:
    """The sparse matrix with these dense rows."""
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0, entries)


def sparse(vec) -> dict:
    """The nonzero entries of a dense vector, keyed by index."""
    return {i: v for i, v in enumerate(vec) if v}


def dense(vec, length: int) -> list:
    """The dense list of the given length with the entries of a sparse vector."""
    out = [0] * length
    for i, v in vec.items():
        out[i] = v
    return out


def dense_rows(matrix: SparseMatrix) -> list[list]:
    """The dense rows of a sparse matrix; the inverse of ``from_rows``."""
    out = [[0] * matrix.cols for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        out[r][c] = v
    return out


def identity(n: int) -> SparseMatrix:
    return SparseMatrix(n, n, {(i, i): 1 for i in range(n)})


def transpose(matrix: SparseMatrix) -> SparseMatrix:
    return SparseMatrix(matrix.cols, matrix.rows, {(c, r): v for (r, c), v in matrix.entries.items()})


def apply(matrix: SparseMatrix, vec) -> dict:
    """The product with a sparse ``{col: value}`` vector, as a sparse
    ``{row: value}`` one holding only the nonzero entries, in increasing
    index order; ValueError for an index outside the columns."""
    if vec and (min(vec) < 0 or max(vec) >= matrix.cols):
        raise ValueError("vector index out of range")
    out = {}
    for (r, c), v in matrix.entries.items():
        x = vec.get(c)
        if x:
            out[r] = out.get(r, 0) + v * x
    return {r: rational(v) for r, v in sorted(out.items()) if v}


def vectorize(f: HomElement) -> list:
    """The dense coordinate list of f over its own hom space."""
    return dense(f.coords, len(hom_space(f.source, f.target, f.k)))


def differential_matrix(lam, mu, k: int) -> SparseMatrix:
    """Matrix of d: hom^k → hom^{k+1} in the ``hom_space`` bases, every
    column of ``_d_columns`` at once, built anew per call."""
    columns = _d_columns(lam, mu, k, range(len(hom_space(lam, mu, k))))
    entries = {(r, c): v for c, column in columns.items() for r, v in column.items()}
    return SparseMatrix(len(hom_space(lam, mu, k + 1)), len(columns), entries)


def decompose(f: HomElement, classes=None):
    """Write the cocycle f as Σ cᵢ·bᵢ + d(H) over the basis classes.

    Returns (coefficients keyed by (label, k, j, position), H), position
    being the place among the given classes of degree k (by default those
    of ``ext_basis(λ, μ)``, split anew per call).  ValueError for a class
    outside f's hom(λ, μ), ArithmeticError for f not a cocycle in the span.
    """
    lam, mu, k = f.source, f.target, f.k
    if classes is None:
        classes = ext_basis(lam, mu)
    if any((c.source, c.target) != (lam, mu) for c in classes):
        raise ValueError(f"a class lies outside hom({lam}, {mu})")
    classes = [c for c in classes if c.k == k]
    boundary = _d_columns(lam, mu, k - 1, range(len(hom_space(lam, mu, k - 1))))
    width = len(classes)
    columns = [c.element.coords for c in classes] + list(boundary.values())
    entries = {(r, c): v for c, column in enumerate(columns) for r, v in column.items()}
    matrix = SparseMatrix(len(hom_space(lam, mu, k)), len(columns), entries)
    solution = exact.solve(matrix, f.coords)
    if solution is None:
        raise ArithmeticError("element does not decompose over the basis")
    coeffs = {
        (c.label, c.k, c.j, i): solution[i]
        for i, c in enumerate(classes)
        if i in solution
    }
    homotopy = {i - width: v for i, v in solution.items() if i >= width}
    return coeffs, hom_element(lam, mu, k - 1, homotopy, f.j)


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
            for (t2, u2), d_entry in differential(D, q).items():
                if t2 == t:
                    for dgm, c in multiply(u, d_entry):
                        add(index[(p, s, u2, dgm)], col, c)
        if p + 1 < len(C.components):
            sign = Fraction((-1) ** (k + 1))
            for (s2, s0), d_entry in differential(C, p + 1).items():
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


def ext_dims_hom_complex(lam, mu) -> dict[int, int]:
    """Cohomology dimensions {k: dim} of hom(P_•(λ), P_•(μ)) by rank
    counts, zeros omitted."""
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    out: dict[int, int] = {}
    ranks: dict[int, int] = {}  # d_k is both this k's r_k and the next r_prev
    for k in _k_range(lam, mu):
        space = hom_space(lam, mu, k)
        if not space:
            continue
        for i in (k - 1, k):
            if i not in ranks:
                ranks[i] = rank(differential_matrix(lam, mu, i))
        total = len(space) - ranks[k] - ranks[k - 1]
        if total:
            out[k] = total
    return out


def hom_into_module_dims_reference(P, M) -> dict[int, int]:
    """Cohomology dimensions {k: dim} of Hom(P, M), zeros omitted, with M
    an explicit module: the entry at (s, t) of each pulled-back
    differential is read off the action matrices of ``M``, and the ranks
    come from the reference kernel."""
    where = {label: i for i, label in enumerate(M.labels)}
    coords = []
    for comp in P.components:
        kept = [(s, where[nu]) for s, (nu, _) in enumerate(comp) if nu in where]
        coords.append({s: (i, v) for i, (s, v) in enumerate(kept)})
    ranks = [0] * len(P.components)
    for k in range(len(P.differentials)):
        cols, rows = coords[k], coords[k + 1]
        if not cols or not rows:
            continue
        entries: dict[tuple[int, int], Fraction] = {}
        for (s, t), u in differential(P, k + 1).items():
            if s in rows and t in cols:
                (row, v_s), (col, v_t) = rows[s], cols[t]
                for z, c in u:
                    action = M.action.get(z)
                    a = action.entries.get((v_s, v_t)) if action is not None else None
                    if a:
                        entries[row, col] = entries.get((row, col), 0) + c * a
        ranks[k] = rank(SparseMatrix(len(rows), len(cols), entries))
    out = {}
    for k, degree in enumerate(coords):
        total = len(degree) - ranks[k] - (ranks[k - 1] if k else 0)
        if total:
            out[k] = total
    return out


# ---------------------------------------------------------------------------
# generic resolutions
# ---------------------------------------------------------------------------


def weights_by_cup(m, n) -> dict:
    """The weight α of the block with α̲ equal to each cup diagram, by a
    scan of ``weights_in_block``; should two weights share one, the first
    wins."""
    out: dict = {}
    for alpha in weights_in_block(m, n):
        out.setdefault(associated_cup_diagram(alpha), alpha)
    return out


def projective_labels(lam) -> list:
    """The basis of P(λ) = K e_λ: the diagrams of ``basis`` with cap λ̄."""
    cap = associated_cap_diagram(lam)
    return [d for d in basis(*lam.block) if d.cap == cap]


def cover_reference(summands) -> list:
    """The flat basis of ⊕ P(μ)⟨j⟩: (summand index, diagram, cup-weight,
    absolute degree), each summand's block in ``projective_labels`` order."""
    return [
        (idx, d, weights_by_cup(*mu.block)[d.cup], d.degree + j)
        for idx, (mu, j) in enumerate(summands)
        for d in projective_labels(mu)
    ]


def flat_differential_reference(diff, source, target) -> SparseMatrix:
    """The matrix of a differential between the covers of two summand
    lists: ``multiply`` on every basis diagram x of summand s by every
    entry d[s, t], the image read off in summand t."""
    source_flat, target_flat = cover_reference(source), cover_reference(target)
    index = {(idx, diag): k for k, (idx, diag, _, _) in enumerate(target_flat)}
    entries: dict[tuple[int, int], Fraction] = {}
    for col, (s, diag, _, _) in enumerate(source_flat):
        x = AlgebraElement.from_diagram(diag)
        for (s2, t), u in diff.items():
            if s2 != s:
                continue
            for d, c in multiply(x, u):
                r = index.get((t, d))
                if r is None:
                    raise AssertionError("image left the projective summand")
                entries[(r, col)] = entries.get((r, col), 0) + c
    return SparseMatrix(len(target_flat), len(source_flat), entries)


def right_action_reference(m, n, d, degree) -> tuple:
    """x ↦ x·d for the basis id d, as ``arckit.resolve._right_action`` gives
    it: (column, row, value) triples indexed by the table's ``stacking``,
    from every x of the degree in P(cup of d), each surgered, whatever
    the degree of the piece its product lands in."""
    table = _product_table(m, n)
    rows = {y: k for k, y in enumerate(table.stacking[table.cap[d]])}
    return tuple(
        (col, rows[y], v)
        for col, x in enumerate(table.stacking[table.cup[d]])
        if table.degree[x] == degree
        for y, v in table.product(x, d)
    )


def head_generators_reference(syzygy, flat) -> list:
    """The greedy head of a syzygy span W over the flat cover ``flat``,
    with the radical K_{>0}·W spanned by z·w for every basis diagram z of
    positive degree and every syzygy vector w, each product by
    ``multiply`` (z·x is zero unless z's cap has x's cup arcs, so only
    those z are tried).  Every such z·w lies in one (cup-weight, degree)
    block of coordinates, so the span is kept as one dense ``_DenseSpan``
    per block."""
    index = {(idx, diag): k for k, (idx, diag, _, _) in enumerate(flat)}
    block_of = [(alpha, deg) for _, _, alpha, deg in flat]
    blocks: dict[tuple, list[int]] = {}
    for k, key in enumerate(block_of):
        blocks.setdefault(key, []).append(k)
    spans = {key: _DenseSpan() for key in blocks}

    def add(vec: dict) -> bool:
        (key,) = {block_of[k] for k in vec}  # a ValueError if not homogeneous
        return spans[key].add([vec.get(k, 0) for k in blocks[key]])

    positive: dict[tuple, list] = {}
    for z in basis(*flat[0][1].weight.block):
        if z.degree > 0:
            positive.setdefault((z.cap.cups, z.cap.rays), []).append(z)
    for _, _, vec in syzygy:
        images: dict = {}
        for c, coord in vec.items():
            idx, x, _, _ = flat[c]
            for z in positive.get((x.cup.cups, x.cup.rays), ()):
                product = multiply(AlgebraElement.from_diagram(z), AlgebraElement.from_diagram(x))
                image = images.setdefault(z, {})
                for d, v in product:
                    r = index[(idx, d)]
                    image[r] = image.get(r, 0) + v * coord
        for image in images.values():
            if any(image.values()):
                add({r: v for r, v in image.items() if v})
    return [
        (alpha, deg, vec)
        for alpha, deg, vec in sorted(syzygy, key=lambda adv: (adv[1], str(adv[0])))
        if add(vec)
    ]


def homogeneous_kernel_reference(matrix: SparseMatrix, flat) -> list:
    """The kernel of the matrix in every degree, split into (cup-weight,
    absolute degree) column blocks of the flat cover ``flat``, each solved
    by the reference ``kernel_basis`` on its nonzero rows, returned as
    sparse homogeneous vectors block by block in (degree, ``str(α)``)
    order."""
    blocks: dict[tuple, list[int]] = {}
    for k, (_, _, alpha, deg) in enumerate(flat):
        blocks.setdefault((alpha, deg), []).append(k)
    out = []
    for alpha, deg in sorted(blocks, key=lambda ad: (ad[1], str(ad[0]))):
        cols = blocks[(alpha, deg)]
        local = {c: k for k, c in enumerate(cols)}
        rows = sorted({r for r, c in matrix.entries if c in local})
        at = {r: k for k, r in enumerate(rows)}
        entries = {(at[r], local[c]): v for (r, c), v in matrix.entries.items() if c in local}
        for vec in kernel_basis(SparseMatrix(len(rows), len(cols), entries)):
            out.append((alpha, deg, {cols[k]: v for k, v in sparse(vec).items()}))
    return out


def resolve_generic_reference(lam):
    """The minimal resolution of M(λ) by iterated projective covers with no
    use of linearity: the kernel of each differential in every degree by
    ``homogeneous_kernel_reference``, its matrix by
    ``flat_differential_reference``, and the generators picked from it by
    the greedy radical pass of ``head_generators_reference``.  The
    augmentation sends each diagram of P(λ) with middle weight λ to its own
    basis vector of M(λ) and every other diagram to 0.  Each entry is
    written into the complex as (basis id, coeff) terms in id order, the id
    of a diagram its position in ``basis``."""
    components = [[(lam, 0)]]
    diffs = []
    flat = cover_reference(components[0])
    reps = [k for k, (_, d, _, _) in enumerate(flat) if d.weight == lam]
    augmentation = SparseMatrix(len(reps), len(flat), {(r, k): 1 for r, k in enumerate(reps)})
    syzygy = homogeneous_kernel_reference(augmentation, flat)
    while syzygy:
        generators = head_generators_reference(syzygy, flat)
        diff: dict = {}
        for s, (_, _, vec) in enumerate(generators):
            for c, coord in vec.items():
                t, x, _, _ = flat[c]
                u = diff.get((s, t), AlgebraElement())
                diff[(s, t)] = u + coord * AlgebraElement.from_diagram(x)
        components.append([(alpha, deg) for alpha, deg, _ in generators])
        diffs.append(diff)
        flat = cover_reference(components[-1])
        syzygy = homogeneous_kernel_reference(
            flat_differential_reference(diff, components[-1], components[-2]), flat
        )
    ids = {d: x for x, d in enumerate(basis(*lam.block))}
    diffs = [
        {key: tuple(sorted((ids[d], c) for d, c in u)) for key, u in diff.items()}
        for diff in diffs
    ]
    return ProjectiveComplex(lam, tuple(tuple(comp) for comp in components), tuple(diffs))


def verify_homology_reference(c, lam) -> list[str]:
    """The d² and exactness failures of ``verify_resolution`` on a complex
    whose entries lie in their summands, from the full matrix of every
    differential by ``flat_differential_reference``: d² is the product of
    the full matrices, reported per (summand of C_i, summand of C_{i-2})
    block, and the homology in each absolute degree is ranked by the
    reference ``rank`` on the entries whose row and column have that
    degree, bucketed out of the full matrices.  The graded dimension of
    M(λ) is that of the diagrams of P(λ) with middle weight λ."""
    flats = [cover_reference(comp) for comp in c.components]
    matrices = [
        flat_differential_reference(differential(c, i), c.components[i], c.components[i - 1])
        for i in range(1, len(c))
    ]
    failures = []
    for i in range(2, len(c)):
        square = matrices[i - 2] @ matrices[i - 1]
        blocks = {(flats[i][col][0], flats[i - 2][row][0]) for row, col in square.entries}
        failures += [f"d²≠0 at component {i}, blocks ({s},{u})" for s, u in sorted(blocks)]
    coords = [{} for _ in flats]  # per component: degree -> its coordinates in order
    for flat, by_degree in zip(flats, coords):
        for k, (_, _, _, deg) in enumerate(flat):
            by_degree.setdefault(deg, []).append(k)
    gdim_M = Counter(d.degree for _, d, _, _ in flats[0] if d.weight == lam)
    for deg in sorted({deg for by_degree in coords for deg in by_degree}):
        dims = [len(by_degree.get(deg, [])) for by_degree in coords]
        ranks = []
        for i, mat in enumerate(matrices):
            rows = {r: k for k, r in enumerate(coords[i].get(deg, []))}
            cols = {c_: k for k, c_ in enumerate(coords[i + 1].get(deg, []))}
            entries = {
                (rows[r], cols[c_]): v
                for (r, c_), v in mat.entries.items()
                if r in rows and c_ in cols
            }
            ranks.append(rank(SparseMatrix(len(rows), len(cols), entries)))
        h0 = dims[0] - (ranks[0] if ranks else 0)
        if h0 != gdim_M[deg]:
            failures.append(f"H₀ wrong in degree {deg}: {h0} vs {gdim_M[deg]}")
        for i in range(1, len(flats)):
            kernel, image = dims[i] - ranks[i - 1], ranks[i] if i < len(ranks) else 0
            if kernel != image:
                failures.append(f"H_{i} ≠ 0 in degree {deg}: ker dim {kernel}, im dim {image}")
    return failures


def _degree_one_elements(source, target) -> list[OrientedCircleDiagram]:
    return [d for d in hom_basis(source, target) if d.degree == 1]


def lift_chain_map_reference(f0, lower, upper) -> list[dict]:
    """Degreewise lift of f0 to a chain map f_k : lower_k → upper_k.

    ``lower`` is the complex being shifted into the cone (P_•(λ'')⟨1⟩),
    ``upper`` the functor image of the smaller-block resolution; both
    commute on the nose: f_{k-1} ∘ d^lower_k = d^upper_k ∘ f_k, written
    with right-multiplication composition as
    Σ_t d^lower[s,t]·f_{k-1}[t,u] = Σ_t f_k[s,t]·d^upper[t,u].
    Each f_k entry is a degree-one element; the linear system over the
    (at most one-dimensional) degree-one hom spaces is solved with the
    deterministic echelon convention, here by the dense reference ``solve``.
    """
    fs: list[dict[tuple[int, int], AlgebraElement]] = [{(0, 0): f0}]
    for k in range(1, len(lower)):
        src = lower.components[k]
        # past the end of the upper complex f_k is forced to be zero and the
        # system below degenerates to the consistency check f_{k-1}∘d = 0
        dst = upper.components[k] if k < len(upper) else ()
        dst_prev = len(upper.components[k - 1]) if k - 1 < len(upper) else 0
        # unknowns: one coefficient per degree-one basis diagram per (s, t)
        unknowns: list[tuple[int, int, OrientedCircleDiagram]] = []
        for s, (nu, _) in enumerate(src):
            for t, (nu2, _) in enumerate(dst):
                for diag in _degree_one_elements(nu, nu2):
                    unknowns.append((s, t, diag))
        # equations: for each (s, u) and each basis diagram appearing in
        # f_k[s,·]·d^upper[·,u] − d^lower[s,·]·f_{k-1}[·,u] = 0
        prev = fs[k - 1]
        eq_index: dict[tuple[int, int, OrientedCircleDiagram], int] = {}

        def eq_row(key):
            if key not in eq_index:
                eq_index[key] = len(eq_index)
            return eq_index[key]

        coeffs: dict[tuple[int, int], Fraction] = {}  # (row, col) -> value
        rhs_vec: dict[int, Fraction] = {}
        for col, (s, t, diag) in enumerate(unknowns):
            for u in range(dst_prev):
                du = upper.entry(k, t, u)
                if du.is_zero():
                    continue
                prod = multiply(AlgebraElement.from_diagram(diag), du)
                for d, c in prod:
                    r = eq_row((s, u, d))
                    coeffs[(r, col)] = coeffs.get((r, col), 0) + c
        for s in range(len(src)):
            for t in range(len(lower.components[k - 1])):
                dl = lower.entry(k, s, t)
                if dl.is_zero():
                    continue
                for u in range(dst_prev):
                    fprev = prev.get((t, u))
                    if fprev is None:
                        continue
                    prod = multiply(dl, fprev)
                    for d, c in prod:
                        r = eq_row((s, u, d))
                        rhs_vec[r] = rhs_vec.get(r, 0) + c
        matrix = SparseMatrix(len(eq_index), len(unknowns), coeffs)
        solution = solve(matrix, dense(rhs_vec, matrix.rows))
        if solution is None:
            raise AssertionError("chain-map lift has no solution")
        fk: dict[tuple[int, int], AlgebraElement] = {}
        for col, x in sparse(solution).items():
            s, t, diag = unknowns[col]
            fk[(s, t)] = fk.get((s, t), AlgebraElement()) + x * AlgebraElement.from_diagram(diag)
        fs.append({k_: v for k_, v in fk.items() if not v.is_zero()})
    return fs


# ---------------------------------------------------------------------------
# module actions and hom bases
# ---------------------------------------------------------------------------


def module_action(m, n, module_basis, act_on_basis) -> dict:
    """The matrix of every basis diagram z of K_m^n with a nonzero action,
    in ``basis`` order, from ``act_on_basis(z, v)`` on every module vector v
    as a dict {module vector: coefficient}."""
    index = {v: k for k, v in enumerate(module_basis)}
    dim = len(module_basis)
    out = {}
    for z in basis(m, n):
        entries: dict[tuple[int, int], Fraction] = {}
        for col, v in enumerate(module_basis):
            for w, coeff in act_on_basis(z, v).items():
                entries[(index[w], col)] = entries.get((index[w], col), Fraction(0)) + coeff
        mat = SparseMatrix(dim, dim, entries)
        if not mat.is_zero():
            out[z] = mat
    return out


def graded_dimension(module) -> QPoly:
    """Σ_d (number of basis vectors of degree d)·q^d of an explicit module."""
    return QPoly(Counter(module.degrees))


def projective_action(lam) -> tuple[list, dict]:
    """The labels and action matrices of P(λ) = K e_λ."""
    m, n = lam.block
    labels = projective_labels(lam)

    def act(z, v):
        product = multiply(AlgebraElement.from_diagram(z), AlgebraElement.from_diagram(v))
        return dict(product.terms)

    return labels, module_action(m, n, labels, act)


def cell_action(mu) -> tuple[list, dict]:
    """The labels and action matrices of M(μ), as P(μ) modulo the diagrams
    of middle weight other than μ."""
    m, n = mu.block
    cap = associated_cap_diagram(mu)
    labels = [
        alpha
        for alpha in weights_in_block(m, n)
        if cup_oriented(associated_cup_diagram(alpha), mu)
    ]

    def act(z, alpha):
        rep = OrientedCircleDiagram(associated_cup_diagram(alpha), mu, cap)
        product = multiply(AlgebraElement.from_diagram(z), AlgebraElement.from_diagram(rep))
        out: dict = {}
        for diagram, coeff in product:
            if diagram.weight != mu:
                continue
            new_alpha = weights_by_cup(m, n)[diagram.cup]
            out[new_alpha] = out.get(new_alpha, Fraction(0)) + coeff
        return out

    return labels, module_action(m, n, labels, act)


def constructed_hom_basis(alpha, beta) -> list:
    """The oriented diagrams (α̲, ν, β̄), a fresh object for each ν in
    ``weights_in_block`` order."""
    cup = associated_cup_diagram(alpha)
    cap = associated_cap_diagram(beta)
    out = []
    for nu in weights_in_block(*alpha.block):
        try:
            out.append(OrientedCircleDiagram(cup, nu, cap))
        except ValueError:
            continue
    return out


# ---------------------------------------------------------------------------
# the reflection (m|n) -> (n|m)
# ---------------------------------------------------------------------------


def reflect_weight(weight) -> Weight:
    """ρλ: the labels of λ from right to left, v and ^ swapped."""
    return Weight.parse("".join(_FLIP[c] for c in reversed(str(weight))))


def reflect_diagram(diagram) -> OrientedCircleDiagram:
    """ρ(a, λ, b) = (ρa, ρλ, ρb): each arc (i, j) of the cup and the cap
    diagram becomes (N−1−j, N−1−i) and each ray r becomes N−1−r."""
    last = diagram.weight.size - 1

    def mirrored(kind, arcs):
        cups = frozenset((last - j, last - i) for i, j in arcs.cups)
        return kind(arcs.size, cups, frozenset(last - r for r in arcs.rays))

    return OrientedCircleDiagram(
        mirrored(CupDiagram, diagram.cup),
        reflect_weight(diagram.weight),
        mirrored(CapDiagram, diagram.cap),
    )


# ---------------------------------------------------------------------------
# the surgery product by a depth-first walk per state
# ---------------------------------------------------------------------------
#
# Vertices are (line, position) pairs and a state is a dict of labels; every
# component is found again, by a depth-first walk, for every state it is
# needed for.


_FLIP = {"^": "v", "v": "^"}


def _partners(cups) -> dict[int, int]:
    return {p: q for i, j in cups for p, q in ((i, j), (j, i))}


def _leftmost(vertices):
    return min(vertices, key=lambda v: (v[1], v[0]))


class _Geometry:
    """The arcs of one stacked basis pair, cut open one middle pair at a
    time by ``steps``."""

    def __init__(self, a, b, d):
        self.size = a.size
        self.vertices = [(l, p) for l in (0, 1) for p in range(self.size)]
        # infinite ends: line-0 rays of a (down), line-1 rays of d (up)
        self.infinite_ends = {(0, p) for p in a.rays} | {(1, p) for p in d.rays}
        self.outer = (_partners(a.cups), _partners(d.cups))
        self.middle = _partners(b.cups)
        self.verticals = set(b.rays)

    def middle_pairs(self):
        return sorted((i, j) for i, j in self.middle.items() if i < j)

    def propagate(self, start, label) -> dict:
        """The labels of start's component when start carries ``label``."""
        labels = {start: label}
        stack = [start]
        while stack:
            line, p = v = stack.pop()
            arcs = []
            if p in self.outer[line]:
                arcs.append(((line, self.outer[line][p]), _FLIP[labels[v]]))
            if p in self.middle:
                arcs.append(((line, self.middle[p]), _FLIP[labels[v]]))
            elif p in self.verticals:
                arcs.append(((1 - line, p), labels[v]))
            for w, want in arcs:
                if w not in labels:
                    labels[w] = want
                    stack.append(w)
                elif labels[w] != want:
                    raise AssertionError("a component has no consistent orientation")
        return labels

    def component(self, v) -> list:
        return sorted(self.propagate(v, "^"))

    def kind(self, vertices, labels) -> str:
        """'y' for a line, else '1' or 'x' by the leftmost vertex's label."""
        if any(v in self.infinite_ends for v in vertices):
            return "y"
        return "1" if labels[_leftmost(vertices)] == "v" else "x"

    def circle(self, vertices, kind) -> dict:
        """Labeling of a circle: kind '1' = 'v' at the leftmost vertex, 'x' = '^'."""
        return self.propagate(_leftmost(vertices), "v" if kind == "1" else "^")

    def line(self, vertices, labels) -> dict:
        """Labeling of a line keeping the labels at its infinite ends."""
        first, *others = [v for v in vertices if v in self.infinite_ends]
        out = self.propagate(first, labels[first])
        if any(out[e] != labels[e] for e in others):
            raise AssertionError("surgery could not preserve a line's ends")
        return out

    def steps(self, pair_picker=None):
        """Cut the middle pairs open one at a time, yielding the components
        through the cap and the cup before the cut (the same list when they
        are one component) and the components formed after it."""
        while self.middle:
            pairs = self.middle_pairs()
            admissible = [
                (i, j) for i, j in pairs if not any(k < i and j < l for k, l in pairs)
            ]
            i, j = pair_picker(admissible) if pair_picker else admissible[0]
            cap = self.component((0, i))
            cup = cap if (1, i) in cap else self.component((1, i))
            del self.middle[i], self.middle[j]
            self.verticals |= {i, j}
            after = [self.component((0, i))]
            if (0, j) not in after[0]:
                after = sorted(after + [self.component((0, j))])
            yield cap, cup, after


def plan_reference(a, b, d) -> tuple:
    """The cuts of ``arckit.arcalg._plan`` for the stacked triple (a, b, d),
    found by ``_Geometry.steps``, which rescans the remaining pairs for the
    leftmost admissible one after every cut: each cut as (keep, cap,
    cap_end, cup, cup_end) and (start, end, mask, same) per component
    formed, with vertex (line, p) numbered line * size + p."""
    geometry = _Geometry(a, b, d)
    size = geometry.size

    def number(v) -> int:
        return v[0] * size + v[1]

    def start_end(vertices) -> tuple[int, int]:
        ends = sorted(number(v) for v in vertices if v in geometry.infinite_ends)
        return (ends[0], ends[-1]) if ends else (number(_leftmost(vertices)), -1)

    plan = []
    for cap, cup, after in geometry.steps():
        formed = []
        for vertices in after:
            start, end = start_end(vertices)
            labels = geometry.propagate((start // size, start % size), "^")
            formed += [start, end, sum(1 << number(v) for v in vertices),
                       sum(1 << number(v) for v, label in labels.items() if label == "^")]
        keep = (1 << 2 * size) - 1 ^ sum(formed[2::4])
        plan.append((keep, *start_end(cap), *start_end(cup), *formed))
    return tuple(plan)


def _apply_rule(geometry, labels, cap, cup, after) -> list[dict]:
    """The relabelings of the components ``after`` that one cut gives one
    state, each with coefficient 1."""
    if cap is cup:
        kind = geometry.kind(cap, labels)
        if kind == "y":  # y -> x⊗y
            circle, line = sorted(after, key=lambda g: geometry.kind(g, labels) == "y")
            return [{**geometry.circle(circle, "x"), **geometry.line(line, labels)}]
        first, second = after
        kinds = (("1", "x"), ("x", "1")) if kind == "1" else (("x", "x"),)
        return [
            {**geometry.circle(first, k1), **geometry.circle(second, k2)}
            for k1, k2 in kinds
        ]
    kinds = {geometry.kind(cap, labels), geometry.kind(cup, labels)}
    if kinds == {"y"}:  # y⊗y -> y⊗y when the lines' ends are all '^' and all 'v'
        ends = {
            frozenset(labels[v] for v in g if v in geometry.infinite_ends)
            for g in (cap, cup)
        }
        if ends != {frozenset("^"), frozenset("v")}:
            return []
        return [{v: s for g in after for v, s in geometry.line(g, labels).items()}]
    if "x" in kinds and "1" not in kinds:  # x⊗x, x⊗y -> 0
        return []
    (merged,) = after
    if "y" in kinds:  # 1⊗y -> y
        return [geometry.line(merged, labels)]
    return [geometry.circle(merged, "x" if "x" in kinds else "1")]


def surgery_product_reference(a, lam, b, mu, d, pair_picker=None) -> list:
    """The product of (a, λ, b) and (b*, μ, d) as a list of (diagram,
    coefficient) terms, in the order the states arise: every state is a
    dict of labels, carried through the cuts of ``_Geometry.steps``."""
    geometry = _Geometry(a, b, d)
    states = {lam.labels + mu.labels: 1}
    for cap, cup, after in geometry.steps(pair_picker):
        new_states = {}
        for state, coeff in states.items():
            labels = dict(zip(geometry.vertices, state))
            for relabel in _apply_rule(geometry, labels, cap, cup, after):
                key = tuple({**labels, **relabel}.values())
                new_states[key] = new_states.get(key, 0) + coeff
        if not new_states:
            return []
        states = new_states
    size = geometry.size
    if any(state[:size] != state[size:] for state in states):
        raise AssertionError("number lines disagree after surgery")
    return [(OrientedCircleDiagram(a, Weight(s[:size]), d), c) for s, c in states.items()]


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
    diagrams = basis(*f.source.block)
    for i, c in f.coords.items():
        p, s, t, x, j = space[i]
        assert j == f.j, "coordinate outside the element's shift"
        block = entries.setdefault(p, {})
        term = AlgebraElement.from_diagram(diagrams[x], c)
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
                for (t2, u2), d_entry in differential(tgt, q).items():
                    if t2 == t:
                        add(p, s, u2, multiply(u, d_entry))
        if p + 1 < len(src):
            for (s2, s), d_entry in differential(src, p + 1).items():
                for (t0, t), u in block.items():
                    if t0 == s:
                        add(p + 1, s2, t, -sign * multiply(d_entry, u))
    return _clean(entries)


def from_blocks(lam, mu, k: int, j: int, entries: dict) -> HomElement:
    """The element of hom^k(λ, μ) of shift j with the blocks ``entries``,
    each diagram found among the ``hom_space`` vectors of its block."""
    diagrams = basis(*lam.block)
    index = {
        (p, s, t, diagrams[x]): i for i, (p, s, t, x, _) in enumerate(hom_space(lam, mu, k))
    }
    coords = {
        index[p, s, t, d]: c
        for p, block in entries.items()
        for (s, t), u in block.items()
        for d, c in u
    }
    return hom_element(lam, mu, k, coords, j)


def _compose(f: HomElement, g: HomElement) -> HomElement:
    """f·g by ``block_compose``, read back into coordinates."""
    f, g = _as_elements([f, g])
    return from_blocks(f.source, g.target, f.k + g.k, f.j + g.j, block_compose(f, g))


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
            return _compose(elements[i], elements[i + 1])
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
                * _compose(qlam[(i, cut)], qlam[(cut, j)])
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


def nullhomotopic_element(label: str, lam, mu) -> HomElement:
    """The nullhomotopic product families A and B (n = 2)."""
    if label not in {"A", "B"}:
        raise ValueError(f"unknown nullhomotopic label {label!r}")
    return construct_element(label, lam, mu)


def hom_windows_ok(lam, mu) -> bool:
    """Every nonzero graded piece of hom(P_•(λ), P_•(μ)) sits in one of
    the five admissible (k, j) windows (n = 2)."""
    sigma = _sigma(lam, mu)
    return all(
        _in_window(sigma, k, j)
        for k in _k_range(lam, mu)
        for _, _, _, _, j in hom_space(lam, mu, k)
    )


def find_homotopy(f: HomElement) -> HomElement | None:
    """H with d(H) = f, the homotopy of ``decompose(f, [])``, or None if f
    is not a coboundary.  f = 0 yields the zero homotopy."""
    try:
        return decompose(f, [])[1]
    except ArithmeticError:
        return None


def lambda_degree_bound_holds(elements) -> bool:
    """The inequality from the general vanishing bound: with
    k_i = l(μ_i) − l(μ_{i+1}) − d_i, a nonzero λ_l needs Σd_i ≤ n²+2−l."""
    n = elements[0].source.n
    total_d = sum(
        length(a.source) - length(a.target) - a.k for a in elements
    )
    return total_d <= n * n + 2 - len(elements)


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


def composable_tuples(classes: list[ExtClass], arity: int) -> list[tuple]:
    """Every tuple of ``arity`` classes with target_i = source_{i+1}, by
    depth-first extension of each class in turn."""
    by_source: dict = {}
    for c in classes:
        by_source.setdefault(c.source, []).append(c)
    out: list[tuple] = []

    def extend(chain: list):
        if len(chain) == arity:
            out.append(tuple(chain))
            return
        for c in by_source.get(chain[-1].target, []):
            chain.append(c)
            extend(chain)
            chain.pop()

    for c in classes:
        extend([c])
    return out


def class_key(split, c: ExtClass) -> tuple:
    """(source, target, label, k, j, position) of one of the splitting's
    H-classes, position being its place among the classes of its hom^k:
    the key the reports of ``arckit.ainfty`` name it by."""
    same_k = [x for x in split.h_classes(c.source, c.target) if x.k == c.k]
    position = next(i for i, x in enumerate(same_k) if x is c)
    return (str(c.source), str(c.target), c.label, c.k, c.j, position)


def stasheff_check(split, arity: int) -> dict:
    classes = split.all_h_classes(include_idempotents=False)
    violations = []
    checked = 0
    for n in range(2, arity + 1):
        for chain in composable_tuples(classes, n):
            total = stasheff_total(split, chain)
            checked += 1
            if total is not None and not total.is_zero():
                violations.append(tuple(class_key(split, c) for c in chain))
    return {"arity": arity, "checked": checked, "violations": violations}


def vanishing_report(split, arity: int) -> dict:
    classes = split.all_h_classes(include_idempotents=False)
    m, n = split.block

    q2_zero = True
    for a1, a2 in composable_tuples(classes, 2):
        if not split.q(_compose(a1, a2)).is_zero():
            q2_zero = False
            break

    q2q2_zero = True
    for chain in composable_tuples(classes, 4):
        a1, a2, a3, a4 = _as_elements(chain)
        product = _compose(
            split.q(_compose(a1, a2)), split.q(_compose(a3, a4))
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
                nonzero.append(tuple(class_key(split, c) for c in chain))
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


def _times(matrix: list[list], vec) -> list[Fraction]:
    """The dense product of a dense matrix (a list of rows) with a vector."""
    return [sum((a * b for a, b in zip(row, vec) if a and b), Fraction(0)) for row in matrix]


class _DenseSpan:
    """Dense ``Fraction`` rows, each 1 at its pivot (its first nonzero
    entry) and 0 at the pivots of the rows before it, so one pass in
    insertion order reduces a vector.  ``add`` keeps a vector iff it
    raises the rank of the vectors kept so far."""

    def __init__(self):
        self.rows: list[tuple[int, list[Fraction]]] = []

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        v = [Fraction(x) for x in vec]
        for pivot, row in self.rows:
            if v[pivot]:
                f = v[pivot]
                v = [a - f * b if b else a for a, b in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        self.rows.append((pivot, [x / v[pivot] if x else x for x in v]))
        return True


def _inverse(columns: list, dim: int, kept: int) -> list[dict]:
    """The first ``kept`` rows of the inverse of the square matrix with
    these columns, as one sparse dict per column, by dense Gauss-Jordan on
    [M | I]: its RREF is [I | M^-1]."""
    entries = {(r, c): v for c, col in enumerate(columns) for r, v in enumerate(col) if v}
    entries.update({(i, dim + i): 1 for i in range(dim)})
    m, pivots = _rref(SparseMatrix(dim, 2 * dim, entries))
    if pivots[:dim] != list(range(dim)):
        raise ArithmeticError("[B | H | L] is singular")
    return [{r: m[r][dim + c] for r in range(kept) if m[r][dim + c]} for c in range(dim)]


def _labelled_classes(lam, mu) -> list[ExtClass]:
    """The n = 2 labelled classes from λ to μ, in (k, label) order, built
    from their closed formulas: each basis label in its defining range,
    except J and F̃ where H(J) and H(F−F̃) are in range (there d H(J) = J
    and d H(F−F̃) = F ± F̃); none unless λ ≤ μ."""
    if not bruhat_leq(lam, mu):
        return []
    dropped = {"J": "H(J)", "Ftilde": "H(F-Ftilde)"}
    classes = [
        ExtClass(label, lam, mu, construct_element(label, lam, mu))
        for label in PRODUCT_LABELS
        if label_in_range(label, lam, mu)
        and not (label in dropped and homotopy_in_range(dropped[label], lam, mu))
    ]
    return sorted(
        (c for c in classes if not c.element.is_zero()), key=lambda c: (c.k, c.label)
    )


def build_pair(split, lam, mu) -> dict:
    """The splitting of every hom^k(λ, μ), built the slow way."""
    canonical = split.mode == "canonical-n2"
    labelled = _labelled_classes(lam, mu) if canonical else None
    seeds = homotopy_seeds(lam, mu) if canonical else {}
    out = {}
    l_prev = []
    for k in _k_range(lam, mu):
        space = hom_space(lam, mu, k)
        dim = len(space)
        if dim == 0:
            out[k] = _SpaceSplit(space, 0, [], [sparse(v) for v in l_prev], [])
            l_prev = []
            continue
        d_k = differential_matrix(lam, mu, k)
        cocycles = kernel_basis(d_k)
        d_prev = dense_rows(differential_matrix(lam, mu, k - 1))
        span = _DenseSpan()
        b_cols = [_times(d_prev, vec) for vec in l_prev]
        if not all(span.add(vec) for vec in b_cols):
            raise ArithmeticError("d is not injective on the chosen L")
        if labelled is None:
            h_cols = [vec for vec in cocycles if span.add(vec)]
            classes = [
                ExtClass("generic", lam, mu, hom_element(lam, mu, k, sparse(vec)))
                for vec in h_cols
            ]
        else:
            classes = [c for c in labelled if c.k == k]
            h_cols = [vectorize(c.element) for c in classes]
            dense = dense_rows(d_k)
            if any(any(_times(dense, vec)) for vec in h_cols):
                raise ArithmeticError("a labelled class is not a cocycle")
            if not all(span.add(vec) for vec in h_cols):
                raise ArithmeticError("chosen H representatives meet the coboundaries")
        if len(span) != len(cocycles):
            raise ArithmeticError("B ⊕ H does not exhaust the cocycles")
        l_cols = []
        for element in seeds.get(k, []):
            vec = vectorize(element)
            if not span.add(vec):
                raise ArithmeticError("homotopy element lies in the cocycles")
            l_cols.append(vec)
        for i in range(dim):
            if len(span) == dim:
                break
            vec = [0] * dim
            vec[i] = 1
            if span.add(vec):
                l_cols.append(vec)
        if len(span) != dim:
            raise ArithmeticError("failed to complete L to a complement")
        inverse = _inverse(b_cols + h_cols + l_cols, dim, len(b_cols) + len(h_cols))
        out[k] = _SpaceSplit(
            space, len(b_cols), classes, [sparse(v) for v in l_prev], inverse
        )
        l_prev = l_cols
    return out
