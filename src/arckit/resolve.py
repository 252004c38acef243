"""Linear projective resolutions of cell modules.

Two independent constructions are provided:

* :func:`resolve_cone` — the inductive cone construction: delete a 'v^'
  pair to land in the smaller block, pull the resolution back through the
  geometric functor, lift the canonical degree-one inclusion to a chain map
  by one solve per summand against the degree-one matrices the generic
  construction builds, and take the cone.  The raw recursion is
  memoized per weight, so the sub-resolutions of λ.swap(i) and λ.delete(i)
  and their chain-map lifts are built once per process and shared by
  every resolution of the block that reaches them; the recursion is
  deterministic, so sharing changes no output.
* :func:`resolve_generic` — iterated minimal projective covers computed by
  exact kernel linear algebra; used as an oracle for the first.  A cover
  ⊕P(μ)⟨j⟩ is realized in flat coordinates, each summand a block of the
  basis ids of P(μ), read off the block's product table (its
  ``stacking``, the basis order of ``projective_module(μ)``), and a
  syzygy vector is a sparse ``{coordinate: scalar}`` dict.  K_m^n is
  Koszul, so the resolution is linear and the syzygy after d_i is
  generated in its lowest degree, i + 1: that degree of the kernel is a
  basis of minimal generators, and no other degree is solved.  A
  differential d_i has one matrix per absolute degree of C_i, assembled
  from one right-action table per basis diagram, x ↦ x·d from P(α)'s
  basis to P(β)'s, cached per basis id and degree of x: both
  constructions read degree i + 1, and :func:`verify_resolution` every
  degree, from one call per d_i.

Both return :class:`ProjectiveComplex`.  Differentials point from
component i to component i-1, each entry being a degree-one element of
e_μ K e_ν acting by right multiplication, held as basis ids of the block's
product table; diagrams appear only in :meth:`ProjectiveComplex.entry` and
the cache format.  For n ≤ 2 the cone output is post-normalized (rescaling
summands by units) onto the explicit sign tables; see
:func:`sign_target_n1` / :func:`sign_target_n2`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from . import cache
from ._value import Value
from .arcalg import AlgebraElement, Matching, Terms, _functor_id, _product_table, id_terms
from .diagrams import (
    OrientedCircleDiagram,
    Weight,
    associated_cup_diagram,
    length,
    total_nesting,
    weights_in_block,
)
from .exact import (
    Scalar,
    SparseMatrix,
    kernel_basis,
    quotient,
    rank,
    solve,
)
from .repmod import cell_basis, kl_poly_closed

__all__ = [
    "ProjectiveComplex",
    "expected_terms",
    "resolve_cone",
    "resolve_generic",
    "verify_resolution",
    "sign_target_n1",
    "sign_target_n2",
    "ResolutionCache",
]


# ---------------------------------------------------------------------------
# the complex datatype
# ---------------------------------------------------------------------------


class ProjectiveComplex(Value):
    """A finite complex ... → C_1 → C_0 of shifted projectives.

    ``components[i]`` lists the summands of C_i as (weight, internal shift)
    pairs; ``differentials[i-1]`` is the matrix of d_i : C_i → C_{i-1},
    keyed by (source summand index, target summand index), with entries in
    e_source K e_target acting by right multiplication, as ``id_terms``.
    Component 0 is the single summand P(λ)⟨0⟩ carrying the augmentation.

    The memoized constructions (the cone recursion, ``extalg.resolution``)
    hand the same instance to every caller, so a complex, and the dicts of
    its differentials, must never be mutated; build a new one instead.
    """

    _fields = ("weight", "components", "differentials")

    def __init__(
        self, weight: Weight, components: tuple[tuple[tuple[Weight, int], ...], ...],
        differentials: tuple[dict[tuple[int, int], Terms], ...],
    ):
        if len(differentials) != max(len(components) - 1, 0):
            raise ValueError("need one differential per adjacent pair")
        self._assign(weight, components, differentials)

    def __len__(self) -> int:
        return len(self.components)

    @property
    def block(self) -> tuple[int, int]:
        return self.weight.block

    def entry(self, i: int, s: int, t: int) -> AlgebraElement:
        """The block of d_i from summand s of C_i to summand t of C_{i-1}, in K."""
        terms = self.differentials[i - 1].get((s, t), ())
        return AlgebraElement({_product_table(*self.block).diagrams[x]: c for x, c in terms})

    def terms(self) -> list[list[Weight]]:
        return [sorted((w for w, _ in comp), key=lambda w: str(w)) for comp in self.components]


def expected_terms(lam: Weight) -> list[list[tuple[Weight, int]]]:
    """Per homological degree i, the multiset of summands (μ, ⟨i⟩) read off
    from the combinatorial Kazhdan-Lusztig polynomials: the multiplicity of
    P(μ)⟨i⟩ in P_i(λ) is the q^i-coefficient of p_{λ,μ}."""
    m, n = lam.block
    per_degree: dict[int, list[tuple[Weight, int]]] = {}
    for mu in weights_in_block(m, n):
        p = kl_poly_closed(lam, mu)
        for e, c in p.coeffs.items():
            per_degree.setdefault(e, []).extend([(mu, e)] * c)
    top = max(per_degree, default=0)
    out = []
    for i in range(top + 1):
        comp = sorted(per_degree.get(i, []), key=lambda wj: (length(wj[0]), wj[0].labels))
        out.append(comp)
    return out


# ---------------------------------------------------------------------------
# cone construction
# ---------------------------------------------------------------------------


def _canonical_inclusion(source: Weight, target: Weight) -> Terms:
    """The canonical degree-one morphism P(source) → P(target): the unique
    degree-one basis diagram of e_source K e_target with coefficient +1."""
    ids = _product_table(*source.block).of_degree(source, target, 1)
    if len(ids) != 1:
        raise ValueError(
            f"expected a unique degree-one diagram from {source} to {target}, got {len(ids)}"
        )
    return ((ids[0], 1),)


def _lift_chain_map(
    f0: Terms, lower: ProjectiveComplex, upper: ProjectiveComplex
) -> list[dict[tuple[int, int], Terms]]:
    """Degreewise lift of f0 to a chain map f_k : lower_k → upper_k.

    ``lower`` is the complex being shifted into the cone (P_•(λ'')⟨1⟩),
    ``upper`` the functor image of the smaller-block resolution; both
    commute on the nose: f_{k-1} ∘ d^lower_k = d^upper_k ∘ f_k, written
    with right-multiplication composition as
    Σ_t d^lower[s,t]·f_{k-1}[t,u] = Σ_t f_k[s,t]·d^upper[t,u].
    Row s of f_k, where P(ν_s)'s generator goes, is a degree-one vector of
    upper_k's cover with cup-weight ν_s, solved for against that column
    block of d^upper_k's degree-one matrix with free variables set to 0.
    """
    table = _product_table(*upper.block)
    fs = [{(0, 0): f0}]
    flat = _cover_data(upper.components[0])
    for k in range(1, len(lower)):
        # past the end of upper, f_k = 0 and each solve only checks f_{k-1}∘d = 0
        src = upper.components[k] if k < len(upper) else ()
        dst = upper.components[k - 1] if k - 1 < len(upper) else ()
        diff = upper.differentials[k - 1] if k < len(upper) else {}
        row_of = {(u, y): r for r, (u, y, _, _) in enumerate(flat)}  # upper_{k-1}'s cover
        flat = _cover_data(src)
        blocks = _weight_blocks(_flat_differential(diff, src, dst, [k + 1])[k + 1], flat, k + 1)
        rhs: dict[int, dict[int, Scalar]] = {}
        for (s, t), dl in lower.differentials[k - 1].items():
            vec = rhs.setdefault(s, {})
            for u in range(len(dst)):
                if (t, u) in fs[k - 1]:
                    for y, c in table.times(dl, fs[k - 1][t, u]):
                        r = row_of[u, y]
                        vec[r] = vec.get(r, 0) + c
        fk: dict[tuple[int, int], dict[int, Scalar]] = {}
        for s, (nu, _) in enumerate(lower.components[k]):
            cols, block = blocks.get(nu, ([], SparseMatrix(len(row_of), 0)))
            solution = solve(block, rhs.get(s, {}))
            if solution is None:
                raise AssertionError("chain-map lift has no solution")
            for local, x in solution.items():
                t, y, _, _ = flat[cols[local]]
                fk.setdefault((s, t), {})[y] = x
        fs.append({key: id_terms(terms) for key, terms in fk.items()})
    return fs


def _apply_functor(t: Matching, complex_: ProjectiveComplex) -> ProjectiveComplex:
    """G^{t_i} applied to a whole complex, then shifted ⟨1⟩.

    G^{t_i} P(γ)⟨j⟩ = P(γ with 'v^' inserted at i)⟨j-1⟩, so after the
    global ⟨1⟩ each summand keeps its shift and the complex stays linear;
    each entry's ids go through ``_functor_id``, which is injective.
    """
    i = t.i
    comps = tuple(
        tuple((w.insert_down_up(i), j) for (w, j) in comp)
        for comp in complex_.components
    )
    diffs = tuple(
        {key: tuple(sorted((_functor_id(t, x), c) for x, c in u)) for key, u in diff.items()}
        for diff in complex_.differentials
    )
    new_weight = complex_.weight.insert_down_up(i)
    return ProjectiveComplex(new_weight, comps, diffs)


def resolve_cone(lam: Weight) -> ProjectiveComplex:
    """The inductive cone resolution of M(λ), rescaled onto the explicit
    sign tables when n ≤ 2 and left raw otherwise.

    The raw recursion below it runs once per weight per process; for
    n > 2 the result is that memoized complex itself, shared with every
    caller and with the cones built on it, so it must not be mutated."""
    out = _resolve_cone_raw(lam)
    if lam.n <= 2 and len(out) > 1:
        out = _normalize_signs(out)
    return out


@lru_cache(maxsize=None)
def _resolve_cone_raw(lam: Weight) -> ProjectiveComplex:
    """The cone resolution before sign normalization, once per weight: the
    cones of the longer weights, of this block and the next larger one,
    read it (read-only)."""
    m, n = lam.block
    candidates = [i for i in range(lam.size - 1) if lam.has_down_up_at(i)]
    if not candidates:
        # λ = λ₀ (covers the trivial blocks m = 0 and n = 0): M(λ₀) = P(λ₀)
        return ProjectiveComplex(lam, (((lam, 0),),), ())
    i = candidates[0]
    lam_deleted = lam.delete(i)   # in the smaller block
    lam_swapped = lam.swap(i)     # in the same block, one step shorter
    t = Matching(i, (m, n))
    upper = _apply_functor(t, _resolve_cone_raw(lam_deleted))
    lower = _resolve_cone_raw(lam_swapped)
    f0 = _canonical_inclusion(lam_swapped, lam)
    fs = _lift_chain_map(f0, lower, upper)

    # cone components: C_k = upper_k ⊕ lower_{k-1}⟨1⟩; all shifts equal k
    comps: list[tuple[tuple[Weight, int], ...]] = []
    total = max(len(upper), len(lower) + 1)
    for k in range(total):
        part_u = list(upper.components[k]) if k < len(upper) else []
        part_l = (
            [(w, j + 1) for (w, j) in lower.components[k - 1]]
            if 1 <= k <= len(lower)
            else []
        )
        comps.append(tuple(part_u + part_l))
    diffs = []
    for k in range(1, total):
        nu_u = len(upper.components[k]) if k < len(upper) else 0
        nu_prev = len(upper.components[k - 1]) if k - 1 < len(upper) else 0
        # upper part keeps its differential
        diff = dict(upper.differentials[k - 1]) if k < len(upper) else {}
        # lower part: f in column block of upper, -d in its own block
        if 1 <= k <= len(lower):
            for (s, tgt), u in fs[k - 1].items():
                diff[(nu_u + s, tgt)] = u
            if k >= 2:
                for (s, tgt), u in lower.differentials[k - 2].items():
                    diff[(nu_u + s, nu_prev + tgt)] = tuple((x, -c) for x, c in u)
        diffs.append(diff)
    return ProjectiveComplex(lam, tuple(comps), tuple(diffs))


# ---------------------------------------------------------------------------
# sign targets and gauge normalization (n ≤ 2)
# ---------------------------------------------------------------------------


def sign_target_n1(lam: Weight, source: Weight, target: Weight) -> int:
    """Sign of the differential block P(k) → P(k+1) in the resolution of
    M((j)): (-1)^(j+k+1)."""
    j, k = lam.to_j(), source.to_j()
    if target.to_j() != k + 1:
        raise ValueError("not an adjacent pair in the n=1 resolution")
    return (-1) ** (j + k + 1)


def _ab_type(lam: Weight, summand: Weight, i: int) -> str:
    """'A' or 'B' for a summand P(s|t) in component i of the resolution of
    M((n|m)): A-terms satisfy s+t+i = m+n, B-terms s+t+i+2 = m+n."""
    n_, m_ = lam.to_kl()
    s, t_ = summand.to_kl()
    if s + t_ + i == m_ + n_:
        return "A"
    if s + t_ + i + 2 == m_ + n_:
        return "B"
    raise ValueError(f"summand {summand} fits neither the A- nor B-term pattern")


def sign_target_n2(
    lam: Weight, source: Weight, src_type: str, target: Weight, tgt_type: str
) -> int:
    """The seven sign families for the resolution of M((n|m)), n = 2 case.

    ``source``/``target`` are the summand weights (s|t) with their A/B
    types; returns the sign of the canonical degree-one map, raising if the
    pair is not one of the seven families.
    """
    n_, m_ = lam.to_kl()
    s, t_ = source.to_kl()
    s2, t2 = target.to_kl()
    if src_type == "A" and tgt_type == "A":
        if (s2, t2) == (s + 1, t_):
            return (-1) ** (n_ + m_ + s + t_ + 1)  # i)
        if (s2, t2) == (s, t_ + 1):
            return (-1) ** (m_ + t_ + 1)  # ii)
    if src_type == "B" and tgt_type == "B":
        if (s2, t2) == (s + 1, t_):
            return (-1) ** (m_ + s + 1)  # iii)
        if (s2, t2) == (s, t_ + 1):
            return (-1) ** (n_ + m_ + s + t_ + 1)  # iv)
    if src_type == "A" and tgt_type == "B":
        if (s2, t2) == (s - 1, t_):
            return (-1) ** ((s + t_ + 1) * (n_ + s) + n_ + m_ + 1)  # v)
        if (s2, t2) == (s, t_ - 1):
            return (-1) ** ((s + t_ + 1) * (n_ + s) + m_ + s)  # vi)
    if src_type == "B" and tgt_type == "A":
        if t_ == s - 2 and (s2, t2) == (s + 1, s):
            return (-1) ** (n_ + m_ + 1)  # vii)
    raise ValueError(
        f"no sign family for {source}({src_type}) → {target}({tgt_type})"
    )


def _target_sign(c: ProjectiveComplex, i: int, s: int, t: int) -> int:
    lam = c.weight
    (src, _), (tgt, _) = c.components[i][s], c.components[i - 1][t]
    if lam.n == 1:
        return sign_target_n1(lam, src, tgt)
    return sign_target_n2(
        lam, src, _ab_type(lam, src, i), tgt, _ab_type(lam, tgt, i - 1)
    )


def _normalize_signs(c: ProjectiveComplex) -> ProjectiveComplex:
    """Rescale summands by units so every differential block equals the
    sign table times the canonical degree-one diagram (n ≤ 2 only).

    One sweep in homological order fixes every unit: C_0 = P(λ) keeps
    unit 1, and a linear resolution is minimal, so every summand of C_i
    (i ≥ 1) has an entry into C_{i−1}, whose units are already fixed.
    Rescaling multiplies the entry from summand s of C_i to summand t of
    C_{i-1} by units[i][s] / units[i-1][t], so once one unit per summand
    fits all its entries, each entry is its sign times its diagram.
    """
    units: list[list[Scalar]] = [[1]]
    diffs = []
    for i in range(1, len(c)):
        row: list[Scalar | None] = [None] * len(c.components[i])
        diff = {}
        for (s, t), u in c.differentials[i - 1].items():
            if len(u) != 1:
                raise AssertionError("differential block not a single diagram")
            ((x, coeff),) = u
            sign = _target_sign(c, i, s, t)
            unit = quotient(sign * units[i - 1][t], coeff)
            if row[s] is None:
                row[s] = unit
            elif row[s] != unit:
                raise AssertionError("sign table is not reachable by rescaling summands")
            diff[s, t] = ((x, sign),)
        if None in row:
            raise AssertionError(f"a summand of C_{i} has no entry into C_{i - 1}")
        units.append(row)
        diffs.append(diff)
    return ProjectiveComplex(c.weight, c.components, tuple(diffs))


# ---------------------------------------------------------------------------
# generic construction: iterated minimal projective covers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _right_action(m: int, n: int, d: int, degree: int) -> tuple[tuple[int, int, Scalar], ...]:
    """x ↦ x·d for the basis diagram of id d of K_m^n, in e_α K e_β, as
    (column, row, value) triples from the basis of P(α) to that of P(β),
    each indexed by the table's ``stacking``; only the columns x of the
    given degree, so each diagram's table is built once per degree.
    K_m^n is graded and surgery homogeneous, so x·d lies in degree
    deg x + deg d of e_γ K e_β, γ the cup weight of x: an x whose γ has
    no diagram of that degree in P(β) multiplies to 0 and is not surgered."""
    table = _product_table(m, n)
    rows = {y: k for k, y in enumerate(table.stacking[table.cap[d]])}
    reached = {table.cup[y] for y in rows if table.degree[y] == degree + table.degree[d]}
    return tuple(
        (col, rows[y], v)
        for col, x in enumerate(table.stacking[table.cup[d]])
        if table.degree[x] == degree and table.cup[x] in reached
        for y, v in table.product(x, d)
    )


def _cover_data(summands: list[tuple[Weight, int]]):
    """Flattened basis of ⊕ P(μ)⟨j⟩: list of (summand index, basis id,
    cup-weight, absolute degree).  Each summand is a contiguous block of
    coordinates, P(μ)'s basis in the order of the table's ``stacking``,
    which is that of ``projective_module(μ).labels``."""
    flat = []
    for idx, (mu, j) in enumerate(summands):
        table = _product_table(*mu.block)
        flat += [
            (idx, x, table.weights[table.cup[x]], table.degree[x] + j)
            for x in table.stacking[table.position[mu]]
        ]
    return flat


def _offsets(summands: list[tuple[Weight, int]]) -> list[int]:
    """Where each summand's block of ``_cover_data`` starts, then the total length."""
    out = [0]
    for mu, _ in summands:
        table = _product_table(*mu.block)
        out.append(out[-1] + len(table.stacking[table.position[mu]]))
    return out


def _in_summands(x: int, source: Weight, target: Weight) -> bool:
    """Whether x is the id of a diagram of e_source K e_target: an id of
    source's block table whose cup and cap are the two weights."""
    table = _product_table(*source.block)
    return 0 <= x < len(table.degree) and (
        table.weights[table.cup[x]], table.weights[table.cap[x]]
    ) == (source, target)


def _flat_differential(diff: dict, source, target, degrees) -> dict[int, SparseMatrix]:
    """The matrices of a differential between the covers of the summand
    lists ``source`` and ``target`` in flat coordinates (columns are the
    source basis), one per absolute degree D in ``degrees``, all filled in
    one pass over the entries: entry (s, t) sends each basis diagram x of
    summand s = P(α)⟨j⟩ with deg x = D − j to x·d[s,t] in summand t, each
    diagram's right-action table placed at the offsets of the two
    summands.  The columns of the other degrees are left zero."""
    src_at, tgt_at = _offsets(source), _offsets(target)
    parts: dict[int, dict[tuple[int, int], Scalar]] = {deg: {} for deg in degrees}
    for (s, t), u in diff.items():
        alpha, j = source[s]
        for x, c in u:
            if not _in_summands(x, alpha, target[t][0]):
                raise ValueError("image left the projective summand")
            for deg, entries in parts.items():
                for col, row, v in _right_action(*alpha.block, x, deg - j):
                    key = (tgt_at[t] + row, src_at[s] + col)
                    entries[key] = entries.get(key, 0) + c * v
    return {
        deg: SparseMatrix(tgt_at[-1], src_at[-1], entries) for deg, entries in parts.items()
    }


def resolve_generic(lam: Weight) -> ProjectiveComplex:
    """Minimal linear resolution of M(λ) by iterated projective covers.

    Works in explicit coordinates: each syzygy is carried as a list of
    weight-homogeneous vectors inside the previous cover, and the next
    differential comes straight from them.  K_m^n is Koszul
    (Brundan–Stroppel, Khovanov's diagram algebra II), so the resolution is
    linear: component i is ⊕P(α)⟨i⟩, and its syzygy W, the kernel of d_i,
    is generated in its lowest degree i + 1.  K_{>0} = K_1·K and K·W = W,
    so the radical K_{>0}·W = K_1·W lies in degrees above i + 1 and fills
    them, W_{>i+1} = K_1·W.  The minimal generators are therefore exactly
    a basis of W_{i+1}: only that degree of the kernel is solved, and only
    the degree-one diagrams x of each summand of C_i, whose images x·d_i
    have degree two in C_{i-1}, enter its matrix.  A resolution that is
    not linear would stop early or miss generators; the exactness and
    Kazhdan-Lusztig term checks of :func:`verify_resolution` report that.
    """
    # head of M(λ): L(λ) in degree 0, so the zeroth cover is P(λ)
    components: list[list[tuple[Weight, int]]] = [[(lam, 0)]]
    diffs = []

    # kernel of P(λ) → M(λ): a diagram of middle weight λ, the representative
    # of a basis vector of M(λ), maps to that vector, every other diagram to 0
    flat = _cover_data(components[0])
    reps = {x: k for k, x in enumerate(cell_basis(lam)[2])}
    entries = {(reps[x], col): 1 for col, (_, x, _, _) in enumerate(flat) if x in reps}
    matrix = SparseMatrix(len(reps), len(flat), entries)

    # the syzygy after d_i: degree i + 1 of the kernel of ⊕P(α_g)⟨i⟩ → C_{i-1}
    while syzygy := _homogeneous_kernel(matrix, flat, len(components)):
        terms: dict[tuple[int, int], dict[int, Scalar]] = {}
        for s, (_, _, vec) in enumerate(syzygy):
            for c, coord in vec.items():
                t, x, _, _ = flat[c]
                terms.setdefault((s, t), {})[x] = coord
        components.append([(alpha, deg) for (alpha, deg, _) in syzygy])
        diffs.append({key: id_terms(u) for key, u in terms.items()})
        flat = _cover_data(components[-1])
        degree = len(components)
        matrix = _flat_differential(diffs[-1], components[-1], components[-2], [degree])[degree]

    return ProjectiveComplex(
        lam, tuple(tuple(comp) for comp in components), tuple(diffs)
    )


def _weight_blocks(
    matrix: SparseMatrix, flat, degree: int
) -> dict[Weight, tuple[list[int], SparseMatrix]]:
    """The matrix's columns of one absolute degree, split into one block per
    cup-weight α, each filled in one pass over the entries: α ↦ (the
    block's flat columns in order, the matrix restricted to them)."""
    blocks: dict[Weight, tuple[list[int], dict[tuple[int, int], Scalar]]] = {}
    place = {}  # column of the degree -> (its index in its block, the block's entries)
    for k, (_, _, alpha, deg) in enumerate(flat):
        if deg == degree:
            cols, entries = blocks.setdefault(alpha, ([], {}))
            place[k] = (len(cols), entries)
            cols.append(k)
    for (r, c), v in matrix.entries.items():
        if c in place:
            local, entries = place[c]
            entries[(r, local)] = v
    return {
        alpha: (cols, SparseMatrix(matrix.rows, len(cols), entries))
        for alpha, (cols, entries) in blocks.items()
    }


def _homogeneous_kernel(
    matrix: SparseMatrix, flat, degree: int
) -> list[tuple[Weight, int, dict[int, Scalar]]]:
    """The kernel of the matrix in one absolute degree, one cup-weight block
    of ``_weight_blocks`` at a time in ``str(α)`` order, as homogeneous
    vectors in the flat cover coordinates.  That order fixes the summand
    order of the next component."""
    blocks = _weight_blocks(matrix, flat, degree)
    return [
        (alpha, degree, {blocks[alpha][0][local]: v for local, v in vec.items()})
        for alpha in sorted(blocks, key=str)
        for vec in kernel_basis(blocks[alpha][1])
    ]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _shape_failures(c: ProjectiveComplex, lam: Weight) -> list[str]:
    """What keeps c from being a complex of linear projectives of λ's block
    on P(λ)⟨0⟩ whose entries are of degree one inside their summands: a
    summand that is not linear or lies in another block, a wrong component
    0, and each entry naming a summand that C_i or C_{i-1} lacks, lying
    outside e_s K e_t (``_flat_differential`` cannot place these) or of a
    degree other than one.  d² and exactness are read only on a complex
    with none of these, and a cache entry with any of them is a miss."""
    table = _product_table(*lam.block)
    failures = [
        f"summand P({w})<{j}> in component {i} is not linear"
        for i, comp in enumerate(c.components) for w, j in comp if j != i
    ]
    failures += [
        f"summand P({w}) in component {i} lies in another block"
        for i, comp in enumerate(c.components) for w, _ in comp if w.block != lam.block
    ]
    if c.components[0] != ((lam, 0),):
        failures.append("component 0 is not P(λ)<0>")
    for i, diff in enumerate(c.differentials, start=1):
        for (s, t), u in diff.items():
            if not (0 <= s < len(c.components[i]) and 0 <= t < len(c.components[i - 1])):
                failures.append(f"d_{i}[{s},{t}] names a missing summand")
                continue
            src, tgt = c.components[i][s][0], c.components[i - 1][t][0]
            failures += [
                f"d_{i}[{s},{t}] entry outside e_src K e_tgt"
                for x, _ in u
                if not _in_summands(x, src, tgt)
            ]
    return failures + [
        f"d_{i}[{s},{t}] entry of degree {table.degree[x]} != 1"
        for i, diff in enumerate(c.differentials, start=1)
        for (s, t), u in diff.items() for x, _ in u
        if 0 <= x < len(table.degree) and table.degree[x] != 1
    ]


def verify_resolution(c: ProjectiveComplex, lam: Weight | None = None) -> list[str]:
    """Check the complex is a linear projective resolution of M(λ).

    Returns a list of human-readable failures (empty when everything
    passes): the shape checks of ``_shape_failures``, d² = 0, term match
    with the Kazhdan-Lusztig prediction, and exactness by exact ranks on
    the action-realized complex.  d² and exactness run only when the
    shape checks pass; they read each d_i once, one matrix per degree of
    C_i, and d² only in degree i, on C_i's generators.
    """
    lam = lam if lam is not None else c.weight
    failures = _shape_failures(c, lam)
    graded = not failures

    # d² = 0, on the action-realized complex: d_{i-1}·d_i kills every
    # basis vector of summand s of C_i exactly when it kills its generator,
    # of degree i, which it sends to Σ_t d_i[s,t]·d_{i-1}[t,u] in summand u
    if graded:
        flats = [_cover_data(comp) for comp in c.components]
        counts = [Counter(deg for *_, deg in flat) for flat in flats]
        mats = [
            _flat_differential(diff, c.components[i], c.components[i - 1], sorted(counts[i]))
            for i, diff in enumerate(c.differentials, start=1)
        ]
        for i in range(2, len(c)):
            if i in mats[i - 2] and i in mats[i - 1]:  # else C_i or its image is empty
                square = mats[i - 2][i] @ mats[i - 1][i]
                blocks = {(flats[i][col][0], flats[i - 2][row][0]) for row, col in square.entries}
                for s, u_ in sorted(blocks):
                    failures.append(f"d²≠0 at component {i}, blocks ({s},{u_})")

    # terms match the Kazhdan-Lusztig prediction (expected_terms is sorted)
    got = [sorted(comp, key=lambda wj: (length(wj[0]), wj[0].labels)) for comp in c.components]
    if expected_terms(lam) != got:
        failures.append("terms differ from the Kazhdan-Lusztig prediction")

    # term bound from the labelled-cap-diagram count
    m, n = lam.block
    for i, comp in enumerate(c.components):
        for nu, _ in comp:
            nes = total_nesting(associated_cup_diagram(nu))
            lo = length(lam) - i - (n * n - n - 2 * nes)
            if not (lo <= length(nu) <= length(lam) - i):
                failures.append(f"term bound violated by P({nu}) in component {i}")

    if graded:
        failures.extend(_check_exactness(counts, mats, lam))
    return failures


def _check_exactness(counts: list[Counter], mats: list[dict], lam: Weight) -> list[str]:
    """Homology of the action-realized complex, degree by degree, from each
    component's coordinate count and each differential's matrix per degree."""
    failures: list[str] = []
    gdim_M = Counter(cell_basis(lam)[1])
    for deg in sorted(set().union(*counts)):
        dims = [count[deg] for count in counts]
        # the rank of each d_i in this degree, then 0 for the map out of the last C_i
        ranks = [rank(mat[deg]) if deg in mat else 0 for mat in mats] + [0]
        h0 = dims[0] - ranks[0]
        if h0 != gdim_M[deg]:
            failures.append(f"H₀ wrong in degree {deg}: {h0} vs {gdim_M[deg]}")
        for i in range(1, len(counts)):
            kernel = dims[i] - ranks[i - 1]
            if kernel != ranks[i]:
                failures.append(
                    f"H_{i} ≠ 0 in degree {deg}: ker dim {kernel}, im dim {ranks[i]}"
                )
    return failures


# ---------------------------------------------------------------------------
# persistent cache
# ---------------------------------------------------------------------------


def _serialize(c: ProjectiveComplex) -> str:
    """The cache format, each entry's terms in the order of their diagrams' strings."""
    lines = []
    for i, comp in enumerate(c.components):
        for w, j in comp:
            lines.append(f"summand {i} {w} {j}")
    for i, diff in enumerate(c.differentials, start=1):
        for (s, t) in sorted(diff):
            for diag, coeff in sorted(c.entry(i, s, t), key=lambda dc: str(dc[0])):
                lines.append(f"entry {i} {s} {t} {coeff} :: {diag}")
    return "\n".join(lines) + "\n"


def _deserialize(weight: Weight, body: str) -> ProjectiveComplex:
    """The complex of ``_serialize``'s lines; a ValueError or LookupError when a line does
    not parse, names no basis diagram of λ's block, or a differential the complex lacks."""
    ids = _product_table(*weight.block).ids
    comps: dict[int, list[tuple[Weight, int]]] = {}
    entries: dict[int, dict[tuple[int, int], dict[int, Scalar]]] = {}
    for line in body.splitlines():
        if not line.strip():
            continue
        kind, rest = line.split(" ", 1)
        if kind == "summand":
            i, w, j = rest.split(" ")
            comps.setdefault(int(i), []).append((Weight.parse(w), int(j)))
        elif kind == "entry":
            head, diag_text = rest.split(" :: ", 1)
            i, s, t, coeff = head.split(" ")
            x = ids[OrientedCircleDiagram.parse(diag_text)]
            terms = entries.setdefault(int(i), {}).setdefault((int(s), int(t)), {})
            terms[x] = terms.get(x, 0) + Fraction(coeff)
        else:
            raise ValueError(f"corrupt cache line: {line!r}")
    total = max(comps) + 1
    if not set(entries) <= set(range(1, total)):
        raise ValueError("an entry of a differential the complex lacks")
    components = tuple(tuple(comps[i]) for i in range(total))
    diffs = [{key: id_terms(u) for key, u in entries.get(i, {}).items()} for i in range(1, total)]
    return ProjectiveComplex(weight, components, tuple(diffs))


class ResolutionCache:
    """Resolutions in the on-disk store under ``directory`` (see
    :mod:`arckit.cache`), one entry per (m, n, weight, method) key.

    An entry that does not parse, or whose complex fails a shape check of
    :func:`verify_resolution` (``_shape_failures``), is damaged and loads
    as a miss, so the caller recomputes and overwrites it."""

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, key: tuple[int, int, str, str]) -> str:
        return cache.entry_path(self.directory, f"resolution {key!r}")

    def load(self, key: tuple[int, int, str, str]) -> ProjectiveComplex | None:
        body = cache.load(self._path(key))
        if body is None:
            return None
        try:
            c = _deserialize(Weight.parse(key[2]), body)
        except (ValueError, LookupError, ArithmeticError):  # does not parse: a miss
            return None
        return None if _shape_failures(c, c.weight) else c

    def store(self, key: tuple[int, int, str, str], c: ProjectiveComplex) -> None:
        cache.store(self._path(key), _serialize(c))
