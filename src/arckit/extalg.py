"""The dg algebra hom(P_•, P_•), its cohomology Ext(⊕M(λ), ⊕M(λ)), and
the closed dimension recursion.

Two complexes compute Ext.  The full hom complex hom(P_•(λ), P_•(μ))
carries products, homotopies and the A-infinity model; its basis, d and
composition are below.  Ext dimensions alone come from the much smaller
complex Hom(P_•(λ), M(μ)), which has at most one coordinate per summand
of P_•(λ) (see ``ext_dims``).

Conventions
-----------
hom^k(P_•(λ), P_•(μ)) has the ordered basis ``hom_space(λ, μ, k)``: one
vector (p, s, t, basis id, j) per basis diagram from summand s of component
p of the source resolution to summand t of component p−k of the target,
of shift ⟨j⟩, the basis id being the diagram's position in ``basis(m, n)``.
Resolutions are linear (component p sits in internal shift p), so each
diagram has internal degree k−j.  A :class:`HomElement` of bidegree (k, j)
is its sparse coordinates over that basis.

The differential is d(f) = f∘d_target − (−1)^k d_source∘f, so degree-k
cocycles are chain maps that commute (k even) or anticommute (k odd) with
the differentials.  Composition is written left to right: (f·g)(x) =
g(f(x)).  Both act on basis vectors: d is computed by columns from the
differentials of the two resolutions and held only by the routine that
reads it, and a product of two basis vectors is the surgery product of
their diagrams, read from the block's product table by basis id.

Canonical representatives carry the labels Id, F, Ftilde, G, K, J (and
the nullhomotopic products A, B with their homotopies); their component
formulas are hard-coded for n ≤ 2.  For n = 2 the table ``_N2_CLASSES``
is where each labelled class's bigrade and defining range live.  The
independent dimension oracle ``shelton_dims`` recurses on weights alone
and never touches resolutions.
"""

from __future__ import annotations

from functools import lru_cache

from ._value import Value
from .arcalg import _canonical_entry, _product_table
from .diagrams import Weight, bruhat_leq, length, weights_in_block
from .exact import Echelon, Scalar, SparseMatrix, kernel_basis, rank, rational
from .repmod import cell_basis
from .resolve import ProjectiveComplex, _ab_type, _resolve_cone_raw, resolve_cone

__all__ = [
    "HomElement",
    "ExtClass",
    "resolution",
    "hom_differential",
    "hom_space",
    "ext_dims",
    "shelton_dims",
    "ext_basis",
    "canonical_class",
    "in_range",
    "homotopy_element",
    "homotopy_seeds",
    "compose",
    "end_quiver",
    "identity_element",
]


@lru_cache(maxsize=None)
def resolution(lam: Weight) -> ProjectiveComplex:
    """The sign-normalized (for n ≤ 2) cone resolution of M(λ), built once
    per weight per process and shared, read-only, by every hom space and
    splitting.  For n > 2 it is the cone recursion's own memoized complex;
    this cache holds the normalized copies for n ≤ 2.  Ext dimensions do
    not read it: no rank reads a sign, so ``ext_dims`` takes the raw cone."""
    return resolve_cone(lam)


# ---------------------------------------------------------------------------
# hom elements
# ---------------------------------------------------------------------------


class HomElement(Value):
    """A homogeneous element of hom^k(P_•(source), P_•(target)⟨j⟩).

    ``coords`` maps positions in ``hom_space(source, target, k)`` to the
    nonzero coordinates of the element, exact scalars normalised by
    ``exact.rational`` (an int, or a Fraction when not integral; the
    functions that build elements pass them through ``_nonzero``); every
    basis vector it names has shift j.

    Elements are values: ``construct_element`` hands one memoized instance
    to every caller, so an element and its ``coords`` must never be
    mutated; the arithmetic below returns new elements.
    """

    _fields = ("source", "target", "k", "j", "coords")
    # assignable, and so unhashable, as the dataclass was: every A∞ query
    # builds an element, and plain stores cost a fraction of ``_assign``
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(
        self, source: Weight, target: Weight, k: int, j: int, coords: dict[int, Scalar] | None = None
    ):
        self.source, self.target, self.k, self.j = source, target, k, j
        self.coords = {} if coords is None else coords

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "HomElement") -> "HomElement":
        if (self.source, self.target, self.k, self.j) != (
            other.source,
            other.target,
            other.k,
            other.j,
        ):
            raise ValueError("hom elements from different bigraded pieces")
        coords = dict(self.coords)
        for i, c in other.coords.items():
            coords[i] = coords.get(i, 0) + c
        return HomElement(self.source, self.target, self.k, self.j, _nonzero(coords))

    def __rmul__(self, scalar: Scalar) -> "HomElement":
        coords = {i: scalar * c for i, c in self.coords.items()}
        return HomElement(self.source, self.target, self.k, self.j, _nonzero(coords))

    def __sub__(self, other: "HomElement") -> "HomElement":
        return self + (-1) * other


def _nonzero(coords: dict[int, Scalar]) -> dict[int, Scalar]:
    """The nonzero coordinates, normalised by ``exact.rational``."""
    return {i: rational(c) for i, c in coords.items() if c}


def zero_hom(lam: Weight, mu: Weight, k: int, j: int) -> HomElement:
    return HomElement(lam, mu, k, j, {})


def _from_blocks(lam: Weight, mu: Weight, k: int, j: int, blocks) -> HomElement:
    """The element whose block from summand s of component p to summand t
    of component p−k is the sum of the (basis id, coeff) terms given for it
    in ``blocks``, an iterable of ((p, s, t), terms)."""
    index = _hom_index(lam, mu, k)
    coords: dict[int, Scalar] = {}
    for (p, s, t), terms in blocks:
        for x, c in terms:
            where = index[p, s, t] + x
            coords[where] = coords.get(where, 0) + c
    return hom_element(lam, mu, k, coords, j)


def identity_element(lam: Weight) -> HomElement:
    """The identity chain map of P_•(λ)."""
    blocks = (
        ((p, s, s), _canonical_entry(nu, nu, 0))
        for p, comp in enumerate(resolution(lam).components)
        for s, (nu, _) in enumerate(comp)
    )
    return _from_blocks(lam, lam, 0, 0, blocks)


def hom_differential(f: HomElement) -> HomElement:
    """d(f) = f∘d_target − (−1)^k d_source∘f, of bidegree (k+1, j), from d's columns at f."""
    coords = _combine(f.coords, _d_columns(f.source, f.target, f.k, f.coords))
    return HomElement(f.source, f.target, f.k + 1, f.j, dict(sorted(coords.items())))


def compose(f, g) -> HomElement:
    """The left-to-right product f·g (apply f first), bidegrees add."""
    f = f.element if isinstance(f, ExtClass) else f
    g = g.element if isinstance(g, ExtClass) else g
    if f.target != g.source:
        raise ValueError("target of the first factor must be source of the second")
    k = f.k + g.k
    left, right = hom_space(f.source, f.target, f.k), hom_space(g.source, g.target, g.k)
    index, table = _hom_index(f.source, g.target, k), _product_table(*f.source.block)
    coords = _compose_coords(table.product, left, right, index, f.k, f.coords, g.coords)
    return HomElement(f.source, g.target, k, f.j + g.j, coords)


def _compose_coords(product, left, right, index, k: int, f: dict, g: dict) -> dict:
    """The coordinates of f·g for f in hom^k(λ, ν) over ``left`` =
    ``hom_space(λ, ν, k)`` and g over ``right`` = ``hom_space(ν, μ, l)``,
    placed by ``index`` = ``_hom_index(λ, μ, k + l)``, with ``product`` the
    block's product table."""
    starting: dict[tuple[int, int], list] = {}  # g's terms by (q, t)
    for i, c in g.items():
        q, t, v, b, _ = right[i]
        starting.setdefault((q, t), []).append((v, b, c))
    coords: dict[int, Scalar] = {}
    for i, c in f.items():
        p, s, t, a, _ = left[i]
        for v, b, c2 in starting.get((p - k, t), ()):
            terms = product(a, b)
            if terms:
                base = index[p, s, v]
                for x, c3 in terms:
                    coords[base + x] = coords.get(base + x, 0) + c * c2 * c3
    return _nonzero(coords)


# ---------------------------------------------------------------------------
# the hom complex as a vector space
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def hom_space(lam: Weight, mu: Weight, k: int) -> tuple:
    """Ordered basis of hom^k(P_•(λ), P_•(μ)): vectors (p, s, t, basis id, j)."""
    src, tgt = resolution(lam), resolution(mu)
    table = _product_table(*lam.block)
    out = []
    for p, comp in enumerate(src.components):
        q = p - k
        if not 0 <= q < len(tgt):
            continue
        for s, (nu, a) in enumerate(comp):
            for t, (nu2, b) in enumerate(tgt.components[q]):
                for x in table.ends.get((nu, nu2), ()):
                    out.append((p, s, t, x, a - b - table.degree[x]))
    return tuple(out)


@lru_cache(maxsize=None)
def _hom_index(lam: Weight, mu: Weight, k: int) -> dict[tuple[int, int, int], int]:
    """Per (p, s, t), the base that the basis id of a vector of
    ``hom_space(λ, μ, k)`` adds to for its position: the vectors of one
    (p, s, t) are consecutive, in id order."""
    return {(p, s, t): i - x for i, (p, s, t, x, _) in enumerate(hom_space(lam, mu, k))}


def basis_hom_element(lam: Weight, mu: Weight, k: int, vector) -> HomElement:
    """The basis vector ``vector`` of ``hom_space(λ, μ, k)``; KeyError for
    anything else."""
    space, (p, s, t, x, j) = hom_space(lam, mu, k), vector
    where = _hom_index(lam, mu, k).get((p, s, t), len(space)) + x
    if not 0 <= where < len(space) or space[where] != tuple(vector):
        raise KeyError(vector)
    return HomElement(lam, mu, k, j, {where: 1})


def hom_element(
    lam: Weight, mu: Weight, k: int, coords, j: int | None = None
) -> HomElement:
    """The element of hom^k(P_•(λ), P_•(μ)) with the sparse coordinates
    ``coords``, ``{index: scalar}`` over ``hom_space(λ, μ, k)``.

    Its shift is ``j``, or that of the first nonzero coordinate when None;
    a nonzero coordinate of another shift, or an index outside the space,
    raises ValueError.
    """
    space = hom_space(lam, mu, k)
    if coords and (min(coords) < 0 or max(coords) >= len(space)):
        raise ValueError("coordinate index outside the hom space")
    out = _nonzero(coords)
    if j is None:
        if not out:
            raise ValueError("the zero vector needs an explicit shift j")
        j = space[min(out)][4]
    if any(space[i][4] != j for i in out):
        raise ValueError("hom elements from different bigraded pieces")
    return HomElement(lam, mu, k, j, out)


def _d_columns(lam: Weight, mu: Weight, k: int, cols) -> dict[int, dict[int, Scalar]]:
    """The columns ``cols`` of d: hom^k → hom^{k+1}, as ``{row: value}`` dicts by column.

    Column i is d of basis vector i, read straight off the differentials
    of the two resolutions: the vector's diagram times each entry of d_q
    of the target leaving its summand, and −(−1)^k times each entry of
    d_{p+1} of the source entering its summand times the diagram.
    """
    src, tgt = resolution(lam), resolution(mu)
    leaving, entering = _by_summand(mu)[0], _by_summand(lam)[1]
    dom, index = hom_space(lam, mu, k), _hom_index(lam, mu, k + 1)
    product = _product_table(*lam.block).product
    sign = 1 if k % 2 else -1  # −(−1)^k
    out = {}
    for col in cols:
        p, s, t, a, _ = dom[col]
        q = p - k
        column: dict[int, Scalar] = {}
        if 1 <= q < len(tgt):
            for u, terms in leaving[q - 1].get(t, ()):
                base = index.get((p, s, u))  # None: every product below is 0
                for b, c in terms:
                    for x, v in product(a, b):
                        column[base + x] = column.get(base + x, 0) + c * v
        if p + 1 < len(src):
            for s2, terms in entering[p].get(s, ()):
                base = index.get((p + 1, s2, t))
                for b, c in terms:
                    scale = sign * c
                    for x, v in product(b, a):
                        column[base + x] = column.get(base + x, 0) + scale * v
        out[col] = _nonzero(column)
    return out


@lru_cache(maxsize=None)
def _by_summand(lam: Weight) -> tuple[list[dict], list[dict]]:
    """Per differential of ``resolution(λ)``, its entries (``id_terms``)
    grouped, in entry order, by the summand they leave,
    s -> [(t, terms), ...], and by the one they enter, t -> [(s, terms), ...]."""
    leaving, entering = [], []
    for diff in resolution(lam).differentials:
        out, into = {}, {}
        for (s, t), terms in diff.items():
            out.setdefault(s, []).append((t, terms))
            into.setdefault(t, []).append((s, terms))
        leaving.append(out)
        entering.append(into)
    return leaving, entering


def _k_range(lam: Weight, mu: Weight) -> range:
    return range(-(len(resolution(mu)) - 1), len(resolution(lam)))


def ext_dims(lam: Weight, mu: Weight) -> dict[int, int]:
    """dim Ext^k(M(λ), M(μ)) for all k, by rank counts, zeros omitted.

    By definition Ext^k(M(λ), M(μ)) = H^k Hom(P_•(λ), M(μ)) for any
    projective resolution, here the cone ``_resolve_cone_raw(λ)``, so the
    dimensions need neither a resolution of M(μ) nor the hom complex of
    the two.  A map P(ν)⟨a⟩ → M(μ) is fixed by the image of e_ν, an
    element of e_ν M(μ); the basis vector α of M(μ) (a key of
    ``cell_basis(μ)``) lies in e_α M(μ), so e_ν M(μ) is spanned by vector
    ν when ν is a key and is zero otherwise.  Degree k of the complex
    thus has one coordinate per summand of P_k whose weight is such a
    key.  Only ranks are needed, and only of the differentials with an
    entry: a sign changes no rank, so ``resolution``'s rescaling is skipped.  Each matrix entry is one
    coefficient of one surgery product: no action matrix of M(μ) is built.
    """
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    return _hom_into_module_dims(_resolve_cone_raw(lam), mu)


def _hom_into_module_dims(P: ProjectiveComplex, mu: Weight) -> dict[int, int]:
    """Cohomology dimensions {k: dim} of Hom(P, M(μ)), zeros omitted.

    Coordinate s of degree k is the map sending the generator of summand s
    of P_k to the basis vector of M(μ) its weight keys in
    ``cell_basis(μ)``.  The entry u of d_{k+1} from summand s to
    summand t acts by right multiplication, so the pulled-back differential
    sends coordinate t to u·(vector of t): its entry at (s, t) is the
    coefficient of the representative of vector s in u·(representative of
    vector t), terms of other middle weights being zero in M(μ).  Surgery
    is homogeneous, so a term z of u with deg z + deg rep_t ≠ deg rep_s
    has no coefficient there and is not multiplied; a d with no entry
    needs no rank call.  dim H^k = |degree k| − rank d^k − rank d^{k−1}.
    """
    vectors = cell_basis(mu)
    table = _product_table(*mu.block)
    coords = []  # per degree: summand -> (its position in it, (rep id, rep degree))
    for comp in P.components:
        kept = {}
        for s, (nu, _) in enumerate(comp):
            vector = vectors.get(nu)
            if vector is not None:
                kept[s] = (len(kept), vector)
        coords.append(kept)
    ranks = [0] * len(P.components)  # ranks[k]: d^k, Hom(P_k, M) → Hom(P_{k+1}, M)
    for k, diff in enumerate(P.differentials):  # diff is d_{k+1}: P_{k+1} → P_k
        cols, rows = coords[k], coords[k + 1]
        if not cols or not rows:
            continue
        entries: dict[tuple[int, int], Scalar] = {}
        for (s, t), u in diff.items():
            if s in rows and t in cols:
                (row, (rep_s, deg_s)), (col, (rep_t, deg_t)) = rows[s], cols[t]
                for z, c in u:
                    if table.degree[z] != deg_s - deg_t:
                        continue  # z·rep_t is homogeneous of another degree than rep_s
                    for x, a in table.product(z, rep_t):
                        if x == rep_s:
                            entries[row, col] = entries.get((row, col), 0) + c * a
        if entries:
            ranks[k] = rank(SparseMatrix(len(rows), len(cols), entries))
    out = {}
    for k, degree in enumerate(coords):
        total = len(degree) - ranks[k] - (ranks[k - 1] if k else 0)
        if total:
            out[k] = total
    return out


# ---------------------------------------------------------------------------
# the closed dimension recursion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _shelton(lam: Weight, mu: Weight, k: int) -> int:
    """E^k(λ, μ), by the recursion on the leftmost 'v^' pair of λ."""
    if lam == mu:
        return 1 if k == 0 else 0
    if not bruhat_leq(lam, mu):
        return 0
    if k < 0 or k > length(lam) - length(mu):
        return 0
    i = next(i for i in range(lam.size - 1) if lam.has_down_up_at(i))
    ls = lam.swap(i)
    if mu.has_down_up_at(i):
        return _shelton(ls, mu.swap(i), k)
    if mu[i] == mu[i + 1]:
        return _shelton(ls, mu, k - 1)
    # μ carries '^v' at (i, i+1)
    ms = mu.swap(i)
    if bruhat_leq(ls, ms) and ls != ms:
        return (
            _shelton(ls, mu, k - 1)
            - _shelton(ls, mu, k + 1)
            + _shelton(ls, ms, k)
        )
    return _shelton(ls, mu, k - 1) + _shelton(ls, mu, k)


def shelton_dims(lam: Weight, mu: Weight) -> dict[int, int]:
    """dim Ext^k(M(λ), M(μ)) for all k, by the weight recursion alone,
    which always takes λ's leftmost 'v^' pair."""
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    out = {}
    for k in range(0, length(lam) - length(mu) + 1):
        value = _shelton(lam, mu, k)
        if value < 0:
            raise AssertionError("dimension recursion produced a negative count")
        if value:
            out[k] = value
    return out


# ---------------------------------------------------------------------------
# canonical representatives
# ---------------------------------------------------------------------------


class ExtClass(Value):
    """A labelled cohomology class with its canonical cocycle representative."""

    _fields = ("label", "source", "target", "element")
    __hash__ = None

    def __init__(self, label: str, source: Weight, target: Weight, element: HomElement):
        self._assign(label, source, target, element)

    @property
    def k(self) -> int:
        return self.element.k

    @property
    def j(self) -> int:
        return self.element.j


@lru_cache(maxsize=None)
def _summand_index(lam: Weight, p: int) -> dict[tuple[tuple[int, int], str], int]:
    """The index of each summand of component p of the resolution of M(λ),
    keyed by the summand's (s|t) and A/B type, in summand order."""
    component = resolution(lam).components[p]
    index = {(nu.to_kl(), _ab_type(lam, nu, p)): s for s, (nu, _) in enumerate(component)}
    if len(index) != len(component):
        raise AssertionError(f"two summands of component {p} share (s|t) and type")
    return index


def _build_by_rules(lam: Weight, mu: Weight, k: int, j: int, rules) -> HomElement:
    """Assemble a hom element from per-summand component rules.

    ``rules(S, T, typ)`` yields (S2, T2, typ2, sign_exponent) targets in
    the (s|t)/type coordinates of the two resolutions; components whose
    target summand does not occur are genuinely zero and are skipped.
    """
    src, tgt = resolution(lam), resolution(mu)
    degree = k - j
    blocks = []
    for p, comp in enumerate(src.components):
        q = p - k
        if not 0 <= q < len(tgt):
            continue
        index = _summand_index(mu, q)
        for ((S, T), typ), s in _summand_index(lam, p).items():
            nu = comp[s][0]
            for S2, T2, typ2, exponent in rules(S, T, typ):
                if not 0 <= T2 < S2:
                    continue
                t = index.get(((S2, T2), typ2))
                if t is None:
                    continue
                nu2 = tgt.components[q][t][0]
                sign, terms = (-1) ** exponent, _canonical_entry(nu, nu2, degree)
                blocks.append(((p, s, t), [(x, sign * c) for x, c in terms]))
    return _from_blocks(lam, mu, k, j, blocks)


def _build_n1(lam: Weight, mu: Weight, label: str) -> HomElement:
    """The n=1 canonical elements on the line resolutions."""
    jj, ll = lam.to_j(), mu.to_j()
    src, tgt = resolution(lam), resolution(mu)
    if label == "Id":
        k = j = jj - ll
        drop = 0
    elif label == "F":
        k, j = jj - ll - 1, jj - ll - 2
        drop = 1
    else:
        raise ValueError(f"unknown n=1 label {label!r}")
    blocks = []
    for p, comp in enumerate(src.components):
        q = p - k
        if not 0 <= q < len(tgt):
            continue
        nu = comp[0][0]
        nu2 = tgt.components[q][0][0]
        if nu2.to_j() == nu.to_j() - drop:
            blocks.append(((p, 0, 0), _canonical_entry(nu, nu2, drop)))
    return _from_blocks(lam, mu, k, j, blocks)


def _sigma(lam: Weight, mu: Weight) -> int:
    return sum(lam.to_kl()) - sum(mu.to_kl())


def _n2_rules(label: str, lam: Weight, mu: Weight):
    """Component formulas of the n=2 elements, in (s|t)/type coordinates."""
    N, M = lam.to_kl()
    K, L = mu.to_kl()

    def rules_id(S, T, typ):
        if typ == "A":
            yield S, T, "A", (N + K) * (L + T)
        else:
            yield S, T, "B", (N + K) * (L + S)

    def rules_a(S, T, typ):
        if typ == "A":
            if S == T + 1:
                yield S, T - 2, "A", (N + K) * (L + T)
            if S == T + 2:
                yield S - 1, T - 1, "A", (N + K) * (L + T) + K + T
        else:
            if S == T + 3:
                yield S - 1, S - 2, "A", (N + K) * (L + S)
            if S == T + 2:
                yield S - 1, S - 3, "B", (N + K) * (L + S) + K + S + 1
                yield S, S - 2, "A", (N + K) * (L + S)

    def rules_hf(S, T, typ):
        if typ == "B":
            yield S, T, "A", (S + T) * (K + S) + (N + K + 1) * (L + S + 1) + N + M + 1

    def rules_hj(S, T, typ):
        if typ == "A":
            if S == T + 1:
                yield T, T - 2, "A", (N + K) * (L + T + 1)
        else:
            yield S, T - 1, "A", (N + K) * (L + T) + (S + T + 1) * (N + S)

    def rules_ha(S, T, typ):
        if typ == "A":
            if S == T + 1:
                yield T, T - 2, "A", (N + K) * (L + T + 1) + N + L + 1
        else:
            if S == T + 2:
                yield S - 1, S - 2, "A", (N + K) * (L + S - 2) + K + L

    def rules_hb(S, T, typ):
        if typ == "A":
            if S == T + 1:
                yield S - 2, S - 3, "A", (N + K + 1) * (L + S) + N + L + 1

    table = {
        "Id": rules_id,
        "A": rules_a,
        "H(F-Ftilde)": rules_hf,
        "H(J)": rules_hj,
        "H(A)": rules_ha,
        "H(B)": rules_hb,
    }
    return table[label]


def _special_rules(label: str, lam: Weight):
    """Component formulas of the one-step generators: F drops the inner
    label by one, F̃ the outer, and G, K run from (m+1|m) to (m−1|m−2)."""
    n, m_ = lam.to_kl()

    def rules_f(S, T, typ):
        if typ == "A":
            yield S, T - 1, "A", 0
            if S == T + 2:
                yield S - 1, T, "A", n + T
            if S == T + 1:
                yield T, T - 2, "B", n + T
        else:
            yield S - 1, T, "B", 0
            if S == T + 2:
                yield S, S - 1, "A", 0

    def rules_ftilde(S, T, typ):
        if typ == "A":
            yield S - 1, T, "A", 0
            if S == T + 1:
                yield T, T - 2, "B", 0
        else:
            yield S, T - 1, "B", 0

    def rules_g(S, T, typ):
        if typ == "A":
            if S == T + 1:
                yield S - 1, S - 3, "A", 1
        else:
            if S < m_:
                yield S - 1, T, "A", (m_ + T) * (m_ + S + 1) + S + T
                yield S, T - 1, "A", (m_ + T) * (m_ + S) + S + T
            elif S == m_:
                yield m_ - 1, T, "A", 0

    def rules_k(S, T, typ):
        if typ == "A":
            if S == T + 1:
                yield S - 2, S - 3, "A", m_ + S + 1
        else:
            yield S - 1, T - 1, "A", (m_ + S) * (m_ + T + 1)

    return {"F": rules_f, "Ftilde": rules_ftilde, "G": rules_g, "K": rules_k}[label]


def _special(label: str, lam: Weight, mu: Weight) -> HomElement:
    return _build_by_rules(lam, mu, *_bigrade(label, lam, mu), _special_rules(label, lam))


# The labelled classes of an n = 2 block from λ = (N|M) to μ = (K|L), each
# with its bigrade (k − Σ, j − Σ) and its defining range (L < K holds for
# every weight, so no range repeats it).
_N2_CLASSES = {
    "Id": ((0, 0), lambda N, M, K, L: L <= M and K <= N),
    "F": ((-1, -2), lambda N, M, K, L: L + 1 < K and L < M and K <= N),
    "Ftilde": ((-1, -2), lambda N, M, K, L: L <= M and K < N),
    "G": ((-3, -4), lambda N, M, K, L: K < M),
    "K": ((-4, -6), lambda N, M, K, L: K < M),
    "J": ((-2, -4), lambda N, M, K, L: K < N and L < M),
    "A": ((-2, -4), lambda N, M, K, L: L < M - 1 and L + 2 < K),
    "B": ((-3, -6), lambda N, M, K, L: L < M - 1 and L + 1 < K and K < N),
    "H(F-Ftilde)": ((-2, -2), lambda N, M, K, L: L + 1 < K and L < M and K < N and K <= M),
    "H(J)": ((-3, -4), lambda N, M, K, L: K < N and L < M and K <= M),
    "H(A)": ((-3, -4), lambda N, M, K, L: L < M - 1 and L + 2 < K),
    "H(B)": ((-4, -6), lambda N, M, K, L: L < M - 1 and L + 1 < K and K < N),
}

# the basis classes, in the order ``arckit multtable`` prints them
BASIS_LABELS = ("Id", "F", "Ftilde", "G", "K", "J")
_HOMOTOPY_LABELS = ("H(F-Ftilde)", "H(J)", "H(A)", "H(B)")


def in_range(label: str, lam: Weight, mu: Weight) -> bool:
    """Whether λ → μ lies in the defining range of the labelled class (n = 2)."""
    return _N2_CLASSES[label][1](*lam.to_kl(), *mu.to_kl())


def _bigrade(label: str, lam: Weight, mu: Weight) -> tuple[int, int]:
    """The bigrade (k, j) of the labelled class from λ to μ (n = 2)."""
    sigma = _sigma(lam, mu)
    return tuple(sigma + d for d in _N2_CLASSES[label][0])


@lru_cache(maxsize=None)
def construct_element(label: str, lam: Weight, mu: Weight) -> HomElement:
    """The canonical hom element with the given label, built from its
    component formulas (n ≤ 2), once per (label, λ, μ) per process: the
    Id-composites through the same middle weights are shared, and so is
    the returned element, which callers must not mutate."""
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    n = lam.n
    if n == 1:
        return _build_n1(lam, mu, label)
    if n != 2:
        raise ValueError("labelled elements exist only for n ≤ 2")
    m = lam.block[0]
    K, L = mu.to_kl()
    if label == "H(F-Ftilde)" and lam.to_kl() != (K + 1, K):
        # reduce to the one-step homotopy through (k+1|k); the sign makes
        # d(H) = F - (-1)^(n+l) Ftilde come out right after the Id-composite
        N, M = lam.to_kl()
        mid = Weight.from_kl(m, K + 1, K)
        e = (N + K + 1) * (K + L + 1)
        return (-1) ** e * compose(
            construct_element("Id", lam, mid),
            construct_element("H(F-Ftilde)", mid, mu),
        )
    if label == "F":
        mid = Weight.from_kl(m, K, L + 1)
        return compose(construct_element("Id", lam, mid), _special("F", mid, mu))
    if label == "Ftilde":
        mid = Weight.from_kl(m, K + 1, L)
        return compose(
            construct_element("Id", lam, mid), _special("Ftilde", mid, mu)
        )
    if label in ("G", "K"):
        top = Weight.from_kl(m, K + 2, K + 1)
        bottom = Weight.from_kl(m, K, K - 1)
        step = compose(construct_element("Id", lam, top), _special(label, top, bottom))
        return compose(step, construct_element("Id", bottom, mu))
    if label == "J":
        mid = Weight.from_kl(m, K + 1, L)
        return compose(
            construct_element("F", lam, mid), construct_element("Ftilde", mid, mu)
        )
    if label == "B":
        mid = Weight.from_kl(m, K + 1, L)
        return compose(
            construct_element("A", lam, mid), construct_element("Ftilde", mid, mu)
        )
    return _build_by_rules(lam, mu, *_bigrade(label, lam, mu), _n2_rules(label, lam, mu))


def canonical_class(label: str, lam: Weight, mu: Weight) -> ExtClass:
    f = construct_element(label, lam, mu)
    if lam.n == 2 and not f.is_zero() and not _in_window(_sigma(lam, mu), f.k, f.j):
        raise AssertionError(
            f"bigrade (k={f.k}, j={f.j}) falls outside the admissible window"
        )
    return ExtClass(label, lam, mu, f)


def homotopy_element(label: str, lam: Weight, mu: Weight) -> HomElement:
    """The explicit homotopies H(F−F̃), H(J), H(A), H(B) (n = 2)."""
    if label not in _HOMOTOPY_LABELS:
        raise ValueError(f"unknown homotopy label {label!r}")
    return construct_element(label, lam, mu)


def homotopy_seeds(lam: Weight, mu: Weight) -> dict[int, list[HomElement]]:
    """The nonzero explicit homotopies of hom(λ, μ) inside their ranges,
    filed by the degree k they lie in (n = 2)."""
    if lam.n != 2 or lam == mu or not bruhat_leq(lam, mu):
        return {}
    out: dict[int, list[HomElement]] = {}
    for label in _HOMOTOPY_LABELS:
        if in_range(label, lam, mu):
            element = homotopy_element(label, lam, mu)
            if not element.is_zero():
                out.setdefault(element.k, []).append(element)
    return out


def _in_window(sigma: int, k: int, j: int) -> bool:
    """The admissible bigrades of degree-0 chain maps between linear n=2
    resolutions: k−j ∈ {0,…,4} with k ≥ σ − w(k−j), w = (2,3,4,3,2)."""
    widths = {0: 2, 1: 3, 2: 4, 3: 3, 4: 2}
    return k - j in widths and k >= sigma - widths[k - j]


# ---------------------------------------------------------------------------
# bases of the Ext spaces
# ---------------------------------------------------------------------------


def _n2_candidate_labels(lam: Weight, mu: Weight) -> list[str]:
    """The basis labels in range; unless M < K, without J, and without F̃
    when F is in range."""
    out = [label for label in BASIS_LABELS if in_range(label, lam, mu)]
    if lam.to_kl()[1] >= mu.to_kl()[0]:
        out = [x for x in out if x != "J" and not (x == "Ftilde" and "F" in out)]
    return out


def ext_basis(lam: Weight, mu: Weight, method: str = "auto") -> list[ExtClass]:
    """A basis of Ext(M(λ), M(μ)) by cocycle representatives: the H of the
    pair's split hom^k = B ⊕ H ⊕ L (``_split_pair``, with no homotopy seeds).

    ``method`` is "auto" or "generic".  Ext vanishes unless λ ≤ μ, so
    either method returns [] there without computing.  For n ≤ 2 and
    "auto" the labelled canonical elements are used and verified: each must
    be a cocycle, jointly independent modulo coboundaries, and their count
    per degree must equal the closed dimension recursion — any mismatch is
    a hard failure.  Otherwise the classes are the kernel basis vectors of
    each d_k that are independent modulo coboundaries.
    """
    if method not in ("auto", "generic"):
        raise ValueError(f"unknown method {method!r}, expected 'auto' or 'generic'")
    if not bruhat_leq(lam, mu):
        return []
    labelled = None if method == "generic" or lam.n > 2 else _labelled_basis(lam, mu)
    return [c for data in _split_pair(lam, mu, labelled, {}).values() for c in data.h_classes]


def _labelled_basis(lam: Weight, mu: Weight) -> list[ExtClass]:
    """The nonzero labelled classes, in (k, label) order; ``_split_pair``
    checks that they are cocycles, independent modulo the coboundaries."""
    if not bruhat_leq(lam, mu):
        return []
    if lam == mu:
        return [ExtClass("Id", lam, mu, identity_element(lam))]
    if lam.n == 1:
        jj, ll = lam.to_j(), mu.to_j()
        labels = ["F", "Id"] if jj > ll else ["Id"]
        classes = [canonical_class(label, lam, mu) for label in labels]
    else:
        classes = [
            canonical_class(label, lam, mu)
            for label in _n2_candidate_labels(lam, mu)
        ]
    return sorted((c for c in classes if not c.element.is_zero()), key=lambda c: (c.k, c.label))


# ---------------------------------------------------------------------------
# the split hom^k = B ⊕ H ⊕ L of a pair
# ---------------------------------------------------------------------------


class _SpaceSplit(Value):
    """The decomposition of one hom^k(P_•(λ), P_•(μ)), and its one reader.

    B is d of ``l_prev``, the L of hom^{k-1} (``b_count`` columns), H the
    representatives of ``h_classes`` and L the next degree's ``l_prev``,
    each L vector a sparse ``{index: value}`` dict.  ``inverse[p]``, sparse
    too, is column p of the inverse of the matrix with columns [B | H | L],
    restricted to its B and H rows; ``coordinates`` sums those at a vector's support.
    """

    _fields = ("space", "b_count", "h_classes", "l_prev", "inverse")
    __hash__ = None

    def __init__(
        self, space: tuple, b_count: int, h_classes: list[ExtClass], l_prev: list, inverse: list
    ):
        self._assign(space, b_count, h_classes, l_prev, inverse)

    def coordinates(self, coords: dict[int, Scalar]) -> tuple[dict, dict]:
        """The [B | H] coordinates of a sparse vector, and their H part by position in H."""
        out, b = _combine(coords, self.inverse), self.b_count
        return out, {i: out[b + i] for i in range(len(self.h_classes)) if b + i in out}

    def q(self, coordinates: dict[int, Scalar]) -> dict[int, Scalar]:
        """Q = (d|_L)^{-1} of the B part of [B | H] ``coordinates``, via ``l_prev``."""
        return _combine({i: c for i, c in coordinates.items() if i < self.b_count}, self.l_prev)

    def h_key(self, i: int) -> tuple:
        """(label, k, j, i) of the H-class at position i: the key of its coefficient."""
        c = self.h_classes[i]
        return (c.label, c.k, c.j, i)


def _split_pair(
    lam: Weight, mu: Weight, labelled: list[ExtClass] | None, seeds: dict[int, list[HomElement]]
) -> dict[int, _SpaceSplit]:
    """Every hom^k(λ, μ) split as B ⊕ H ⊕ L: the one place a split is chosen
    and checked, read by ``ext_basis`` (H) and ``ainfty.Splitting`` (Π, Q).

    Each hom^k is one ``Echelon`` pass with the columns reversed, so that a
    row's pivot is its vector's last nonzero column: B = d(L_{k-1}) and H
    enter through ``add_tagged``, then the degree-k ``seeds`` through ``add``.
    H is the degree-k ``labelled`` classes, each of which must be a cocycle
    and enter, or, when ``labelled`` is None, the kernel basis vectors of d_k
    that enter, as "generic" classes; B spans d(hom^{k-1}) for any L_{k-1},
    so the seeds do not change H.  L is the seeds, then e_p for each column p
    that is no pivot (the unit vectors e_0, e_1, … a greedy completion keeps),
    so the tag halves are the B and H rows of the inverse of [B | H | L].
    B ⊕ H is all of the cocycles Z with no rank of d_k: |B| + |H| ≤ dim Z, the
    next degree's B checks that d is injective on L, so |L| ≤ dim − dim Z, and
    the three add up to dim; where no next degree sees L, d vanishes and L
    must be empty.  The counts must be the recursion's.  d_k is built once, by
    ``_d_columns``: whole for the generic kernel, else after the pass and only
    at the columns a labelled class's cocycle check or L_k (for the next
    degree's B) reads, and the pass's checks then run in the pass's order.
    """
    out: dict[int, _SpaceSplit] = {}
    l_prev, d_prev = [], {}  # L of hom^{k-1}, and the columns of d_{k-1} that B reads
    for k in _k_range(lam, mu):
        space = hom_space(lam, mu, k)
        dim = len(space)
        if dim == 0:
            if l_prev:  # d vanishes on hom^{k-1}, so L there must be empty
                raise ArithmeticError("B ⊕ H does not exhaust the cocycles")
            out[k] = _SpaceSplit(space, 0, [], l_prev, [])
            continue
        span, last = Echelon(dim), dim - 1
        if not all(span.add_tagged(_reversed(_combine(vec, d_prev), last)) for vec in l_prev):
            raise ArithmeticError("d is not injective on the chosen L")
        if labelled is None:
            d = _d_columns(lam, mu, k, range(dim))
            entries = {(r, c): v for c, column in d.items() for r, v in column.items()}
            classes = [
                ExtClass("generic", lam, mu, hom_element(lam, mu, k, vec))
                for vec in kernel_basis(SparseMatrix(len(hom_space(lam, mu, k + 1)), dim, entries))
                if span.add_tagged(_reversed(vec, last))
            ]
        else:
            classes = [c for c in labelled if c.k == k]
            entered = [span.add_tagged(_reversed(c.element.coords, last)) for c in classes]
        l_cols = [element.coords for element in seeds.get(k, [])]
        seeded = all(span.add(_reversed(vec, last)) for vec in l_cols)
        rows = {last - r: row for r, row in span.rows.items()}
        l_cols += [{p: 1} for p in range(dim) if p not in rows]
        if labelled is not None:  # d_k where the cocycle checks and the next B read it
            cols = sorted({p for vec in [c.element.coords for c in classes] + l_cols for p in vec})
            d = _d_columns(lam, mu, k, cols) if cols else {}
            for c, ok in zip(classes, entered):  # the pass's checks, in its order
                if _combine(c.element.coords, d):
                    raise ArithmeticError(f"canonical {c.label} representative is not a cocycle")
                if not ok:
                    raise ArithmeticError(f"canonical degree-{k} representatives are dependent "
                                          f"modulo coboundaries for ({lam}, {mu})")
        if not seeded:
            raise ArithmeticError("homotopy element lies in the cocycles")
        inverse = [{c - dim: v for c, v in rows.get(p, {}).items() if c >= dim} for p in range(dim)]
        out[k] = _SpaceSplit(space, len(l_prev), classes, l_prev, inverse)
        d_prev, l_prev = d, l_cols
    if l_prev:  # the last degree: d vanishes, so L must be empty
        raise ArithmeticError("B ⊕ H does not exhaust the cocycles")
    got = {k: len(data.h_classes) for k, data in out.items() if data.h_classes}
    expected = shelton_dims(lam, mu)
    if got != expected:
        raise ArithmeticError(
            f"basis dimensions {got} disagree with the recursion {expected} for ({lam}, {mu})"
        )
    return out


def _reversed(vec: dict[int, Scalar], last: int) -> dict[int, Scalar]:
    """``vec`` with its columns reversed, c ↦ last − c."""
    return {last - c: v for c, v in vec.items()}


def _combine(coeffs: dict[int, Scalar], vectors) -> dict[int, Scalar]:
    """Σ coeffs[i]·vectors[i] of sparse ``{index: value}`` vectors."""
    out: dict[int, Scalar] = {}
    for i, coeff in coeffs.items():
        for where, value in vectors[i].items():
            out[where] = out.get(where, 0) + coeff * value
    return _nonzero(out)


def _space_split(split: dict[int, _SpaceSplit], k: int) -> _SpaceSplit:
    """hom^k's part of a pair's ``split``; ValueError where hom^k is empty."""
    data = split.get(k)
    if data is None or not data.space:
        raise ValueError("element lies outside the hom complex")
    return data


# ---------------------------------------------------------------------------
# quivers
# ---------------------------------------------------------------------------


def end_quiver(m: int, n: int) -> dict:
    """Quiver with relations of the basic algebra K_m^n itself.

    Arrows are the degree-1 basis diagrams of e_λ K e_μ (at most one per
    ordered pair); relations are the kernel vectors of the multiplication
    from paths of length two into degree 2.
    """
    vertices, table = weights_in_block(m, n), _product_table(m, n)
    arrows = [
        (lam, mu)
        for lam in vertices
        for mu in vertices
        if lam != mu and table.of_degree(lam, mu, 1)
    ]
    arrow_set = set(arrows)
    relations = []
    for lam in vertices:
        for mu in vertices:
            paths = [
                (lam, nu, mu)
                for (a, nu) in arrows
                if a == lam and (nu, mu) in arrow_set
            ]
            if not paths:
                continue
            # the rows, degree two of e_λ K e_μ, in id order: no order of
            # them changes the kernel basis, which reads the RREF
            index = {x: i for i, x in enumerate(table.of_degree(lam, mu, 2))}
            entries = {
                (index[x], col): v
                for col, (_, nu, _) in enumerate(paths)
                for x, v in table.times(_canonical_entry(lam, nu, 1), _canonical_entry(nu, mu, 1))
            }
            matrix = SparseMatrix(len(index), len(paths), entries)
            for vec in kernel_basis(matrix):
                relations.append([(coeff, paths[i]) for i, coeff in vec.items()])
    return {"vertices": vertices, "arrows": arrows, "relations": relations}
