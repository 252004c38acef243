"""The dg algebra hom(P_•, P_•), its cohomology Ext(⊕M(λ), ⊕M(λ)), and
the closed dimension recursion.

Conventions
-----------
hom^k(P_•(λ), P_•(μ)) has the ordered basis ``hom_space(λ, μ, k)``: one
vector (p, s, t, diagram, j) per basis diagram from summand s of component
p of the source resolution to summand t of component p−k of the target,
of shift ⟨j⟩.  Resolutions are linear (component p sits in internal shift
p), so each diagram has internal degree k−j.  A :class:`HomElement` of
bidegree (k, j) is its sparse coordinates over that basis.

The differential is d(f) = f∘d_target − (−1)^k d_source∘f, so degree-k
cocycles are chain maps that commute (k even) or anticommute (k odd) with
the differentials.  Composition is written left to right: (f·g)(x) =
g(f(x)).  Both act on basis vectors: d is one sparse matrix per k, built
from the differentials of the two resolutions, and a product of two
basis vectors is the surgery product of their diagrams.

Canonical representatives carry the labels Id, F, Ftilde, G, K, J (and
the nullhomotopic products A, B with their homotopies); their component
formulas are hard-coded for n ≤ 2.  The independent dimension oracle
``shelton_dims`` recurses on weights alone and never touches resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

from .arcalg import AlgebraElement, basis_product, hom_basis, idempotent, multiply
from .diagrams import Weight, bruhat_leq, length, weights_in_block
from .exact import Echelon, SparseMatrix, kernel_basis, rank, solve
from .resolve import ProjectiveComplex, _ab_type, resolve_cone

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
    "homotopy_element",
    "nullhomotopic_element",
    "compose",
    "decompose",
    "find_homotopy",
    "end_quiver",
    "ext_quiver",
    "hom_windows_ok",
    "identity_element",
]


@lru_cache(maxsize=None)
def resolution(lam: Weight) -> ProjectiveComplex:
    """The (cached, sign-normalized for n ≤ 2) linear resolution of M(λ)."""
    return resolve_cone(lam)


# ---------------------------------------------------------------------------
# hom elements
# ---------------------------------------------------------------------------


@dataclass
class HomElement:
    """A homogeneous element of hom^k(P_•(source), P_•(target)⟨j⟩).

    ``coords`` maps positions in ``hom_space(source, target, k)`` to the
    nonzero coordinates of the element; every basis vector it names has
    shift j.
    """

    source: Weight
    target: Weight
    k: int
    j: int
    coords: dict[int, Fraction] = field(default_factory=dict)

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
        return replace(self, coords=_nonzero(coords))

    def __rmul__(self, scalar) -> "HomElement":
        scalar = Fraction(scalar)
        coords = {i: scalar * c for i, c in self.coords.items()}
        return replace(self, coords=_nonzero(coords))

    def __sub__(self, other: "HomElement") -> "HomElement":
        return self + (-1) * other


def _nonzero(coords: dict[int, Fraction]) -> dict[int, Fraction]:
    return {i: c for i, c in coords.items() if c}


def zero_hom(lam: Weight, mu: Weight, k: int, j: int) -> HomElement:
    return HomElement(lam, mu, k, j, {})


def _from_blocks(lam: Weight, mu: Weight, k: int, j: int, blocks) -> HomElement:
    """The element whose block from summand s of component p to summand t
    of component p−k is the sum of the algebra elements given for it in
    ``blocks``, an iterable of ((p, s, t), element)."""
    index = _hom_index(lam, mu, k)
    coords: dict[int, Fraction] = {}
    for (p, s, t), u in blocks:
        for diagram, c in u:
            where = index[(p, s, t, diagram, j)]
            coords[where] = coords.get(where, 0) + c
    return HomElement(lam, mu, k, j, _nonzero(coords))


def identity_element(lam: Weight) -> HomElement:
    """The identity chain map of P_•(λ)."""
    blocks = (
        ((p, s, s), idempotent(nu))
        for p, comp in enumerate(resolution(lam).components)
        for s, (nu, _) in enumerate(comp)
    )
    return _from_blocks(lam, lam, 0, 0, blocks)


def hom_differential(f: HomElement) -> HomElement:
    """d(f) = f∘d_target − (−1)^k d_source∘f, of bidegree (k+1, j)."""
    image = _differential_matrix(f.source, f.target, f.k).apply(f.coords)
    coords = {i: c for i, c in enumerate(image) if c}
    return HomElement(f.source, f.target, f.k + 1, f.j, coords)


def compose(f, g) -> HomElement:
    """The left-to-right product f·g (apply f first), bidegrees add."""
    f = f.element if isinstance(f, ExtClass) else f
    g = g.element if isinstance(g, ExtClass) else g
    if f.target != g.source:
        raise ValueError("target of the first factor must be source of the second")
    k, j = f.k + g.k, f.j + g.j
    left = hom_space(f.source, f.target, f.k)
    right = hom_space(g.source, g.target, g.k)
    starting: dict[tuple[int, int], list] = {}  # g's terms by (q, t)
    for i, c in g.coords.items():
        q, t, v, diagram, _ = right[i]
        starting.setdefault((q, t), []).append((v, diagram, c))
    index = _hom_index(f.source, g.target, k)
    coords: dict[int, Fraction] = {}
    for i, c in f.coords.items():
        p, s, t, d1, _ = left[i]
        for v, d2, c2 in starting.get((p - f.k, t), ()):
            for diagram, c3 in basis_product(d1, d2):
                where = index[(p, s, v, diagram, j)]
                coords[where] = coords.get(where, 0) + c * c2 * c3
    return HomElement(f.source, g.target, k, j, _nonzero(coords))


# ---------------------------------------------------------------------------
# the hom complex as a vector space
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def hom_space(lam: Weight, mu: Weight, k: int) -> tuple:
    """Ordered basis of hom^k(P_•(λ), P_•(μ)): vectors (p, s, t, diagram, j)."""
    src, tgt = resolution(lam), resolution(mu)
    out = []
    for p, comp in enumerate(src.components):
        q = p - k
        if not 0 <= q < len(tgt):
            continue
        for s, (nu, a) in enumerate(comp):
            for t, (nu2, b) in enumerate(tgt.components[q]):
                for diagram in hom_basis(nu, nu2):
                    j = a - b - diagram.degree
                    out.append((p, s, t, diagram, j))
    return tuple(out)


@lru_cache(maxsize=None)
def _hom_index(lam: Weight, mu: Weight, k: int) -> dict[tuple, int]:
    """The position of each ``hom_space(λ, μ, k)`` vector.  A term whose
    shift differs from its basis vector's has no entry and raises KeyError."""
    return {vector: i for i, vector in enumerate(hom_space(lam, mu, k))}


def basis_hom_element(lam: Weight, mu: Weight, k: int, vector) -> HomElement:
    where = _hom_index(lam, mu, k)[vector]
    return HomElement(lam, mu, k, vector[4], {where: Fraction(1)})


def hom_element(
    lam: Weight, mu: Weight, k: int, coords, j: int | None = None
) -> HomElement:
    """The element of hom^k(P_•(λ), P_•(μ)) with the dense coordinate list
    ``coords`` over ``hom_space(λ, μ, k)``.

    Its shift is ``j``, or that of the first nonzero coordinate when None;
    a nonzero coordinate of another shift, or a list of the wrong length,
    raises ValueError.
    """
    space = hom_space(lam, mu, k)
    if len(coords) != len(space):
        raise ValueError("coordinate list does not match the hom space")
    out = {i: Fraction(c) for i, c in enumerate(coords) if c}
    if j is None:
        if not out:
            raise ValueError("the zero vector needs an explicit shift j")
        j = space[min(out)][4]
    if any(space[i][4] != j for i in out):
        raise ValueError("hom elements from different bigraded pieces")
    return HomElement(lam, mu, k, j, out)


def vectorize(f: HomElement) -> list[Fraction]:
    """The dense coordinate list of f over its own hom space."""
    out = [Fraction(0)] * len(hom_space(f.source, f.target, f.k))
    for i, c in f.coords.items():
        out[i] = c
    return out


@lru_cache(maxsize=None)
def _differential_matrix(lam: Weight, mu: Weight, k: int) -> SparseMatrix:
    """Matrix of d: hom^k → hom^{k+1} in the ``hom_space`` bases.

    Column i is d of basis vector i, read straight off the differentials
    of the two resolutions: the vector's diagram times each entry of d_q
    of the target leaving its summand, and −(−1)^k times each entry of
    d_{p+1} of the source entering its summand times the diagram.
    """
    src, tgt = resolution(lam), resolution(mu)
    dom = hom_space(lam, mu, k)
    # built here, not through the cached _hom_index: the matrix is cached,
    # so each index is read once and keeping it would only hold memory
    index = {vector: i for i, vector in enumerate(hom_space(lam, mu, k + 1))}
    sign = Fraction(-((-1) ** k))
    entries: dict[tuple[int, int], Fraction] = {}
    for col, (p, s, t, diagram, j) in enumerate(dom):
        terms = []  # (block of the image, product, scale)
        q = p - k
        if 1 <= q < len(tgt):
            for (t0, u), d_entry in tgt.differentials[q - 1].items():
                if t0 == t:
                    terms += [
                        ((p, s, u), basis_product(diagram, d), c) for d, c in d_entry
                    ]
        if p + 1 < len(src):
            for (s2, s0), d_entry in src.differentials[p].items():
                if s0 == s:
                    terms += [
                        ((p + 1, s2, t), basis_product(d, diagram), sign * c)
                        for d, c in d_entry
                    ]
        for block, product, scale in terms:
            for d, c in product:
                row = index[block + (d, j)]
                entries[row, col] = entries.get((row, col), 0) + scale * c
    return SparseMatrix(len(index), len(dom), entries)


def _k_range(lam: Weight, mu: Weight) -> range:
    return range(-(len(resolution(mu)) - 1), len(resolution(lam)))


def ext_dims(lam: Weight, mu: Weight) -> dict[int, int]:
    """Exact cohomology dimensions {k: dim} of hom(P_•(λ), P_•(μ)) by rank
    counts, zeros omitted."""
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    out: dict[int, int] = {}
    for k in _k_range(lam, mu):
        space = hom_space(lam, mu, k)
        if not space:
            continue
        r_k = rank(_differential_matrix(lam, mu, k))
        r_prev = rank(_differential_matrix(lam, mu, k - 1))
        total = len(space) - r_k - r_prev
        if total:
            out[k] = total
    return out


# ---------------------------------------------------------------------------
# the closed dimension recursion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _shelton(lam: Weight, mu: Weight, k: int, index: int | None) -> int:
    """E^k(λ, μ), by the recursion on a 'v^' pair of λ.

    ``index`` overrides the canonical choice (the smallest admissible
    position); the result is independent of it.
    """
    if lam == mu:
        return 1 if k == 0 else 0
    if not bruhat_leq(lam, mu):
        return 0
    if k < 0 or k > length(lam) - length(mu):
        return 0
    candidates = [i for i in range(lam.size - 1) if lam.has_down_up_at(i)]
    i = candidates[0] if index is None else index
    if i not in candidates:
        raise ValueError(f"λ has no 'v^' pair at position {i}")
    ls = lam.swap(i)
    if mu.has_down_up_at(i):
        return _shelton(ls, mu.swap(i), k, None)
    if mu[i] == mu[i + 1]:
        return _shelton(ls, mu, k - 1, None)
    # μ carries '^v' at (i, i+1)
    ms = mu.swap(i)
    if bruhat_leq(ls, ms) and ls != ms:
        return (
            _shelton(ls, mu, k - 1, None)
            - _shelton(ls, mu, k + 1, None)
            + _shelton(ls, ms, k, None)
        )
    return _shelton(ls, mu, k - 1, None) + _shelton(ls, mu, k, None)


def shelton_dims(lam: Weight, mu: Weight, index: int | None = None) -> dict[int, int]:
    """dim Ext^k(M(λ), M(μ)) for all k, by the weight recursion alone."""
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    out = {}
    for k in range(0, length(lam) - length(mu) + 1):
        value = _shelton(lam, mu, k, index)
        if value < 0:
            raise AssertionError("dimension recursion produced a negative count")
        if value:
            out[k] = value
    return out


# ---------------------------------------------------------------------------
# canonical representatives
# ---------------------------------------------------------------------------


@dataclass
class ExtClass:
    """A labelled cohomology class with its canonical cocycle representative."""

    label: str
    source: Weight
    target: Weight
    element: HomElement

    @property
    def k(self) -> int:
        return self.element.k

    @property
    def j(self) -> int:
        return self.element.j


def _canonical_entry(nu: Weight, nu2: Weight, degree: int) -> AlgebraElement:
    """The canonical degree-d element of e_ν K e_ν'.

    Degree 0 demands ν = ν' (the idempotent).  Between distinct weights
    every graded piece is at most one-dimensional, so the basis diagram of
    the requested degree is unique; equal weights in positive degree are
    resolved as a composition through the neighbour (s|s−1).
    """
    if degree == 0:
        if nu != nu2:
            raise AssertionError("degree-0 entries exist only between equal weights")
        return idempotent(nu)
    if nu == nu2:
        if degree != 2:
            raise AssertionError("equal-weight entries only occur in degree 0 or 2")
        s, t = nu.to_kl()
        if t != s - 2:
            raise AssertionError("the composed loop is only used at (s|s-2)")
        mid = Weight.from_kl(nu.block[0], s, s - 1)
        return multiply(
            _canonical_entry(nu, mid, 1), _canonical_entry(mid, nu, 1)
        )
    found = [d for d in hom_basis(nu, nu2) if d.degree == degree]
    if len(found) > 1:
        raise AssertionError(
            f"expected at most one degree-{degree} diagram from {nu} to {nu2}, "
            f"found {len(found)}"
        )
    if not found:
        return AlgebraElement()
    return AlgebraElement.from_diagram(found[0])


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
        index = {}
        for t, (nu2, _) in enumerate(tgt.components[q]):
            index[(nu2.to_kl(), _ab_type(mu, nu2, q))] = t
        for s, (nu, _) in enumerate(comp):
            S, T = nu.to_kl()
            typ = _ab_type(lam, nu, p)
            for S2, T2, typ2, exponent in rules(S, T, typ):
                if not 0 <= T2 < S2:
                    continue
                t = index.get(((S2, T2), typ2))
                if t is None:
                    continue
                nu2 = tgt.components[q][t][0]
                value = Fraction((-1) ** exponent) * _canonical_entry(nu, nu2, degree)
                blocks.append(((p, s, t), value))
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

    def rules_b(S, T, typ):
        if typ == "A":
            if S == T + 1:
                yield S - 1, T - 2, "A", (N + K + 1) * (L + T)
        else:
            if S == T + 2:
                yield S - 1, S - 2, "A", (N + K + 1) * (L + S)

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
        "B": rules_b,
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
    dk, dj = _N2_BIGRADE[label]
    sigma = _sigma(lam, mu)
    return _build_by_rules(lam, mu, sigma + dk, sigma + dj, _special_rules(label, lam))


_N2_BIGRADE = {
    # label -> (k − Σ, j − Σ)
    "Id": (0, 0),
    "F": (-1, -2),
    "Ftilde": (-1, -2),
    "G": (-3, -4),
    "K": (-4, -6),
    "J": (-2, -4),
    "A": (-2, -4),
    "B": (-3, -6),
    "H(F-Ftilde)": (-2, -2),
    "H(J)": (-3, -4),
    "H(A)": (-3, -4),
    "H(B)": (-4, -6),
}


def construct_element(label: str, lam: Weight, mu: Weight) -> HomElement:
    """The canonical hom element with the given label, built from its
    component formulas (n ≤ 2)."""
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
    dk, dj = _N2_BIGRADE[label]
    sigma = _sigma(lam, mu)
    return _build_by_rules(lam, mu, sigma + dk, sigma + dj, _n2_rules(label, lam, mu))


def canonical_class(label: str, lam: Weight, mu: Weight) -> ExtClass:
    element = construct_element(label, lam, mu)
    if lam.n == 2:
        _assert_window(element)
    return ExtClass(label, lam, mu, element)


def homotopy_element(label: str, lam: Weight, mu: Weight) -> HomElement:
    """The explicit homotopies H(F−F̃), H(J), H(A), H(B) (n = 2)."""
    if label not in {"H(F-Ftilde)", "H(J)", "H(A)", "H(B)"}:
        raise ValueError(f"unknown homotopy label {label!r}")
    return construct_element(label, lam, mu)


def nullhomotopic_element(label: str, lam: Weight, mu: Weight) -> HomElement:
    """The nullhomotopic product families A and B (n = 2)."""
    if label not in {"A", "B"}:
        raise ValueError(f"unknown nullhomotopic label {label!r}")
    return construct_element(label, lam, mu)


def _assert_window(f: HomElement) -> None:
    """Bigrade window for nonzero degree-0 chain maps between linear n=2
    resolutions: k−j ∈ {0,…,4} with k ≥ σ − w(k−j), w = (2,3,4,3,2)."""
    if f.is_zero():
        return
    sigma = _sigma(f.source, f.target)
    gap = f.k - f.j
    widths = {0: 2, 1: 3, 2: 4, 3: 3, 4: 2}
    if gap not in widths or f.k < sigma - widths[gap]:
        raise AssertionError(
            f"bigrade (k={f.k}, j={f.j}) falls outside the admissible window"
        )


def hom_windows_ok(lam: Weight, mu: Weight) -> bool:
    """Every nonzero graded piece of hom(P_•(λ), P_•(μ)) sits in one of
    the five admissible (k, j) windows (n = 2)."""
    sigma = _sigma(lam, mu)
    widths = {0: 2, 1: 3, 2: 4, 3: 3, 4: 2}
    for k in _k_range(lam, mu):
        for _, _, _, _, j in hom_space(lam, mu, k):
            gap = k - j
            if gap not in widths or k < sigma - widths[gap]:
                return False
    return True


# ---------------------------------------------------------------------------
# bases of the Ext spaces
# ---------------------------------------------------------------------------


def _n2_candidate_labels(lam: Weight, mu: Weight) -> list[str]:
    N, M = lam.to_kl()
    K, L = mu.to_kl()
    out = []
    if K <= N and L <= M:
        out.append("Id")
    f_ok = L < M and K <= N and L + 1 < K
    ftilde_ok = L <= M and K < N
    if f_ok:
        out.append("F")
    if ftilde_ok and (M < K or not f_ok):
        out.append("Ftilde")
    if M < K and K < N and L < M:
        out.append("J")
    if K < M:
        out.append("G")
        out.append("K")
    return out


def ext_basis(lam: Weight, mu: Weight, method: str = "auto") -> list[ExtClass]:
    """A basis of Ext(M(λ), M(μ)) by cocycle representatives.

    For n ≤ 2 (and method != "generic") the labelled canonical elements
    are used and verified: each must be a cocycle, jointly independent
    modulo coboundaries, and their count per degree must equal the closed
    dimension recursion — any mismatch is a hard failure.
    """
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    n = lam.n
    expected = shelton_dims(lam, mu)
    if method == "generic" or (method == "auto" and n > 2):
        classes = _generic_basis(lam, mu)
    else:
        classes = _labelled_basis(lam, mu)
    got: dict[int, int] = {}
    for c in classes:
        got[c.k] = got.get(c.k, 0) + 1
    if got != expected:
        raise ArithmeticError(
            f"basis dimensions {got} disagree with the recursion {expected} "
            f"for ({lam}, {mu})"
        )
    return classes


def _labelled_basis(lam: Weight, mu: Weight) -> list[ExtClass]:
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
    classes = [c for c in classes if not c.element.is_zero()]
    for c in classes:
        if not hom_differential(c.element).is_zero():
            raise ArithmeticError(f"canonical {c.label} representative is not a cocycle")
    _assert_independent(lam, mu, classes)
    return sorted(classes, key=lambda c: (c.k, c.label))


def _assert_independent(lam: Weight, mu: Weight, classes: list[ExtClass]) -> None:
    by_k: dict[int, list[ExtClass]] = {}
    for c in classes:
        by_k.setdefault(c.k, []).append(c)
    for k, group in by_k.items():
        span = _coboundaries(lam, mu, k)
        if not all(span.add(vectorize(c.element)) for c in group):
            raise ArithmeticError(
                f"canonical degree-{k} representatives are dependent modulo "
                f"coboundaries for ({lam}, {mu})"
            )


def _coboundaries(lam: Weight, mu: Weight, k: int) -> Echelon:
    """The span of d(hom^{k-1}) inside hom^k(λ, μ)."""
    return Echelon.of_rows(_differential_matrix(lam, mu, k - 1).transpose())


def _generic_basis(lam: Weight, mu: Weight) -> list[ExtClass]:
    """Echelon-canonical cocycle representatives, deterministic in the
    fixed hom-space basis order."""
    out = []
    for k in _k_range(lam, mu):
        space = hom_space(lam, mu, k)
        if not space:
            continue
        span = _coboundaries(lam, mu, k)
        for vec in kernel_basis(_differential_matrix(lam, mu, k)):
            if span.add(vec):
                out.append(ExtClass("generic", lam, mu, hom_element(lam, mu, k, vec)))
    return out


# ---------------------------------------------------------------------------
# homotopies and decomposition
# ---------------------------------------------------------------------------


def find_homotopy(f: HomElement) -> HomElement | None:
    """H with d(H) = f, by a deterministic solve, or None if f is not a
    coboundary.  f = 0 yields the zero homotopy."""
    if f.is_zero():
        return zero_hom(f.source, f.target, f.k - 1, f.j)
    lam, mu, k = f.source, f.target, f.k
    matrix = _differential_matrix(lam, mu, k - 1)
    solution = solve(matrix, vectorize(f))
    if solution is None:
        return None
    return hom_element(lam, mu, k - 1, solution, f.j)


def decompose(f: HomElement, classes: list[ExtClass] | None = None):
    """Write the cocycle f as Σ cᵢ·bᵢ + d(H) over the basis classes.

    Returns (coefficients keyed by class label with bigrade, H).  Raises
    if f is not a cocycle in the span.
    """
    lam, mu, k = f.source, f.target, f.k
    if classes is None:
        classes = [c for c in ext_basis(lam, mu) if c.k == k]
    else:
        classes = [c for c in classes if c.k == k]
    boundary = _differential_matrix(lam, mu, k - 1)
    # columns [classes | d(hom^{k-1})]
    width = len(classes)
    entries = {(r, width + c): v for (r, c), v in boundary.entries.items()}
    for i, c in enumerate(classes):
        entries.update(((r, i), v) for r, v in c.element.coords.items())
    matrix = SparseMatrix(boundary.rows, width + boundary.cols, entries)
    solution = solve(matrix, vectorize(f))
    if solution is None:
        raise ArithmeticError("element does not decompose over the basis")
    coeffs = {
        (c.label, c.k, c.j): solution[i]
        for i, c in enumerate(classes)
        if solution[i]
    }
    return coeffs, hom_element(lam, mu, k - 1, solution[len(classes):], f.j)


# ---------------------------------------------------------------------------
# quivers
# ---------------------------------------------------------------------------


def end_quiver(m: int, n: int) -> dict:
    """Quiver with relations of the basic algebra K_m^n itself.

    Arrows are the degree-1 basis diagrams of e_λ K e_μ (at most one per
    ordered pair); relations are the kernel vectors of the multiplication
    from paths of length two into degree 2.
    """
    vertices = weights_in_block(m, n)
    arrows = []
    for lam in vertices:
        for mu in vertices:
            if lam == mu:
                continue
            degree_one = [d for d in hom_basis(lam, mu) if d.degree == 1]
            if len(degree_one) > 1:
                raise AssertionError("more than one degree-1 arrow between weights")
            if degree_one:
                arrows.append((lam, mu))
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
            degree_two = sorted(
                (d for d in hom_basis(lam, mu) if d.degree == 2), key=str
            )
            index = {d: i for i, d in enumerate(degree_two)}
            entries: dict[tuple[int, int], Fraction] = {}
            for col, (_, nu, _) in enumerate(paths):
                product = multiply(
                    _canonical_entry(lam, nu, 1), _canonical_entry(nu, mu, 1)
                )
                for diagram, coeff in product:
                    if diagram.degree == 2:
                        entries[(index[diagram], col)] = (
                            entries.get((index[diagram], col), Fraction(0)) + coeff
                        )
            matrix = SparseMatrix(len(degree_two), len(paths), entries)
            for vec in kernel_basis(matrix):
                relations.append(
                    [(coeff, paths[i]) for i, coeff in enumerate(vec) if coeff]
                )
    return {"vertices": vertices, "arrows": arrows, "relations": relations}


def ext_quiver(m: int, n: int) -> dict:
    """Quiver presentation of Ext(⊕M(λ), ⊕M(λ)).

    Generators are the basis classes that never appear in the span of
    products of two non-identity classes; relations record, for every
    composable pair of generators, the decomposition of their product
    over the basis (empty coefficients = a zero relation).
    """
    vertices = weights_in_block(m, n)
    bases: dict[tuple[Weight, Weight], list[ExtClass]] = {}
    for lam in vertices:
        for mu in vertices:
            bases[(lam, mu)] = [] if lam == mu else ext_basis(lam, mu)
    spanned: dict[tuple[Weight, Weight], set] = {}
    for (lam, nu), first in bases.items():
        for (nu2, mu), second in bases.items():
            if nu2 != nu or not first or not second:
                continue
            for f in first:
                for g in second:
                    coeffs, _ = decompose(compose(f, g), bases[(lam, mu)])
                    spanned.setdefault((lam, mu), set()).update(coeffs)
    generators = [
        c
        for pair, classes in bases.items()
        for c in classes
        if (c.label, c.k, c.j) not in spanned.get(pair, set())
    ]
    relations = []
    for f in generators:
        for g in generators:
            if f.target != g.source:
                continue
            coeffs, _ = decompose(
                compose(f, g), bases[(f.source, g.target)]
            )
            relations.append(
                (
                    (f.label, f.source, f.target),
                    (g.label, g.source, g.target),
                    coeffs,
                )
            )
    return {
        "vertices": vertices,
        "generators": [
            (c.label, c.source, c.target, c.k, c.j) for c in generators
        ],
        "relations": relations,
    }
