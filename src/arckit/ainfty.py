"""Merkulov minimal model on the Ext algebra of the cell modules.

The hom dg-algebra A = hom(P_•, P_•) is split degreewise as
A^k = B^k ⊕ H^k ⊕ L^k with B the coboundaries, H a chosen complement of B
inside the cocycles (identified with Ext) and L a complement of the
cocycles.  The homotopy Q is zero on H and L and (d|_L)^{-1} on B, so
1 − Π = dQ + Qd with Π the projection onto H.  The higher products come
from the recursion

    λ_2(a_1, a_2) = a_1·a_2,
    λ_n = − Σ_{k+l=n} (−1)^{k+(l−1)(|a_1|+…+|a_k|)} Qλ_k · Qλ_l,

with the formal seed Qλ_1 = −Id, and m_n = Π(λ_n).

Two splitting modes are supported.  "generic" picks deterministic echelon
complements.  "canonical-n2" (n = 2 blocks only) uses the labelled
canonical representatives as H and seeds L with the explicit homotopies
H(F−F̃), H(J), H(A), H(B), so that Q on products of basis classes is
given by the closed homotopy table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import Weight, bruhat_leq, length, weights_in_block
from .exact import Echelon, SparseMatrix, inverse, rank
from .extalg import (
    ExtClass,
    HomElement,
    _differential_matrix,
    _k_range,
    _N2_BIGRADE,
    _sigma,
    basis_hom_element,
    compose,
    ext_basis,
    hom_differential,
    hom_space,
    hom_element,
    homotopy_element,
    vectorize,
    zero_hom,
)

__all__ = [
    "Splitting",
    "build_splitting",
    "lambda_n",
    "m_n",
    "stasheff_check",
    "vanishing_report",
    "composable_tuples",
    "lambda_degree_bound_holds",
]


# ---------------------------------------------------------------------------
# the splitting A = B ⊕ H ⊕ L and the homotopy Q
# ---------------------------------------------------------------------------


@dataclass
class _SpaceSplit:
    """The decomposition of one hom^k(P_•(λ), P_•(μ))."""

    space: tuple
    b_count: int
    h_classes: list[ExtClass]
    l_prev: list[list[Fraction]]  # L-basis of hom^{k-1}, preimages under d
    inverse: SparseMatrix  # of the matrix with columns [B | H | L]


def _homotopy_candidates(lam: Weight, mu: Weight, k: int) -> list[HomElement]:
    """The explicit homotopy elements landing in hom^k(λ, μ) (n = 2)."""
    if lam.n != 2 or lam == mu or not bruhat_leq(lam, mu):
        return []
    N, M = lam.to_kl()
    K, L = mu.to_kl()
    sigma = _sigma(lam, mu)
    ranges = {
        "H(F-Ftilde)": L + 1 < K and L < M and K < N and K <= M,
        "H(J)": K < N and L < M and K <= M,
        "H(A)": L < M - 1 and L + 2 < K,
        "H(B)": L < M - 1 and L + 1 < K and K < N,
    }
    out = []
    for label, in_range in ranges.items():
        if not in_range:
            continue
        dk, _ = _N2_BIGRADE[label]
        if sigma + dk != k:
            continue
        element = homotopy_element(label, lam, mu)
        if not element.is_zero():
            out.append(element)
    return out


class Splitting:
    """The block-wide splitting with projection Π and homotopy Q.

    Each (λ, μ) pair is split lazily, once, and cached; the per-pair cache
    is guarded by a lock so independent tuples may be evaluated
    concurrently.  For every hom^k the split stores the inverse of its
    invertible [B | H | L] column matrix, so the coordinates that Π and Q
    read are one matrix-vector product, the unique solution a fresh
    ``solve`` would return.
    """

    def __init__(self, m: int, n: int, mode: str = "generic"):
        if mode not in ("generic", "canonical-n2"):
            raise ValueError(f"unknown splitting mode {mode!r}")
        if mode == "canonical-n2" and n != 2:
            raise ValueError("mode 'canonical-n2' requires an n = 2 block")
        self.block = (m, n)
        self.mode = mode
        self._pairs: dict[tuple[Weight, Weight], dict[int, _SpaceSplit]] = {}
        self._lock = threading.Lock()

    # -- construction -------------------------------------------------------

    def _pair(self, lam: Weight, mu: Weight) -> dict[int, _SpaceSplit]:
        with self._lock:
            cached = self._pairs.get((lam, mu))
        if cached is not None:
            return cached
        data = self._build_pair(lam, mu)
        with self._lock:
            self._pairs[(lam, mu)] = data
        return data

    def _build_pair(self, lam: Weight, mu: Weight) -> dict[int, _SpaceSplit]:
        if lam.block != self.block or mu.block != self.block:
            raise ValueError("weights outside the block of this splitting")
        canonical = self.mode == "canonical-n2"
        labelled = (
            ext_basis(lam, mu) if canonical else ext_basis(lam, mu, method="generic")
        )
        out: dict[int, _SpaceSplit] = {}
        l_prev: list[list[Fraction]] = []
        for k in _k_range(lam, mu):
            space = hom_space(lam, mu, k)
            dim = len(space)
            if dim == 0:
                out[k] = _SpaceSplit(space, 0, [], l_prev, SparseMatrix.zeros(0, 0))
                l_prev = []
                continue
            span = Echelon(dim)
            d_prev = _differential_matrix(lam, mu, k - 1)
            b_cols = [d_prev.apply(vec) for vec in l_prev]
            if not all(span.add(vec) for vec in b_cols):
                raise ArithmeticError("d is not injective on the chosen L")
            # H: complement of B inside the cocycles
            classes = [c for c in labelled if c.k == k]
            h_cols = [vectorize(c.element, space) for c in classes]
            if not all(span.add(vec) for vec in h_cols):
                raise ArithmeticError(
                    "chosen H representatives meet the coboundaries"
                )
            if len(span) != dim - rank(_differential_matrix(lam, mu, k)):
                raise ArithmeticError("B ⊕ H does not exhaust the cocycles")
            # L: complement of the cocycles, seeded with the explicit
            # homotopies in canonical mode so that Q(products) matches
            # the closed homotopy table
            l_cols: list[list[Fraction]] = []
            if canonical:
                for element in _homotopy_candidates(lam, mu, k):
                    vec = vectorize(element, space)
                    if not span.add(vec):
                        raise ArithmeticError(
                            "homotopy element lies in the cocycles"
                        )
                    l_cols.append(vec)
            for i in range(dim):
                if len(span) == dim:
                    break
                vec = [Fraction(0)] * dim
                vec[i] = Fraction(1)
                if span.add(vec):
                    l_cols.append(vec)
            if len(span) != dim:
                raise ArithmeticError("failed to complete L to a complement")
            out[k] = _SpaceSplit(
                space,
                len(b_cols),
                classes,
                l_prev,
                inverse(SparseMatrix.from_columns(b_cols + h_cols + l_cols, dim)),
            )
            l_prev = l_cols
        return out

    # -- the three maps -----------------------------------------------------

    def _coordinates(self, f: HomElement) -> tuple[_SpaceSplit, list[Fraction]]:
        data = self._pair(f.source, f.target).get(f.k)
        if data is None or not data.space:
            raise ValueError("element lies outside the hom complex")
        return data, data.inverse.apply(vectorize(f, data.space))

    def pi(self, f: HomElement) -> HomElement:
        """Projection onto H along B ⊕ L."""
        if f.is_zero():
            return f
        data, coords = self._coordinates(f)
        out = zero_hom(f.source, f.target, f.k, f.j)
        for i, c in enumerate(data.h_classes):
            coeff = coords[data.b_count + i]
            if coeff:
                out = out + coeff * c.element
        return out

    def pi_coefficients(self, f: HomElement) -> dict:
        """H-basis coordinates of Π(f), keyed by (label, k, j, position)."""
        if f.is_zero():
            return {}
        data, coords = self._coordinates(f)
        return {
            (c.label, c.k, c.j, i): coords[data.b_count + i]
            for i, c in enumerate(data.h_classes)
            if coords[data.b_count + i]
        }

    def q(self, f: HomElement) -> HomElement:
        """The homotopy: zero on H and L, (d|_L)^{-1} on the boundaries."""
        if f.is_zero():
            return zero_hom(f.source, f.target, f.k - 1, f.j)
        data, coords = self._coordinates(f)
        vec = [Fraction(0)] * len(hom_space(f.source, f.target, f.k - 1))
        for coeff, preimage in zip(coords[: data.b_count], data.l_prev):
            if coeff:
                for row, value in enumerate(preimage):
                    if value:
                        vec[row] += coeff * value
        return hom_element(f.source, f.target, f.k - 1, vec, f.j)

    # -- derived data -------------------------------------------------------

    def h_classes(self, lam: Weight, mu: Weight) -> list[ExtClass]:
        return [c for data in self._pair(lam, mu).values() for c in data.h_classes]

    def all_h_classes(self, include_idempotents: bool = True) -> list[ExtClass]:
        m, n = self.block
        out = []
        for lam in weights_in_block(m, n):
            for mu in weights_in_block(m, n):
                if lam == mu and not include_idempotents:
                    continue
                out.extend(self.h_classes(lam, mu))
        return out

    def verify(self, lam: Weight, mu: Weight) -> None:
        """1 − Π = dQ + Qd on every basis vector of every hom^k(λ, μ)."""
        for k in _k_range(lam, mu):
            for vector in hom_space(lam, mu, k):
                f = basis_hom_element(lam, mu, k, vector)
                lhs = f - self.pi(f)
                rhs = hom_differential(self.q(f)) + self.q(hom_differential(f))
                if not (lhs - rhs).is_zero():
                    raise ArithmeticError(
                        f"1 − Π ≠ dQ + Qd on hom^{k}({lam}, {mu})"
                    )


def build_splitting(m: int, n: int, mode: str = "generic") -> Splitting:
    return Splitting(m, n, mode)


# ---------------------------------------------------------------------------
# the λ_n recursion and the higher products
# ---------------------------------------------------------------------------


def _as_elements(items) -> list[HomElement]:
    return [x.element if isinstance(x, ExtClass) else x for x in items]


def _composable(elements: list[HomElement]) -> bool:
    return all(
        elements[i].target == elements[i + 1].source
        for i in range(len(elements) - 1)
    )


def lambda_n(split: Splitting, items) -> HomElement:
    """λ_n(a_1, …, a_n) by the memoized sub-interval recursion."""
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
            # with the left-to-right composition the Leibniz rule puts the
            # sign on the right factor, so the Koszul weight carries both
            # the left degrees (against l_len - 1) and the right degrees
            # (against k_len - 1)
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


def m_n(split: Splitting, items) -> HomElement:
    """m_n = Π(λ_n); m_2 is the multiplication on Ext."""
    return split.pi(lambda_n(split, items))


def lambda_degree_bound_holds(elements) -> bool:
    """The inequality from the general vanishing bound: with
    k_i = l(μ_i) − l(μ_{i+1}) − d_i, a nonzero λ_l needs Σd_i ≤ n²+2−l."""
    elements = _as_elements(elements)
    n = elements[0].source.n
    total_d = sum(
        length(a.source) - length(a.target) - a.k for a in elements
    )
    return total_d <= n * n + 2 - len(elements)


# ---------------------------------------------------------------------------
# tabulated operations, Stasheff identities and reports
# ---------------------------------------------------------------------------


def _class_key(c: ExtClass) -> tuple:
    return (str(c.source), str(c.target), c.label, c.k, c.j)


def composable_tuples(
    classes: list[ExtClass], arity: int
) -> list[tuple[ExtClass, ...]]:
    """All composable tuples of the given length (target_i = source_{i+1})."""
    by_source: dict[Weight, list[ExtClass]] = {}
    for c in classes:
        by_source.setdefault(c.source, []).append(c)
    out: list[tuple[ExtClass, ...]] = []

    def extend(chain: list[ExtClass]):
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


def stasheff_check(split: Splitting, arity: int) -> dict:
    """Evaluate every Stasheff identity Σ (−1)^{r+st} m_{r+t+1}(1^r ⊗ m_s ⊗ 1^t)
    on all composable H-basis tuples up to the arity bound (m_1 = 0)."""
    classes = split.all_h_classes(include_idempotents=False)
    violations = []
    checked = 0
    for n in range(2, arity + 1):
        for chain in composable_tuples(classes, n):
            elements = _as_elements(chain)
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
            checked += 1
            if total is not None and not total.is_zero():
                violations.append(tuple(_class_key(c) for c in chain))
    return {"arity": arity, "checked": checked, "violations": violations}


def vanishing_report(split: Splitting, arity: int) -> dict:
    """Per-arity zero/nonzero summary plus the intermediate vanishing facts
    Q(λ_2)·Q(λ_2) = 0 and Q(λ_3) = 0 (when they hold)."""
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
