"""Merkulov minimal model on the Ext algebra of the cell modules.

The hom dg-algebra A = hom(P_•, P_•) is split degreewise as
A^k = B^k ⊕ H^k ⊕ L^k with B the coboundaries, H a chosen complement of B
inside the cocycles (identified with Ext) and L a complement of the
cocycles.  The homotopy Q is zero on H and L and (d|_L)^{-1} on B, so
1 − Π = dQ + Qd with Π the projection onto H.  The higher products come
from the recursion

    λ_2(a_1, a_2) = a_1·a_2,
    λ_n = − Σ_{k+l=n} (−1)^{k+(l−1)(|a_1|+…+|a_k|)+(k−1)(|a_{k+1}|+…+|a_n|)}
              Qλ_k(a_1, …, a_k) · Qλ_l(a_{k+1}, …, a_n),

with the formal seed Qλ_1 = −Id, and m_n = Π(λ_n).  With these signs the
Stasheff identities fail on (3|2) from arity 4 on (ROADMAP item 1).

Two splitting modes are supported.  "generic" picks deterministic echelon
complements.  "canonical-n2" (n = 2 blocks only) uses the labelled
canonical representatives as H and seeds L with the explicit homotopies
H(F−F̃), H(J), H(A), H(B), so that Q on products of basis classes is
given by the closed homotopy table.
"""

from __future__ import annotations

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
    _nonzero,
    _sigma,
    basis_hom_element,
    compose,
    ext_basis,
    hom_differential,
    hom_space,
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

    Each (λ, μ) pair is split lazily, once, and cached.  For every hom^k
    the split stores the inverse of its invertible [B | H | L] column
    matrix, so the coordinates that Π and Q read are one matrix-vector
    product, the unique solution a fresh ``solve`` would return.

    Every H-class gets an index when its pair is split, and one memo keyed
    by tuples of those indices holds, for each chain of classes evaluated,
    Qλ (None when it vanishes) and the H-coordinates of m_n = Π(λ_n), both
    read off one coordinate vector of λ_n.
    """

    def __init__(self, m: int, n: int, mode: str = "generic"):
        if mode not in ("generic", "canonical-n2"):
            raise ValueError(f"unknown splitting mode {mode!r}")
        if mode == "canonical-n2" and n != 2:
            raise ValueError("mode 'canonical-n2' requires an n = 2 block")
        self.block = (m, n)
        self.mode = mode
        self._pairs: dict[tuple[Weight, Weight], dict[int, _SpaceSplit]] = {}
        self._classes: list[ExtClass] = []
        self._index: dict[int, int] = {}  # id(class) -> position in _classes
        self._chains: dict[tuple[int, ...], tuple[HomElement | None, dict]] = {}

    # -- construction -------------------------------------------------------

    def _pair(self, lam: Weight, mu: Weight) -> dict[int, _SpaceSplit]:
        data = self._pairs.get((lam, mu))
        if data is None:
            data = self._pairs[(lam, mu)] = self._build_pair(lam, mu)
            for space in data.values():
                for c in space.h_classes:
                    i = self._index[id(c)] = len(self._classes)
                    self._classes.append(c)
                    self._chains[(i,)] = (-1 * c.element, {})  # Qλ_1 = −Id, m_1 = 0
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
            h_cols = [vectorize(c.element) for c in classes]
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
                    vec = vectorize(element)
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
        return data, data.inverse.apply(f.coords)

    def pi(self, f: HomElement) -> HomElement:
        """Projection onto H along B ⊕ L."""
        if f.is_zero():
            return f
        data, coords = self._coordinates(f)
        out = zero_hom(f.source, f.target, f.k, f.j)
        for (_, _, _, i), coeff in self._h_coordinates(data, coords).items():
            out = out + coeff * data.h_classes[i].element
        return out

    def pi_coefficients(self, f: HomElement) -> dict:
        """H-basis coordinates of Π(f), keyed by (label, k, j, position)."""
        if f.is_zero():
            return {}
        return self._h_coordinates(*self._coordinates(f))

    @staticmethod
    def _h_coordinates(data: _SpaceSplit, coords: list[Fraction]) -> dict:
        return {
            (c.label, c.k, c.j, i): coords[data.b_count + i]
            for i, c in enumerate(data.h_classes)
            if coords[data.b_count + i]
        }

    def q(self, f: HomElement) -> HomElement:
        """The homotopy: zero on H and L, (d|_L)^{-1} on the boundaries."""
        if f.is_zero():
            return zero_hom(f.source, f.target, f.k - 1, f.j)
        return self._q(f, *self._coordinates(f))

    @staticmethod
    def _q(f: HomElement, data: _SpaceSplit, coords: list[Fraction]) -> HomElement:
        out: dict[int, Fraction] = {}
        for coeff, preimage in zip(coords[: data.b_count], data.l_prev):
            if coeff:
                for row, value in enumerate(preimage):
                    if value:
                        out[row] = out.get(row, 0) + coeff * value
        return HomElement(f.source, f.target, f.k - 1, f.j, _nonzero(out))

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

    # -- the chain memo -----------------------------------------------------

    def _key(self, chain) -> tuple[int, ...]:
        try:
            return tuple(self._index[id(c)] for c in chain)
        except KeyError:
            raise ValueError("arguments must be H-classes of this splitting") from None

    def _entry(self, key: tuple[int, ...]) -> tuple[HomElement | None, dict]:
        """(Qλ or None, m-coefficients) of the chain of classes ``key``."""
        entry = self._chains.get(key)
        if entry is None:
            lam = self._lambda(key)
            if lam.is_zero():
                entry = (None, {})
            else:
                data, coords = self._coordinates(lam)
                q = self._q(lam, data, coords)
                entry = (None if q.is_zero() else q, self._h_coordinates(data, coords))
            self._chains[key] = entry
        return entry

    def _lambda(self, key: tuple[int, ...]) -> HomElement:
        """λ_n of a chain, from the memoized Qλ of its cuts (zero unless
        the chain is composable)."""
        classes = [self._classes[i] for i in key]
        degree = [c.k for c in classes]
        total = zero_hom(
            classes[0].source, classes[-1].target, sum(degree) + 2 - len(key),
            sum(c.j for c in classes),
        )
        if any(a.target != b.source for a, b in zip(classes, classes[1:])):
            return total
        if len(key) == 2:
            return compose(*classes)
        for cut in range(1, len(key)):
            left = self._entry(key[:cut])[0]
            right = None if left is None else self._entry(key[cut:])[0]
            if right is None:
                continue
            # with the left-to-right composition the Leibniz rule puts the
            # sign on the right factor, so the Koszul weight carries the
            # left degrees against l − 1 and the right ones against k − 1
            k_len, l_len = cut, len(key) - cut
            left_degrees, right_degrees = sum(degree[:cut]), sum(degree[cut:])
            exponent = k_len + (l_len - 1) * left_degrees + (k_len - 1) * right_degrees
            total = total + Fraction(-((-1) ** exponent)) * compose(left, right)
        return total

    def m_coefficients(self, chain) -> dict:
        """``pi_coefficients(lambda_n(chain))`` of a composable chain of this
        splitting's H-classes, read from the memo."""
        return self._entry(self._key(chain))[1]


def build_splitting(m: int, n: int, mode: str = "generic") -> Splitting:
    return Splitting(m, n, mode)


# ---------------------------------------------------------------------------
# the λ_n recursion and the higher products
# ---------------------------------------------------------------------------


def lambda_n(split: Splitting, chain) -> HomElement:
    """λ_n(a_1, …, a_n) of the splitting's own H-classes, from the
    splitting's memo of Qλ on every proper sub-chain."""
    if len(chain) < 2:
        raise ValueError("λ_n needs at least two arguments")
    return split._lambda(split._key(chain))


def m_n(split: Splitting, chain) -> HomElement:
    """m_n = Π(λ_n); m_2 is the multiplication on Ext."""
    return split.pi(lambda_n(split, chain))


def lambda_degree_bound_holds(elements) -> bool:
    """The inequality from the general vanishing bound: with
    k_i = l(μ_i) − l(μ_{i+1}) − d_i, a nonzero λ_l needs Σd_i ≤ n²+2−l."""
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
    """Evaluate every Stasheff identity
    Σ (−1)^{r+st+s(|a_1|+…+|a_r|)} m_{r+t+1}(1^r ⊗ m_s ⊗ 1^t) = 0
    on all composable H-basis tuples up to the arity bound (m_1 = 0).

    The inner m_s lands in H, so by multilinearity each term is a sum of
    products of memo entries: the coefficient of each class the inner m_s
    lands on times the outer m on the chain with that class in its place.
    """
    classes = split.all_h_classes(include_idempotents=False)
    violations = []
    checked = 0
    for n in range(2, arity + 1):
        for chain in composable_tuples(classes, n):
            key = split._key(chain)
            total: dict = {}
            for s in range(2, n):  # s = n would need the outer m_1, which is 0
                for r in range(0, n - s + 1):
                    t = n - s - r
                    inner = split._entry(key[r : r + s])[1]
                    sign = (-1) ** (r + s * t + s * sum(a.k for a in chain[:r]))
                    pair = split._pair(chain[r].source, chain[r + s - 1].target)
                    for (_, k, _, position), coeff in inner.items():
                        (h,) = split._key([pair[k].h_classes[position]])
                        outer = split._entry(key[:r] + (h,) + key[r + s :])[1]
                        for where, value in outer.items():
                            total[where] = total.get(where, 0) + sign * coeff * value
            checked += 1
            if any(total.values()):
                violations.append(tuple(_class_key(c) for c in chain))
    return {"arity": arity, "checked": checked, "violations": violations}


def vanishing_report(split: Splitting, arity: int) -> dict:
    """Per-arity zero/nonzero summary plus the intermediate vanishing facts
    Q(λ_2)·Q(λ_2) = 0 and Q(λ_3) = 0 (when they hold)."""
    classes = split.all_h_classes(include_idempotents=False)
    m, n = split.block

    def q_lambda(chain) -> HomElement | None:
        return split._entry(split._key(chain))[0]

    q2_zero = all(q_lambda(c) is None for c in composable_tuples(classes, 2))
    q2q2 = [(q_lambda(c[:2]), q_lambda(c[2:])) for c in composable_tuples(classes, 4)]
    q2q2_zero = all(a is None or b is None or compose(a, b).is_zero() for a, b in q2q2)
    q3_zero = all(q_lambda(c) is None for c in composable_tuples(classes, 3))

    per_arity: dict[int, dict] = {}
    for width in range(2, arity + 1):
        max_abs = Fraction(0)
        nonzero = []
        for chain in composable_tuples(classes, width):
            coeffs = split.m_coefficients(chain)
            if coeffs:
                nonzero.append(tuple(_class_key(c) for c in chain))
                max_abs = max(max_abs, max(abs(v) for v in coeffs.values()))
        per_arity[width] = {"max_abs_coefficient": max_abs, "nonzero_tuples": nonzero}

    return {
        "block": split.block,
        "mode": split.mode,
        "general_bound": n * n + 2,
        "q_lambda2_zero": q2_zero,
        "q_lambda2_products_zero": q2q2_zero,
        "q_lambda3_zero": q3_zero,
        "per_arity": per_arity,
    }
