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
complements.  "canonical-n2" (blocks with n ≤ 2) uses the labelled
canonical representatives as H and, for n = 2, seeds L with the explicit
homotopies H(F−F̃), H(J), H(A), H(B), so that Q on products of basis
classes is given by the closed homotopy table; n < 2 has no seeds.

m_2 is the Yoneda product on Ext, so ``ext_quiver`` reads its generators
and relations off the memo of one splitting of the block.

Ext(M(λ), M(μ)) = 0 unless λ ≤ μ, so the classes, and every chain of them,
come from the pairs with λ ≤ μ: only those are split to find them.

λ_n, Qλ and m_n of a chain of classes of bidegrees (k_i, j_i) are
homogeneous of bidegree (Σk_i + 2 − n, Σj_i), Qλ one degree lower: d
preserves the shift j, the split's B, H and L are homogeneous (so Π and Q
keep j), and composition adds shifts.  So λ_n = 0 whenever hom^k(λ, μ) has
no basis vector of shift j, and the chain memo answers such a chain
without evaluating a cut.

A chain of classes is read once (``Splitting._read``): one loop over its
classes gives their indices, the bidegree and whether the chain composes,
so ``lambda_n`` and ``m_coefficients`` answer 0 for a chain that does not
compose or whose (k, j) piece is empty without evaluating anything.  The
reports enumerate the composable tuples of class indices lazily, one
arity at a time, in ``composable_tuples`` order (both read ``_chains``),
and name each class through the one per-class key list.
"""

from __future__ import annotations

from collections.abc import Iterator
from types import MappingProxyType

from .arcalg import _product_table
from .diagrams import Weight, bruhat_leq, weights_in_block
from .exact import Scalar
from .extalg import (
    ExtClass,
    HomElement,
    _combine,
    _compose_coords,
    _hom_index,
    _k_range,
    _labelled_basis,
    _nonzero,
    _space_split,
    _SpaceSplit,
    _split_pair,
    basis_hom_element,
    hom_differential,
    hom_space,
    hom_element,
    homotopy_seeds,
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
    "ext_quiver",
]


# ---------------------------------------------------------------------------
# the splitting A = B ⊕ H ⊕ L and the homotopy Q
# ---------------------------------------------------------------------------


# the one shared, read-only memo entry of every chain whose Qλ and m vanish
_ZERO_CHAIN = (None, MappingProxyType({}))


class Splitting:
    """The block-wide splitting with projection Π and homotopy Q.

    Each (λ, μ) pair is split lazily, once, and cached: ``h_classes`` and
    ``all_h_classes`` split only pairs with λ ≤ μ, as Ext vanishes on the
    others and no chain of classes reaches them, while Π, Q and ``verify``
    split any pair they are given.

    ``_build_pair`` splits a pair through ``extalg._split_pair``, the one
    routine that chooses and checks a split, and so the one ``ext_basis``
    reads its classes from: canonical mode (n ≤ 2) passes the labelled
    classes and the explicit homotopies as seeds (none unless n = 2),
    generic mode neither.  Π and Q read each hom^k through its
    ``_SpaceSplit``.

    Every H-class gets an index when its pair is split, and one memo keyed
    by tuples of those indices holds, for each chain of classes evaluated,
    the coordinates of Qλ (None when it vanishes) and the H-coordinates of
    m_n = Π(λ_n) keyed by class index, both read off one coordinate vector
    of λ_n.
    """

    def __init__(self, m: int, n: int, mode: str = "generic"):
        if mode not in ("generic", "canonical-n2"):
            raise ValueError(f"unknown splitting mode {mode!r}")
        if mode == "canonical-n2" and n > 2:
            raise ValueError("mode 'canonical-n2' requires a block with n ≤ 2")
        self.block = (m, n)
        self.mode = mode
        self._pairs: dict[tuple[Weight, Weight], dict[int, _SpaceSplit]] = {}
        self._classes: list[ExtClass] = []
        self._index: dict[int, int] = {}  # id(class) -> position in _classes
        # per class index: source and target block positions, k, j, pi_coefficients key
        self._source: list[int] = []
        self._target: list[int] = []
        self._k: list[int] = []
        self._j: list[int] = []
        self._keys: list[tuple] = []
        self._table = _product_table(m, n)
        # hom_space, _hom_index and the shifts of hom^k, keyed by block positions and k
        self._spaces: dict[tuple[int, int, int], tuple[tuple, dict, frozenset]] = {}
        self._chains: dict[tuple[int, ...], tuple[dict | None, dict[int, Scalar]]] = {}

    # -- construction -------------------------------------------------------

    def _pair(self, lam: Weight, mu: Weight) -> dict[int, _SpaceSplit]:
        data = self._pairs.get((lam, mu))
        if data is None:
            data = self._pairs[(lam, mu)] = self._build_pair(lam, mu)
            for space in data.values():
                for position, c in enumerate(space.h_classes):
                    i = self._index[id(c)] = len(self._classes)
                    self._classes.append(c)
                    self._source.append(self._table.position[c.source])
                    self._target.append(self._table.position[c.target])
                    self._k.append(c.k)
                    self._j.append(c.j)
                    self._keys.append(space.h_key(position))
                    # Qλ_1 = −Id, m_1 = 0
                    self._chains[(i,)] = ({x: -v for x, v in c.element.coords.items()}, {})
        return data

    def _build_pair(self, lam: Weight, mu: Weight) -> dict[int, _SpaceSplit]:
        if lam.block != self.block or mu.block != self.block:
            raise ValueError("weights outside the block of this splitting")
        if self.mode == "canonical-n2":
            return _split_pair(lam, mu, _labelled_basis(lam, mu), homotopy_seeds(lam, mu))
        return _split_pair(lam, mu, None, {})

    # -- the three maps -----------------------------------------------------

    def pi(self, f: HomElement) -> HomElement:
        """Projection onto H along B ⊕ L."""
        if f.is_zero():
            return f
        data = _space_split(self._pair(f.source, f.target), f.k)
        h, vectors = data.coordinates(f.coords)[1], [c.element.coords for c in data.h_classes]
        return hom_element(f.source, f.target, f.k, _combine(h, vectors), f.j)

    def pi_coefficients(self, f: HomElement) -> dict:
        """H-basis coordinates of Π(f), keyed (label, k, j, position) as by
        ``decompose``: the one keyed read of a split, with no solve."""
        if f.is_zero():
            return {}
        data = _space_split(self._pair(f.source, f.target), f.k)
        return {data.h_key(i): v for i, v in data.coordinates(f.coords)[1].items()}

    def q(self, f: HomElement) -> HomElement:
        """The homotopy: zero on H and L, (d|_L)^{-1} on the boundaries."""
        if f.is_zero():
            return zero_hom(f.source, f.target, f.k - 1, f.j)
        data = _space_split(self._pair(f.source, f.target), f.k)
        return HomElement(f.source, f.target, f.k - 1, f.j, data.q(data.coordinates(f.coords)[0]))

    # -- derived data -------------------------------------------------------

    def h_classes(self, lam: Weight, mu: Weight) -> list[ExtClass]:
        """The H-classes of (λ, μ), [] without a split unless λ ≤ μ."""
        if lam.block != self.block or mu.block != self.block:
            raise ValueError("weights outside the block of this splitting")
        if not bruhat_leq(lam, mu):
            return []
        return [c for data in self._pair(lam, mu).values() for c in data.h_classes]

    def all_h_classes(self, include_idempotents: bool = True) -> list[ExtClass]:
        """The H-classes of every pair, in block order; splits λ ≤ μ only."""
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

    def _read(self, chain) -> tuple[tuple[int, ...], int, int, bool]:
        """One pass over a chain of this splitting's H-classes: its tuple of
        class indices, the bidegree (Σk_i + 2 − n, Σj_i) of its λ_n and
        whether it composes (target_i = source_{i+1}); ValueError for any
        other argument."""
        index, source, target, degree, shift = (
            self._index, self._source, self._target, self._k, self._j
        )
        key: list[int] = []
        k, j, composes, end = 2 - len(chain), 0, True, None
        try:
            for c in chain:
                i = index[id(c)]
                if end != source[i] and end is not None:
                    composes = False
                end = target[i]
                key.append(i)
                k += degree[i]
                j += shift[i]
        except KeyError:
            raise ValueError("arguments must be H-classes of this splitting") from None
        return tuple(key), k, j, composes

    def _entry(
        self, key: tuple[int, ...], k: int | None = None, j: int | None = None
    ) -> tuple[dict | None, dict[int, Scalar]]:
        """(coordinates of Qλ or None, m-coefficients by class index) of the
        composable chain of classes ``key``, whose λ_n has bidegree (k, j):
        read off the key on a miss when not given."""
        entry = self._chains.get(key)
        if entry is None:
            if k is None:
                k, j = self._bidegree(key)
            coords = {} if self._vanishes(key, k, j) else self._lambda(key, k, j)
            if coords:
                lam, mu = self._classes[key[0]].source, self._classes[key[-1]].target
                data = _space_split(self._pair(lam, mu), k)
                (coords, h), classes = data.coordinates(coords), data.h_classes
                h = {self._index[id(classes[i])]: v for i, v in h.items()}
                entry = (data.q(coords) or None, h)
            self._chains[key] = entry = entry or _ZERO_CHAIN
        return entry

    def _bidegree(self, key: tuple[int, ...]) -> tuple[int, int]:
        """(Σk_i + 2 − n, Σj_i): the bidegree of λ_n of the chain ``key``."""
        degree, shift = self._k, self._j
        k, j = 2 - len(key), 0
        for i in key:
            k += degree[i]
            j += shift[i]
        return k, j

    def _vanishes(self, key: tuple[int, ...], k: int, j: int) -> bool:
        """Whether hom^k from the source of the chain ``key`` to its target
        has no vector of shift j, so that its (k, j) piece is 0."""
        s, t = self._source[key[0]], self._target[key[-1]]
        return j not in (self._spaces.get((s, t, k)) or self._space(s, t, k))[2]

    def _lambda(self, key: tuple[int, ...], k: int, j: int) -> dict[int, Scalar]:
        """The coordinates of λ_n of a composable chain of bidegree (k, j)
        whose (k, j) piece is not empty, from the memoized Qλ of its cuts.

        λ_n lies in the (k, j) piece of hom^k: B, H and L are homogeneous
        (``hom_element`` refuses mixed shifts, d preserves j, and the
        echelon form of homogeneous vectors splits by j), so Q keeps j, and
        composition adds shifts.  Where that piece is empty λ_n = 0, so the
        callers (``lambda_n``, ``m_coefficients`` and a memo miss) ask
        ``_vanishes`` first and evaluate no cut.
        """
        degree, shift = self._k, self._j
        if len(key) == 2:
            f, g = (self._classes[i].element.coords for i in key)
            return self._product(key[:1], key[1:], degree[key[0]], degree[key[1]], f, g)
        n = len(key)
        total = k + n - 2  # the degrees of all n classes
        left_degrees = left_shift = 0
        coords: dict[int, Scalar] = {}
        for cut in range(1, n):
            left_degrees += degree[key[cut - 1]]
            left_shift += shift[key[cut - 1]]
            k_len, l_len = cut, n - cut
            right_degrees = total - left_degrees
            # the sub-chains' λ, of bidegree (degrees + 2 − length, shift)
            left = self._entry(key[:cut], left_degrees + 2 - k_len, left_shift)[0]
            if left is None:
                continue
            right = self._entry(key[cut:], right_degrees + 2 - l_len, j - left_shift)[0]
            if right is None:
                continue
            # with the left-to-right composition the Leibniz rule puts the
            # sign on the right factor, so the Koszul weight carries the
            # left degrees against l − 1 and the right ones against k − 1
            exponent = k_len + (l_len - 1) * left_degrees + (k_len - 1) * right_degrees
            sign = 1 if exponent % 2 else -1  # −(−1)^exponent
            # Qλ of a chain of c classes of total degree K lies in degree K + 1 − c
            product = self._product(
                key[:cut], key[cut:], left_degrees + 1 - k_len, right_degrees + 1 - l_len,
                left, right,
            )
            for i, c in product.items():
                coords[i] = coords.get(i, 0) + sign * c
        return _nonzero(coords)

    def _product(self, left: tuple, right: tuple, k: int, l: int, f: dict, g: dict) -> dict:
        """The coordinates of f·g for f in hom^k from the source of the chain
        ``left`` to the source of the chain ``right``, and g in hom^l from
        there to the target of ``right``."""
        spaces = self._spaces
        s, t, u = self._source[left[0]], self._source[right[0]], self._target[right[-1]]
        f_space = (spaces.get((s, t, k)) or self._space(s, t, k))[0]
        g_space = (spaces.get((t, u, l)) or self._space(t, u, l))[0]
        index = (spaces.get((s, u, k + l)) or self._space(s, u, k + l))[1]
        return _compose_coords(self._table.product, f_space, g_space, index, k, f, g)

    def _space(self, s: int, t: int, k: int) -> tuple[tuple, dict, frozenset]:
        """``hom_space``, ``_hom_index`` and the set of shifts of hom^k
        between the weights at block positions s and t, kept in ``_spaces``."""
        lam, mu = self._table.weights[s], self._table.weights[t]
        space = hom_space(lam, mu, k)
        self._spaces[s, t, k] = found = (
            space, _hom_index(lam, mu, k), frozenset(vector[4] for vector in space)
        )
        return found

    def m_coefficients(self, chain) -> dict:
        """``pi_coefficients(lambda_n(chain))`` of a chain of this splitting's
        H-classes, read from the memo: {} without a memo entry when the
        chain does not compose or its (k, j) piece is empty."""
        key, k, j, composes = self._read(chain)
        if not composes or self._vanishes(key, k, j):
            return {}
        keys = self._keys
        return {keys[i]: v for i, v in self._entry(key, k, j)[1].items()}


def build_splitting(m: int, n: int, mode: str = "generic") -> Splitting:
    return Splitting(m, n, mode)


# ---------------------------------------------------------------------------
# the λ_n recursion and the higher products
# ---------------------------------------------------------------------------


def lambda_n(split: Splitting, chain) -> HomElement:
    """λ_n(a_1, …, a_n) of the splitting's own H-classes, from the
    splitting's memo of Qλ on every proper sub-chain.

    One pass over the chain gives its class indices, its bidegree
    (Σk_i + 2 − n, Σj_i) and whether it composes; λ_n is 0, with no cut
    evaluated, when it does not compose or hom^k(λ, μ) has no vector of
    shift j.  ValueError for a class of another splitting."""
    if len(chain) < 2:
        raise ValueError("λ_n needs at least two arguments")
    key, k, j, composes = split._read(chain)
    coords = split._lambda(key, k, j) if composes and not split._vanishes(key, k, j) else {}
    return HomElement(chain[0].source, chain[-1].target, k, j, coords)


def m_n(split: Splitting, chain) -> HomElement:
    """m_n = Π(λ_n); m_2 is the multiplication on Ext."""
    return split.pi(lambda_n(split, chain))


# ---------------------------------------------------------------------------
# tabulated operations, Stasheff identities and reports
# ---------------------------------------------------------------------------


def _class_key(split: Splitting, i: int) -> tuple:
    """(source, target, label, k, j, position) of the splitting's H-class at
    index i; the position (that of ``pi_coefficients`` keys) tells apart
    the generic classes, which all carry the label "generic"."""
    c = split._classes[i]
    return (str(c.source), str(c.target), *split._keys[i])


def _chains(items, source, target, arity: int) -> Iterator[tuple]:
    """Lazily, every tuple of ``arity`` of the ``items`` in which
    target[x] = source[y] for each x followed by y, in lexicographic order
    of the items' positions, depth first with no recursion: only the current
    tuple is held, an iterator per place but the last, and the last two
    places are walked in one loop.  ValueError for an arity below one."""
    if arity < 1:
        raise ValueError("composable tuples need at least one class")
    if arity == 1:
        yield from ((x,) for x in items)
        return
    by_source: dict = {}
    for x in items:
        by_source.setdefault(source[x], []).append(x)
    chain, places = [], [iter(items)]
    while places:
        for x in places[-1]:
            if len(chain) + 2 < arity:
                chain.append(x)
                places.append(iter(by_source.get(target[x], ())))
                break
            for y in by_source.get(target[x], ()):
                yield (*chain, x, y)
        else:  # the place is used up: step back from it
            places.pop()
            del chain[-1:]  # no item stands before the first place


def composable_tuples(
    classes: list[ExtClass], arity: int
) -> list[tuple[ExtClass, ...]]:
    """All composable tuples of the given length (target_i = source_{i+1}),
    in lexicographic order of the classes' positions; ValueError for a
    length below one."""
    source, target = [c.source for c in classes], [c.target for c in classes]
    return [
        tuple([classes[p] for p in chain])
        for chain in _chains(range(len(classes)), source, target, arity)
    ]


def _index_tuples(split: Splitting, arity: int) -> Iterator[tuple[int, ...]]:
    """The composable tuples of the splitting's non-idempotent H-classes as
    tuples of class indices, lazily and in ``composable_tuples`` order."""
    index = split._index
    items = [index[id(c)] for c in split.all_h_classes(include_idempotents=False)]
    return _chains(items, split._source, split._target, arity)


def stasheff_check(split: Splitting, arity: int) -> dict:
    """Evaluate every Stasheff identity
    Σ (−1)^{r+st+s(|a_1|+…+|a_r|)} m_{r+t+1}(1^r ⊗ m_s ⊗ 1^t) = 0
    on all composable H-basis tuples up to the arity bound (m_1 = 0).

    The inner m_s lands in H, so by multilinearity each term is a sum of
    products of memo entries: the coefficient of each class the inner m_s
    lands on times the outer m on the chain with that class in its place.
    Each arity's chains are enumerated once, as tuples of class indices.
    """
    degree = split._k
    violations = []
    checked = 0
    for n in range(2, arity + 1):
        for key in _index_tuples(split, n):
            total: dict = {}
            for s in range(2, n):  # s = n would need the outer m_1, which is 0
                for r in range(0, n - s + 1):
                    inner = split._entry(key[r : r + s])[1]
                    if not inner:
                        continue
                    t = n - s - r
                    sign = (-1) ** (r + s * t + s * sum([degree[i] for i in key[:r]]))
                    for h, coeff in inner.items():
                        outer = split._entry(key[:r] + (h,) + key[r + s :])[1]
                        for where, value in outer.items():
                            total[where] = total.get(where, 0) + sign * coeff * value
            checked += 1
            if any(total.values()):
                violations.append(tuple([_class_key(split, i) for i in key]))
    return {"arity": arity, "checked": checked, "violations": violations}


def _q2q2_nonzero(split: Splitting, key: tuple[int, ...]) -> bool:
    """Whether Qλ(a, b)·Qλ(c, d) ≠ 0 for the chain (a, b, c, d) ``key``;
    the product lies in the (k, j) piece of λ_4(a, b, c, d), and Qλ_2 in
    degree k_a + k_b − 1."""
    left, right = split._entry(key[:2])[0], split._entry(key[2:])[0]
    if left is None or right is None or split._vanishes(key, *split._bidegree(key)):
        return False
    degree = split._k
    k, l = degree[key[0]] + degree[key[1]] - 1, degree[key[2]] + degree[key[3]] - 1
    return bool(split._product(key[:2], key[2:], k, l, left, right))


def vanishing_report(split: Splitting, arity: int) -> dict:
    """Per-arity zero/nonzero summary plus the intermediate vanishing facts
    Qλ_2 = 0, Q(λ_2)·Q(λ_2) = 0 and Q(λ_3) = 0 (when they hold).

    Each arity's chains are enumerated once, as tuples of class indices,
    and the facts read the same chains and memo entries as the summary:
    arities 2 and 3 are evaluated, and arity 4 is enumerated, even when
    ``arity`` is smaller."""
    m, n = split.block
    q_zero = {2: True, 3: True}  # no chain of that arity has a nonzero Qλ
    q2q2_zero = True
    per_arity: dict[int, dict] = {}
    for width in range(2, max(arity, 4) + 1):
        max_abs = 0
        nonzero = []
        for key in _index_tuples(split, width):
            if width == 4 and q2q2_zero and _q2q2_nonzero(split, key):
                q2q2_zero = False
            if width > max(arity, 3):
                continue
            q, coeffs = split._entry(key)
            if q is not None and width in q_zero:
                q_zero[width] = False
            if coeffs:
                nonzero.append(tuple([_class_key(split, i) for i in key]))
                max_abs = max(max_abs, max(abs(v) for v in coeffs.values()))
        if width <= arity:
            per_arity[width] = {"max_abs_coefficient": max_abs, "nonzero_tuples": nonzero}

    return {
        "block": split.block,
        "mode": split.mode,
        "general_bound": n * n + 2,
        "q_lambda2_zero": q_zero[2],
        "q_lambda2_products_zero": q2q2_zero,
        "q_lambda3_zero": q_zero[3],
        "per_arity": per_arity,
    }


# ---------------------------------------------------------------------------
# the Ext quiver
# ---------------------------------------------------------------------------


def ext_quiver(m: int, n: int) -> dict:
    """Quiver presentation of Ext(⊕M(λ), ⊕M(λ)), read off the m_2 of one
    splitting of the block: canonical-n2 for n ≤ 2, generic otherwise.

    Generators are the non-idempotent classes that no m_2 of two of them
    reaches, in ``all_h_classes`` order, each named by its entry (label,
    source, target, k, j); relations record, for every composable pair of
    generators, the two entries and their m_2 over the classes, keyed as by
    ``decompose`` (empty = a zero relation).
    """
    split = Splitting(m, n, "canonical-n2" if n <= 2 else "generic")
    reached: set[int] = set()
    for key in _index_tuples(split, 2):
        reached.update(split._entry(key)[1])
    index, keys, source, target = split._index, split._keys, split._source, split._target
    entry = {
        index[id(c)]: (c.label, c.source, c.target, c.k, c.j)
        for c in split.all_h_classes(include_idempotents=False)
        if index[id(c)] not in reached
    }
    return {
        "vertices": weights_in_block(m, n),
        "generators": list(entry.values()),
        "relations": [
            (entry[f], entry[g], {keys[i]: v for i, v in split._entry((f, g))[1].items()})
            for f in entry
            for g in entry
            if target[f] == source[g]
        ],
    }
