"""The graded arc algebra K_m^n and the projective functors on it.

Basis vectors are oriented circle diagrams (a, λ, b).  The product of
(aλb)(cμd) is zero unless b and c are mirror images; otherwise the first
diagram is drawn below the second, corresponding rays are stitched
together, and the generalized surgery procedure is iterated on the
symmetric middle section:

* pick a symmetric cup/cap pair that can be connected without crossings
  (one not enclosed by another remaining pair; we take the pair with the
  leftmost left endpoint, which nothing to its right can enclose),
* read off the kinds of the component(s) through the pair
  (1 = anticlockwise circle, x = clockwise circle, y = line),
* cut the pair open into two vertical segments and re-orient by

  split (one component into two):   1 -> 1⊗x + x⊗1,  x -> x⊗x,  y -> x⊗y
  merge (two components into one):  1⊗1 -> 1, 1⊗x -> x, x⊗1 -> x, x⊗x -> 0,
                                    1⊗y -> y, y⊗1 -> y, x⊗y -> 0, y⊗x -> 0,
                                    y⊗y -> y⊗y if one line's infinite ends
                                    are both '^' and the other's both 'v',
                                    else 0.

When no pairs remain the two number lines carry equal weights and are
identified, giving basis diagrams (a, ν, d).

Lines keep the orientation of their infinite ends whenever they survive a
surgery; circles are re-oriented through the leftmost-vertex rule.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from ._value import Value
from .diagrams import (
    DOWN,
    UP,
    CapDiagram,
    CupDiagram,
    OrientedCircleDiagram,
    Weight,
    associated_cap_diagram,
    associated_cup_diagram,
    cap_oriented,
    cup_oriented,
    weights_in_block,
)
from .exact import Scalar, rational

__all__ = [
    "AlgebraElement",
    "Matching",
    "basis",
    "idempotent",
    "hom_basis",
    "basis_product",
    "multiply",
    "SurgeryPanel",
    "surgery_trace",
    "functor_image",
]


class AlgebraElement:
    """A finite Q-linear combination of oriented circle diagrams.

    Each coefficient is a nonzero exact scalar: an int, or a Fraction when
    it is not integral (normalised by ``exact.rational``).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[OrientedCircleDiagram, Scalar] | None = None):
        self._terms = {d: rational(c) for d, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "AlgebraElement":
        return AlgebraElement()

    @staticmethod
    def from_diagram(
        diagram: OrientedCircleDiagram, coeff: Scalar = 1
    ) -> "AlgebraElement":
        return AlgebraElement({diagram: coeff})

    # -- inspection ----------------------------------------------------
    @property
    def terms(self) -> dict[OrientedCircleDiagram, Scalar]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> set[int]:
        return {d.degree for d in self._terms}

    def __iter__(self) -> Iterator[tuple[OrientedCircleDiagram, Scalar]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self._terms)
        for d, c in other._terms.items():
            out[d] = out.get(d, 0) + c
        return AlgebraElement(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (other * -1)

    def __mul__(self, other: "AlgebraElement | Scalar") -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return AlgebraElement({d: c * other for d, c in self._terms.items()})

    def __rmul__(self, scalar: Scalar) -> "AlgebraElement":
        return AlgebraElement({d: c * scalar for d, c in self._terms.items()})

    def __neg__(self) -> "AlgebraElement":
        return self * -1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "AlgebraElement(0)"
        parts = [f"{c} * ({d})" for d, c in sorted(self._terms.items(), key=lambda t: str(t[0]))]
        return "AlgebraElement(" + " + ".join(parts) + ")"


def idempotent(weight: Weight) -> AlgebraElement:
    """e_λ, the degree-0 diagram formed by the associated cup/cap diagrams
    (the object of ``basis``)."""
    table = _product_table(*weight.block)
    return AlgebraElement.from_diagram(table.diagrams[table.find(weight, weight, weight)])


def basis(m: int, n: int) -> tuple[OrientedCircleDiagram, ...]:
    """All basis diagrams of K_m^n in deterministic (α, β, ν) order, the
    diagrams of the block's product table."""
    return _product_table(m, n).diagrams


def hom_basis(
    alpha: Weight, beta: Weight
) -> tuple[OrientedCircleDiagram, ...]:
    """Basis of e_α K e_β: the diagrams (α̲, ν, β̄) of ``basis``, the same
    objects, in ν order (empty for weights of different blocks)."""
    table = _product_table(*alpha.block)
    return tuple(table.diagrams[x] for x in table.ends.get((alpha, beta), ()))


# ---------------------------------------------------------------------------
# generalized surgery multiplication
# ---------------------------------------------------------------------------
#
# During the procedure the stacked diagram has two number lines: line 0
# (bottom, carrying the first factor's weight) and line 1 (top, second
# factor's weight).  Vertex v = line * size + position, and an orientation
# state is an int with bit v set where v is labelled '^'.  Cups and caps
# force opposite labels at their endpoints; vertical segments (stitched
# rays, later also surgered columns) force equal labels.  A vertex meets at
# most two arcs, and only the infinite ends meet one, so a component is a
# circle or a line between two infinite ends.
#
# A component is described by four ints (start, end, mask, same): mask has
# a bit per vertex and same the vertices labelled like start.  A circle
# starts at its leftmost vertex and has end -1; a line starts at its lower
# infinite end and end is its other one.  A cut is compiled into the flat
# tuple (keep, cap, cap_end, cup, cup_end, *after): keep masks the vertices
# the cut leaves alone, (cap, cap_end) and (cup, cup_end) are the start and
# end of the components through the cut cap and cup (equal when they are
# one component), and after is the components the cut forms, four ints
# each, in order of their first vertex.

_Component = tuple[int, int, int, int]
_Step = tuple[int, ...]


class _SurgeryGeometry:
    """The arcs of one stacked basis pair, cut open one middle pair at a
    time by ``steps``.

    ``outer[v]`` is v's partner along a cup of a or a cap of d, ``inner[v]``
    along a middle arc or a vertical segment (w = v ± size), -1 for none.
    """

    __slots__ = ("size", "ends", "outer", "inner", "cuts")

    def __init__(self, a: CupDiagram, b: CapDiagram, d: CapDiagram):
        size = self.size = a.size
        ends = 0  # infinite ends: line-0 rays of a (down), line-1 rays of d (up)
        for p in a.rays:
            ends |= 1 << p
        for p in d.rays:
            ends |= 1 << p + size
        self.ends = ends
        outer = self.outer = [-1] * (2 * size)
        inner = self.inner = [-1] * (2 * size)
        for i, j in a.cups:
            outer[i], outer[j] = j, i
        for i, j in d.cups:
            outer[i + size], outer[j + size] = j + size, i + size
        for i, j in b.cups:
            inner[i], inner[j], inner[i + size], inner[j + size] = j, i, j + size, i + size
        for p in b.rays:
            inner[p], inner[p + size] = p + size, p
        self.cuts = sorted(b.cups)

    def middle_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.inner[: self.size]) if i < j < self.size]

    def component(self, start: int) -> _Component:
        """start's component, walked from start one way and then the other:
        outer arcs and inner arcs alternate along it.  A step along an arc
        flips the label, one along a vertical segment keeps it."""
        size, outer, inner = self.size, self.outer, self.inner
        mask = same = 1 << start
        for partners in (outer, inner):
            v, up = start, 1
            while (w := partners[v]) >= 0:
                if partners is outer or (w - v) % size:
                    up ^= 1
                bit = 1 << w
                if mask & bit:
                    if (same >> w & 1) != up:
                        raise AssertionError("a component has no consistent orientation")
                    break
                mask |= bit
                if up:
                    same |= bit
                v, partners = w, inner if partners is outer else outer
        ends = mask & self.ends
        if ends:
            start, end = (ends & -ends).bit_length() - 1, ends.bit_length() - 1
        else:  # the lowest position, on line 0 if both lines have it
            folded = (mask | mask >> size) & ((1 << size) - 1)
            start = (folded & -folded).bit_length() - 1
            if not mask >> start & 1:
                start += size
            end = -1
        return start, end, mask, same if same >> start & 1 else mask ^ same

    def components(self) -> list[_Component]:
        """All components, in order of their first vertex."""
        out: list[_Component] = []
        seen = 0
        for v in range(2 * self.size):
            if not seen >> v & 1:
                out.append(self.component(v))
                seen |= out[-1][2]
        return out

    def steps(self) -> Iterator[tuple[tuple[int, int], _Step]]:
        """Cut the middle pairs open one at a time into vertical segments,
        in order of their left endpoints, and yield each pair with its cut
        compiled into a step.

        A pair can be cut without crossings when no remaining pair encloses
        it, and a pair enclosing (i, j) has its left endpoint left of i: so
        the remaining pair with the leftmost left endpoint is never enclosed
        and needs no test.  The product does not depend on the order.
        """
        size, inner, full = self.size, self.inner, (1 << 2 * self.size) - 1
        component = self.component
        for pair in self.cuts:
            i, j = pair
            cap = component(i)
            cup = cap if cap[2] >> (size + i) & 1 else component(size + i)
            inner[i], inner[size + i] = size + i, i
            inner[j], inner[size + j] = size + j, j
            first = component(i)
            if first[2] >> j & 1:
                yield pair, (full ^ first[2], *cap[:2], *cup[:2], *first)
                continue
            second = component(j)
            if second[2] & -second[2] < first[2] & -first[2]:  # by their lowest bits
                first, second = second, first
            yield pair, (full ^ first[2] ^ second[2], *cap[:2], *cup[:2], *first, *second)


def _mask(positions: Iterable[int]) -> int:
    return sum(1 << p for p in positions)


@lru_cache(maxsize=None)
def _bits(labels: tuple[str, ...]) -> int:
    """The state of one number line with these labels."""
    return _mask(p for p, label in enumerate(labels) if label == UP)


@lru_cache(maxsize=None)
def _labels(state: int, size: int) -> tuple[str, ...]:
    """The labels of positions 0..size-1 of ``state``; inverse of ``_bits``."""
    return tuple(UP if state >> p & 1 else DOWN for p in range(size))


def _kind(start: int, end: int, state: int) -> str:
    """'y' for a line, else '1' or 'x' by the leftmost vertex's label."""
    if end >= 0:
        return "y"
    return "x" if state >> start & 1 else "1"


def _orient(after: _Step, state: int, kind: str) -> int:
    """The labels the components ``after`` get from a cut of ``state``:
    circles get ``kind`` ('1' = 'v' at the leftmost vertex, 'x' = '^'),
    lines keep the labels at their infinite ends."""
    labels = 0
    for k in range(0, len(after), 4):
        start, end, mask, same = after[k : k + 4]
        up = state >> start & 1 if end >= 0 else kind == "x"
        pattern = same if up else mask ^ same
        if end >= 0 and (pattern ^ state) >> end & 1:
            raise AssertionError("surgery could not preserve a line's ends")
        labels |= pattern
    return labels


def _cut(step: _Step, state: int) -> tuple[int, ...]:
    """The states one cut makes of ``state``, each with coefficient 1 (the
    rules of the module docstring)."""
    keep, cap, cap_end, cup, cup_end = step[:5]
    after = step[5:]
    rest = state & keep
    kind = _kind(cap, cap_end, state)
    if cap == cup:
        if kind == "1":  # 1 -> 1⊗x + x⊗1
            first, second = after[:4], after[4:]
            return (
                rest | _orient(first, state, "1") | _orient(second, state, "x"),
                rest | _orient(first, state, "x") | _orient(second, state, "1"),
            )
        return (rest | _orient(after, state, "x"),)  # x -> x⊗x, y -> x⊗y
    kinds = {kind, _kind(cup, cup_end, state)}
    if kinds == {"y"}:  # y⊗y -> y⊗y when the lines' ends are all '^' and all 'v'
        ends = {state >> cap & 1, state >> cap_end & 1}, {state >> cup & 1, state >> cup_end & 1}
        return (rest | _orient(after, state, "y"),) if ends in (({0}, {1}), ({1}, {0})) else ()
    if "x" in kinds and "1" not in kinds:  # x⊗x, x⊗y -> 0
        return ()
    return (rest | _orient(after, state, "x" if "x" in kinds else "1"),)


_STEPS: dict[_Step, _Step] = {}


@lru_cache(maxsize=None)
def _plan(a: CupDiagram, b: CapDiagram, d: CapDiagram) -> tuple[_Step, ...]:
    """The cuts of the stacked pair (a, b, d) in the order of ``steps``,
    memoized by the arc diagrams, so blocks of one size share their plans.
    Equal cuts of different plans are stored once, in ``_STEPS``: the
    12,433 plans of (4|3) hold 31,613 cuts, 4,934 of them distinct."""
    steps = _SurgeryGeometry(a, b, d).steps()
    return tuple(_STEPS.setdefault(step, step) for _, step in steps)


def _carry(plan: tuple[_Step, ...], size: int, state: int) -> dict[int, int]:
    """The labels of the collapsed line, as a state of ``size`` positions,
    that the cuts of ``plan`` make of ``state``, with their coefficients;
    empty when the product dies."""
    states = {state: 1}
    for step in plan:
        new_states: dict[int, int] = {}
        for state, coeff in states.items():
            for key in _cut(step, state):
                new_states[key] = new_states.get(key, 0) + coeff
        if not new_states:
            return {}
        states = new_states
    low = (1 << size) - 1
    if any(state & low != state >> size for state in states):
        raise AssertionError("number lines disagree after surgery")
    return {state & low: coeff for state, coeff in states.items()}


Terms = tuple[tuple[int, Scalar], ...]


def id_terms(coeffs: Mapping[int, Scalar]) -> Terms:
    """An element of K as (basis id, coeff) terms of its block's table:
    increasing ids, nonzero coefficients, normalised by ``exact.rational``."""
    return tuple((x, rational(c)) for x, c in sorted(coeffs.items()) if c)


class _ProductTable:
    """The basis of one block, its diagrams numbered by their position (id),
    and the products of those numbers.

    The diagrams (α̲, ν, β̄) are built in (α, β, ν) order, the ν that orient
    each α̲ and each β̄ found once, so only the diagrams of the basis are
    constructed.  ``weights`` is ``weights_in_block`` and ``position``
    maps each weight to its place there.  The diagram of id x has
    ``cup[x]`` and ``cap[x]`` the positions of α and β; ``ends[α, β]`` is
    the ids of e_α K e_β in order, ``stacking[β]`` the ids with cap
    position β (P(β)'s basis, in the order of ``projective_module``),
    ``of_degree(α, β, d)`` those of e_α K e_β of degree d, and ``ids``
    maps each diagram to its id, ``find(α, ν, β)`` each triple of weights.
    ``product(a, b)`` is the tuple of (id, coeff) of a·b in surgery order:
    empty when cap[a] != cup[b] (a's cap does not mirror b's cup), else
    surgered once and kept in ``entries`` under a·len(basis) + b.
    """

    def __init__(self, m: int, n: int):
        weights = self.weights = tuple(weights_in_block(m, n))
        self.position = {w: i for i, w in enumerate(weights)}
        cups = [associated_cup_diagram(w) for w in weights]
        caps = [associated_cap_diagram(w) for w in weights]
        under = [[nu for nu in weights if cup_oriented(cup, nu)] for cup in cups]
        over = [{nu for nu in weights if cap_oriented(cap, nu)} for cap in caps]
        diagrams, self.cup, self.cap, ends = [], [], [], {}
        for a, (alpha, cup) in enumerate(zip(weights, cups)):
            for b, (beta, cap) in enumerate(zip(weights, caps)):
                found = [OrientedCircleDiagram(cup, nu, cap) for nu in under[a] if nu in over[b]]
                ends[alpha, beta] = slice(len(diagrams), len(diagrams) + len(found))
                diagrams += found
                self.cup += [a] * len(found)
                self.cap += [b] * len(found)
        self.diagrams = tuple(diagrams)
        numbers = tuple(range(len(diagrams)))  # one int object per id
        self.ids = dict(zip(diagrams, numbers))
        self.ends = {key: numbers[where] for key, where in ends.items()}
        self.stacking = [[x for x in numbers if self.cap[x] == i] for i in range(len(weights))]
        self.degree = [x.degree for x in self.diagrams]
        self._middle = [_bits(x.weight.labels) for x in self.diagrams]
        self._ids = {(self.cup[x], self._middle[x], self.cap[x]): x for x in numbers}
        self.entries: dict[int, tuple[tuple[int, int], ...]] = {}

    def find(self, alpha: Weight, nu: Weight, beta: Weight) -> int:
        """The id of (α̲ ν β̄); a KeyError when ν does not orient it."""
        return self._ids[self.position[alpha], _bits(nu.labels), self.position[beta]]

    def of_degree(self, alpha: Weight, beta: Weight, d: int) -> list[int]:
        return [x for x in self.ends.get((alpha, beta), ()) if self.degree[x] == d]

    def product(self, a: int, b: int) -> tuple[tuple[int, int], ...]:
        if self.cap[a] != self.cup[b]:
            return ()
        key = a * len(self.degree) + b
        entry = self.entries.get(key)
        if entry is None:
            x, y = self.diagrams[a], self.diagrams[b]
            size = x.weight.size
            start = self._middle[a] | self._middle[b] << size
            states = _carry(_plan(x.cup, x.cap, y.cap), size, start)
            entry = self.entries[key] = tuple(
                (self._ids[self.cup[a], s, self.cap[b]], c) for s, c in states.items()
            )
        return entry

    def times(self, first: Terms, second: Terms) -> Terms:
        """The product of two elements given as ``id_terms``, as such."""
        out: dict[int, Scalar] = {}
        for a, c in first:
            for b, c2 in second:
                for x, v in self.product(a, b):
                    out[x] = out.get(x, 0) + c * c2 * v
        return id_terms(out)


_product_table = lru_cache(maxsize=None)(_ProductTable)  # one table per block (m, n)


def _canonical_entry(nu: Weight, nu2: Weight, degree: int) -> Terms:
    """The canonical degree-d element of e_ν K e_ν', as (basis id, coeff) terms:
    the basis diagram of that degree with coefficient +1.

    Between distinct weights every graded piece is at most one-dimensional,
    and degree 0 holds only the idempotent; equal weights in positive
    degree are resolved as a composition through the neighbour (s|s−1).
    ValueError when e_ν K e_ν' has no diagram of degree d.
    """
    table = _product_table(*nu.block)
    if nu == nu2 and degree:
        s, t = nu.to_kl()
        if (degree, t) != (2, s - 2):
            raise AssertionError("the only equal-weight loop is of degree 2 at (s|s-2)")
        mid = Weight.from_kl(nu.block[0], s, s - 1)
        return table.times(_canonical_entry(nu, mid, 1), _canonical_entry(mid, nu, 1))
    found = table.of_degree(nu, nu2, degree)
    if len(found) != 1:
        raise ValueError(
            f"expected a unique degree-{degree} diagram from {nu} to {nu2}, found {len(found)}"
        )
    return ((found[0], 1),)


def basis_product(
    d1: OrientedCircleDiagram, d2: OrientedCircleDiagram
) -> AlgebraElement:
    """The product of two basis diagrams, zero unless they stack (or lie
    in different blocks), read from the product table of their block."""
    table = _product_table(*d1.weight.block)
    b = table.ids.get(d2)
    terms = () if b is None else table.product(table.ids[d1], b)
    return AlgebraElement({table.diagrams[c]: coeff for c, coeff in terms})


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The product in K_m^n, extended bilinearly from ``basis_product``."""
    total = AlgebraElement.zero()
    for d1, c1 in x:
        for d2, c2 in y:
            part = basis_product(d1, d2)
            if part:
                total = total + (c1 * c2) * part
    return total


class SurgeryPanel(Value):
    """One stage of the surgery procedure on a stacked basis-diagram pair.

    Panels follow a single orientation branch (the lexicographically
    smallest surviving state at every step), which is what the worked
    multiplication figures show; the full product is still ``multiply``.
    """

    _fields = (
        "bottom_labels", "top_labels", "cup_arcs", "cup_rays", "cap_arcs", "cap_rays",
        "middle_arcs", "verticals", "component_types", "annotation", "collapsed",
    )

    def __init__(
        self, bottom_labels: tuple[str, ...], top_labels: tuple[str, ...],
        cup_arcs: tuple[tuple[int, int], ...], cup_rays: tuple[int, ...],
        cap_arcs: tuple[tuple[int, int], ...], cap_rays: tuple[int, ...],
        middle_arcs: tuple[tuple[int, int], ...], verticals: tuple[int, ...],
        component_types: tuple[str, ...], annotation: str, collapsed: bool = False,
    ):
        self._assign(
            bottom_labels, top_labels, cup_arcs, cup_rays, cap_arcs, cap_rays,
            middle_arcs, verticals, component_types, annotation, collapsed,
        )


def surgery_trace(
    x: OrientedCircleDiagram, y: OrientedCircleDiagram
) -> list[SurgeryPanel]:
    """The panel-by-panel surgery trace of a single basis-diagram product.

    Returns the initial stacked diagram, one panel per surgery step, and
    the final collapsed result diagram; raises ValueError on a middle
    mismatch and on products that die (all orientation branches zero).
    """
    if x.cap.cups != y.cup.cups or x.cap.rays != y.cup.rays:
        raise ValueError("middle diagrams do not match; the product is zero")
    geometry = _SurgeryGeometry(x.cup, x.cap, y.cap)
    size = geometry.size
    state = _bits(x.weight.labels) | _bits(y.weight.labels) << size
    low = (1 << size) - 1

    def snapshot(annotation: str, collapsed: bool = False) -> SurgeryPanel:
        return SurgeryPanel(
            bottom_labels=_labels(state & low, size),
            top_labels=_labels(state >> size, size),
            cup_arcs=tuple(sorted(x.cup.cups)),
            cup_rays=tuple(sorted(x.cup.rays)),
            cap_arcs=tuple(sorted(y.cap.cups)),
            cap_rays=tuple(sorted(y.cap.rays)),
            middle_arcs=tuple(geometry.middle_pairs()),
            verticals=() if collapsed else tuple(
                p for p in range(size) if geometry.inner[p] == p + size
            ),
            component_types=tuple(
                _kind(start, end, state) for start, end, _, _ in geometry.components()
            ),
            annotation=annotation,
            collapsed=collapsed,
        )

    panels = [snapshot("")]
    for pair, step in geometry.steps():
        outcomes = _cut(step, state)
        if not outcomes:
            raise ValueError(
                f"surgery at pair {pair} kills every orientation branch"
            )
        _, cap, cap_end, cup, cup_end = step[:5]
        cut = {cap: cap_end, cup: cup_end}  # one entry when cap and cup are one component
        before = sorted(_kind(start, end, state) for start, end in cut.items())
        state = min(outcomes, key=lambda o: _labels(o, 2 * size))
        formed = sorted(_kind(*step[k : k + 2], state) for k in range(5, len(step), 4))
        panels.append(
            snapshot("{} -> {}".format("*".join(before), "*".join(formed)))
        )
    # the collapsed result diagram of the last state: both lines now agree
    if panels[-1].bottom_labels != panels[-1].top_labels:
        raise AssertionError("number lines disagree after surgery")
    panels.append(snapshot("result", collapsed=True))
    return panels


# ---------------------------------------------------------------------------
# projective functors for the matchings t_i
# ---------------------------------------------------------------------------


class Matching(Value):
    """The crossingless matching t_i between neighbouring blocks: a cap
    joins vertices i, i+1 of the larger block's number line, all other
    strands are vertical.  Maps Λ_m^n data to Λ_{m-1}^{n-1}."""

    _fields = ("i", "source_block")

    def __init__(self, i: int, source_block: tuple[int, int]):  # (m, n) of the larger block
        m, n = source_block
        if not 0 <= i < m + n - 1:
            raise ValueError(f"matching position {i} out of range")
        self._assign(i, source_block)

    @property
    def target_block(self) -> tuple[int, int]:
        m, n = self.source_block
        return (m - 1, n - 1)


def _functor_id(t: Matching, x: int) -> int:
    """The geometric-bimodule functor for t_i on basis ids: a 'v^' pair at
    (i, i+1) in the middle weight and a cup/cap pair in both halves, so
    (α̲ ν β̄) of t's target block goes to the id, in its source block, of
    the diagram of the three weights with 'v^' inserted at i."""
    source, target = _product_table(*t.source_block), _product_table(*t.target_block)
    alpha, beta = target.weights[target.cup[x]], target.weights[target.cap[x]]
    return source.find(*(w.insert_down_up(t.i) for w in (alpha, target.diagrams[x].weight, beta)))


def functor_image(t: Matching, element: AlgebraElement) -> AlgebraElement:
    """The functor for t_i on morphisms between projectives, ``_functor_id``
    on every basis diagram (the image diagrams are the objects of ``basis``)."""
    source, target = _product_table(*t.source_block), _product_table(*t.target_block)
    for diagram, _ in element:
        if diagram.weight.block != t.target_block:
            raise ValueError(
                f"element lives in block {diagram.weight.block}, expected {t.target_block}"
            )
    return AlgebraElement({source.diagrams[_functor_id(t, target.ids[d])]: c for d, c in element})
