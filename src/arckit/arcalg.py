"""The graded arc algebra K_m^n and the projective functors on it.

Basis vectors are oriented circle diagrams (a, λ, b).  The product of
(aλb)(cμd) is zero unless b and c are mirror images; otherwise the first
diagram is drawn below the second, corresponding rays are stitched
together, and the generalized surgery procedure is iterated on the
symmetric middle section:

* pick a symmetric cup/cap pair that can be connected without crossings
  (one not enclosed by another remaining pair; we take the leftmost),
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

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

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
    "algebra_dimension",
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

    def coeff(self, diagram: OrientedCircleDiagram) -> Scalar:
        return self._terms.get(diagram, 0)

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
    key = (associated_cup_diagram(weight), weight.labels, associated_cap_diagram(weight))
    return AlgebraElement.from_diagram(_basis_by_labels(*weight.block)[key])


@lru_cache(maxsize=None)
def _basis_by_ends(
    m: int, n: int
) -> dict[tuple[Weight, Weight], tuple[OrientedCircleDiagram, ...]]:
    """The oriented diagrams (α̲, ν, β̄) keyed by (α, β), in (α, β, ν) order.

    The ν that orient each α̲ and each β̄ are found once, so only the
    diagrams of the basis are constructed.
    """
    weights = weights_in_block(m, n)
    cups = [associated_cup_diagram(w) for w in weights]
    caps = [associated_cap_diagram(w) for w in weights]
    under = [[nu for nu in weights if cup_oriented(cup, nu)] for cup in cups]
    over = [{nu for nu in weights if cap_oriented(cap, nu)} for cap in caps]
    return {
        (alpha, beta): tuple(
            OrientedCircleDiagram(cup, nu, cap) for nu in nus if nu in fits
        )
        for alpha, cup, nus in zip(weights, cups, under)
        for beta, cap, fits in zip(weights, caps, over)
    }


@lru_cache(maxsize=None)
def basis(m: int, n: int) -> tuple[OrientedCircleDiagram, ...]:
    """All basis diagrams of K_m^n in deterministic (α, β, ν) order."""
    return tuple(d for found in _basis_by_ends(m, n).values() for d in found)


@lru_cache(maxsize=None)
def _basis_by_labels(
    m: int, n: int
) -> dict[tuple[CupDiagram, tuple[str, ...], CapDiagram], OrientedCircleDiagram]:
    """The diagrams of ``basis`` keyed by (cup, weight labels, cap)."""
    return {(d.cup, d.weight.labels, d.cap): d for d in basis(m, n)}


def hom_basis(
    alpha: Weight, beta: Weight
) -> tuple[OrientedCircleDiagram, ...]:
    """Basis of e_α K e_β: the diagrams (α̲, ν, β̄) of ``basis``, the same
    objects, in ν order (empty for weights of different blocks)."""
    return _basis_by_ends(*alpha.block).get((alpha, beta), ())


def algebra_dimension(m: int, n: int) -> int:
    return len(basis(m, n))


# ---------------------------------------------------------------------------
# generalized surgery multiplication
# ---------------------------------------------------------------------------
#
# During the procedure the stacked diagram has two number lines: line 0
# (bottom, carrying the first factor's weight) and line 1 (top, second
# factor's weight).  Vertices are encoded as (line, position).  Cups and
# caps force opposite labels at their endpoints; vertical segments
# (stitched rays, later also surgered columns) force equal labels.  A
# vertex meets at most two arcs, and only the infinite ends meet one, so a
# component is a circle or a line between two infinite ends.

_Vertex = tuple[int, int]
_PairPicker = Callable[[list[tuple[int, int]]], tuple[int, int]]
_Step = tuple[tuple[int, int], list[_Vertex], list[_Vertex], list[list[_Vertex]]]
_FLIP = {UP: DOWN, DOWN: UP}


def _partners(cups: Iterable[tuple[int, int]]) -> dict[int, int]:
    return {p: q for i, j in cups for p, q in ((i, j), (j, i))}


def _leftmost(vertices: list[_Vertex]) -> _Vertex:
    return min(vertices, key=lambda v: (v[1], v[0]))


class _SurgeryGeometry:
    """The arcs of one stacked basis pair, cut open one middle pair at a
    time by ``steps``."""

    def __init__(self, a: CupDiagram, b: CapDiagram, d: CapDiagram):
        self.size = a.size
        self.vertices = [(l, p) for l in (0, 1) for p in range(self.size)]
        # infinite ends: line-0 rays of a (down), line-1 rays of d (up)
        self.infinite_ends = {(0, p) for p in a.rays} | {(1, p) for p in d.rays}
        self.outer = (_partners(a.cups), _partners(d.cups))
        self.middle = _partners(b.cups)
        self.verticals = set(b.rays)

    def middle_pairs(self) -> list[tuple[int, int]]:
        return sorted((i, j) for i, j in self.middle.items() if i < j)

    def _propagate(self, start: _Vertex, label: str) -> dict[_Vertex, str]:
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

    def component(self, v: _Vertex) -> list[_Vertex]:
        return sorted(self._propagate(v, UP))

    def components(self) -> list[list[_Vertex]]:
        """All components, in order of their first vertex."""
        out: list[list[_Vertex]] = []
        seen: set[_Vertex] = set()
        for v in self.vertices:
            if v not in seen:
                out.append(self.component(v))
                seen.update(out[-1])
        return out

    def orient(
        self, vertices: list[_Vertex], start: _Vertex, label: str
    ) -> dict[_Vertex, str]:
        """The one labeling of the component ``vertices`` that gives
        ``start`` the label ``label``."""
        labels = self._propagate(start, label)
        if len(labels) != len(vertices):
            raise AssertionError("orientation did not reach the whole component")
        return labels

    def kind(self, vertices: list[_Vertex], labels: Mapping[_Vertex, str]) -> str:
        """'y' for a line, else '1' or 'x' by the leftmost vertex's label."""
        if any(v in self.infinite_ends for v in vertices):
            return "y"
        return "1" if labels[_leftmost(vertices)] == DOWN else "x"

    def circle(self, vertices: list[_Vertex], kind: str) -> dict[_Vertex, str]:
        """Labeling of a circle: kind '1' = 'v' at the leftmost vertex, 'x' = '^'."""
        label = DOWN if kind == "1" else UP
        return self.orient(vertices, _leftmost(vertices), label)

    def line(
        self, vertices: list[_Vertex], labels: Mapping[_Vertex, str]
    ) -> dict[_Vertex, str]:
        """Labeling of a line keeping the labels at its infinite ends."""
        first, *others = [v for v in vertices if v in self.infinite_ends]
        out = self.orient(vertices, first, labels[first])
        if any(out[e] != labels[e] for e in others):
            raise AssertionError("surgery could not preserve a line's ends")
        return out

    def steps(self, pair_picker: _PairPicker | None = None) -> Iterator[_Step]:
        """Cut the middle pairs open one at a time into vertical segments.

        Each cut takes the leftmost admissible pair (one not enclosed by
        another remaining pair), or the admissible pair ``pair_picker``
        chooses.  It yields the pair, the components through its cap and
        through its cup before the cut (the same list when they are one
        component) and the components these form after the cut, in order
        of their first vertex.
        """
        while self.middle:
            pairs = self.middle_pairs()
            admissible = [
                (i, j) for i, j in pairs if not any(k < i and j < l for k, l in pairs)
            ]
            i, j = pair = pair_picker(admissible) if pair_picker else admissible[0]
            cap = self.component((0, i))
            cup = cap if (1, i) in cap else self.component((1, i))
            del self.middle[i], self.middle[j]
            self.verticals |= {i, j}
            after = [self.component((0, i))]
            if (0, j) not in after[0]:
                after = sorted(after + [self.component((0, j))])
            yield pair, cap, cup, after


def _apply_rule(
    geometry: _SurgeryGeometry,
    labels: Mapping[_Vertex, str],
    cap: list[_Vertex],
    cup: list[_Vertex],
    after: list[list[_Vertex]],
) -> list[dict[_Vertex, str]]:
    """The relabelings of the components ``after`` that one cut gives one
    state, each with coefficient 1 (the rules of the module docstring)."""
    if cap is cup:
        kind = geometry.kind(cap, labels)
        if kind == "y":  # y -> x⊗y
            circle, line = sorted(
                after, key=lambda g: geometry.kind(g, labels) == "y"
            )
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
        if ends != {frozenset({UP}), frozenset({DOWN})}:
            return []
        return [{v: s for g in after for v, s in geometry.line(g, labels).items()}]
    if "x" in kinds and "1" not in kinds:  # x⊗x, x⊗y -> 0
        return []
    (merged,) = after
    if "y" in kinds:  # 1⊗y -> y
        return [geometry.line(merged, labels)]
    return [geometry.circle(merged, "x" if "x" in kinds else "1")]


def _surgery_product(
    a: CupDiagram,
    lam: Weight,
    b: CapDiagram,
    mu: Weight,
    d: CapDiagram,
    pair_picker: _PairPicker | None = None,
) -> AlgebraElement:
    """Carry every orientation state through the cuts of ``steps``; a
    state is the tuple of labels in ``geometry.vertices`` order.  The
    result diagrams are the objects of ``basis``."""
    geometry = _SurgeryGeometry(a, b, d)
    states = {lam.labels + mu.labels: 1}
    for _, cap, cup, after in geometry.steps(pair_picker):
        new_states: dict[tuple[str, ...], int] = {}
        for state, coeff in states.items():
            labels = dict(zip(geometry.vertices, state))
            for relabel in _apply_rule(geometry, labels, cap, cup, after):
                key = tuple({**labels, **relabel}.values())
                new_states[key] = new_states.get(key, 0) + coeff
        if not new_states:
            return AlgebraElement.zero()
        states = new_states
    size = geometry.size
    if any(state[:size] != state[size:] for state in states):
        raise AssertionError("number lines disagree after surgery")
    by_labels = _basis_by_labels(*lam.block)
    return AlgebraElement({by_labels[a, s[:size], d]: c for s, c in states.items()})


def _stackable(d1: OrientedCircleDiagram, d2: OrientedCircleDiagram) -> bool:
    """Whether d1's cap diagram mirrors d2's cup diagram (else d1·d2 = 0)."""
    return d1.cap.cups == d2.cup.cups and d1.cap.rays == d2.cup.rays


@lru_cache(maxsize=None)
def _basis_product(
    d1: OrientedCircleDiagram, d2: OrientedCircleDiagram
) -> AlgebraElement:
    return _surgery_product(d1.cup, d1.weight, d1.cap, d2.weight, d2.cap)


def basis_product(
    d1: OrientedCircleDiagram, d2: OrientedCircleDiagram
) -> AlgebraElement:
    """The product of two basis diagrams, zero unless they stack.

    Stacked pairs come from a process-wide memo: the surgery is
    deterministic and an ``AlgebraElement`` is never changed in place
    (``terms`` hands out a copy), so sharing a stored product is safe.
    """
    return _basis_product(d1, d2) if _stackable(d1, d2) else AlgebraElement()


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The product in K_m^n, extended bilinearly from ``basis_product``."""
    total = AlgebraElement.zero()
    for d1, c1 in x:
        for d2, c2 in y:
            part = basis_product(d1, d2)
            if part:
                total = total + (c1 * c2) * part
    return total


@dataclass(frozen=True)
class SurgeryPanel:
    """One stage of the surgery procedure on a stacked basis-diagram pair.

    Panels follow a single orientation branch (the lexicographically
    smallest surviving state at every step), which is what the worked
    multiplication figures show; the full product is still ``multiply``.
    """

    bottom_labels: tuple[str, ...]
    top_labels: tuple[str, ...]
    cup_arcs: tuple[tuple[int, int], ...]
    cup_rays: tuple[int, ...]
    cap_arcs: tuple[tuple[int, int], ...]
    cap_rays: tuple[int, ...]
    middle_arcs: tuple[tuple[int, int], ...]
    verticals: tuple[int, ...]
    component_types: tuple[str, ...]
    annotation: str
    collapsed: bool = False


def surgery_trace(
    x: OrientedCircleDiagram, y: OrientedCircleDiagram
) -> list[SurgeryPanel]:
    """The panel-by-panel surgery trace of a single basis-diagram product.

    Returns the initial stacked diagram, one panel per surgery step, and
    the final collapsed result diagram; raises ValueError on a middle
    mismatch and on products that die (all orientation branches zero).
    """
    if not _stackable(x, y):
        raise ValueError("middle diagrams do not match; the product is zero")
    geometry = _SurgeryGeometry(x.cup, x.cap, y.cap)
    size = geometry.size
    labels = dict(zip(geometry.vertices, x.weight.labels + y.weight.labels))

    def snapshot(annotation: str) -> SurgeryPanel:
        return SurgeryPanel(
            bottom_labels=tuple(labels[(0, p)] for p in range(size)),
            top_labels=tuple(labels[(1, p)] for p in range(size)),
            cup_arcs=tuple(sorted(x.cup.cups)),
            cup_rays=tuple(sorted(x.cup.rays)),
            cap_arcs=tuple(sorted(y.cap.cups)),
            cap_rays=tuple(sorted(y.cap.rays)),
            middle_arcs=tuple(geometry.middle_pairs()),
            verticals=tuple(sorted(geometry.verticals)),
            component_types=tuple(
                geometry.kind(g, labels) for g in geometry.components()
            ),
            annotation=annotation,
        )

    panels = [snapshot("")]
    for pair, cap, cup, after in geometry.steps():
        outcomes = _apply_rule(geometry, labels, cap, cup, after)
        if not outcomes:
            raise ValueError(
                f"surgery at pair {pair} kills every orientation branch"
            )
        before = sorted(
            geometry.kind(g, labels) for g in ([cap] if cap is cup else [cap, cup])
        )
        labels.update(min(outcomes, key=lambda o: sorted(o.items())))
        formed = sorted(geometry.kind(g, labels) for g in after)
        panels.append(
            snapshot("{} -> {}".format("*".join(before), "*".join(formed)))
        )
    # the collapsed result diagram: both lines now agree
    last = panels[-1]
    if last.bottom_labels != last.top_labels:
        raise AssertionError("number lines disagree after surgery")
    panels.append(replace(last, verticals=(), annotation="result", collapsed=True))
    return panels


# ---------------------------------------------------------------------------
# projective functors for the matchings t_i
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matching:
    """The crossingless matching t_i between neighbouring blocks: a cap
    joins vertices i, i+1 of the larger block's number line, all other
    strands are vertical.  Maps Λ_m^n data to Λ_{m-1}^{n-1}."""

    i: int
    source_block: tuple[int, int]  # (m, n) of the larger block

    def __post_init__(self):
        m, n = self.source_block
        if not 0 <= self.i < m + n - 1:
            raise ValueError(f"matching position {self.i} out of range")

    @property
    def target_block(self) -> tuple[int, int]:
        m, n = self.source_block
        return (m - 1, n - 1)


def _shift_arcs(
    cups: Iterable[tuple[int, int]], rays: Iterable[int], at: int
) -> tuple[set[tuple[int, int]], set[int]]:
    shift = lambda p: p if p < at else p + 2
    return (
        {(shift(i), shift(j)) for i, j in cups},
        {shift(p) for p in rays},
    )


def functor_image(t: Matching, element: AlgebraElement) -> AlgebraElement:
    """The geometric-bimodule functor for t_i on morphisms between
    projectives: insert a 'v^' pair at (i, i+1) into the middle weight and
    a matching cup/cap pair into both halves of every basis diagram (the
    image diagrams are the objects of ``basis``)."""
    i = t.i
    by_labels = _basis_by_labels(*t.source_block)
    out: dict[OrientedCircleDiagram, Scalar] = {}
    for diagram, coeff in element:
        if diagram.weight.block != t.target_block:
            raise ValueError(
                f"element lives in block {diagram.weight.block}, expected {t.target_block}"
            )
        cup_cups, cup_rays = _shift_arcs(diagram.cup.cups, diagram.cup.rays, i)
        cap_cups, cap_rays = _shift_arcs(diagram.cap.cups, diagram.cap.rays, i)
        cup_cups.add((i, i + 1))
        cap_cups.add((i, i + 1))
        size = diagram.weight.size + 2
        new = by_labels[
            CupDiagram(size, frozenset(cup_cups), frozenset(cup_rays)),
            diagram.weight.insert_down_up(i).labels,
            CapDiagram(size, frozenset(cap_cups), frozenset(cap_rays)),
        ]
        out[new] = out.get(new, 0) + coeff
    return AlgebraElement(out)
