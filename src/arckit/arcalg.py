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

from dataclasses import dataclass
from fractions import Fraction
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
    weights_in_block,
)

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
    """A finite Q-linear combination of oriented circle diagrams."""

    __slots__ = ("_terms",)

    def __init__(
        self, terms: Mapping[OrientedCircleDiagram, Fraction] | None = None
    ):
        clean: dict[OrientedCircleDiagram, Fraction] = {}
        if terms:
            for d, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[d] = clean.get(d, Fraction(0)) + c
                    if not clean[d]:
                        del clean[d]
        self._terms = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "AlgebraElement":
        return AlgebraElement()

    @staticmethod
    def from_diagram(
        diagram: OrientedCircleDiagram, coeff: Fraction | int = 1
    ) -> "AlgebraElement":
        return AlgebraElement({diagram: Fraction(coeff)})

    # -- inspection ----------------------------------------------------
    @property
    def terms(self) -> dict[OrientedCircleDiagram, Fraction]:
        return dict(self._terms)

    def coeff(self, diagram: OrientedCircleDiagram) -> Fraction:
        return self._terms.get(diagram, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> set[int]:
        return {d.degree for d in self._terms}

    def __iter__(self) -> Iterator[tuple[OrientedCircleDiagram, Fraction]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self._terms)
        for d, c in other._terms.items():
            out[d] = out.get(d, Fraction(0)) + c
        return AlgebraElement(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (other * -1)

    def __mul__(self, other: "AlgebraElement | Fraction | int") -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return AlgebraElement({d: c * other for d, c in self._terms.items()})

    def __rmul__(self, scalar: Fraction | int) -> "AlgebraElement":
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
    """e_λ, the degree-0 diagram formed by the associated cup/cap diagrams."""
    diagram = OrientedCircleDiagram(
        associated_cup_diagram(weight), weight, associated_cap_diagram(weight)
    )
    return AlgebraElement.from_diagram(diagram)


@lru_cache(maxsize=None)
def _basis_by_ends(
    m: int, n: int
) -> dict[tuple[Weight, Weight], tuple[OrientedCircleDiagram, ...]]:
    """The oriented diagrams (α̲, ν, β̄) keyed by (α, β), in (α, β, ν) order."""
    weights = weights_in_block(m, n)
    out = {}
    for alpha in weights:
        cup = associated_cup_diagram(alpha)
        for beta in weights:
            cap = associated_cap_diagram(beta)
            found = []
            for nu in weights:
                try:
                    found.append(OrientedCircleDiagram(cup, nu, cap))
                except ValueError:
                    continue
            out[(alpha, beta)] = tuple(found)
    return out


@lru_cache(maxsize=None)
def basis(m: int, n: int) -> tuple[OrientedCircleDiagram, ...]:
    """All basis diagrams of K_m^n in deterministic (α, β, ν) order."""
    return tuple(d for found in _basis_by_ends(m, n).values() for d in found)


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
# factor's weight).  Vertices are encoded as (line, position).  Arcs are
# frozensets of two vertices; "flip" arcs (cups/caps) force opposite labels
# at their endpoints, "equal" arcs (vertical segments, stitched rays) force
# equal labels.

_Vertex = tuple[int, int]


def _component_map(
    size: int, arcs: Iterable[tuple[_Vertex, _Vertex]]
) -> dict[_Vertex, int]:
    """Union-find over all 2*size vertices; returns vertex -> component id."""
    verts = [(l, p) for l in (0, 1) for p in range(size)]
    parent = {v: v for v in verts}

    def find(x: _Vertex) -> _Vertex:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in arcs:
        parent[find(a)] = find(b)
    roots: dict[_Vertex, int] = {}
    out = {}
    for v in verts:
        r = find(v)
        if r not in roots:
            roots[r] = len(roots)
        out[v] = roots[r]
    return out


def _consistent_labelings(
    vertices: list[_Vertex],
    flip_arcs: list[tuple[_Vertex, _Vertex]],
    equal_arcs: list[tuple[_Vertex, _Vertex]],
) -> list[dict[_Vertex, str]]:
    """The two labelings of a connected component consistent with its arcs."""
    base = min(vertices)
    out = []
    adjacency: dict[_Vertex, list[tuple[_Vertex, bool]]] = {v: [] for v in vertices}
    for a, b in flip_arcs:
        adjacency[a].append((b, True))
        adjacency[b].append((a, True))
    for a, b in equal_arcs:
        adjacency[a].append((b, False))
        adjacency[b].append((a, False))
    for start in (UP, DOWN):
        labels = {base: start}
        stack = [base]
        ok = True
        while stack:
            v = stack.pop()
            for w, flips in adjacency[v]:
                want = (DOWN if labels[v] == UP else UP) if flips else labels[v]
                if w in labels:
                    if labels[w] != want:
                        ok = False
                        break
                else:
                    labels[w] = want
                    stack.append(w)
            if not ok:
                break
        if ok and len(labels) == len(vertices):
            out.append(labels)
    return out


class _SurgeryGeometry:
    """The arc bookkeeping for one basis-pair product."""

    def __init__(self, a: CupDiagram, b: CapDiagram, d: CapDiagram):
        self.size = a.size
        self.a = a
        self.d = d
        # infinite ends: line-0 rays of a (down), line-1 rays of d (up)
        self.infinite_ends = {(0, p) for p in a.rays} | {(1, p) for p in d.rays}
        self.remaining: set[tuple[int, int]] = set(b.cups)
        # vertical "equal" arcs: stitched rays, later also surgered columns
        self.equal_arcs: list[tuple[_Vertex, _Vertex]] = [
            ((0, p), (1, p)) for p in b.rays
        ]

    def flip_arcs(self) -> list[tuple[_Vertex, _Vertex]]:
        arcs = [((0, i), (0, j)) for i, j in self.a.cups]
        arcs += [((1, i), (1, j)) for i, j in self.d.cups]
        for i, j in self.remaining:
            arcs.append(((0, i), (0, j)))  # cap of the middle pair
            arcs.append(((1, i), (1, j)))  # cup of the middle pair
        return arcs

    def all_arcs(self) -> list[tuple[_Vertex, _Vertex]]:
        return self.flip_arcs() + self.equal_arcs

    def admissible_pairs(self) -> list[tuple[int, int]]:
        """Pairs not strictly enclosed by another remaining pair."""
        out = []
        for i, j in self.remaining:
            if not any(
                k < i and j < l for k, l in self.remaining if (k, l) != (i, j)
            ):
                out.append((i, j))
        return sorted(out)

    def cut(self, pair: tuple[int, int]):
        i, j = pair
        self.remaining.remove(pair)
        self.equal_arcs.append(((0, i), (1, i)))
        self.equal_arcs.append(((0, j), (1, j)))


def _component_data(
    geometry: _SurgeryGeometry,
) -> tuple[dict[_Vertex, int], dict[int, list[_Vertex]]]:
    comp = _component_map(geometry.size, geometry.all_arcs())
    groups: dict[int, list[_Vertex]] = {}
    for v, c in comp.items():
        groups.setdefault(c, []).append(v)
    for verts in groups.values():
        verts.sort()
    return comp, groups


def _kind(
    vertices: list[_Vertex],
    labels: Mapping[_Vertex, str],
    infinite_ends: set[_Vertex],
) -> str:
    ends = [v for v in vertices if v in infinite_ends]
    if ends:
        return "y"
    leftmost = min(vertices, key=lambda v: (v[1], v[0]))
    return "1" if labels[leftmost] == DOWN else "x"


def _relabel_component(
    vertices: list[_Vertex],
    geometry: _SurgeryGeometry,
    choice: Callable[[dict[_Vertex, str]], bool],
) -> dict[_Vertex, str]:
    vert_set = set(vertices)
    flips = [a for a in geometry.flip_arcs() if a[0] in vert_set]
    equals = [a for a in geometry.equal_arcs if a[0] in vert_set]
    options = [
        lab
        for lab in _consistent_labelings(vertices, flips, equals)
        if choice(lab)
    ]
    if len(options) != 1:
        raise AssertionError(
            f"expected exactly one consistent labeling, got {len(options)}"
        )
    return options[0]


def _circle_labeling(
    vertices: list[_Vertex], geometry: _SurgeryGeometry, kind: str
) -> dict[_Vertex, str]:
    """Labeling of a circle: kind '1' = 'v' at the leftmost vertex, 'x' = '^'."""
    leftmost = min(vertices, key=lambda v: (v[1], v[0]))
    want = DOWN if kind == "1" else UP
    return _relabel_component(vertices, geometry, lambda lab: lab[leftmost] == want)


def _line_labeling(
    vertices: list[_Vertex],
    geometry: _SurgeryGeometry,
    old_labels: Mapping[_Vertex, str],
) -> dict[_Vertex, str]:
    """Labeling of a line preserving the labels at its infinite ends."""
    ends = sorted(v for v in vertices if v in geometry.infinite_ends)
    if not ends:
        raise AssertionError("line component without infinite ends")
    lab = _relabel_component(
        vertices, geometry, lambda lab: lab[ends[0]] == old_labels[ends[0]]
    )
    for e in ends[1:]:
        if lab[e] != old_labels[e]:
            raise AssertionError("surgery could not preserve a line's ends")
    return lab


def _surgery_product(
    a: CupDiagram,
    lam: Weight,
    b: CapDiagram,
    mu: Weight,
    d: CapDiagram,
    pair_picker: Callable[[list[tuple[int, int]]], tuple[int, int]] | None = None,
) -> AlgebraElement:
    geometry = _SurgeryGeometry(a, b, d)
    size = geometry.size
    initial = {(0, p): lam[p] for p in range(size)}
    initial.update({(1, p): mu[p] for p in range(size)})
    states: dict[tuple[str, ...], Fraction] = {
        tuple(initial[v] for v in _vertex_order(size)): Fraction(1)
    }

    while geometry.remaining:
        admissible = geometry.admissible_pairs()
        pair = pair_picker(admissible) if pair_picker else admissible[0]
        if pair not in geometry.remaining:
            raise ValueError(f"pair {pair} is not a remaining middle pair")
        comp_before, groups_before = _component_data(geometry)
        cap_comp = comp_before[(0, pair[0])]
        cup_comp = comp_before[(1, pair[0])]

        geometry.cut(pair)
        comp_after, groups_after = _component_data(geometry)
        affected_after = {
            comp_after[v]
            for c in {cap_comp, cup_comp}
            for v in groups_before[c]
        }

        new_states: dict[tuple[str, ...], Fraction] = {}
        for state, coeff in states.items():
            labels = _state_to_labels(state, size)
            outcomes = _apply_rule(
                geometry,
                labels,
                groups_before[cap_comp],
                groups_before[cup_comp],
                cap_comp == cup_comp,
                [groups_after[c] for c in sorted(affected_after)],
            )
            for new_labels, factor in outcomes:
                merged = dict(labels)
                merged.update(new_labels)
                key = tuple(merged[v] for v in _vertex_order(size))
                new_states[key] = new_states.get(key, Fraction(0)) + coeff * factor
        states = {k: v for k, v in new_states.items() if v}
        if not states:
            return AlgebraElement.zero()

    out: dict[OrientedCircleDiagram, Fraction] = {}
    for state, coeff in states.items():
        labels = _state_to_labels(state, size)
        bottom = tuple(labels[(0, p)] for p in range(size))
        top = tuple(labels[(1, p)] for p in range(size))
        if bottom != top:
            raise AssertionError("number lines disagree after surgery")
        diagram = OrientedCircleDiagram(a, Weight(bottom), d)
        out[diagram] = out.get(diagram, Fraction(0)) + coeff
    return AlgebraElement(out)


def _vertex_order(size: int) -> list[_Vertex]:
    return [(l, p) for l in (0, 1) for p in range(size)]


def _state_to_labels(state: tuple[str, ...], size: int) -> dict[_Vertex, str]:
    order = _vertex_order(size)
    return {v: state[k] for k, v in enumerate(order)}


def _apply_rule(
    geometry: _SurgeryGeometry,
    labels: Mapping[_Vertex, str],
    cap_vertices: list[_Vertex],
    cup_vertices: list[_Vertex],
    same_component: bool,
    new_groups: list[list[_Vertex]],
) -> list[tuple[dict[_Vertex, str], Fraction]]:
    """Re-orientation outcomes for one surgery step on one state."""
    ends = geometry.infinite_ends
    if same_component:
        kind = _kind(cap_vertices, labels, ends)
        if len(new_groups) != 2:
            raise AssertionError("split surgery did not produce two components")
        circles = [g for g in new_groups if not any(v in ends for v in g)]
        lines = [g for g in new_groups if any(v in ends for v in g)]
        if kind == "1":
            # 1 -> 1⊗x + x⊗1
            if len(circles) != 2:
                raise AssertionError("splitting a circle must give two circles")
            out = []
            for kinds in (("1", "x"), ("x", "1")):
                lab = {}
                for g, k in zip(circles, kinds):
                    lab.update(_circle_labeling(g, geometry, k))
                out.append((lab, Fraction(1)))
            return out
        if kind == "x":
            if len(circles) != 2:
                raise AssertionError("splitting a circle must give two circles")
            lab = {}
            for g in circles:
                lab.update(_circle_labeling(g, geometry, "x"))
            return [(lab, Fraction(1))]
        # kind == 'y': line -> clockwise circle ⊗ line
        if len(circles) != 1 or len(lines) != 1:
            raise AssertionError("splitting a line must give a circle and a line")
        lab = _circle_labeling(circles[0], geometry, "x")
        lab.update(_line_labeling(lines[0], geometry, labels))
        return [(lab, Fraction(1))]

    kind1 = _kind(cap_vertices, labels, ends)
    kind2 = _kind(cup_vertices, labels, ends)
    kinds = {kind1, kind2}
    if kinds == {"1"}:
        merged = _single(new_groups)
        return [(_circle_labeling(merged, geometry, "1"), Fraction(1))]
    if kinds == {"1", "x"}:
        merged = _single(new_groups)
        return [(_circle_labeling(merged, geometry, "x"), Fraction(1))]
    if kinds == {"x"}:
        return []
    if kinds == {"1", "y"}:
        merged = _single(new_groups)
        return [(_line_labeling(merged, geometry, labels), Fraction(1))]
    if kinds == {"x", "y"}:
        return []
    # y ⊗ y
    end_labels = []
    for g in (cap_vertices, cup_vertices):
        end_labels.append({labels[v] for v in g if v in ends})
    if not ({UP} in end_labels and {DOWN} in end_labels):
        return []
    if len(new_groups) != 2:
        raise AssertionError("line-line surgery must give two lines")
    lab = {}
    for g in new_groups:
        lab.update(_line_labeling(g, geometry, labels))
    return [(lab, Fraction(1))]


def _single(groups: list[list[_Vertex]]) -> list[_Vertex]:
    if len(groups) != 1:
        raise AssertionError("merge surgery must give a single component")
    return groups[0]


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


def multiply(
    x: AlgebraElement,
    y: AlgebraElement,
    pair_picker: Callable[[list[tuple[int, int]]], tuple[int, int]] | None = None,
) -> AlgebraElement:
    """The product in K_m^n, extended bilinearly from ``basis_product``.

    ``pair_picker`` overrides the canonical leftmost-admissible surgery
    order and runs the surgery directly, so tests can assert that the
    product does not depend on the order.
    """
    total = AlgebraElement.zero()
    for d1, c1 in x:
        for d2, c2 in y:
            if pair_picker is None:
                part = basis_product(d1, d2)
            elif _stackable(d1, d2):
                part = _surgery_product(
                    d1.cup, d1.weight, d1.cap, d2.weight, d2.cap, pair_picker
                )
            else:
                continue
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
    a, lam, b, mu, d = x.cup, x.weight, x.cap, y.weight, y.cap
    geometry = _SurgeryGeometry(a, b, d)
    size = geometry.size
    labels: dict[_Vertex, str] = {(0, p): lam[p] for p in range(size)}
    labels.update({(1, p): mu[p] for p in range(size)})

    def snapshot(annotation: str) -> SurgeryPanel:
        comp, groups = _component_data(geometry)
        types = tuple(
            _kind(groups[c], labels, geometry.infinite_ends)
            for c in sorted(groups, key=lambda c: min(groups[c]))
        )
        return SurgeryPanel(
            bottom_labels=tuple(labels[(0, p)] for p in range(size)),
            top_labels=tuple(labels[(1, p)] for p in range(size)),
            cup_arcs=tuple(sorted(a.cups)),
            cup_rays=tuple(sorted(a.rays)),
            cap_arcs=tuple(sorted(d.cups)),
            cap_rays=tuple(sorted(d.rays)),
            middle_arcs=tuple(sorted(geometry.remaining)),
            verticals=tuple(
                sorted({v[0][1] for v in geometry.equal_arcs})
            ),
            component_types=types,
            annotation=annotation,
        )

    panels = [snapshot("")]
    while geometry.remaining:
        pair = geometry.admissible_pairs()[0]
        comp_before, groups_before = _component_data(geometry)
        cap_comp = comp_before[(0, pair[0])]
        cup_comp = comp_before[(1, pair[0])]
        same = cap_comp == cup_comp
        before_types = sorted(
            _kind(groups_before[c], labels, geometry.infinite_ends)
            for c in {cap_comp, cup_comp}
        )
        geometry.cut(pair)
        comp_after, groups_after = _component_data(geometry)
        affected = sorted(
            {
                comp_after[v]
                for c in {cap_comp, cup_comp}
                for v in groups_before[c]
            }
        )
        outcomes = _apply_rule(
            geometry,
            labels,
            groups_before[cap_comp],
            groups_before[cup_comp],
            same,
            [groups_after[c] for c in affected],
        )
        if not outcomes:
            raise ValueError(
                f"surgery at pair {pair} kills every orientation branch"
            )
        new_labels = min(
            outcomes,
            key=lambda o: tuple(sorted(o[0].items())),
        )[0]
        labels = dict(labels)
        labels.update(new_labels)
        after_types = sorted(
            _kind(groups_after[c], labels, geometry.infinite_ends)
            for c in affected
        )
        rule = "{} -> {}".format("*".join(before_types), "*".join(after_types))
        panels.append(snapshot(rule))
    # the collapsed result diagram: both lines now agree
    bottom = tuple(labels[(0, p)] for p in range(size))
    top = tuple(labels[(1, p)] for p in range(size))
    if bottom != top:
        raise AssertionError("number lines disagree after surgery")
    last = panels[-1]
    panels.append(
        SurgeryPanel(
            bottom_labels=bottom,
            top_labels=top,
            cup_arcs=last.cup_arcs,
            cup_rays=last.cup_rays,
            cap_arcs=last.cap_arcs,
            cap_rays=last.cap_rays,
            middle_arcs=(),
            verticals=(),
            component_types=last.component_types,
            annotation="result",
            collapsed=True,
        )
    )
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
    a matching cup/cap pair into both halves of every basis diagram."""
    i = t.i
    out: dict[OrientedCircleDiagram, Fraction] = {}
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
        new = OrientedCircleDiagram(
            CupDiagram(size, frozenset(cup_cups), frozenset(cup_rays)),
            diagram.weight.insert_down_up(i),
            CapDiagram(size, frozenset(cap_cups), frozenset(cap_rays)),
        )
        out[new] = out.get(new, Fraction(0)) + coeff
    return AlgebraElement(out)
