"""Weights, cup/cap diagrams and oriented circle diagrams.

Conventions (fixed here, used by every other module):

* A weight is a string over {'^', 'v'} of length m+n with exactly n '^'
  (up) labels, positions numbered 0..m+n-1 left to right.  The zero weight
  of the block is '^'*n + 'v'*m; it is the unique Bruhat-maximal weight.
* A cup diagram consists of non-crossing cups (lower semicircles) and rays
  going down to infinity; rays never pass inside a cup.  A cap diagram is
  the mirror image, stored with identical data.
* An oriented cup diagram: every cup has one '^' and one 'v' endpoint, and
  among the ray labels read left to right no 'v' occurs before a '^'.
  Cap diagrams are oriented through the mirror, which gives the literally
  identical condition on the cap's data.
* Degree: a cup is clockwise (degree 1) iff its left endpoint is '^';
  same for caps.  A closed circle in a glued diagram is anticlockwise
  (type 1) iff its leftmost vertex is 'v', clockwise (type x) otherwise;
  components with rays are lines (type y).
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache, total_ordering
from itertools import combinations
from typing import Iterable

from ._value import Value

__all__ = [
    "UP",
    "DOWN",
    "Weight",
    "CupDiagram",
    "CapDiagram",
    "OrientedCircleDiagram",
    "weights_in_block",
    "length",
    "relative_length",
    "bruhat_leq",
    "associated_cup_diagram",
    "associated_cap_diagram",
    "total_nesting",
]

UP = "^"
DOWN = "v"


@total_ordering
class Weight(Value):
    """A weight: n '^' and m 'v' labels on positions 0..m+n-1, ordered by
    their labels."""

    _fields = ("labels",)

    def __init__(self, labels: tuple[str, ...]):
        n = labels.count(UP)
        m = labels.count(DOWN)
        if m + n != len(labels):
            raise ValueError(f"bad labels {labels!r}")
        # counted once: block checks run in every Bruhat comparison, and
        # weights key the product table's positions and every memo; not
        # fields, so equality, order, repr and pickling see only the labels
        self._assign(labels)
        object.__setattr__(self, "_block", (m, n))
        object.__setattr__(self, "_hash", hash((labels,)))

    # weight-keyed lookups compare equal weights that are distinct objects in
    # every Ext op, so equality reads the labels without the field tuple
    def __eq__(self, other):
        return self.labels == other.labels if other.__class__ is Weight else NotImplemented

    def __lt__(self, other):
        return self.labels < other.labels if other.__class__ is Weight else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Weight, (self.labels,))

    # -- constructors -------------------------------------------------
    @staticmethod
    def parse(text: str) -> "Weight":
        return Weight(tuple(text.strip()))

    @staticmethod
    def zero(m: int, n: int) -> "Weight":
        """The zero weight: all '^' to the left of all 'v'."""
        return Weight(tuple(UP * n + DOWN * m))

    @staticmethod
    def from_j(m: int, j: int) -> "Weight":
        """n=1 shorthand (j): the single '^' sits at position j."""
        if not 0 <= j <= m:
            raise ValueError(f"j={j} out of range for m={m}")
        labels = [DOWN] * (m + 1)
        labels[j] = UP
        return Weight(tuple(labels))

    @staticmethod
    def from_kl(m: int, k: int, l: int) -> "Weight":
        """n=2 shorthand (k|l): '^' at positions l and k with l < k."""
        if not 0 <= l < k <= m + 1:
            raise ValueError(f"(k|l)=({k}|{l}) out of range for m={m}")
        labels = [DOWN] * (m + 2)
        labels[l] = UP
        labels[k] = UP
        return Weight(tuple(labels))

    # -- inspection ----------------------------------------------------
    @property
    def n(self) -> int:
        return self._block[1]

    @property
    def m(self) -> int:
        return self._block[0]

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def block(self) -> tuple[int, int]:
        return self._block

    def up_positions(self) -> list[int]:
        return [i for i, c in enumerate(self.labels) if c == UP]

    def __getitem__(self, i: int) -> str:
        return self.labels[i]

    def __len__(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return "".join(self.labels)

    def __repr__(self) -> str:
        return f"Weight({''.join(self.labels)!r})"

    # -- local moves ----------------------------------------------------
    def has_down_up_at(self, i: int) -> bool:
        """True iff labels at positions (i, i+1) read 'v^'."""
        return self.labels[i] == DOWN and self.labels[i + 1] == UP

    def swap(self, i: int) -> "Weight":
        """Exchange the labels at positions i and i+1."""
        labels = list(self.labels)
        labels[i], labels[i + 1] = labels[i + 1], labels[i]
        return Weight(tuple(labels))

    def delete(self, i: int) -> "Weight":
        """Remove the vertices i and i+1 (used by the 'v^'-pair recursions)."""
        return Weight(self.labels[:i] + self.labels[i + 2 :])

    def insert_down_up(self, i: int) -> "Weight":
        """Insert a 'v^' pair so it occupies positions i and i+1."""
        return Weight(self.labels[:i] + (DOWN, UP) + self.labels[i:])

    def to_j(self) -> int:
        """Inverse of :meth:`from_j` (requires n = 1)."""
        ups = self.up_positions()
        if len(ups) != 1:
            raise ValueError("to_j requires exactly one '^'")
        return ups[0]

    def to_kl(self) -> tuple[int, int]:
        """Inverse of :meth:`from_kl` (requires n = 2)."""
        ups = self.up_positions()
        if len(ups) != 2:
            raise ValueError("to_kl requires exactly two '^'")
        return (ups[1], ups[0])


def weights_in_block(m: int, n: int) -> list[Weight]:
    """All C(m+n, n) weights, sorted by (length, lexicographic labels); a
    fresh list on every call."""
    return list(_weights_in_block(m, n))


@lru_cache(maxsize=None)
def _weights_in_block(m: int, n: int) -> tuple[Weight, ...]:
    if m < 0 or n < 0:
        raise ValueError("block sizes must be >= 0")
    out = []
    for ups in combinations(range(m + n), n):
        labels = [DOWN] * (m + n)
        for p in ups:
            labels[p] = UP
        out.append(Weight(tuple(labels)))
    return tuple(sorted(out, key=lambda w: (length(w), w.labels)))


def length(weight: Weight) -> int:
    """Coset length l(λ): sum over '^' positions p_1<...<p_n of p_k-(k-1)."""
    return sum(p - k for k, p in enumerate(weight.up_positions()))


def relative_length(i: int, lam: Weight, mu: Weight) -> int:
    """l_i(λ,μ): (# of 'v' in λ at positions <= i) - (same count for μ)."""
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    count = 0
    for j in range(i + 1):
        if lam.labels[j] == DOWN:
            count += 1
        if mu.labels[j] == DOWN:
            count -= 1
    return count


def bruhat_leq(lam: Weight, mu: Weight) -> bool:
    """λ <= μ in the Bruhat order (moving a 'v' to the right goes up):
    every prefix relative length l_i(λ, μ) is >= 0."""
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    count = 0
    for a, b in zip(lam.labels, mu.labels):
        count += (a == DOWN) - (b == DOWN)
        if count < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# cup and cap diagrams
# ---------------------------------------------------------------------------

_ARC_GRAMMAR = re.compile(
    r"^\s*cups=(?P<cups>(\(\d+,\d+\))?(;\(\d+,\d+\))*)\s+rays=(?P<rays>(\d+(,\d+)*)?)\s*$"
)


def _validate_arcs(size: int, cups: frozenset[tuple[int, int]], rays: frozenset[int]):
    seen: set[int] = set()
    for i, j in cups:
        if not (0 <= i < j < size):
            raise ValueError(f"cup ({i},{j}) out of range or unordered")
        seen.update((i, j))
    for p in rays:
        if not 0 <= p < size:
            raise ValueError(f"ray {p} out of range")
        seen.add(p)
    if len(seen) != 2 * len(cups) + len(rays) or len(seen) != size:
        raise ValueError("cups and rays must partition the vertex set")
    for (i, j), (k, l) in combinations(cups, 2):
        if (i < k < j < l) or (k < i < l < j):
            raise ValueError(f"cups ({i},{j}) and ({k},{l}) cross")
    for i, j in cups:
        for p in rays:
            if i < p < j:
                raise ValueError(f"ray {p} passes inside cup ({i},{j})")


class _ArcDiagram(Value):
    """Non-crossing arcs on 0..size-1 plus rays: the data shared by cup and
    cap diagrams.  ``__eq__`` compares classes, so a cup diagram never
    equals a cap diagram."""

    _fields = ("size", "cups", "rays")

    def __init__(self, size: int, cups: frozenset[tuple[int, int]], rays: frozenset[int]):
        self._assign(size, frozenset(tuple(c) for c in cups), frozenset(rays))
        _validate_arcs(self.size, self.cups, self.rays)

    @classmethod
    def parse(cls, text: str, size: int | None = None):
        cups, rays = _parse_arcs(text)
        if size is None:
            size = 2 * len(cups) + len(rays)
        return cls(size, frozenset(cups), frozenset(rays))

    def cups_sorted(self) -> list[tuple[int, int]]:
        """Cups numbered by their right endpoints, left to right."""
        return sorted(self.cups, key=lambda c: c[1])

    def __str__(self) -> str:
        return _format_arcs(self.cups, self.rays)


class CupDiagram(_ArcDiagram):
    """Non-crossing cups below the number line plus downward rays."""

    def mirror(self) -> "CapDiagram":
        return CapDiagram(self.size, self.cups, self.rays)


class CapDiagram(_ArcDiagram):
    """Mirror image of a cup diagram: caps above the line, rays upward."""

    def mirror(self) -> CupDiagram:
        return CupDiagram(self.size, self.cups, self.rays)


def _parse_arcs(text: str) -> tuple[list[tuple[int, int]], list[int]]:
    m = _ARC_GRAMMAR.match(text)
    if not m:
        raise ValueError(f"cannot parse arc diagram {text!r}")
    cups = [
        tuple(int(x) for x in pair.split(","))
        for pair in re.findall(r"\((\d+,\d+)\)", m.group("cups"))
    ]
    rays = [int(x) for x in m.group("rays").split(",") if x]
    return [tuple(c) for c in cups], rays


def _format_arcs(cups: Iterable[tuple[int, int]], rays: Iterable[int]) -> str:
    cup_text = ";".join(f"({i},{j})" for i, j in sorted(cups))
    ray_text = ",".join(str(p) for p in sorted(rays))
    return f"cups={cup_text} rays={ray_text}"


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------


def _rays_ordered_ok(weight: Weight, rays: Iterable[int]) -> bool:
    """No ray labelled 'v' strictly left of a ray labelled '^'."""
    seen_down = False
    for p in sorted(rays):
        if weight[p] == DOWN:
            seen_down = True
        elif seen_down:
            return False
    return True


def cup_oriented(cup: CupDiagram | CapDiagram, weight: Weight) -> bool:
    """Is the glued diagram (cup, weight) an oriented cup diagram?  Given a
    cap diagram, whose data are its mirror's, this is ``cap_oriented``."""
    if cup.size != weight.size:
        return False
    return all(
        {weight[i], weight[j]} == {UP, DOWN} for i, j in cup.cups
    ) and _rays_ordered_ok(weight, cup.rays)


def cap_oriented(cap: CapDiagram, weight: Weight) -> bool:
    """Is (weight, cap) an oriented cap diagram?  The condition on the
    cap's data is literally the cup's, so no mirror is built."""
    return cup_oriented(cap, weight)


def half_degree(diagram: CupDiagram | CapDiagram, weight: Weight) -> int:
    """Number of clockwise arcs: arcs whose left endpoint carries '^'."""
    return sum(1 for i, _ in diagram.cups if weight[i] == UP)


@lru_cache(maxsize=None)
def associated_cup_diagram(weight: Weight) -> CupDiagram:
    """The unique cup diagram pairing with the weight at degree 0, built
    once per weight (diagrams are immutable, so callers share it).

    Repeatedly connect adjacent 'v^' pairs (skipping matched vertices);
    the leftovers become rays.  Equivalent to bracket matching with
    'v' = open and '^' = close.
    """
    stack: list[int] = []
    cups: list[tuple[int, int]] = []
    rays: list[int] = []
    for p, c in enumerate(weight.labels):
        if c == DOWN:
            stack.append(p)
        elif stack:
            cups.append((stack.pop(), p))
        else:
            rays.append(p)
    rays.extend(stack)
    return CupDiagram(weight.size, frozenset(cups), frozenset(rays))


@lru_cache(maxsize=None)
def associated_cap_diagram(weight: Weight) -> CapDiagram:
    return associated_cup_diagram(weight).mirror()


class OrientedCircleDiagram(Value):
    """A basis diagram: cup diagram, weight, cap diagram, all compatible."""

    _fields = ("cup", "weight", "cap")

    def __init__(self, cup: CupDiagram, weight: Weight, cap: CapDiagram):
        self._assign(cup, weight, cap)
        if not cup_oriented(cup, weight):
            raise ValueError(f"cup half of {self} is not oriented")
        if not cap_oriented(cap, weight):
            raise ValueError(f"cap half of {self} is not oriented")
        # the product table's ids and every action matrix are keyed by basis diagrams,
        # so the field hash is computed once, not per lookup
        object.__setattr__(self, "_hash", hash((cup, weight, cap)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor: the stored hash mixes str hashes,
        # which differ between processes, so it must not be pickled or copied
        return (OrientedCircleDiagram, (self.cup, self.weight, self.cap))

    @staticmethod
    def parse(text: str) -> "OrientedCircleDiagram":
        parts = text.split("|")
        if len(parts) != 3:
            raise ValueError(f"expected '<cupdiag> | <weight> | <capdiag>': {text!r}")
        weight = Weight.parse(parts[1])
        cup = CupDiagram.parse(parts[0], size=weight.size)
        cap = CapDiagram.parse(parts[2], size=weight.size)
        return OrientedCircleDiagram(cup, weight, cap)

    @cached_property
    def degree(self) -> int:
        return half_degree(self.cup, self.weight) + half_degree(self.cap, self.weight)

    def __str__(self) -> str:
        return f"{self.cup} | {self.weight} | {self.cap}"

    def __repr__(self) -> str:
        return f"OrientedCircleDiagram({str(self)!r})"


def total_nesting(diagram: CupDiagram | CapDiagram) -> int:
    """The number of pairs of cups of which one is nested inside the other."""
    return sum(lo < a and b < hi for lo, hi in diagram.cups for a, b in diagram.cups)
