"""Cell modules, projectives, q-decomposition numbers, the Cartan matrix
and the combinatorial Kazhdan-Lusztig polynomials.

Modules are realized explicitly: a :class:`GradedModule` stores a labelled
graded basis together with one action matrix per algebra basis diagram,
computed through the surgery product.  The cell module M(μ) is the quotient
of P(μ) = K e_μ by the span of basis diagrams whose middle weight is
strictly larger than μ; its basis is indexed by the oriented cup diagrams
(c μ|.
"""

from __future__ import annotations

from functools import lru_cache

from ._value import Value
from .arcalg import AlgebraElement, _product_table
from .diagrams import (
    DOWN,
    OrientedCircleDiagram,
    Weight,
    associated_cap_diagram,
    associated_cup_diagram,
    bruhat_leq,
    cup_oriented,
    half_degree,
    length,
    relative_length,
    weights_in_block,
)
from .exact import QPoly, Scalar, SparseMatrix

__all__ = [
    "GradedModule",
    "decomposition_poly",
    "decomposition_matrix",
    "cartan_poly",
    "cartan_matrix",
    "kl_poly_recursive",
    "kl_poly_closed",
    "cell_basis",
    "cell_module",
    "projective_module",
]


# ---------------------------------------------------------------------------
# decomposition numbers and Cartan matrix
# ---------------------------------------------------------------------------


def decomposition_poly(lam: Weight, mu: Weight) -> QPoly:
    """d_{λ,μ}(q) = q^deg(λ̲ μ) if λ̲ μ is oriented, else 0."""
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    cup = associated_cup_diagram(lam)
    if not cup_oriented(cup, mu):
        return QPoly.zero()
    return QPoly.q_power(half_degree(cup, mu))


def decomposition_matrix(m: int, n: int) -> dict[tuple[Weight, Weight], QPoly]:
    ws = weights_in_block(m, n)
    return {
        (lam, mu): poly
        for lam in ws
        for mu in ws
        if not (poly := decomposition_poly(lam, mu)).is_zero()
    }


def cartan_poly(lam: Weight, mu: Weight) -> QPoly:
    """c_{λ,μ}(q): graded dimension of e_λ K e_μ by direct basis count (a
    diagram's degree counts some of its cups and caps, so it is at most λ.size)."""
    table = _product_table(*lam.block)
    return QPoly({d: len(table.of_degree(lam, mu, d)) for d in range(lam.size + 1)})


def cartan_matrix(m: int, n: int) -> dict[tuple[Weight, Weight], QPoly]:
    ws = weights_in_block(m, n)
    return {(lam, mu): cartan_poly(lam, mu) for lam in ws for mu in ws}


# ---------------------------------------------------------------------------
# combinatorial Kazhdan-Lusztig polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def kl_poly_recursive(lam: Weight, mu: Weight) -> QPoly:
    """The recursion: delete or swap at the first 'v^' pair of λ, the
    smallest i with λ carrying 'v^' at (i, i+1)."""
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    if lam == mu:
        return QPoly.one()
    if not bruhat_leq(lam, mu):
        return QPoly.zero()
    i = next(i for i in range(lam.size - 1) if lam.has_down_up_at(i))
    swapped = kl_poly_recursive(lam.swap(i), mu).shift(1)
    if mu.has_down_up_at(i):
        return kl_poly_recursive(lam.delete(i), mu.delete(i)) + swapped
    return swapped


def _chamber_labellings(
    caps: list[tuple[int, int]], bounds: dict[tuple[int, int], int]
) -> list[dict[tuple[int, int], int]]:
    """All admissible labellings: inside >= outside, inner caps bounded.

    ``bounds`` maps each *inner* cap (one containing no smaller cap) to its
    upper bound.  Outer caps inherit the bound of the largest nested inner
    cap through monotonicity.
    """
    if any(b < 0 for b in bounds.values()):
        return []
    # process caps outside-in so the monotonicity constraint is local
    order = sorted(caps, key=lambda c: c[0] - c[1])  # wide caps first
    enclosing: dict[tuple[int, int], tuple[int, int] | None] = {}
    for c in caps:
        outer = [d for d in caps if d != c and d[0] < c[0] and c[1] < d[1]]
        enclosing[c] = min(outer, key=lambda d: c[0] - d[0]) if outer else None
    max_bound = max(bounds.values(), default=0)
    out: list[dict[tuple[int, int], int]] = []

    def recurse(i: int, current: dict[tuple[int, int], int]):
        if i == len(order):
            out.append(dict(current))
            return
        cap = order[i]
        low = current[enclosing[cap]] if enclosing[cap] is not None else 0
        high = bounds.get(cap, max_bound)
        for value in range(low, high + 1):
            current[cap] = value
            recurse(i + 1, current)
        current.pop(cap, None)

    recurse(0, {})
    return out


def kl_poly_closed(lam: Weight, mu: Weight) -> QPoly:
    """The closed form: sum over labelled cap diagrams of μ̄."""
    if lam.block != mu.block:
        raise ValueError("weights from different blocks")
    if not bruhat_leq(lam, mu):
        return QPoly.zero()
    cap = associated_cap_diagram(mu)
    caps = cap.cups_sorted()
    bounds: dict[tuple[int, int], int] = {}
    for c in caps:
        if any(c[0] < d[0] and d[1] < c[1] for d in caps):
            continue  # not an inner cap
        down_vertex = c[0] if mu[c[0]] == DOWN else c[1]
        bounds[c] = relative_length(down_vertex, lam, mu)
    total = length(lam) - length(mu)
    out = QPoly.zero()
    for labelling in _chamber_labellings(caps, bounds):
        size = sum(labelling.values())
        exponent = total - 2 * size
        if exponent < 0:
            raise AssertionError("labelled cap diagram exceeded the length gap")
        out = out + QPoly.q_power(exponent)
    return out


# ---------------------------------------------------------------------------
# explicit graded modules
# ---------------------------------------------------------------------------


class GradedModule(Value):
    """An explicit graded left module over K_m^n.

    ``labels`` name the basis vectors, ``degrees`` their internal degrees,
    and ``action`` holds one matrix per algebra basis diagram (columns are
    module basis vectors).
    """

    _fields = ("block", "labels", "degrees", "action")

    def __init__(
        self, block: tuple[int, int], labels: tuple, degrees: tuple[int, ...],
        action: dict[OrientedCircleDiagram, SparseMatrix],
    ):
        self._assign(block, labels, degrees, action)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def graded_dimension(self) -> QPoly:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return QPoly(out)

    def act(self, element: AlgebraElement) -> SparseMatrix:
        total = SparseMatrix.zeros(self.dim, self.dim)
        for diagram, coeff in element:
            mat = self.action.get(diagram)
            if mat is not None:
                total = total + coeff * mat
        return total


def _action_matrices(
    m: int, n: int, ids: list[int], rows_of
) -> dict[OrientedCircleDiagram, SparseMatrix]:
    """Action matrices for each algebra basis diagram, in ``basis`` order.

    Module basis vector k is the class of the basis diagram of id
    ``ids[k]``; ``rows_of(product)`` reads z·ids[k], given as its (id,
    coeff) terms, as a dict {row: coefficient}.  Only the z stacking on
    each diagram are multiplied, read from the product table."""
    dim = len(ids)
    table = _product_table(m, n)
    entries: dict[int, dict[tuple[int, int], Scalar]] = {}
    for col, x in enumerate(ids):
        for z in table.stacking[table.cup[x]]:
            for row, coeff in rows_of(table.product(z, x)).items():
                block = entries.setdefault(z, {})
                block[(row, col)] = block.get((row, col), 0) + coeff
    out = {}
    for z, diagram in enumerate(table.diagrams):
        mat = SparseMatrix(dim, dim, entries.get(z, {}))
        if not mat.is_zero():
            out[diagram] = mat
    return out


@lru_cache(maxsize=None)
def projective_module(lam: Weight) -> GradedModule:
    """P(λ) = K e_λ with basis the diagrams (α̲ ν λ̄), left action by
    the surgery product."""
    m, n = lam.block
    table = _product_table(m, n)
    ids = table.stacking[table.position[lam]]
    index = {x: k for k, x in enumerate(ids)}
    return GradedModule(
        block=(m, n),
        labels=tuple(table.diagrams[x] for x in ids),
        degrees=tuple(table.degree[x] for x in ids),
        action=_action_matrices(m, n, ids, lambda product: {index[x]: c for x, c in product}),
    )


@lru_cache(maxsize=None)
def cell_basis(mu: Weight) -> tuple[tuple[Weight, ...], tuple[int, ...], tuple[int, ...]]:
    """The basis of M(μ): the weights α with α̲ μ oriented, in
    ``weights_in_block`` order, their degrees, and the id of the basis
    diagram (α̲ μ μ̄) whose class in P(μ) is the vector α."""
    table = _product_table(*mu.block)
    labels = tuple(
        alpha
        for alpha in weights_in_block(*mu.block)
        if cup_oriented(associated_cup_diagram(alpha), mu)
    )
    reps = tuple(table.find(alpha, mu, mu) for alpha in labels)
    return labels, tuple(table.degree[x] for x in reps), reps


@lru_cache(maxsize=None)
def cell_module(mu: Weight) -> GradedModule:
    """M(μ) with basis (c μ| indexed by the weights α with α̲ μ oriented.

    Realized as P(μ) modulo the basis diagrams with middle weight > μ;
    the class of (α̲ μ μ̄) corresponds to the oriented cup diagram (α̲ μ|.
    """
    m, n = mu.block
    labels, degrees, reps = cell_basis(mu)
    index = {x: k for k, x in enumerate(reps)}

    def rows_of(product) -> dict[int, Scalar]:
        # a term of middle weight μ is a representative; the others are
        # killed in the cellular quotient
        return {index[x]: c for x, c in product if x in index}

    return GradedModule(
        block=(m, n),
        labels=labels,
        degrees=degrees,
        action=_action_matrices(m, n, reps, rows_of),
    )
