"""Exact arithmetic and sparse linear algebra over Q.

Everything downstream (surgery products, resolutions, Ext computations)
reduces to exact rational linear algebra, so this module fixes once and for
all the deterministic conventions used everywhere:

* an exact scalar is a Python ``int`` when it is integral and a
  ``fractions.Fraction`` (reduced, positive denominator > 1) only
  otherwise; ``rational`` is the one normalisation, and every stored
  coefficient (``SparseMatrix`` entries, ``Echelon`` rows, algebra and hom
  elements) goes through it.  The structure constants are integers, so
  almost all arithmetic stays on ints; a float is never a scalar, and
  ``/`` is never applied to two ints (``quotient`` divides exactly);
* a vector is a sparse ``{index: scalar}`` dict, the one format in and
  out of this module: ``Echelon`` takes such dicts, and ``kernel_basis``
  and ``solve`` return them, holding only the nonzero entries in
  increasing index order.  An index outside the vector's length raises
  ValueError;
* the one elimination is ``Echelon``: the reduced row echelon form (RREF)
  of a span, stored as sparse ``{col: scalar}`` rows keyed by pivot
  column and grown one vector at a time.  ``add`` reduces the new vector
  against the rows, and if a remainder is left it is scaled to 1 at its
  leftmost column (the only division, and only when that entry is not
  ±1) and cleared from every other row;
* ``rank``, ``kernel_basis`` and ``solve`` feed the matrix rows into an
  ``Echelon``.  When a solve has free variables they are set to 0, and
  kernel bases are the standard "one free variable = 1" vectors of the
  RREF, one per free column in increasing order;
* greedy choices ("keep the vector if it is new") are ``Echelon.add``
  calls in the caller's order;
* a basis that is picked greedily and then inverted is picked and
  inverted in one pass: each vector enters through ``Echelon.add_tagged``,
  which carries the identity along as ``[M | I]``, M having the accepted
  vectors as rows, so the tag half of a row gives the tagged coordinates of
  its value half, modulo the vectors that entered through ``add``
  (``extalg._split_pair`` reads the B and H rows of the inverse of
  [B | H | L] this way).  An invertible system has exactly one solution,
  so every coordinate is the scalar ``solve`` would give.

The RREF of a row space is unique, so these answers do not depend on the
order in which rows are added and are the same vectors a dense left to
right column scan of the whole matrix gives.  Whether a vector enlarges a
span does not depend on the elimination either, so every greedy choice is
the same too.  These conventions make every derived artifact (cached
resolutions, chosen cocycle representatives, homotopies) reproducible
byte for byte.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from ._value import Value

__all__ = [
    "Rational", "Scalar", "rational", "quotient", "QPoly", "SparseMatrix", "Echelon",
    "rank", "kernel_basis", "solve",
]

#: The coefficient field.  All structure constants in scope are integers, so
#: Q gives the same dimensions as C while staying exact.
Rational = Fraction

#: An exact scalar: an int when integral, else a Fraction (see ``rational``).
Scalar = int | Fraction


def rational(v: Scalar) -> Scalar:
    """The exact scalar equal to ``v``: an int stays as it is, a Fraction
    with denominator 1 becomes its numerator, any other Fraction stays.
    Anything else, a float above all, raises TypeError."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):  # bool and other int subclasses
        return int(v)
    raise TypeError(f"{v!r} is not an exact scalar (int or Fraction)")


def quotient(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b, never a float."""
    return rational(Fraction(a, b))


class QPoly:
    """A polynomial in q with integer coefficients and exponents >= 0.

    Stored sparsely as ``{exponent: coefficient}`` with no zero
    coefficients.  Supports ring arithmetic, evaluation, and a canonical
    string form like ``q^4 + q^2``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c == 0:
                    continue
                if e < 0:
                    raise ValueError(f"negative exponent {e} not supported")
                clean[int(e)] = clean.get(int(e), 0) + int(c)
                if clean[int(e)] == 0:
                    del clean[int(e)]
        self._coeffs = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "QPoly":
        return QPoly()

    @staticmethod
    def one() -> "QPoly":
        return QPoly({0: 1})

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "QPoly":
        return QPoly({e: coeff})

    # -- inspection ----------------------------------------------------
    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def coeff(self, e: int) -> int:
        return self._coeffs.get(e, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Largest exponent with nonzero coefficient (-1 for the zero poly)."""
        return max(self._coeffs) if self._coeffs else -1

    def __call__(self, value: int = 1) -> int:
        return sum(c * value**e for e, c in self._coeffs.items())

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "QPoly") -> "QPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPoly(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) - c
        return QPoly(out)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return QPoly(out)

    __rmul__ = __mul__

    def __neg__(self) -> "QPoly":
        return self * -1

    def shift(self, e: int) -> "QPoly":
        """Multiply by q^e (e may be negative if no exponent drops below 0)."""
        return QPoly({k + e: c for k, c in self._coeffs.items()})

    # -- equality / hashing / display -----------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = QPoly({0: other})
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"QPoly({self._coeffs!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            if e == 0:
                term = str(abs(c))
            else:
                base = "q" if e == 1 else f"q^{e}"
                term = base if abs(c) == 1 else f"{abs(c)}*{base}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


class SparseMatrix(Value):
    """An immutable sparse matrix over Q.

    ``entries`` maps ``(row, col)`` to a nonzero exact scalar: an int, or
    a Fraction when it is not integral (see ``rational``).  Rows and
    columns are 0-indexed.
    """

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], Scalar] = {}):
        clean = {}  # the one dict stored; ``entries`` is only read
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if v:
                clean[(r, c)] = rational(v)
        self._assign(rows, cols, clean)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix(rows, cols, {})

    # -- access --------------------------------------------------------
    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        return self.entries.get(key, 0)

    def is_zero(self) -> bool:
        return not self.entries

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return SparseMatrix(self.rows, self.cols, out)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (other * -1)

    def __mul__(self, scalar: Scalar) -> "SparseMatrix":
        return SparseMatrix(
            self.rows, self.cols, {k: v * scalar for k, v in self.entries.items()}
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], Scalar] = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                out[(r, c)] = out.get((r, c), 0) + v * w
        return SparseMatrix(self.rows, other.cols, out)


def _subtract(target: dict[int, Scalar], f: Scalar, row: dict[int, Scalar]) -> None:
    """``target -= f * row`` in place, dropping the entries that become 0."""
    for c, v in row.items():
        x = target.get(c, 0) - f * v
        if x:
            target[c] = rational(x)
        else:
            del target[c]


class Echelon:
    """The RREF of a growing span inside Q^width.

    ``rows`` maps each pivot column to its row, a sparse ``{col: scalar}``
    that is 1 at its pivot and 0 at every other pivot column.
    """

    __slots__ = ("width", "rows")

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, dict[int, Scalar]] = {}

    @staticmethod
    def of_rows(matrix: SparseMatrix, rhs: Mapping[int, Scalar] | None = None) -> "Echelon":
        """The RREF of the matrix rows, with ``rhs`` as an extra last column."""
        rows: dict[int, dict[int, Scalar]] = {}
        for (r, c), v in matrix.entries.items():
            rows.setdefault(r, {})[c] = v
        width = matrix.cols
        if rhs is not None:
            if rhs and (min(rhs) < 0 or max(rhs) >= matrix.rows):
                raise ValueError("rhs index out of range")
            for r, v in rhs.items():
                if v:
                    rows.setdefault(r, {})[width] = v
            width += 1
        span = Echelon(width)
        for r in sorted(rows):
            span.add(rows[r])
        return span

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Mapping[int, Scalar]) -> dict[int, Scalar]:
        """The remainder of ``vec`` modulo the span, 0 at every pivot column."""
        if vec and (min(vec) < 0 or max(vec) >= self.width):
            raise ValueError("vector index outside the span width")
        out = {c: rational(v) for c, v in vec.items() if v}
        rows = self.rows
        # each row is 0 at the other pivots, so one pass clears them all
        for p in [c for c in out if c in rows]:
            _subtract(out, out[p], rows[p])
        return out

    def add(self, vec: Mapping[int, Scalar]) -> bool:
        """Extend the span by ``vec``; False, with no change, if it lies in
        it, that is if its remainder has no column below ``width``."""
        return self._extend(vec, None)

    def add_tagged(self, vec: Mapping[int, Scalar]) -> bool:
        """``add`` that records where each row comes from: ``vec`` enters as
        ``vec ⊕ e_i`` in Q^width ⊕ Q^width, with i = ``len(self)`` the
        number of vectors accepted before it.  Untagged vectors may follow
        through ``add``, but no tagged one after them.

        The tag half (columns ``width`` and up) of each row gives the
        tagged coordinates of its value half, modulo the untagged vectors.
        So if the accepted vectors and the unit vectors at the columns that
        are no pivot are the columns of a matrix, the tag half of the row
        with pivot p is column p of its inverse, restricted to the tagged
        vectors' rows; at a column that is no pivot, that part is 0.
        """
        return self._extend(vec, self.width + len(self.rows))

    def _extend(self, vec: Mapping[int, Scalar], tag: int | None) -> bool:
        """Reduce ``vec``, then scale the remainder, with 1 at ``tag``, to 1
        at its leftmost column and clear that column from every other row."""
        row = self.reduce(vec)
        pivot = min(row, default=self.width)
        if pivot >= self.width:
            return False
        if tag is not None:
            row[tag] = 1
        scale = row[pivot]
        if scale == -1:
            row = {c: -v for c, v in row.items()}
        elif scale != 1:
            row = {c: quotient(v, scale) for c, v in row.items()}
        for other in self.rows.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        self.rows[pivot] = row
        return True


def rank(matrix: SparseMatrix) -> int:
    """Exact rank over Q."""
    return len(Echelon.of_rows(matrix))


def kernel_basis(matrix: SparseMatrix) -> list[dict[int, Scalar]]:
    """Deterministic basis of the null space, each vector a sparse
    ``{col: value}`` dict with increasing keys.

    One vector per free column, in increasing column order: the free
    variable is set to 1, other free variables to 0, pivot variables
    back-substituted from the RREF.
    """
    pivots = Echelon.of_rows(matrix).rows
    basis = []
    for fc in range(matrix.cols):
        if fc in pivots:
            continue
        vec = {pc: -row[fc] for pc, row in pivots.items() if fc in row}
        vec[fc] = 1
        basis.append(dict(sorted(vec.items())))
    return basis


def solve(matrix: SparseMatrix, rhs: Mapping[int, Scalar]) -> dict[int, Scalar] | None:
    """One solution of ``matrix @ x = rhs``, a sparse ``{col: value}`` dict
    with increasing keys, or None if inconsistent; ``rhs`` is a sparse
    ``{row: value}`` dict.

    Deterministic: free variables are set to 0, so the answer is the
    echelon-canonical solution.
    """
    pivots = Echelon.of_rows(matrix, rhs).rows
    if matrix.cols in pivots:
        return None  # a pivot in the rhs column means 0 = 1 somewhere
    return {
        pc: row[matrix.cols] for pc, row in sorted(pivots.items()) if matrix.cols in row
    }
