"""Exact arithmetic and sparse linear algebra over Q.

Everything downstream (surgery products, resolutions, Ext computations)
reduces to exact rational linear algebra, so this module fixes once and for
all the deterministic conventions used everywhere:

* coefficients are ``fractions.Fraction`` (arbitrary precision, always
  reduced, positive denominator);
* the one elimination is ``Echelon``: the reduced row echelon form (RREF)
  of a span, stored as sparse ``{col: Fraction}`` rows keyed by pivot
  column and grown one vector at a time.  ``add`` reduces the new vector
  against the rows, and if a remainder is left it is scaled to 1 at its
  leftmost column and cleared from every other row;
* ``rank``, ``kernel_basis`` and ``solve`` feed the matrix rows into an
  ``Echelon``.  When a solve has free variables they are set to 0, and
  kernel bases are the standard "one free variable = 1" vectors of the
  RREF, one per free column in increasing order;
* greedy choices ("keep the vector if it is new") are ``Echelon.add``
  calls in the caller's order;
* a square system that is solved for many right-hand sides is factored
  once: ``inverse`` runs one ``Echelon`` over the rows of ``[M | I]`` and
  ``inverse(M).apply(b)`` replaces ``solve(M, b)``.  An invertible system
  has exactly one solution, so every coordinate is the same ``Fraction``
  ``solve`` would give.

The RREF of a row space is unique, so these answers do not depend on the
order in which rows are added and are the same vectors a dense left to
right column scan of the whole matrix gives.  Whether a vector enlarges a
span does not depend on the elimination either, so every greedy choice is
the same too.  These conventions make every derived artifact (cached
resolutions, chosen cocycle representatives, homotopies) reproducible
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Rational", "QPoly", "SparseMatrix", "Echelon", "rank", "kernel_basis", "solve",
    "inverse",
]

#: The coefficient field.  All structure constants in scope are integers, so
#: Q gives the same dimensions as C while staying exact.
Rational = Fraction


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


@dataclass(frozen=True)
class SparseMatrix:
    """An immutable sparse matrix over Q.

    ``entries`` maps ``(row, col)`` to a nonzero Fraction.  Rows and
    columns are 0-indexed.
    """

    rows: int
    cols: int
    entries: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r},{c}) out of range")
            v = Fraction(v)
            if v != 0:
                clean[(r, c)] = v
        object.__setattr__(self, "entries", clean)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction | int]]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {
            (i, j): Fraction(v)
            for i, row in enumerate(rows)
            for j, v in enumerate(row)
            if v != 0
        }
        return SparseMatrix(nrows, ncols, entries)

    @staticmethod
    def from_columns(
        columns: Sequence[Sequence[Fraction | int]], rows: int
    ) -> "SparseMatrix":
        entries = {
            (i, j): Fraction(v)
            for j, column in enumerate(columns)
            for i, v in enumerate(column)
            if v != 0
        }
        return SparseMatrix(rows, len(columns), entries)

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(n, n, {(i, i): Fraction(1) for i in range(n)})

    @staticmethod
    def zeros(rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix(rows, cols, {})

    # -- access --------------------------------------------------------
    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.entries.get(key, Fraction(0))

    def dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def is_zero(self) -> bool:
        return not self.entries

    def restrict(self, rows: Sequence[int], cols: Sequence[int]) -> "SparseMatrix":
        """The submatrix on the given distinct rows and columns, in that order."""
        row_at = {r: i for i, r in enumerate(rows)}
        col_at = {c: j for j, c in enumerate(cols)}
        return SparseMatrix(
            len(row_at),
            len(col_at),
            {
                (row_at[r], col_at[c]): v
                for (r, c), v in self.entries.items()
                if r in row_at and c in col_at
            },
        )

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, Fraction(0)) + v
        return SparseMatrix(self.rows, self.cols, out)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (other * -1)

    def __mul__(self, scalar: Fraction | int) -> "SparseMatrix":
        return SparseMatrix(
            self.rows, self.cols, {k: v * scalar for k, v in self.entries.items()}
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], Fraction] = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                out[(r, c)] = out.get((r, c), Fraction(0)) + v * w
        return SparseMatrix(self.rows, other.cols, out)

    def apply(
        self, vec: Sequence[Fraction | int] | Mapping[int, Fraction | int]
    ) -> list[Fraction]:
        """The product with a dense vector or a sparse ``{col: value}`` one."""
        if not isinstance(vec, Mapping):
            if len(vec) != self.cols:
                raise ValueError("vector length mismatch")
            vec = dict(enumerate(vec))
        x = {c: Fraction(v) for c, v in vec.items() if v}
        if not all(0 <= c < self.cols for c in x):
            raise ValueError("vector index out of range")
        out = [Fraction(0)] * self.rows
        for (r, c), v in self.entries.items():
            if c in x:
                out[r] += v * x[c]
        return out




def _subtract(target: dict[int, Fraction], f: Fraction, row: dict[int, Fraction]) -> None:
    """``target -= f * row`` in place, dropping the entries that become 0."""
    for c, v in row.items():
        x = target.get(c, 0) - f * v
        if x:
            target[c] = x
        else:
            del target[c]


class Echelon:
    """The RREF of a growing span inside Q^width.

    ``rows`` maps each pivot column to its row, a sparse ``{col: Fraction}``
    that is 1 at its pivot and 0 at every other pivot column.
    """

    __slots__ = ("width", "rows")

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, dict[int, Fraction]] = {}

    @staticmethod
    def of_rows(
        matrix: SparseMatrix, rhs: Sequence[Fraction | int] | None = None
    ) -> "Echelon":
        """The RREF of the matrix rows, with ``rhs`` as an extra last column."""
        rows: dict[int, dict[int, Fraction]] = {}
        for (r, c), v in matrix.entries.items():
            rows.setdefault(r, {})[c] = v
        width = matrix.cols
        if rhs is not None:
            for r, v in enumerate(rhs):
                if v:
                    rows.setdefault(r, {})[width] = v
            width += 1
        span = Echelon(width)
        for r in sorted(rows):
            span.add(rows[r])
        return span

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(
        self, vec: Sequence[Fraction | int] | Mapping[int, Fraction | int]
    ) -> dict[int, Fraction]:
        """The remainder of ``vec`` modulo the span, 0 at every pivot column."""
        if not isinstance(vec, Mapping):
            if len(vec) != self.width:
                raise ValueError("vector length does not match the span width")
            vec = dict(enumerate(vec))
        out = {c: Fraction(v) for c, v in vec.items() if v}
        rows = self.rows
        # each row is 0 at the other pivots, so one pass clears them all
        for p in [c for c in out if c in rows]:
            _subtract(out, out[p], rows[p])
        return out

    def add(
        self, vec: Sequence[Fraction | int] | Mapping[int, Fraction | int]
    ) -> bool:
        """Extend the span by ``vec``; False, with no change, if it lies in it."""
        row = self.reduce(vec)
        if not row:
            return False
        pivot = min(row)
        scale = row[pivot]
        if scale != 1:
            row = {c: v / scale for c, v in row.items()}
        for other in self.rows.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        self.rows[pivot] = row
        return True


def rank(matrix: SparseMatrix) -> int:
    """Exact rank over Q."""
    return len(Echelon.of_rows(matrix))


def kernel_basis(matrix: SparseMatrix) -> list[list[Fraction]]:
    """Deterministic basis of the null space.

    One vector per free column, in increasing column order: the free
    variable is set to 1, other free variables to 0, pivot variables
    back-substituted from the RREF.
    """
    pivots = Echelon.of_rows(matrix).rows
    basis = []
    for fc in range(matrix.cols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * matrix.cols
        vec[fc] = Fraction(1)
        for pc, row in pivots.items():
            if fc in row:
                vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def inverse(matrix: SparseMatrix) -> SparseMatrix:
    """The inverse of a square matrix; ArithmeticError if it is singular.

    One ``Echelon`` pass over the rows of ``[M | I]``: the span always has
    full rank, and its RREF is ``[I | M^-1]`` exactly when every pivot lies
    in the M half.
    """
    n = matrix.rows
    if matrix.cols != n:
        raise ValueError("only a square matrix has an inverse")
    augmented = dict(matrix.entries)
    augmented.update({(r, n + r): Fraction(1) for r in range(n)})
    span = Echelon.of_rows(SparseMatrix(n, 2 * n, augmented))
    if any(p >= n for p in span.rows):
        raise ArithmeticError("singular matrix has no inverse")
    return SparseMatrix(
        n,
        n,
        {(p, c - n): v for p, row in span.rows.items() for c, v in row.items() if c >= n},
    )


def solve(
    matrix: SparseMatrix, rhs: Sequence[Fraction | int]
) -> list[Fraction] | None:
    """One solution of ``matrix @ x = rhs`` or None if inconsistent.

    Deterministic: free variables are set to 0, so the answer is the
    echelon-canonical solution.
    """
    if len(rhs) != matrix.rows:
        raise ValueError("rhs length does not match row count")
    pivots = Echelon.of_rows(matrix, rhs).rows
    if matrix.cols in pivots:
        return None  # a pivot in the rhs column means 0 = 1 somewhere
    x = [Fraction(0)] * matrix.cols
    for pc, row in pivots.items():
        x[pc] = row.get(matrix.cols, Fraction(0))
    return x
