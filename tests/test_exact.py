"""Exact rational linear algebra and Laurent polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from arckit import QPoly, SparseMatrix, kernel_basis, rank, solve
from arckit.exact import Echelon, inverse


class TestQPoly:
    def test_str_formats(self):
        assert str(QPoly({4: 1, 2: 1})) == "q^4 + q^2"
        assert str(QPoly()) == "0"
        assert str(QPoly({0: 1})) == "1"
        assert str(QPoly({1: 1})) == "q"
        assert str(QPoly({2: -3, 0: 2})) == "-3*q^2 + 2"

    def test_arithmetic(self):
        p = QPoly({1: 1, 0: 1})
        assert p * p == QPoly({2: 1, 1: 2, 0: 1})
        assert p - p == QPoly.zero()
        assert (-p) + p == QPoly.zero()
        assert p.shift(3) == QPoly({4: 1, 3: 1})
        assert QPoly.q_power(5, -2) == QPoly({5: -2})

    def test_evaluation_and_degree(self):
        p = QPoly({3: 2, 1: 1})
        assert p(1) == 3
        assert p(2) == 18
        assert p.degree() == 3
        assert p.coeff(1) == 1 and p.coeff(2) == 0

    @given(
        st.dictionaries(st.integers(0, 6), st.integers(-5, 5), max_size=5),
        st.dictionaries(st.integers(0, 6), st.integers(-5, 5), max_size=5),
    )
    def test_product_evaluates_pointwise(self, c1, c2):
        p, q = QPoly(c1), QPoly(c2)
        assert (p * q)(2) == p(2) * q(2)
        assert (p + q)(3) == p(3) + q(3)


def _random_matrix(draw_rows):
    return SparseMatrix.from_rows(draw_rows)


matrix_strategy = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
        min_size=1,
        max_size=5,
    )
)


class TestSparseMatrix:
    def test_rank_known(self):
        a = SparseMatrix.from_rows([[1, 2], [2, 4], [0, 1]])
        assert rank(a) == 2
        assert rank(SparseMatrix.zeros(3, 4)) == 0
        assert rank(SparseMatrix.identity(5)) == 5

    def test_matmul_and_apply(self):
        a = SparseMatrix.from_rows([[1, 2], [3, 4]])
        b = SparseMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).dense() == [[2, 1], [4, 3]]
        assert a.apply([1, 1]) == [3, 7]
        assert a.apply({1: 1}) == a.apply([0, 1]) == [2, 4]
        for bad in ([1], [1, 1, 1], {2: 1}, {-1: 1}):
            with pytest.raises(ValueError):
                a.apply(bad)

    @settings(max_examples=60, deadline=None)
    @given(matrix_strategy)
    def test_rank_nullity(self, rows):
        a = _random_matrix(rows)
        kernel = kernel_basis(a)
        assert rank(a) + len(kernel) == a.cols
        for vec in kernel:
            assert all(x == 0 for x in a.apply(vec))

    @settings(max_examples=60, deadline=None)
    @given(matrix_strategy, st.lists(st.integers(-3, 3), min_size=1, max_size=5))
    def test_solve_consistent_system(self, rows, x0):
        a = _random_matrix(rows)
        x0 = (x0 * a.cols)[: a.cols]
        b = a.apply(x0)
        x = solve(a, b)
        assert x is not None
        assert a.apply(x) == [Fraction(v) for v in b]

    def test_solve_inconsistent(self):
        a = SparseMatrix.from_rows([[1, 0], [1, 0]])
        assert solve(a, [1, 2]) is None


@st.composite
def sparse_matrices(draw, max_dim=5, square=False):
    """Small integer matrices, some rows and columns forced to zero."""
    nrows = draw(st.integers(0, max_dim))
    ncols = nrows if square else draw(st.integers(0, max_dim))
    zero_rows = draw(st.sets(st.integers(0, max_dim)))
    zero_cols = draw(st.sets(st.integers(0, max_dim)))
    entries = {
        (r, c): draw(st.integers(-3, 3))
        for r in range(nrows)
        for c in range(ncols)
        if r not in zero_rows and c not in zero_cols
    }
    return SparseMatrix(nrows, ncols, entries)


@st.composite
def invertible_matrices(draw, max_dim=5):
    """L·U with rows permuted: L unit lower and U upper triangular with a
    nonzero diagonal, small integer entries."""
    n = draw(st.integers(0, max_dim))
    entry = st.integers(-2, 2)
    lower = SparseMatrix(n, n, {
        (r, c): 1 if r == c else draw(entry) for r in range(n) for c in range(r + 1)
    })
    upper = SparseMatrix(n, n, {
        (r, c): draw(st.sampled_from([-2, -1, 1, 3])) if r == c else draw(entry)
        for r in range(n)
        for c in range(r, n)
    })
    perm = draw(st.permutations(range(n)))
    return SparseMatrix(n, n, {
        (perm[r], c): v for (r, c), v in (lower @ upper).entries.items()
    })


@st.composite
def systems(draw):
    """(A, b) with b either in the image of A or arbitrary (often inconsistent)."""
    a = draw(sparse_matrices())
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols))
        return a, a.apply(x0)
    return a, draw(st.lists(st.integers(-3, 3), min_size=a.rows, max_size=a.rows))


def _vectors(width):
    return st.lists(
        st.lists(st.integers(-2, 2), min_size=width, max_size=width), max_size=7
    )


def _ordered_subsets(n):
    """Distinct indices below n, in any order."""
    return st.permutations(range(n)).flatmap(
        lambda p: st.integers(0, n).map(lambda k: p[:k])
    )


class TestAgainstReference:
    """The sparse incremental kernel equals the dense Fraction RREF exactly."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_rank_and_kernel(self, a):
        assert rank(a) == oracles.rank(a)
        assert kernel_basis(a) == oracles.kernel_basis(a)

    @settings(max_examples=150, deadline=None)
    @given(systems())
    def test_solve(self, system):
        a, b = system
        assert solve(a, b) == oracles.solve(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(_vectors), st.randoms(use_true_random=False))
    def test_greedy_add_selects_reference_vectors(self, vectors, rng):
        width = len(vectors[0]) if vectors else 1
        span = Echelon(width)
        picked = [v for v in vectors if span.add(v)]
        expected = []
        for v in vectors:
            trial = SparseMatrix.from_rows(expected + [v])
            if oracles.rank(trial) > len(expected):
                expected.append(v)
        assert picked == expected
        assert len(span) == len(expected)
        # the stored rows are the RREF of the span, whatever the order of adds
        rref, pivots = oracles._rref(SparseMatrix(len(expected), width, {
            (i, j): v for i, row in enumerate(expected) for j, v in enumerate(row)
        }))
        reordered = Echelon(width)
        for v in rng.sample(vectors, len(vectors)):
            reordered.add(v)
        for form in (span, reordered):
            assert sorted(form.rows) == pivots
            for i, pc in enumerate(pivots):
                dense = [form.rows[pc].get(j, Fraction(0)) for j in range(width)]
                assert dense == rref[i]

    def test_reduce_leaves_nothing_of_the_span(self):
        span = Echelon(3)
        assert span.add([0, 2, 4]) and span.add([1, 1, 0])
        assert not span.add([2, 4, 4])
        assert span.reduce([1, 0, 0]) == {2: Fraction(2)}
        with pytest.raises(ValueError):
            span.add([1, 0])

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_restrict(self, a, data):
        rows = data.draw(_ordered_subsets(a.rows))
        cols = data.draw(_ordered_subsets(a.cols))
        sub = a.restrict(rows, cols)
        assert (sub.rows, sub.cols) == (len(rows), len(cols))
        assert sub.dense() == oracles.restrict(a, rows, cols)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(invertible_matrices(), sparse_matrices(square=True)))
    def test_inverse(self, a):
        n = a.rows
        if oracles.rank(a) < n:
            with pytest.raises(ArithmeticError):
                inverse(a)
            return
        inv = inverse(a)
        assert inv @ a == SparseMatrix.identity(n) == a @ inv
        for i in range(n):
            unit = [int(r == i) for r in range(n)]
            assert inv.apply(unit) == oracles.solve(a, unit)

    def test_inverse_of_a_singular_or_non_square_matrix(self):
        with pytest.raises(ArithmeticError):
            inverse(SparseMatrix.from_rows([[1, 2], [2, 4]]))
        with pytest.raises(ValueError):
            inverse(SparseMatrix.zeros(2, 3))

    def test_from_columns(self):
        columns = [[1, 0, 2], [0, 0, 0], [3, -1, 0]]
        assert SparseMatrix.from_columns(columns, 3) == (
            SparseMatrix.from_rows(columns).transpose()
        )
