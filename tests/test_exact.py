"""Exact rational linear algebra and Laurent polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from arckit import QPoly, SparseMatrix, kernel_basis, rank, solve
from arckit.exact import Echelon


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

    def test_equality_with_an_int_hash_and_repr(self):
        assert QPoly({0: 3}) == 3 and 3 == QPoly({0: 3}) and QPoly() == 0
        assert QPoly({1: 3}) != 3 and QPoly({0: 1}) != "1"
        assert hash(QPoly({2: 1, 0: 1})) == hash(QPoly({0: 1, 2: 1}))
        assert len({QPoly({1: 2}), QPoly({1: 1}) * 2, QPoly.zero(), QPoly()}) == 2
        assert repr(QPoly({2: -3, 0: 2, 1: 0})) == "QPoly({2: -3, 0: 2})"

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


matrix_strategy = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
        min_size=1,
        max_size=5,
    )
)


class TestSparseMatrix:
    def test_rank_known(self):
        a = oracles.from_rows([[1, 2], [2, 4], [0, 1]])
        assert rank(a) == 2
        assert rank(SparseMatrix.zeros(3, 4)) == 0
        assert rank(oracles.identity(5)) == 5

    def test_matmul_and_apply(self):
        a = oracles.from_rows([[1, 2], [3, 4]])
        b = oracles.from_rows([[0, 1], [1, 0]])
        assert oracles.dense_rows(a @ b) == [[2, 1], [4, 3]]
        assert oracles.apply(a, {0: 1, 1: 1}) == {0: 3, 1: 7}
        assert oracles.apply(a, {1: 1}) == oracles.apply(a, {0: 0, 1: 1}) == {0: 2, 1: 4}
        for bad in ({2: 0}, {0: 1, 1: 1, 2: 1}, {2: 1}, {-1: 1}):
            with pytest.raises(ValueError):
                oracles.apply(a, bad)

    @settings(max_examples=60, deadline=None)
    @given(matrix_strategy)
    def test_rank_nullity(self, rows):
        a = oracles.from_rows(rows)
        kernel = kernel_basis(a)
        assert rank(a) + len(kernel) == a.cols
        for vec in kernel:
            assert oracles.apply(a, vec) == {}

    @settings(max_examples=60, deadline=None)
    @given(matrix_strategy, st.lists(st.integers(-3, 3), min_size=1, max_size=5))
    def test_solve_consistent_system(self, rows, x0):
        a = oracles.from_rows(rows)
        x0 = oracles.sparse((x0 * a.cols)[: a.cols])
        b = oracles.apply(a, x0)
        x = solve(a, b)
        assert x is not None
        assert oracles.apply(a, x) == b

    def test_solve_inconsistent(self):
        a = oracles.from_rows([[1, 0], [1, 0]])
        assert solve(a, {0: 1, 1: 2}) is None
        for bad in ({2: 1}, {-1: 1}):
            with pytest.raises(ValueError):
                solve(a, bad)


#: Nonzero entries that are not ±1, so that the elimination has to divide.
_NON_UNIT = st.sampled_from([-3, -2, 0, 2, 3])


@st.composite
def sparse_matrices(draw, max_dim=5, entry=st.integers(-3, 3)):
    """Small integer matrices, some rows and columns forced to zero."""
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    zero_rows = draw(st.sets(st.integers(0, max_dim)))
    zero_cols = draw(st.sets(st.integers(0, max_dim)))
    entries = {
        (r, c): draw(entry)
        for r in range(nrows)
        for c in range(ncols)
        if r not in zero_rows and c not in zero_cols
    }
    return SparseMatrix(nrows, ncols, entries)


@st.composite
def invertible_matrices(draw, diagonal, max_dim=5):
    """L·U with rows permuted: L unit lower and U upper triangular with a
    nonzero diagonal, small integer entries."""
    n = draw(st.integers(0, max_dim))
    entry = st.integers(-2, 2)
    lower = SparseMatrix(n, n, {
        (r, c): 1 if r == c else draw(entry) for r in range(n) for c in range(r + 1)
    })
    upper = SparseMatrix(n, n, {
        (r, c): draw(diagonal) if r == c else draw(entry)
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
        return a, oracles.dense(oracles.apply(a, oracles.sparse(x0)), a.rows)
    return a, draw(st.lists(st.integers(-3, 3), min_size=a.rows, max_size=a.rows))


def _dense_solution(a, b):
    """``solve`` on a dense rhs, its answer written densely."""
    x = solve(a, oracles.sparse(b))
    return None if x is None else oracles.dense(x, a.cols)


def _vectors(width):
    return st.lists(
        st.lists(st.integers(-2, 2), min_size=width, max_size=width), max_size=7
    )


class TestAgainstReference:
    """The sparse incremental kernel equals the dense Fraction RREF exactly."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_rank_and_kernel(self, a):
        assert rank(a) == oracles.rank(a)
        kernel = [oracles.dense(vec, a.cols) for vec in kernel_basis(a)]
        assert kernel == oracles.kernel_basis(a)

    @settings(max_examples=150, deadline=None)
    @given(systems())
    def test_solve(self, system):
        a, b = system
        assert _dense_solution(a, b) == oracles.solve(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(_vectors), st.randoms(use_true_random=False))
    def test_greedy_add_selects_reference_vectors(self, vectors, rng):
        width = len(vectors[0]) if vectors else 1
        span = Echelon(width)
        picked = [v for v in vectors if span.add(oracles.sparse(v))]
        expected = []
        for v in vectors:
            trial = oracles.from_rows(expected + [v])
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
            reordered.add(oracles.sparse(v))
        for form in (span, reordered):
            assert sorted(form.rows) == pivots
            for i, pc in enumerate(pivots):
                dense = [form.rows[pc].get(j, Fraction(0)) for j in range(width)]
                assert dense == rref[i]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(_vectors))
    def test_tagged_pass_picks_like_add_and_tags_the_inverse(self, vectors):
        width = len(vectors[0]) if vectors else 3
        plain, tagged = Echelon(width), Echelon(width)
        picked = [v for v in vectors if plain.add(oracles.sparse(v))]
        assert [v for v in vectors if tagged.add_tagged(oracles.sparse(v))] == picked
        for pivot, row in tagged.rows.items():
            assert {c: v for c, v in row.items() if c < width} == plain.rows[pivot]
        # complete to a basis with unit vectors, as the splitting completes L
        units = [[int(r == i) for r in range(width)] for i in range(width)]
        picked += [u for u in units if tagged.add_tagged(oracles.sparse(u))]
        assert len(tagged) == width
        tags = SparseMatrix(width, width, {
            (p, c - width): v for p, row in tagged.rows.items() for c, v in row.items()
            if c >= width
        })
        a = oracles.from_rows(picked)
        assert tags @ a == oracles.identity(width)
        for i in range(width):
            unit = [int(r == i) for r in range(width)]
            column = oracles.dense(oracles.apply(oracles.transpose(tags), {i: 1}), width)
            assert column == oracles.solve(oracles.transpose(a), unit)

    def test_reduce_leaves_nothing_of_the_span(self):
        span = Echelon(3)
        assert span.add({1: 2, 2: 4}) and span.add({0: 1, 1: 1})
        assert not span.add({0: 2, 1: 4, 2: 4})
        assert span.reduce({0: 1}) == {2: Fraction(2)}
        for bad in ({3: 1}, {-1: 1}):
            with pytest.raises(ValueError):
                span.add(bad)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            sparse_matrices(entry=_NON_UNIT),
            invertible_matrices(diagonal=_NON_UNIT.filter(bool)),
        ),
        st.data(),
    )
    def test_int_input_with_non_unit_pivots_stays_exact(self, a, data):
        rows = Echelon.of_rows(a).rows
        rref, pivots = oracles._rref(a)
        assert sorted(rows) == pivots
        for i, pc in enumerate(pivots):
            assert [rows[pc].get(j, 0) for j in range(a.cols)] == rref[i]
            assert oracles.not_exact(rows[pc].values()) == []
        assert all(oracles.not_exact(vec.values()) == [] for vec in kernel_basis(a))
        b = data.draw(st.lists(st.integers(-3, 3), min_size=a.rows, max_size=a.rows))
        x = solve(a, oracles.sparse(b))
        assert _dense_solution(a, b) == oracles.solve(a, b)
        assert x is None or oracles.not_exact(x.values()) == []


def _well_formed(vec, length: int) -> list:
    """Check that ``vec`` is a sparse vector of the one format: a dict of
    nonzero values with increasing keys below ``length``; return it dense."""
    assert type(vec) is dict
    assert list(vec) == sorted(vec) and all(0 <= i < length for i in vec)
    assert all(v != 0 for v in vec.values())
    return oracles.dense(vec, length)


class TestVectorFormat:
    """Vectors leave the kernel as sparse dicts that equal the dense oracle."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_results_are_sorted_nonzero_dicts(self, a, data):
        kernel, want = kernel_basis(a), oracles.kernel_basis(a)
        assert len(kernel) == len(want)
        for vec, dense in zip(kernel, want):
            assert _well_formed(vec, a.cols) == dense
        x = data.draw(st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols))
        image = oracles.apply(a, oracles.sparse(x))
        assert _well_formed(image, a.rows) == [
            sum(v * y for v, y in zip(row, x)) for row in oracles.dense_rows(a)
        ]
        b = data.draw(st.lists(st.integers(-3, 3), min_size=a.rows, max_size=a.rows))
        got, want = solve(a, oracles.sparse(b)), oracles.solve(a, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert _well_formed(got, a.cols) == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(_vectors))
    def test_untagged_vectors_complete_a_tagged_span(self, vectors):
        # the splitting adds L untagged after B and H: the tags then hold
        # the inverse's columns of the tagged vectors alone
        width = len(vectors[0]) if vectors else 3
        tagged, mixed = Echelon(width), Echelon(width)
        picked = [v for v in vectors if tagged.add_tagged(oracles.sparse(v))]
        assert [v for v in vectors if mixed.add_tagged(oracles.sparse(v))] == picked
        units = [{i: 1} for i in range(width)]
        completed = [u for u in units if tagged.add_tagged(u)]
        assert [u for u in units if mixed.add(u)] == completed
        assert len(mixed) == width
        kept = width + len(picked)
        for pivot, row in mixed.rows.items():
            assert row == {c: v for c, v in tagged.rows[pivot].items() if c < kept}
        # a vector of the span is refused, though its remainder has tags
        assert not any(mixed.add(oracles.sparse(v)) for v in vectors)
