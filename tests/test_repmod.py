"""Graded decomposition numbers, Cartan matrices, combinatorial
Kazhdan-Lusztig polynomials and the graded cell/projective modules."""

import random

import pytest

from arckit import (
    AlgebraElement,
    QPoly,
    Weight,
    bruhat_leq,
    cartan_matrix,
    cell_module,
    decomposition_matrix,
    kl_poly_closed,
    kl_poly_recursive,
    multiply,
    projective_module,
    weights_in_block,
)
from arckit.arcalg import basis
from oracles import cell_action, kl_poly_at, projective_action

# blocks on which the fast paths are compared with their references
REFERENCE_BLOCKS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2)]


class TestKLPolynomials:
    def test_worked_example(self):
        lam = Weight.parse("vvvv^^")
        mu = Weight.parse("v^vv^v")
        expected = QPoly({4: 1, 2: 1})
        assert kl_poly_closed(lam, mu) == expected
        assert kl_poly_recursive(lam, mu) == expected

    @pytest.mark.parametrize("m,n", [(2, 1), (4, 1), (2, 2), (3, 2)])
    def test_closed_equals_recursive(self, m, n):
        ws = weights_in_block(m, n)
        for lam in ws:
            for mu in ws:
                assert kl_poly_closed(lam, mu) == kl_poly_recursive(lam, mu)

    def test_recursion_index_independence(self):
        ws = weights_in_block(3, 2)
        for lam in ws:
            indices = [i for i in range(len(lam) - 1) if lam.has_down_up_at(i)]
            if len(indices) < 2:
                continue
            for mu in ws:
                values = {str(kl_poly_at(lam, mu, i)) for i in indices}
                assert values == {str(kl_poly_recursive(lam, mu))}

    def test_diagonal_is_one(self):
        for w in weights_in_block(2, 2):
            assert kl_poly_closed(w, w) == QPoly.one()


class TestMatrices:
    @pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (2, 2)])
    def test_cartan_is_gram_of_decomposition(self, m, n):
        ws = weights_in_block(m, n)
        d = decomposition_matrix(m, n)
        c = cartan_matrix(m, n)
        for lam in ws:
            for mu in ws:
                gram = QPoly.zero()
                for nu in ws:
                    gram = gram + d.get((lam, nu), QPoly.zero()) * d.get(
                        (mu, nu), QPoly.zero()
                    )
                assert c.get((lam, mu), QPoly.zero()) == gram

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 2)])
    def test_cartan_degree_bound(self, m, n):
        for poly in cartan_matrix(m, n).values():
            assert poly.is_zero() or poly.degree() <= 2 * n

    def test_decomposition_unitriangular(self):
        ws = weights_in_block(2, 2)
        d = decomposition_matrix(2, 2)
        for lam in ws:
            assert d.get((lam, lam)) == QPoly.one()
            for mu in ws:
                poly = d.get((lam, mu))
                if poly is not None and not poly.is_zero():
                    assert bruhat_leq(lam, mu)


class TestModules:
    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
    def test_cell_module_graded_dimension(self, m, n):
        # grdim M(mu) is the mu-column of the decomposition matrix
        d = decomposition_matrix(m, n)
        for mu in weights_in_block(m, n):
            column = QPoly.zero()
            for lam in weights_in_block(m, n):
                column = column + d.get((lam, mu), QPoly.zero())
            assert cell_module(mu).graded_dimension() == column

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
    def test_projective_module_graded_dimension(self, m, n):
        # grdim P(lam) is the lam-row sum of the Cartan matrix
        c = cartan_matrix(m, n)
        for lam in weights_in_block(m, n):
            row = QPoly.zero()
            for mu in weights_in_block(m, n):
                row = row + c.get((lam, mu), QPoly.zero())
            assert projective_module(lam).graded_dimension() == row

    def test_actions_are_multiplicative(self):
        rng = random.Random(11)
        diagrams = basis(2, 2)
        modules = [cell_module(w) for w in weights_in_block(2, 2)]
        modules += [projective_module(w) for w in weights_in_block(2, 2)]
        for module in modules:
            for _ in range(20):
                x = AlgebraElement.from_diagram(rng.choice(diagrams))
                y = AlgebraElement.from_diagram(rng.choice(diagrams))
                assert module.act(x) @ module.act(y) == module.act(multiply(x, y))


def _action_items(action):
    """Keys in order, each with its entries in order."""
    return [(z, list(mat.entries.items())) for z, mat in action.items()]


class TestActionsAgainstReference:
    @pytest.mark.parametrize("m,n", REFERENCE_BLOCKS)
    def test_projective_and_cell_actions(self, m, n):
        for lam in weights_in_block(m, n):
            for module, (labels, action) in (
                (projective_module(lam), projective_action(lam)),
                (cell_module(lam), cell_action(lam)),
            ):
                assert list(module.labels) == labels
                assert _action_items(module.action) == _action_items(action)
