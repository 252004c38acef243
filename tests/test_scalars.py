"""The scalar convention: every coefficient the hot layers hand out is an
int, or a Fraction only when it is not integral, and never a float."""

from fractions import Fraction

import pytest

from arckit import (
    AlgebraElement,
    SparseMatrix,
    basis,
    cell_module,
    projective_module,
    resolve_cone,
    resolve_generic,
    weights_in_block,
)
from arckit.ainfty import composable_tuples
from arckit.exact import kernel_basis, rational
from arckit.extalg import _differential_matrix, _k_range, compose, identity_element
from oracles import apply, dense, from_rows, not_exact, transpose, vectorize


def _differential_coefficients(complex_):
    return [c for diff in complex_.differentials for u in diff.values() for _, c in u]


class TestRational:
    def test_normalises(self):
        assert type(rational(3)) is int
        assert type(rational(Fraction(6, 3))) is int and rational(Fraction(6, 3)) == 2
        assert rational(Fraction(1, 2)) == Fraction(1, 2)
        assert type(rational(True)) is int
        for bad in (0.5, 1.0, "1/2"):
            with pytest.raises(TypeError):
                rational(bad)

    def test_elements_and_matrices_normalise(self):
        d = basis(2, 1)[0]
        lam = weights_in_block(2, 1)[0]
        values = [
            *AlgebraElement({d: Fraction(4, 2)}).terms.values(),
            *(Fraction(1, 2) * AlgebraElement.from_diagram(d, 2)).terms.values(),
            *(Fraction(3, 3) * identity_element(lam)).coords.values(),
            *SparseMatrix(1, 2, {(0, 0): Fraction(-2, 2), (0, 1): 0}).entries.values(),
        ]
        assert values == [2, 1, 1, -1] and not_exact(values) == []
        for build in (
            lambda: AlgebraElement({d: 0.5}),
            lambda: 0.5 * identity_element(lam),
            lambda: SparseMatrix(1, 1, {(0, 0): 2.0}),
        ):
            with pytest.raises(TypeError):
                build()


class TestHotLayers:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
    def test_hom_differentials_and_their_kernels(self, m, n):
        ws = weights_in_block(m, n)
        for lam in ws:
            for mu in ws:
                for k in _k_range(lam, mu):
                    d = _differential_matrix(lam, mu, k)
                    assert not_exact(d.entries.values()) == [], (lam, mu, k)
                    for vec in kernel_basis(d):
                        assert not_exact(vec.values()) == [], (lam, mu, k)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
    def test_resolutions(self, m, n):
        for lam in weights_in_block(m, n):
            assert not_exact(_differential_coefficients(resolve_cone(lam))) == [], lam
            assert not_exact(_differential_coefficients(resolve_generic(lam))) == [], lam

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
    def test_module_actions(self, m, n):
        for lam in weights_in_block(m, n):
            for module in (projective_module(lam), cell_module(lam)):
                for matrix in module.action.values():
                    assert not_exact(matrix.entries.values()) == [], lam

    def test_splitting(self, split_32_canonical):
        split = split_32_canonical
        classes = split.all_h_classes()
        for lam in weights_in_block(*split.block):
            for mu in weights_in_block(*split.block):
                pair = split._pair(lam, mu)
                for k, data in pair.items():
                    assert not_exact(v for col in data.inverse for v in col.values()) == []
                    assert not_exact(v for vec in data.l_prev for v in vec.values()) == []
                    if data.space:
                        # the [B | H | L] matrix: B = d(L_{k-1}), H, and the
                        # L that the next degree keeps as its preimages
                        dim = len(data.space)
                        d_prev = _differential_matrix(lam, mu, k - 1)
                        columns = [dense(apply(d_prev, vec), dim) for vec in data.l_prev]
                        columns += [vectorize(c.element) for c in data.h_classes]
                        l_next = pair[k + 1].l_prev if k + 1 in pair else []
                        columns += [dense(vec, dim) for vec in l_next]
                        assert not_exact(v for col in columns for v in col) == []
                        matrix = transpose(from_rows(columns))
                        # the stored B and H rows of the inverse, times the
                        # matrix, are the B and H rows of the identity
                        kept = data.b_count + len(data.h_classes)
                        stored = SparseMatrix(kept, dim, {
                            (r, p): v
                            for p, col in enumerate(data.inverse)
                            for r, v in col.items()
                        })
                        assert stored @ matrix == SparseMatrix(
                            kept, dim, {(i, i): 1 for i in range(kept)}
                        )
        for chain in composable_tuples(classes, 2):
            product = compose(*chain)
            if product.is_zero():
                continue
            data = split._pair(product.source, product.target)[product.k]
            coords, _ = data.coordinates(product.coords)
            assert not_exact(coords.values()) == []
            assert not_exact(split.pi_coefficients(product).values()) == []
            assert not_exact(split.pi(product).coords.values()) == []
            assert not_exact(split.q(product).coords.values()) == []
        for chain in composable_tuples(classes, 3):
            assert not_exact(split.m_coefficients(chain).values()) == []
