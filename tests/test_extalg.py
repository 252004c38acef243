"""The Ext algebra of the direct sum of cell modules: dimensions,
labelled basis classes, the multiplication table, explicit homotopies
and quiver presentations."""

import random
from itertools import product as iproduct

import pytest

import oracles

from arckit import (
    Weight,
    ext_basis,
    ext_dims,
    shelton_dims,
    weights_in_block,
)
from arckit.extalg import (
    _differential_matrix,
    basis_hom_element,
    compose,
    construct_element,
    decompose,
    end_quiver,
    ext_quiver,
    _k_range,
    find_homotopy,
    hom_differential,
    hom_element,
    hom_space,
    homotopy_element,
    nullhomotopic_element,
    resolution,
    vectorize,
)
from tables import (
    MULT_TABLE,
    PRODUCT_LABELS,
    ext_dims_n1_closed,
    homotopy_in_range,
    in_range,
)


def _nonzero(d):
    return {k: v for k, v in d.items() if v}


class TestN1Dimensions:
    @pytest.mark.parametrize("N", [3, 4])
    def test_total_dimension(self, N):
        ws = weights_in_block(N, 1)
        total = sum(
            sum(ext_dims(lam, mu).values()) for lam in ws for mu in ws
        )
        assert total == (N + 1) ** 2

    @pytest.mark.parametrize("N", [3, 4])
    def test_closed_formula_and_recursion_agree(self, N):
        ws = weights_in_block(N, 1)
        for lam in ws:
            for mu in ws:
                closed = ext_dims_n1_closed(lam.to_j(), mu.to_j())
                assert ext_dims(lam, mu) == closed
                assert _nonzero(shelton_dims(lam, mu)) == closed


class TestN2Dimensions:
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_recursion_and_is_at_most_two(self, m):
        ws = weights_in_block(m, 2)
        for lam in ws:
            for mu in ws:
                dims = ext_dims(lam, mu)
                assert dims == _nonzero(shelton_dims(lam, mu))
                assert all(d <= 2 for d in dims.values())

    @pytest.mark.parametrize("m", [2, 3])
    def test_labelled_basis_matches_dimensions(self, m):
        ws = weights_in_block(m, 2)
        for lam in ws:
            for mu in ws:
                classes = ext_basis(lam, mu)
                by_k = {}
                for c in classes:
                    by_k[c.k] = by_k.get(c.k, 0) + 1
                assert by_k == ext_dims(lam, mu)
                generic = ext_basis(lam, mu, method="generic")
                assert len(generic) == len(classes)


class TestMultiplicationTable:
    def test_all_product_families(self):
        """Every in-range product of labelled classes on the (2|2) block
        matches the closed multiplication table, including signs."""
        ws = weights_in_block(2, 2)
        checked = 0
        for lam, mid, mu in iproduct(ws, repeat=3):
            n, m = lam.to_kl()
            k, l = mid.to_kl()
            a, b = mu.to_kl()
            basis_by_label = {c.label: c for c in ext_basis(lam, mu)}
            for xl, yl in iproduct(PRODUCT_LABELS, repeat=2):
                if not (in_range(xl, lam, mid) and in_range(yl, mid, mu)):
                    continue
                cell = MULT_TABLE[(xl, yl)]
                product = compose(
                    construct_element(xl, lam, mid),
                    construct_element(yl, mid, mu),
                )
                coeffs, _ = decompose(product)
                if cell is None:
                    expected = {}
                else:
                    exponent, result = cell
                    if result in ("A", "B") or (result == "J" and a <= m):
                        expected = {}
                    elif in_range(result, lam, mu) and result in basis_by_label:
                        target = basis_by_label[result]
                        sign = (-1) ** exponent(n, m, k, l, a, b)
                        expected = {(result, target.k, target.j): sign}
                    else:
                        continue  # degenerate corner: no basis class to hit
                assert coeffs == expected, (xl, yl, lam, mid, mu)
                checked += 1
        assert checked >= 150

    def test_nullhomotopic_products_have_homotopies(self):
        # products that are zero in the Ext algebra but not in hom admit
        # an explicit homotopy witness
        ws = weights_in_block(2, 2)
        witnessed = 0
        for lam, mu in iproduct(ws, repeat=2):
            for label in ("A", "B"):
                if in_range(label, lam, mu):
                    f = nullhomotopic_element(label, lam, mu)
                    if f.is_zero():
                        continue
                    h = find_homotopy(f)
                    assert h is not None
                    assert (hom_differential(h) - f).is_zero()
                    witnessed += 1
        assert witnessed > 0


class TestHomotopyRegressions:
    """The explicit homotopies hit their targets under the hom
    differential, exactly, across the (3|2) block."""

    def test_h_f_ftilde(self):
        ws = weights_in_block(3, 2)
        seen = 0
        for lam, mu in iproduct(ws, repeat=2):
            if not homotopy_in_range("H(F-Ftilde)", lam, mu):
                continue
            N, _ = lam.to_kl()
            _, B = mu.to_kl()
            h = homotopy_element("H(F-Ftilde)", lam, mu)
            f = construct_element("F", lam, mu)
            ftilde = construct_element("Ftilde", lam, mu)
            target = f - (-1) ** (N + B) * ftilde
            assert (hom_differential(h) - target).is_zero()
            seen += 1
        assert seen == 5

    @pytest.mark.parametrize(
        "h_label,t_label,expected_count",
        [("H(J)", "J", 15), ("H(A)", "A", 7), ("H(B)", "B", 6)],
    )
    def test_h_hits_target(self, h_label, t_label, expected_count):
        ws = weights_in_block(3, 2)
        seen = 0
        for lam, mu in iproduct(ws, repeat=2):
            if not (
                homotopy_in_range(h_label, lam, mu)
                and in_range(t_label, lam, mu)
            ):
                continue
            h = homotopy_element(h_label, lam, mu)
            target = construct_element(t_label, lam, mu)
            assert (hom_differential(h) - target).is_zero()
            seen += 1
        assert seen == expected_count


class TestCoordinates:
    def test_hom_element_inverts_vectorize(self):
        mixed = 0
        ws = weights_in_block(2, 2)
        for lam, mu in iproduct(ws, repeat=2):
            for k in _k_range(lam, mu):
                space = hom_space(lam, mu, k)
                shifts = sorted({v[4] for v in space})
                for j in shifts:
                    vec = [i + 1 if v[4] == j else 0 for i, v in enumerate(space)]
                    f = hom_element(lam, mu, k, vec)
                    assert f.j == j and vectorize(f) == vec
                    with pytest.raises(ValueError):
                        hom_element(lam, mu, k, vec + [1])
                if len(shifts) > 1:
                    with pytest.raises(ValueError):
                        hom_element(lam, mu, k, [1] * len(space))
                    mixed += 1
                zero = hom_element(lam, mu, k, [0] * len(space), j=3)
                assert zero.is_zero() and zero.j == 3
        assert mixed > 0


class TestFastPathsAgainstReference:
    """d and composition on coordinates equal the blockwise reference."""

    @pytest.mark.parametrize("block", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_differential_matrix(self, block):
        ws = weights_in_block(*block)
        for lam, mu in iproduct(ws, repeat=2):
            C, D = resolution(lam), resolution(mu)
            for k in _k_range(lam, mu):
                dom, cod = oracles._hom_space(C, D, k), oracles._hom_space(C, D, k + 1)
                want = oracles._dmatrix(C, D, k, dom, cod)
                assert _differential_matrix(lam, mu, k).entries == want.entries

    @staticmethod
    def _assert_matches(f, g):
        for x in (f, g):
            assert oracles.blocks(hom_differential(x)) == oracles.block_differential(x)
        product = compose(f, g)
        assert (product.k, product.j) == (f.k + g.k, f.j + g.j)
        assert oracles.blocks(product) == oracles.block_compose(f, g)
        return not product.is_zero()

    @pytest.mark.parametrize("block,method", [((2, 2), "auto"), ((3, 1), "generic")])
    def test_ext_class_pairs(self, block, method):
        ws = weights_in_block(*block)
        bases = {
            (a, b): ext_basis(a, b, method=method) for a, b in iproduct(ws, repeat=2)
        }
        nonzero = 0
        for lam, mid, mu in iproduct(ws, repeat=3):
            for f in bases[(lam, mid)]:
                for g in bases[(mid, mu)]:
                    nonzero += self._assert_matches(f.element, g.element)
        assert nonzero > 0

    def test_sampled_basis_vector_pairs(self):
        ws = weights_in_block(3, 2)
        rng = random.Random(7)

        def sample(lam, mu):
            k = rng.choice([k for k in _k_range(lam, mu) if hom_space(lam, mu, k)])
            return basis_hom_element(lam, mu, k, rng.choice(hom_space(lam, mu, k)))

        nonzero = 0
        for _ in range(300):
            lam, mid, mu = (rng.choice(ws) for _ in range(3))
            nonzero += self._assert_matches(sample(lam, mid), sample(mid, mu))
        assert nonzero > 0


class TestQuivers:
    def test_end_quiver_small_block(self):
        q = end_quiver(2, 1)
        assert len(q["vertices"]) == 3
        assert len(q["arrows"]) == 4
        # arrows connect neighbouring weights in both directions
        arrows = set(q["arrows"])
        assert all((b, a) in arrows for a, b in arrows)

    def test_ext_quiver_generators(self):
        q = ext_quiver(2, 2)
        assert len(q["vertices"]) == 6
        labels = {g[0] for g in q["generators"]}
        assert labels <= {"Id", "F", "Ftilde", "G", "K", "J"}
        for label, src, tgt, k, j in q["generators"]:
            assert src != tgt
            assert src.block == tgt.block == (2, 2)
        # relations record the decomposition of each composable pair of
        # generators over the labelled basis
        for g1, g2, coeffs in q["relations"]:
            assert g1[2] == g2[1]
            for (label, k, j), value in coeffs.items():
                assert value != 0
