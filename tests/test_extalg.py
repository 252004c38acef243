"""The Ext algebra of the direct sum of cell modules: dimensions,
labelled basis classes, the multiplication table, explicit homotopies
and quiver presentations."""

import hashlib
import random
from collections import Counter
from itertools import product as iproduct

import pytest

import oracles

from arckit import extalg, resolve
from arckit import (
    Weight,
    bruhat_leq,
    cell_module,
    ext_basis,
    ext_dims,
    ext_quiver,
    resolve_generic,
    shelton_dims,
    solve,
    weights_in_block,
)
from arckit.ainfty import Splitting, composable_tuples
from arckit.extalg import (
    basis_hom_element,
    compose,
    construct_element,
    end_quiver,
    _k_range,
    _split_pair,
    hom_differential,
    hom_element,
    hom_space,
    homotopy_element,
    resolution,
)
from oracles import decompose, differential_matrix
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

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_closed_formula_and_recursion_agree(self, N):
        ws = weights_in_block(N, 1)
        for lam in ws:
            for mu in ws:
                closed = ext_dims_n1_closed(lam.to_j(), mu.to_j())
                assert ext_dims(lam, mu) == closed
                assert _nonzero(shelton_dims(lam, mu)) == closed


class TestN1LabelledBasis:
    """On an n = 1 block the labelled basis from λ to μ, d = j(λ) − j(μ),
    is Id in bidegree (d, d), with F in (d − 1, d − 2) when d > 0."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_labels_bigrades_and_counts(self, m):
        ws = weights_in_block(m, 1)
        for lam, mu in iproduct(ws, repeat=2):
            d = lam.to_j() - mu.to_j()
            expected = [] if d < 0 else [("Id", d, d)]
            if d > 0:
                expected.append(("F", d - 1, d - 2))
            classes = ext_basis(lam, mu)
            assert sorted((c.label, c.k, c.j) for c in classes) == sorted(expected)
            counts = dict(Counter(c.k for c in classes))
            generic = dict(Counter(c.k for c in ext_basis(lam, mu, method="generic")))
            assert counts == _nonzero(shelton_dims(lam, mu)) == generic

    def test_unknown_method_is_rejected(self):
        # any method but "generic" used to select the labelled basis
        lam, mu = Weight.parse("vvv^"), Weight.parse("^vvv")
        with pytest.raises(ValueError, match="'auto' or 'generic'"):
            ext_basis(lam, mu, method="generci")


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


class TestLabelTable:
    """extalg's table of the n = 2 labelled classes against the defining
    ranges written out independently in tests/tables.py."""

    def test_labels(self):
        assert extalg.BASIS_LABELS == tuple(PRODUCT_LABELS)
        homotopies = ("H(F-Ftilde)", "H(J)", "H(A)", "H(B)")
        assert set(extalg._N2_CLASSES) == {*PRODUCT_LABELS, "A", "B", *homotopies}

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_ranges_match_the_reference(self, m):
        ws = weights_in_block(m, 2)
        for label in extalg._N2_CLASSES:
            reference = homotopy_in_range if label.startswith("H(") else in_range
            for lam, mu in iproduct(ws, repeat=2):
                got = extalg.in_range(label, lam, mu)
                assert got == reference(label, lam, mu), (label, lam, mu)

    def test_built_elements_have_the_table_bigrade(self):
        """F, F̃, G, K, J, B and H(F−F̃) are built as composites, so their
        bigrades come from the factors', not from the table."""
        ws = weights_in_block(3, 2)
        built = 0
        for label in extalg._N2_CLASSES:
            for lam, mu in iproduct(ws, repeat=2):
                if lam == mu or not extalg.in_range(label, lam, mu):
                    continue
                f = construct_element(label, lam, mu)
                if not f.is_zero():
                    built += 1
                    assert (f.k, f.j) == extalg._bigrade(label, lam, mu), (label, lam, mu)
        assert built > 100


class TestMultiplicationTable:
    def test_all_product_families(self):
        """Every in-range product of labelled classes on the (2|2) block
        matches the closed multiplication table, including signs."""
        ws = weights_in_block(2, 2)
        # each pair's classes once: decompose with no class list splits again
        bases = {(lam, mu): ext_basis(lam, mu) for lam, mu in iproduct(ws, repeat=2)}
        checked = 0
        for lam, mid, mu in iproduct(ws, repeat=3):
            n, m = lam.to_kl()
            k, l = mid.to_kl()
            a, b = mu.to_kl()
            # decompose keys a class by (label, k, j, place among the degree-k classes)
            classes = bases[(lam, mu)]
            key_of = {
                c.label: (c.label, c.k, c.j, [x.k for x in classes[:i]].count(c.k))
                for i, c in enumerate(classes)
            }
            for xl, yl in iproduct(PRODUCT_LABELS, repeat=2):
                if not (in_range(xl, lam, mid) and in_range(yl, mid, mu)):
                    continue
                cell = MULT_TABLE[(xl, yl)]
                product = compose(
                    construct_element(xl, lam, mid),
                    construct_element(yl, mid, mu),
                )
                coeffs, _ = decompose(product, classes)
                if not checked:  # the default class list is the same ext_basis
                    assert decompose(product)[0] == coeffs
                if cell is None:
                    expected = {}
                else:
                    exponent, result = cell
                    if result in ("A", "B") or (result == "J" and a <= m):
                        expected = {}
                    elif in_range(result, lam, mu) and result in key_of:
                        sign = (-1) ** exponent(n, m, k, l, a, b)
                        expected = {key_of[result]: sign}
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
                    f = oracles.nullhomotopic_element(label, lam, mu)
                    if f.is_zero():
                        continue
                    h = oracles.find_homotopy(f)
                    assert h is not None
                    assert (hom_differential(h) - f).is_zero()
                    witnessed += 1
        assert witnessed > 0

    def test_find_homotopy_of_zero_and_of_a_class(self):
        # f = 0 has the zero homotopy of bidegree (k - 1, j); a basis class
        # is a cocycle but no coboundary, so it has none
        ws = weights_in_block(2, 2)
        tried = 0
        for lam, mu in iproduct(ws, repeat=2):
            for c in ext_basis(lam, mu):
                zero = extalg.zero_hom(lam, mu, c.k, c.j)
                assert oracles.find_homotopy(zero) == extalg.zero_hom(lam, mu, c.k - 1, c.j)
                assert oracles.find_homotopy(c.element) is None
                tried += 1
        assert tried > 20


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
                    f = hom_element(lam, mu, k, oracles.sparse(vec))
                    assert f.j == j and oracles.vectorize(f) == vec
                    with pytest.raises(ValueError):
                        hom_element(lam, mu, k, oracles.sparse(vec + [1]))
                if len(shifts) > 1:
                    with pytest.raises(ValueError):
                        hom_element(lam, mu, k, oracles.sparse([1] * len(space)))
                    mixed += 1
                zero = hom_element(lam, mu, k, {}, j=3)
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
                assert differential_matrix(lam, mu, k).entries == want.entries

    def test_differential_reads_the_support_columns_alone(self, monkeypatch):
        asked, original = [], extalg._d_columns

        def recorded(lam, mu, k, cols):
            asked.append(list(cols))
            return original(lam, mu, k, cols)

        monkeypatch.setattr(extalg, "_d_columns", recorded)
        lam = mu = weights_in_block(3, 2)[9]  # the pair of (3|2) with the largest hom spaces
        moved = 0
        for k in _k_range(lam, mu):
            space = hom_space(lam, mu, k)
            j = Counter(vector[4] for vector in space).most_common(1)[0][0] if space else 0
            # every other basis vector of the commonest shift, with assorted coefficients
            support = [i for i, vector in enumerate(space) if vector[4] == j][::2]
            f = hom_element(lam, mu, k, {i: 1 + i % 3 for i in support}, j)
            asked.clear()
            d_f = hom_differential(f)
            assert asked == [list(f.coords)]
            full = differential_matrix(lam, mu, k)
            assert d_f.coords == oracles.apply(full, f.coords)
            moved += not d_f.is_zero() and len(f.coords) > 1
        assert moved

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


class TestBlock42:
    def test_ext_dims_match_the_recursion(self):
        ws = weights_in_block(4, 2)
        for lam, mu in iproduct(ws, repeat=2):
            assert ext_dims(lam, mu) == _nonzero(shelton_dims(lam, mu))

    def test_each_differential_is_ranked_once(self, monkeypatch):
        """ext_dims ranks Hom(P_•(λ), M(μ)): it builds no hom-complex
        matrix and no hom space, and ranks each d of the resolution at
        most once."""
        ranked = []
        real_rank = extalg.rank

        def forbidden(*args):
            raise AssertionError("ext_dims went through the hom complex")

        def counting(matrix):
            ranked.append(matrix)
            return real_rank(matrix)

        monkeypatch.setattr(extalg, "_d_columns", forbidden)
        monkeypatch.setattr(extalg, "hom_space", forbidden)
        monkeypatch.setattr(extalg, "rank", counting)
        ws = weights_in_block(4, 2)
        for lam, mu in iproduct(ws, repeat=2):
            ranked.clear()
            ext_dims(lam, mu)
            assert len(ranked) <= len(resolution(lam).components) - 1

    def test_only_differentials_with_an_entry_are_ranked(self, monkeypatch):
        """A count no timing noise moves: the 225 ext_dims calls on (4|2)
        rank 30 matrices, each with an entry; a differential without one
        has rank 0 and is not ranked."""
        ranked = []
        real_rank = extalg.rank

        def counting(matrix):
            ranked.append(matrix)
            return real_rank(matrix)

        monkeypatch.setattr(extalg, "rank", counting)
        for lam, mu in iproduct(weights_in_block(4, 2), repeat=2):
            ext_dims(lam, mu)
        assert len(ranked) == 30
        assert not any(matrix.is_zero() for matrix in ranked)


class TestSmallComplex:
    """ext_dims ranks Hom(P_•(λ), M(μ)), one coordinate per summand; the
    references rank the whole hom complex, take another resolution of
    M(λ), or recurse on weights alone."""

    @pytest.mark.parametrize("block", [(2, 2), (3, 1), (3, 2), (2, 3), (4, 2)])
    def test_equals_the_hom_complex_count(self, block):
        ws = weights_in_block(*block)
        for lam, mu in iproduct(ws, repeat=2):
            assert ext_dims(lam, mu) == oracles.ext_dims_hom_complex(lam, mu)

    @pytest.mark.parametrize("block", [(3, 2), (2, 3), (4, 2)])
    def test_the_generic_resolution_gives_the_same_dims(self, block):
        ws = weights_in_block(*block)
        for lam in ws:
            generic = resolve_generic(lam)
            for mu in ws:
                dims = extalg._hom_into_module_dims(generic, mu)
                assert dims == ext_dims(lam, mu)

    @pytest.mark.parametrize("block", [(3, 1), (2, 2), (3, 2), (4, 2)])
    def test_the_signs_resolution_fixes_change_no_dim(self, block):
        # ext_dims reads the cone before resolution() rescales its summands
        ws = weights_in_block(*block)
        for lam, mu in iproduct(ws, repeat=2):
            dims = extalg._hom_into_module_dims(resolve._resolve_cone_raw(lam), mu)
            assert dims == extalg._hom_into_module_dims(extalg.resolution(lam), mu)

    @pytest.mark.parametrize("block", [(2, 2), (3, 2), (2, 3), (4, 2)])
    def test_equals_the_count_over_the_action_matrices(self, block):
        ws = weights_in_block(*block)
        for lam, mu in iproduct(ws, repeat=2):
            assert ext_dims(lam, mu) == oracles.hom_into_module_dims_reference(
                extalg.resolution(lam), cell_module(mu)
            )

    @pytest.mark.parametrize("block", [(3, 3), (4, 3), (2, 4)])
    def test_matches_the_recursion_on_larger_blocks(self, block):
        ws = weights_in_block(*block)
        for lam, mu in iproduct(ws, repeat=2):
            assert ext_dims(lam, mu) == _nonzero(shelton_dims(lam, mu))

    def test_different_blocks_are_rejected(self):
        with pytest.raises(ValueError):
            ext_dims(weights_in_block(2, 1)[0], weights_in_block(1, 2)[0])


# sha256 of every ext_basis class of these blocks, both methods, recorded
# while the labelled and the generic choice were still two code paths
EXT_BASIS_BLOCKS = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]
EXT_BASIS_DIGEST = "db431b4517f82a7ef81a599ef979f411e45cc5ea54fc05cc99f17325e60530ec"


class TestExtBasisPinned:
    def test_every_class_is_unchanged(self):
        digest = hashlib.sha256()
        for m, n in EXT_BASIS_BLOCKS:
            weights = weights_in_block(m, n)
            for method in ("auto", "generic"):
                for lam in weights:
                    for mu in weights:
                        for c in ext_basis(lam, mu, method):
                            coords = sorted(c.element.coords.items())
                            digest.update(
                                f"{m}{n}{method}{lam}{mu}{c.label}{c.k}{c.j}{coords}\n".encode()
                            )
        assert digest.hexdigest() == EXT_BASIS_DIGEST


class TestDecompose:
    def test_classes_of_another_pair_are_refused(self):
        # the Id class of (^v^vv, ^^vvv) has bigrade (1, 1), as does Ftilde
        # of (^vv^v, ^^vvv): read as coordinates of the wrong hom space, the
        # one would decompose as the other
        source, other, target = (Weight.parse(w) for w in ("^v^vv", "^vv^v", "^^vvv"))
        (f,) = [c.element for c in ext_basis(source, target) if c.label == "Id"]
        with pytest.raises(ValueError, match="outside hom"):
            decompose(f, ext_basis(other, target))
        assert decompose(f, ext_basis(source, target))[0] == {("Id", 1, 1, 0): 1}

    def test_classes_of_one_bigrade_keep_their_coefficients(self):
        # both degree-1 classes of (^v^v^, ^^v^v) are generic with j = 0
        lam, mu = Weight.parse("^v^v^"), Weight.parse("^^v^v")
        classes = ext_basis(lam, mu)
        c0, c1 = [c for c in classes if c.k == 1]
        assert (c0.label, c0.j) == (c1.label, c1.j) == ("generic", 0)
        coeffs, _ = decompose(c0.element + c1.element, classes)
        assert coeffs == {("generic", 1, 0, 0): 1, ("generic", 1, 0, 1): 1}


class TestNoClassesUnlessLambdaBelowMu:
    """Ext(M(λ), M(μ)) = 0 unless λ ≤ μ: the pair split that ``ext_basis``
    and the splitting skip there finds no class in any degree."""

    @pytest.mark.parametrize("m,n", [(3, 2), (2, 3)])
    def test_every_degree_has_no_class(self, m, n):
        weights = weights_in_block(m, n)
        pairs = [(lam, mu) for lam in weights for mu in weights if not bruhat_leq(lam, mu)]
        assert pairs
        for lam, mu in pairs:
            assert ext_basis(lam, mu) == ext_basis(lam, mu, "generic") == []
            split = _split_pair(lam, mu, None, {})
            assert list(split) == list(_k_range(lam, mu))
            assert [k for k, data in split.items() if data.h_classes] == []


class TestProductsReadOffTheSplit:
    """``ext_quiver`` reads the product of two classes as m_2 off the
    splitting's memo, the H rows of its pair split's inverse; the reference
    is a fresh ``decompose`` solve of the same product over the same classes."""

    @pytest.mark.parametrize(
        "m,n,mode",
        [
            (2, 2, "canonical-n2"),
            (2, 2, "generic"),
            (3, 2, "canonical-n2"),
            (3, 2, "generic"),
            (2, 3, "generic"),
            (3, 1, "canonical-n2"),
        ],
    )
    def test_coefficients_equal_the_solve(self, m, n, mode):
        split = Splitting(m, n, mode)
        products = nonzero = 0
        for f, g in composable_tuples(split.all_h_classes(include_idempotents=False), 2):
            product = compose(f, g)
            # reading Π raises for no product outside B ⊕ H, so the cocycle
            # condition is checked here
            assert hom_differential(product).is_zero()
            want = decompose(product, split.h_classes(f.source, g.target))[0]
            assert split.m_coefficients((f, g)) == want
            products += 1
            nonzero += bool(want)
        assert products and nonzero


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
            for (label, k, j, position), value in coeffs.items():
                assert value != 0

    def test_ext_quiver_relations_keep_every_term(self):
        # (2|3) has generic classes of one (label, k, j) in one hom space: each
        # relation value, read back over the classes at its positions, must
        # leave a coboundary of the product
        q = ext_quiver(2, 3)
        generators = []
        for label, s, t, k, j in q["generators"]:
            (c,) = [c for c in ext_basis(s, t) if (c.label, c.k, c.j) == (label, k, j)]
            generators.append(c)
        pairs = [(f, g) for f in generators for g in generators if f.target == g.source]
        assert len(pairs) == len(q["relations"])
        sizes = Counter()
        for (f, g), (_, _, value) in zip(pairs, q["relations"]):
            rest = compose(f.element, g.element)
            classes = [c for c in ext_basis(f.source, g.target) if c.k == rest.k]
            for (label, k, j, position), v in value.items():
                assert (classes[position].label, classes[position].j) == (label, j)
                rest = rest - v * classes[position].element
            d = differential_matrix(f.source, g.target, rest.k - 1)
            assert solve(d, rest.coords) is not None
            sizes[len(value)] += 1
        assert sizes == {0: 11, 1: 51, 2: 6}
