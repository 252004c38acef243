"""End-to-end acceptance suite.

One test class per headline result: the worked Kazhdan-Lusztig example,
closed Ext dimensions, resolution shapes and signs, the multiplication
table, the explicit homotopies, the three vanishing theorems for the
A-infinity structure, the structural property suites, and the oracle
cross-checks between the two resolution constructions.
"""

import random
from collections import Counter
from itertools import product as iproduct

import pytest

from arckit import (
    AlgebraElement,
    QPoly,
    Weight,
    bruhat_leq,
    cartan_matrix,
    cell_module,
    decomposition_matrix,
    ext_basis,
    ext_dims,
    idempotent,
    kl_poly_closed,
    kl_poly_recursive,
    m_n,
    multiply,
    projective_module,
    resolve_cone,
    resolve_generic,
    shelton_dims,
    stasheff_check,
    vanishing_report,
    verify_resolution,
    weights_in_block,
)
from arckit.ainfty import composable_tuples
from arckit.arcalg import basis, basis_product, hom_basis
from arckit.extalg import (
    compose,
    construct_element,
    decompose,
    hom_differential,
    homotopy_element,
)
from arckit.resolve import _ab_type, expected_terms, sign_target_n1, sign_target_n2
from oracles import hom_cohomology, hom_windows_ok, surgery_product_reference
from tables import (
    FLAVOUR_TWINS,
    MULT_TABLE,
    NONZERO_FAMILIES,
    PATTERN_ROWS,
    PRODUCT_LABELS,
    ZERO_ROWS,
    chain_kls,
    ext_dims_n1_closed,
    homotopy_in_range,
    in_range,
)


def _nonzero(d):
    return {k: v for k, v in d.items() if v}


class TestCriterion01KLExample:
    """The worked example: p = q^4 + q^2, by both definitions."""

    def test_both_definitions(self):
        lam = Weight.parse("vvvv^^")
        mu = Weight.parse("v^vv^v")
        want = QPoly({4: 1, 2: 1})
        assert kl_poly_closed(lam, mu) == want
        assert kl_poly_recursive(lam, mu) == want


class TestCriterion02ExtDimensionsN1:
    """Total Ext dimension (N+1)^2 on one-cap blocks; per-pair dims
    match the closed formulas and the Shelton recursion."""

    @pytest.mark.parametrize("N", [3, 4])
    def test_totals_and_per_pair(self, N):
        ws = weights_in_block(N, 1)
        total = 0
        for lam in ws:
            for mu in ws:
                dims = ext_dims(lam, mu)
                assert dims == ext_dims_n1_closed(lam.to_j(), mu.to_j())
                assert dims == _nonzero(shelton_dims(lam, mu))
                total += sum(dims.values())
        assert total == (N + 1) ** 2


class TestCriterion03ResolutionsN1:
    """Staircase resolutions 0 -> P(0) -> ... -> P(j) -> 0 with the
    normalized sign pattern; the verifier passes for all j <= 4."""

    @pytest.mark.parametrize("m", [4])
    def test_shape_signs_and_verification(self, m):
        for j in range(m + 1):
            lam = Weight.from_j(m, j)
            c = resolve_cone(lam)
            assert len(c) == j + 1
            for i, comp in enumerate(c.components):
                assert [(str(w), shift) for w, shift in comp] == [
                    (str(Weight.from_j(m, j - i)), i)
                ]
            for i in range(1, len(c)):
                (src, _), (tgt, _) = c.components[i][0], c.components[i - 1][0]
                diagrams = [d for d in hom_basis(src, tgt) if d.degree == 1]
                assert len(diagrams) == 1
                want = sign_target_n1(lam, src, tgt) * AlgebraElement.from_diagram(
                    diagrams[0]
                )
                assert c.entry(i, 0, 0) == want
            assert verify_resolution(c, lam) == []


class TestCriterion04ResolutionsN2:
    """Two-cap resolutions: terms match the closed formula, all seven
    sign families occur, and every hom space fits its window."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_terms_match_closed_formula(self, m):
        for lam in weights_in_block(m, 2):
            c = resolve_cone(lam)
            want = expected_terms(lam)
            assert len(c.components) == len(want)
            for comp, expected in zip(c.components, want):
                assert Counter((str(w), s) for w, s in comp) == Counter(
                    (str(w), s) for w, s in expected
                )

    @pytest.mark.parametrize("m", [2, 3])
    def test_signs_follow_the_table(self, m):
        families = set()
        for lam in weights_in_block(m, 2):
            c = resolve_cone(lam)
            for i in range(1, len(c)):
                for s, t in c.differentials[i - 1]:
                    (src, _), (tgt, _) = c.components[i][s], c.components[i - 1][t]
                    ta, tb = _ab_type(lam, src, i), _ab_type(lam, tgt, i - 1)
                    diagrams = [d for d in hom_basis(src, tgt) if d.degree == 1]
                    assert len(diagrams) == 1
                    sign = sign_target_n2(lam, src, ta, tgt, tb)
                    assert c.entry(i, s, t) == sign * AlgebraElement.from_diagram(diagrams[0])
                    k1, l1 = src.to_kl()
                    k2, l2 = tgt.to_kl()
                    families.add((ta, tb, k2 - k1, l2 - l1))
        if m == 3:
            assert families == {
                ("A", "A", 1, 0),
                ("A", "A", 0, 1),
                ("B", "B", 1, 0),
                ("B", "B", 0, 1),
                ("A", "B", -1, 0),
                ("A", "B", 0, -1),
                ("B", "A", 1, 2),
            }

    @pytest.mark.parametrize("m", [2, 3])
    def test_hom_windows(self, m):
        ws = weights_in_block(m, 2)
        for lam in ws:
            for mu in ws:
                assert hom_windows_ok(lam, mu)


class TestCriterion05ExtDimensionsN2:
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_recursion_with_dims_at_most_two(self, m):
        ws = weights_in_block(m, 2)
        for lam in ws:
            for mu in ws:
                dims = ext_dims(lam, mu)
                assert dims == _nonzero(shelton_dims(lam, mu))
                assert all(d <= 2 for d in dims.values())


class TestCriterion06MultiplicationTable:
    """All 36 product families of labelled classes on the (2|2) block:
    zero/nonzero pattern exact; fixed signs exact."""

    def test_table(self):
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
                        continue
                assert coeffs == expected, (xl, yl, lam, mid, mu)
                checked += 1
        assert checked >= 150


class TestCriterion07HomotopyRegressions:
    """The explicit homotopy elements hit their targets under the hom
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
            target = construct_element("F", lam, mu) - (-1) ** (
                N + B
            ) * construct_element("Ftilde", lam, mu)
            assert (hom_differential(h) - target).is_zero()
            seen += 1
        assert seen == 5

    @pytest.mark.parametrize(
        "h_label,t_label,count", [("H(J)", "J", 15), ("H(A)", "A", 7), ("H(B)", "B", 6)]
    )
    def test_h_hits_target(self, h_label, t_label, count):
        ws = weights_in_block(3, 2)
        seen = 0
        for lam, mu in iproduct(ws, repeat=2):
            if not (
                homotopy_in_range(h_label, lam, mu) and in_range(t_label, lam, mu)
            ):
                continue
            h = homotopy_element(h_label, lam, mu)
            target = construct_element(t_label, lam, mu)
            assert (hom_differential(h) - target).is_zero()
            seen += 1
        assert seen == count


class TestCriterion08FirstVanishing:
    """One-cap blocks are intrinsically formal: m_k = 0 for 3 <= k <= 6,
    and the homotopy kills every basis product outright."""

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_higher_products_vanish(self, N, request):
        split = request.getfixturevalue(f"split_{N}1_generic")
        report = vanishing_report(split, 6)
        assert report["q_lambda2_zero"]  # Q(a.b) = 0 for all basis pairs
        for arity in range(3, 7):
            assert report["per_arity"][arity]["nonzero_tuples"] == []


class TestCriterion09SecondVanishing:
    """Two-cap blocks with the canonical homotopy: Q(lambda_3) = 0,
    Q(lambda_2).Q(lambda_2) = 0, m_3 matches the closed pattern, and
    m_4 = m_5 = 0."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_report(self, m, request):
        split = request.getfixturevalue(f"split_{m}2_canonical")
        report = vanishing_report(split, 5)
        assert report["q_lambda3_zero"]
        assert report["q_lambda2_products_zero"]
        assert report["per_arity"][3]["nonzero_tuples"] != []
        assert report["per_arity"][3]["max_abs_coefficient"] == 1
        assert report["per_arity"][4]["nonzero_tuples"] == []
        assert report["per_arity"][5]["nonzero_tuples"] == []

    @pytest.mark.parametrize("m", [2, 3])
    def test_zero_pattern_rows_vanish(self, m, request):
        split = request.getfixturevalue(f"split_{m}2_canonical")
        checked = 0
        for chain in composable_tuples(split.all_h_classes(), 3):
            coeffs = split.m_coefficients(chain)
            labels = tuple(c.label for c in chain)
            vals = chain_kls(chain)
            if any(labels == row and cond(*vals) for row, cond in ZERO_ROWS):
                assert coeffs == {}
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_nonzero_m3_families(self, m, request):
        split = request.getfixturevalue(f"split_{m}2_canonical")
        observed = {}
        for chain in composable_tuples(split.all_h_classes(), 3):
            coeffs = split.m_coefficients(chain)
            if not coeffs:
                continue
            assert len(coeffs) == 1
            ((label, _, _, _), value), = coeffs.items()
            assert label in ("G", "K")
            assert abs(value) == 1
            key = (tuple(c.label for c in chain), label)
            observed[key] = observed.get(key, 0) + 1
        assert observed == NONZERO_FAMILIES[(m, 2)]

    def test_every_reachable_pattern_row_fires(self, split_32_canonical):
        nonzero_labels = set()
        for chain in composable_tuples(split_32_canonical.all_h_classes(), 3):
            coeffs = split_32_canonical.m_coefficients(chain)
            if coeffs:
                ((label, _, _, _), _), = coeffs.items()
                nonzero_labels.add((tuple(c.label for c in chain), label))
        for row, _, result in PATTERN_ROWS:
            realized = (
                row if (row, result) in nonzero_labels else FLAVOUR_TWINS.get(row)
            )
            assert realized is not None, row
            assert (realized, result) in nonzero_labels, row


class TestCriterion10GeneralVanishing:
    """m_l = 0 for l > 6, checked to arity 8 on composable chains in
    generic mode."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_no_nondegenerate_chains_past_the_bound(self, m, request):
        split = request.getfixturevalue(f"split_{m}2_generic")
        classes = split.all_h_classes(include_idempotents=False)
        for arity in (7, 8):
            assert composable_tuples(classes, arity) == []

    @pytest.mark.parametrize("arity,samples,seed", [(7, 25, 20240823), (8, 10, 7)])
    def test_idempotent_padded_chains_vanish(
        self, arity, samples, seed, split_22_generic
    ):
        split = split_22_generic
        classes = split.all_h_classes(include_idempotents=True)
        chains = composable_tuples(classes, arity)
        assert chains
        rng = random.Random(seed)
        for chain in rng.sample(chains, samples):
            assert m_n(split, chain).is_zero()


class TestCriterion11PropertySuites:
    def test_surgery_associativity_exhaustive_small(self):
        els = [AlgebraElement.from_diagram(d) for d in basis(2, 1)]
        for x in els:
            for y in els:
                xy = multiply(x, y)
                for z in els:
                    assert multiply(xy, z) == multiply(x, multiply(y, z))

    def test_surgery_associativity_sampled_large(self):
        els = [AlgebraElement.from_diagram(d) for d in basis(3, 2)]
        rng = random.Random(20240817)
        for _ in range(150):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    def test_surgery_order_independence(self):
        # every stacked pair of (2|3) with a choice of cut; test_arcalg
        # covers (2|2) and (3|2)
        rng = random.Random(5)
        bs = basis(2, 3)
        for d1, d2 in iproduct(bs, bs):
            if d1.cap != d2.cup.mirror() or len(d1.cap.cups) < 2:
                continue
            reference = basis_product(d1, d2)
            for picker in (lambda pairs: pairs[-1], rng.choice):
                direct = surgery_product_reference(
                    d1.cup, d1.weight, d1.cap, d2.weight, d2.cap, picker
                )
                assert AlgebraElement(dict(direct)) == reference

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
    def test_idempotent_completeness(self, m, n):
        ws = weights_in_block(m, n)
        for d in basis(m, n):
            x = AlgebraElement.from_diagram(d)
            left = sum(
                (multiply(idempotent(w), x) for w in ws),
                start=AlgebraElement.zero(),
            )
            right = sum(
                (multiply(x, idempotent(w)) for w in ws),
                start=AlgebraElement.zero(),
            )
            assert left == x == right

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 2)])
    def test_cartan_is_the_gram_matrix_of_decomposition(self, m, n):
        d = decomposition_matrix(m, n)
        c = cartan_matrix(m, n)
        ws = weights_in_block(m, n)
        for lam in ws:
            for mu in ws:
                want = QPoly.zero()
                for nu in ws:
                    want = want + d.get((lam, nu), QPoly.zero()) * d.get(
                        (mu, nu), QPoly.zero()
                    )
                assert c.get((lam, mu), QPoly.zero()) == want

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 2)])
    def test_cartan_degree_bound(self, m, n):
        for poly in cartan_matrix(m, n).values():
            assert poly.degree() <= 2 * n

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
    def test_decomposition_is_bruhat_unitriangular(self, m, n):
        d = decomposition_matrix(m, n)
        for lam in weights_in_block(m, n):
            assert d.get((lam, lam)) == QPoly.one()
        for (lam, mu), poly in d.items():
            if not poly.is_zero():
                assert bruhat_leq(lam, mu)

    @pytest.mark.parametrize("m,n", [(4, 1), (2, 2), (3, 2)])
    def test_every_resolution_is_exact(self, m, n):
        for lam in weights_in_block(m, n):
            assert verify_resolution(resolve_cone(lam), lam) == []

    @pytest.mark.parametrize(
        "fixture",
        ["split_21_generic", "split_31_generic", "split_22_canonical", "split_22_generic"],
    )
    def test_stasheff_identities_to_arity_five(self, fixture, request):
        split = request.getfixturevalue(fixture)
        report = stasheff_check(split, 5)
        assert report["violations"] == []
        assert report["checked"] > 0


class TestCriterion12OracleEquivalence:
    @pytest.mark.parametrize("m,n", [(3, 1), (2, 2)])
    def test_cone_and_generic_agree_termwise(self, m, n):
        for lam in weights_in_block(m, n):
            cone = resolve_cone(lam)
            gen = resolve_generic(lam)
            assert len(cone) == len(gen)
            for a, b in zip(cone.components, gen.components):
                assert Counter((str(w), s) for w, s in a) == Counter(
                    (str(w), s) for w, s in b
                )

    @pytest.mark.parametrize("m,n", [(3, 1), (2, 2)])
    def test_hom_complex_cohomology_matches_ext(self, m, n):
        ws = weights_in_block(m, n)
        gen = {w: resolve_generic(w) for w in ws}
        for lam in ws:
            for mu in ws:
                assert hom_cohomology(gen[lam], gen[mu]) == ext_dims(lam, mu)
