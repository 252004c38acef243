"""The minimal A-infinity model on the Ext algebra: splitting axioms,
higher products, vanishing theorems and Stasheff identities."""

import random

import pytest

import oracles
from arckit import (
    build_splitting,
    lambda_n,
    m_n,
    stasheff_check,
    vanishing_report,
    weights_in_block,
)
from arckit.ainfty import (
    _class_key,
    composable_tuples,
    lambda_degree_bound_holds,
)
from arckit.exact import SparseMatrix, solve
from arckit.extalg import (
    _differential_matrix,
    basis_hom_element,
    compose,
    vectorize,
)
from tables import (
    FLAVOUR_TWINS,
    NONZERO_FAMILIES,
    PATTERN_ROWS,
    ZERO_ROWS,
    chain_kls,
)


class TestSplittingAxioms:
    def test_generic_splitting_identity(self, split_21_generic):
        # 1 - Pi = dQ + Qd on every bigraded hom piece
        ws = weights_in_block(2, 1)
        for lam in ws:
            for mu in ws:
                split_21_generic.verify(lam, mu)

    def test_canonical_splitting_identity(self, split_22_canonical):
        ws = weights_in_block(2, 2)
        for lam in ws:
            for mu in ws:
                split_22_canonical.verify(lam, mu)

    def test_pi_q_compose_to_zero(self, split_22_canonical):
        split = split_22_canonical
        for a1, a2 in composable_tuples(split.all_h_classes(), 2)[:40]:
            q = split.q(compose(a1, a2))
            if not q.is_zero():
                assert split.pi(q).is_zero()


def _splitting_matrix(split, lam, mu, k):
    """The [B | H | L] matrix of hom^k(λ, μ), rebuilt from the splitting:
    B = d(L-basis of hom^{k-1}), H the classes, L the preimages kept for
    hom^{k+1}."""
    pair = split._pair(lam, mu)
    data = pair[k]
    b_cols = [_differential_matrix(lam, mu, k - 1).apply(v) for v in data.l_prev]
    h_cols = [vectorize(c.element) for c in data.h_classes]
    l_cols = pair[k + 1].l_prev if k + 1 in pair else []
    columns = b_cols + h_cols + l_cols
    assert len(columns) == len(data.space)
    return SparseMatrix.from_columns(columns, len(data.space))


class TestCoordinates:
    @pytest.mark.parametrize("fixture", ["split_22_canonical", "split_31_generic"])
    def test_factored_coordinates_equal_solve(self, fixture, request):
        # Π and Q read coordinates from the stored inverse; an invertible
        # system has one solution, so they are exactly solve's
        split = request.getfixturevalue(fixture)
        ws = weights_in_block(*split.block)
        checked = 0
        for lam in ws:
            for mu in ws:
                for k, data in split._pair(lam, mu).items():
                    if not data.space:
                        continue
                    matrix = _splitting_matrix(split, lam, mu, k)
                    for vector in data.space:
                        f = basis_hom_element(lam, mu, k, vector)
                        _, coords = split._coordinates(f)
                        assert coords == solve(matrix, vectorize(f))
                        checked += 1
        assert checked > 0


class TestM2:
    def test_m2_is_the_ext_product(self, split_22_canonical):
        split = split_22_canonical
        classes = split.all_h_classes()
        for a1, a2 in composable_tuples(classes, 2):
            got = m_n(split, (a1, a2))
            want = split.pi(compose(a1, a2))
            assert (got - want).is_zero()


class TestFirstVanishing:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_no_higher_products_in_n1_blocks(self, N, request):
        split = request.getfixturevalue(f"split_{N}1_generic")
        report = vanishing_report(split, 6)
        assert report["q_lambda2_zero"]
        for arity in range(3, 7):
            assert report["per_arity"][arity]["nonzero_tuples"] == []


class TestSecondVanishing:
    @pytest.mark.parametrize("m", [2, 3])
    def test_canonical_report(self, m, request):
        split = request.getfixturevalue(f"split_{m}2_canonical")
        report = vanishing_report(split, 5)
        assert report["q_lambda3_zero"]
        assert report["q_lambda2_products_zero"]
        assert report["per_arity"][3]["nonzero_tuples"] != []
        assert report["per_arity"][3]["max_abs_coefficient"] == 1
        assert report["per_arity"][4]["nonzero_tuples"] == []
        assert report["per_arity"][5]["nonzero_tuples"] == []


class TestM3Pattern:
    @pytest.mark.parametrize("m", [2, 3])
    def test_zero_rows(self, m, request):
        """Label triples the closed pattern fixes to zero give m_3 = 0."""
        split = request.getfixturevalue(f"split_{m}2_canonical")
        checked = 0
        for chain in composable_tuples(split.all_h_classes(), 3):
            coeffs = split.m_coefficients(chain)
            labels = tuple(c.label for c in chain)
            vals = chain_kls(chain)
            if any(
                labels == row and cond(*vals) for row, cond in ZERO_ROWS
            ):
                assert coeffs == {}
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_every_nonzero_m3_is_a_signed_g_or_k(self, m, request):
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

    def test_pattern_rows_covered(self, split_32_canonical):
        """Each closed pattern row is realized on the (3|2) block, either
        literally or through its documented one-step flavour twin."""
        nonzero_labels = set()
        for chain in composable_tuples(split_32_canonical.all_h_classes(), 3):
            coeffs = split_32_canonical.m_coefficients(chain)
            if coeffs:
                ((label, _, _, _), _), = coeffs.items()
                nonzero_labels.add((tuple(c.label for c in chain), label))
        for row, _, result in PATTERN_ROWS:
            realized = row if (row, result) in nonzero_labels else FLAVOUR_TWINS.get(row)
            assert realized is not None, row
            assert (realized, result) in nonzero_labels, row

    def test_special_triple_nonzero(self, split_32_canonical):
        # the (J, Id, Ftilde) family carries a nonzero m_3
        split = split_32_canonical
        classes = split.all_h_classes()
        hits = [
            chain
            for chain in composable_tuples(classes, 3)
            if tuple(c.label for c in chain) == ("J", "Id", "Ftilde")
            and split.pi_coefficients(lambda_n(split, chain))
        ]
        assert hits
        for chain in hits:
            coeffs = split.pi_coefficients(lambda_n(split, chain))
            ((label, _, _, _), value), = coeffs.items()
            assert label == "K" and abs(value) == 1


class TestGeneralVanishing:
    @pytest.mark.parametrize("m", [2, 3])
    def test_no_composable_chains_beyond_the_bound(self, m, request):
        # without idempotents no chain even reaches arity 7, so every
        # m_l with l > 6 vanishes on non-degenerate arguments outright
        split = request.getfixturevalue(f"split_{m}2_generic")
        classes = split.all_h_classes(include_idempotents=False)
        for arity in (7, 8):
            assert composable_tuples(classes, arity) == []

    def test_high_arity_vanishes_on_idempotent_padded_chains(
        self, split_22_generic
    ):
        import random

        split = split_22_generic
        classes = split.all_h_classes(include_idempotents=True)
        chains = composable_tuples(classes, 7)
        rng = random.Random(20240823)
        for chain in rng.sample(chains, 25):
            assert m_n(split, chain).is_zero()

    def test_degree_bound_forces_vanishing(self, split_22_canonical):
        split = split_22_canonical
        classes = split.all_h_classes()
        for chain in composable_tuples(classes, 3):
            if not lambda_degree_bound_holds(chain):
                assert lambda_n(split, chain).is_zero()


class TestStasheff:
    @pytest.mark.parametrize(
        "fixture",
        [
            "split_21_generic",
            "split_31_generic",
            "split_22_canonical",
            "split_22_generic",
        ],
    )
    def test_identities_to_arity_five(self, fixture, request):
        split = request.getfixturevalue(fixture)
        report = stasheff_check(split, 5)
        assert report["violations"] == []
        assert report["checked"] > 0

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: with the current A-infinity sign conventions "
        "the identities fail at arity 4 on (3|2)",
    )
    @pytest.mark.parametrize("fixture", ["split_32_canonical", "split_32_generic"])
    def test_identities_on_the_32_block(self, fixture, request):
        split = request.getfixturevalue(fixture)
        assert stasheff_check(split, 5)["violations"] == []


def _chains(split, arities):
    classes = split.all_h_classes(include_idempotents=False)
    return [c for arity in arities for c in composable_tuples(classes, arity)]


class TestMemoAgainstReference:
    """The memo of Qλ and m_n against the direct evaluation in
    ``tests/oracles.py``, which recomputes every λ_n from scratch."""

    @pytest.mark.parametrize(
        "fixture",
        ["split_21_generic", "split_31_generic", "split_22_canonical", "split_22_generic"],
    )
    def test_reports_equal_the_reference(self, fixture, request):
        split = request.getfixturevalue(fixture)
        assert vanishing_report(split, 5) == oracles.vanishing_report(split, 5)
        assert stasheff_check(split, 5) == oracles.stasheff_check(split, 5)

    def test_stasheff_flags_equal_the_reference(self, split_32_canonical):
        # every chain the memo flags, and a sample of those it does not,
        # evaluated term by term with fresh inner and outer m_n
        split = split_32_canonical
        flagged = set(stasheff_check(split, 4)["violations"])
        assert flagged
        chains = _chains(split, range(2, 5))
        keys = [tuple(_class_key(c) for c in chain) for chain in chains]
        assert len(set(keys)) == len(keys)
        hits = [c for c, key in zip(chains, keys) if key in flagged]
        misses = [c for c, key in zip(chains, keys) if key not in flagged]
        assert len(hits) == len(flagged)
        for chain in hits:
            total = oracles.stasheff_total(split, chain)
            assert total is not None and not total.is_zero()
        for chain in random.Random(20261018).sample(misses, 200):
            total = oracles.stasheff_total(split, chain)
            assert total is None or total.is_zero()

    def test_lambda_n_equals_the_reference(self, split_32_canonical):
        split = split_32_canonical
        chains = _chains(split, range(2, 6))
        assert len(chains) == 4232
        for chain in random.Random(5).sample(chains, 500):
            want = split.pi_coefficients(oracles.lambda_n(split, chain))
            assert split.pi_coefficients(lambda_n(split, chain)) == want
            assert split.m_coefficients(chain) == want

    def test_foreign_arguments_are_rejected(self, split_22_canonical):
        split = split_22_canonical
        chain = composable_tuples(split.all_h_classes(), 2)[0]
        other = build_splitting(2, 2, "canonical-n2")
        with pytest.raises(ValueError):
            lambda_n(other, chain)
        with pytest.raises(ValueError):
            m_n(split, [c.element for c in chain])
