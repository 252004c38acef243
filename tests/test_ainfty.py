"""The minimal A-infinity model on the Ext algebra: splitting axioms,
higher products, vanishing theorems and Stasheff identities."""

import random
from collections import Counter

import pytest

import arckit
import oracles
from arckit import (
    bruhat_leq,
    build_splitting,
    lambda_n,
    m_n,
    stasheff_check,
    vanishing_report,
    weights_in_block,
)
from arckit import ainfty, extalg
from arckit.ainfty import Splitting, _class_key, _index_tuples, composable_tuples
from arckit.exact import solve
from arckit.extalg import (
    HomElement,
    _differential_matrix,
    _k_range,
    basis_hom_element,
    compose,
    decompose,
    ext_basis,
    hom_differential,
    hom_space,
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
    dim = len(data.space)
    d_prev = _differential_matrix(lam, mu, k - 1)
    b_cols = [oracles.dense(oracles.apply(d_prev, v), dim) for v in data.l_prev]
    h_cols = [oracles.vectorize(c.element) for c in data.h_classes]
    l_next = pair[k + 1].l_prev if k + 1 in pair else []
    l_cols = [oracles.dense(v, dim) for v in l_next]
    columns = b_cols + h_cols + l_cols
    assert len(columns) == dim
    return oracles.transpose(oracles.from_rows(columns))


def _solved_basis_vectors(split):
    """(split of hom^k, basis vector f, solve of f against [B | H | L]) for
    every basis vector of every hom^k of the splitting's block."""
    ws = weights_in_block(*split.block)
    for lam in ws:
        for mu in ws:
            for k, data in split._pair(lam, mu).items():
                if not data.space:
                    continue
                matrix = _splitting_matrix(split, lam, mu, k)
                for vector in data.space:
                    f = basis_hom_element(lam, mu, k, vector)
                    yield data, f, solve(matrix, f.coords)


class TestCoordinates:
    @pytest.mark.parametrize("fixture", ["split_22_canonical", "split_31_generic"])
    def test_factored_coordinates_equal_solve(self, fixture, request):
        # Π and Q read the B and H coordinates from the stored rows of the
        # inverse; an invertible system has one solution, so they are
        # exactly the first b_count + |H| coordinates of solve's
        split = request.getfixturevalue(fixture)
        checked = 0
        for data, f, want in _solved_basis_vectors(split):
            kept = data.b_count + len(data.h_classes)
            coords, _ = data.coordinates(f.coords)
            assert coords == {i: x for i, x in want.items() if i < kept}
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("fixture", ["split_22_canonical", "split_31_generic"])
    def test_pi_coefficients_are_the_h_part_of_solve(self, fixture, request):
        # Π of any vector, cocycle or not, keeps the H coordinates of its
        # unique [B | H | L] decomposition, keyed (label, k, j, position)
        split = request.getfixturevalue(fixture)
        checked = cocycles = 0
        for data, f, want in _solved_basis_vectors(split):
            b = data.b_count
            assert split.pi_coefficients(f) == {
                (c.label, c.k, c.j, i): want[b + i]
                for i, c in enumerate(data.h_classes)
                if b + i in want
            }
            checked += 1
            cocycles += hom_differential(f).is_zero()
        assert checked > cocycles > 0

    def test_elements_outside_the_complex_are_refused(self, split_22_canonical):
        # a degree past the last component of the resolution reads no split
        split = split_22_canonical
        lam = weights_in_block(2, 2)[0]
        f = HomElement(lam, lam, max(_k_range(lam, lam)) + 1, 0, {0: 1})
        for read in (split.pi, split.q, split.pi_coefficients):
            with pytest.raises(ValueError, match="outside the hom complex"):
                read(f)

    @pytest.mark.parametrize(
        "fixture,count", [("split_22_canonical", 60), ("split_32_canonical", 380)]
    )
    def test_seeds_leave_the_h_coordinates_of_cocycles(self, fixture, count, request):
        # the homotopy seeds move L, and with it the next degree's B, but
        # never a cocycle's H coordinates: Π of every product of two
        # non-idempotent classes off the seeded split is its solve over
        # ext_basis's classes, which no seed touches
        split = request.getfixturevalue(fixture)
        unseeded = {}
        products = 0
        for a1, a2 in composable_tuples(split.all_h_classes(include_idempotents=False), 2):
            product = compose(a1, a2)
            if product.is_zero():
                continue
            pair = (product.source, product.target)
            if pair not in unseeded:
                unseeded[pair] = ext_basis(*pair)
            assert split.pi_coefficients(product) == decompose(product, unseeded[pair])[0]
            products += 1
        assert products == count


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
            if not oracles.lambda_degree_bound_holds(chain):
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


class TestClassKeys:
    """Every generic class carries the label "generic", so a report key
    tells the classes of one hom^k apart by their H position."""

    @pytest.mark.parametrize("fixture", ["split_32_generic", "split_23_generic"])
    def test_every_class_has_its_own_key(self, fixture, request):
        split = request.getfixturevalue(fixture)
        classes = split.all_h_classes()
        assert len(classes) == 110
        keys = [_class_key(split, split._index[id(c)]) for c in classes]
        assert keys == [oracles.class_key(split, c) for c in classes]
        assert len(set(keys)) == 110

    def test_violations_are_distinct(self, split_32_generic, split_23_generic):
        violations = stasheff_check(split_32_generic, 4)["violations"]
        assert len(violations) == len(set(violations)) == 169
        violations = stasheff_check(split_23_generic, 4)["violations"]
        assert len(violations) == len(set(violations))


class TestComposableTuples:
    @pytest.mark.parametrize("arity", [0, -1])
    def test_an_arity_below_one_is_refused(self, split_21_generic, arity):
        classes = split_21_generic.all_h_classes()
        with pytest.raises(ValueError):
            composable_tuples(classes, arity)

    def test_arity_one_is_every_class(self, split_21_generic):
        classes = split_21_generic.all_h_classes()
        assert composable_tuples(classes, 1) == [(c,) for c in classes]

    def test_an_arity_beyond_the_recursion_limit(self, split_22_canonical):
        classes = split_22_canonical.all_h_classes(include_idempotents=False)
        assert composable_tuples(classes, 1500) == oracles.composable_tuples(classes, 1500)


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
        keys = [tuple(oracles.class_key(split, c) for c in chain) for chain in chains]
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
            reference = oracles.lambda_n(split, chain)
            assert lambda_n(split, chain) == reference
            want = split.pi_coefficients(reference)
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


def _bidegree(chain) -> tuple[int, int]:
    return sum(a.k for a in chain) + 2 - len(chain), sum(a.j for a in chain)


def _piece_is_empty(chain) -> bool:
    """Whether hom^k(source, target) has no vector of shift j, (k, j) the
    bidegree of the chain's λ_n."""
    k, j = _bidegree(chain)
    return all(vector[4] != j for vector in hom_space(chain[0].source, chain[-1].target, k))


class TestZeroByBidegree:
    """λ_n of a chain is homogeneous of bidegree (Σk_i + 2 − n, Σj_i), so the
    memo answers 0 without evaluating a cut where that piece of hom^k is
    empty; the reference in ``tests/oracles.py`` has no such check."""

    @pytest.mark.parametrize("fixture", ["split_32_canonical", "split_23_generic"])
    def test_empty_pieces_are_zero_in_the_reference(self, fixture, request):
        split = request.getfixturevalue(fixture)
        empty = {}
        for arity in range(2, 6):
            chains = _chains(split, [arity])
            empty[arity] = [chain for chain in chains if _piece_is_empty(chain)]
        # every chain of arity 4 and 5 is settled by its bidegree alone
        assert {arity: len(chains) for arity, chains in empty.items()} == {
            2: 56, 3: 409, 4: 1552, 5: 1120,
        }
        sample = random.Random(36).sample(empty[5], 300)
        for chain in empty[2] + empty[3] + empty[4] + sample:
            assert oracles.lambda_n(split, chain).is_zero()
            assert lambda_n(split, chain).is_zero()

    @pytest.mark.parametrize("fixture", ["split_32_canonical", "split_23_generic"])
    def test_memo_entries_are_homogeneous(self, fixture, request):
        split = request.getfixturevalue(fixture)
        vanishing_report(split, 5)
        nonzero = 0
        for key, (q, m) in split._chains.items():
            chain = [split._classes[i] for i in key]
            k, j = _bidegree(chain)
            space = hom_space(chain[0].source, chain[-1].target, k - 1)
            assert all(space[i][4] == j for i in q or {})
            assert all((split._classes[i].k, split._classes[i].j) == (k, j) for i in m)
            nonzero += len(key) > 1 and q is not None
        assert nonzero > 0

    def test_no_product_for_arities_four_and_five(self, monkeypatch):
        # a fresh split, so that no memo entry of an earlier test is read
        split = build_splitting(3, 2, "canonical-n2")
        classes = split.all_h_classes(include_idempotents=False)
        calls = []
        product = Splitting._product

        def counted(self, *args):
            calls.append(args[:2])
            return product(self, *args)

        monkeypatch.setattr(Splitting, "_product", counted)
        chains = composable_tuples(classes, 4) + composable_tuples(classes, 5)
        assert len(chains) == 2672
        for chain in chains:
            assert lambda_n(split, chain).is_zero()
            assert split.m_coefficients(chain) == {}
        assert calls == []


class TestOnePassRead:
    """``Splitting._read`` reads a chain of classes once, for its class
    indices, its bidegree and whether it composes, and the reports
    enumerate tuples of class indices; both against the object-level
    reference in ``tests/oracles.py``."""

    @pytest.mark.parametrize("fixture", ["split_32_canonical", "split_23_generic"])
    def test_index_tuples_follow_the_reference_order(self, fixture, request):
        split = request.getfixturevalue(fixture)
        classes = split.all_h_classes(include_idempotents=False)
        for arity in range(1, 6):
            want = oracles.composable_tuples(classes, arity)
            assert composable_tuples(classes, arity) == want
            tuples = _index_tuples(split, arity)
            assert iter(tuples) is tuples  # lazy: one arity, a tuple at a time
            assert list(tuples) == [tuple(split._index[id(c)] for c in chain) for chain in want]

    def test_counted_work(self, monkeypatch):
        # a fresh split, so that no memo entry of an earlier test is read
        split = build_splitting(3, 2, "canonical-n2")
        chains = _chains(split, range(2, 6))
        assert len(chains) == 4232
        calls = {"_lambda": 0, "composable_tuples": 0}
        evaluate, enumerate_ = Splitting._lambda, ainfty.composable_tuples

        def counted_lambda(self, *args):
            calls["_lambda"] += 1
            return evaluate(self, *args)

        def counted_tuples(*args):
            calls["composable_tuples"] += 1
            return enumerate_(*args)

        monkeypatch.setattr(Splitting, "_lambda", counted_lambda)
        monkeypatch.setattr(ainfty, "composable_tuples", counted_tuples)
        for chain in chains:
            split.pi_coefficients(lambda_n(split, chain))
        # 1,095 chains with a nonempty (k, j) piece and 324 memo misses
        assert calls["_lambda"] == 1419
        vanishing_report(split, 5)
        stasheff_check(split, 5)
        assert calls["composable_tuples"] == 0

    def test_a_chain_that_does_not_compose_is_zero(self, split_32_canonical, monkeypatch):
        split = split_32_canonical
        classes = split.all_h_classes(include_idempotents=False)
        pairs = [(a, b) for a in classes for b in classes if a.target != b.source]
        triples = [(a, b, c) for (a, b) in composable_tuples(classes, 2) for c in classes[:20]
                   if b.target != c.source]
        rng = random.Random(37)
        chains = rng.sample(pairs, 200) + rng.sample(triples, 200)
        monkeypatch.setattr(Splitting, "_lambda", None)  # never evaluated
        entries = len(split._chains)
        for chain in chains:
            k, j = _bidegree(chain)
            want = HomElement(chain[0].source, chain[-1].target, k, j, {})
            assert lambda_n(split, chain) == want
            assert split.m_coefficients(chain) == {}
        assert len(split._chains) == entries  # the memo holds composable chains only
        with pytest.raises(ValueError):
            split.m_coefficients([c.element for c in chains[0]])


class TestExtQuiver:
    """``ext_quiver`` reads m_2 off the memo of one splitting of the block:
    no product is composed again, and each pair is split once."""

    def test_counted_work(self, monkeypatch):
        # the labelled elements compose Id-composites when first built, once
        # per process: build them before counting
        Splitting(3, 2, "canonical-n2").all_h_classes()
        composed = 0
        split_pairs = Counter()
        compose, split_pair = extalg.compose, extalg._split_pair

        def counted_compose(f, g):
            nonlocal composed
            composed += 1
            return compose(f, g)

        def counted_split_pair(lam, mu, *args):
            split_pairs[(lam, mu)] += 1
            return split_pair(lam, mu, *args)

        monkeypatch.setattr(extalg, "compose", counted_compose)
        monkeypatch.setattr(extalg, "_split_pair", counted_split_pair)
        monkeypatch.setattr(ainfty, "_split_pair", counted_split_pair)
        arckit.ext_quiver(3, 2)
        assert composed == 0
        weights = weights_in_block(3, 2)
        below = [(lam, mu) for lam in weights for mu in weights if lam != mu and bruhat_leq(lam, mu)]
        assert split_pairs == Counter(below)

    def test_the_public_name_is_the_splitting_reader(self):
        assert arckit.ext_quiver is ainfty.ext_quiver
        assert not hasattr(extalg, "ext_quiver")

    def test_canonical_mode_needs_n_at_most_two(self):
        with pytest.raises(ValueError):
            Splitting(2, 3, "canonical-n2")
