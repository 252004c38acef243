"""The arc algebra: basis, surgery multiplication, traces, functors."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest

from arckit import (
    AlgebraElement,
    Matching,
    OrientedCircleDiagram,
    Weight,
    basis,
    decomposition_matrix,
    functor_image,
    idempotent,
    multiply,
    surgery_trace,
    weights_in_block,
)
from arckit.arcalg import (
    _plan,
    _product_table,
    basis_product,
    hom_basis,
)
from arckit.cli import render_trace_svg
from arckit.diagrams import associated_cap_diagram, associated_cup_diagram
from oracles import constructed_hom_basis, plan_reference, surgery_product_reference


def _elt(d):
    return AlgebraElement.from_diagram(d)


class TestBasis:
    def test_dimension_formula(self):
        # dim K = Σ_{λ,μ} c_{λμ}(1) and C = DᵀD: Σ_ν (Σ_λ d_{λν}(1))², with no product read
        for m, n, dim in ((2, 1, 9), (3, 1, 13), (2, 2, 47), (3, 2, 101), (4, 2, 171), (3, 3, 539)):
            weights, d = weights_in_block(m, n), decomposition_matrix(m, n)
            columns = [sum(d[lam, nu](1) for lam in weights if (lam, nu) in d) for nu in weights]
            assert len(basis(m, n)) == sum(c * c for c in columns) == dim

    def test_basis_degrees_nonnegative(self):
        assert all(d.degree >= 0 for d in basis(2, 2))

    def test_basis_constructs_only_its_own_diagrams(self):
        # a fresh interpreter: the lru caches are empty, and clearing them
        # here would part the basis objects from the products cached on them
        script = (
            "from arckit.diagrams import OrientedCircleDiagram as D\n"
            "made, raised = [0], [0]\n"
            "init = D.__init__\n"
            "def counted(self, *args):\n"
            "    made[0] += 1\n"
            "    try:\n"
            "        init(self, *args)\n"
            "    except ValueError:\n"
            "        raised[0] += 1\n"
            "        raise\n"
            "D.__init__ = counted\n"
            "from arckit.arcalg import basis\n"
            "size = len(basis(4, 2))\n"
            "print(made[0], raised[0], size)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["171", "0", "171"]

    def test_hom_basis_partitions_basis(self):
        ws = weights_in_block(2, 2)
        total = sum(len(hom_basis(a, b)) for a in ws for b in ws)
        assert total == len(basis(2, 2))

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
    def test_hom_basis_hands_out_the_basis_objects(self, m, n):
        ids = {id(d) for d in basis(m, n)}
        ws = weights_in_block(m, n)
        for a in ws:
            for b in ws:
                found = hom_basis(a, b)
                assert list(found) == constructed_hom_basis(a, b)
                assert all(id(d) in ids for d in found)
        # so are the diagrams of products, idempotents and functor images
        for a, b, c in iproduct(ws, repeat=3):
            for x in hom_basis(a, b):
                for y in hom_basis(b, c):
                    assert all(id(d) in ids for d, _ in basis_product(x, y))
        for a in ws:
            assert all(id(d) in ids for d, _ in idempotent(a))
        for i in range(m + n - 1):
            t = Matching(i, (m, n))
            for d in basis(m - 1, n - 1):
                assert all(id(e) in ids for e, _ in functor_image(t, _elt(d)))


class TestIdempotents:
    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 2)])
    def test_orthogonal_idempotents(self, m, n):
        ws = weights_in_block(m, n)
        for a in ws:
            ea = idempotent(a)
            assert multiply(ea, ea) == ea
            for b in ws:
                if a != b:
                    assert multiply(ea, idempotent(b)).is_zero()

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
    def test_idempotents_complete(self, m, n):
        # the sum of all e_lambda acts as the unit on every basis vector
        ws = weights_in_block(m, n)
        unit = AlgebraElement.zero()
        for w in ws:
            unit = unit + idempotent(w)
        for d in basis(m, n):
            x = _elt(d)
            assert multiply(unit, x) == x
            assert multiply(x, unit) == x


class TestMultiplication:
    def test_product_is_homogeneous_additive_degree(self):
        for d1 in basis(2, 1):
            for d2 in basis(2, 1):
                p = multiply(_elt(d1), _elt(d2))
                if not p.is_zero():
                    assert p.degrees() == {d1.degree + d2.degree}

    def test_associativity_exhaustive_small_block(self):
        bs = [_elt(d) for d in basis(2, 1)]
        for x, y, z in iproduct(bs, repeat=3):
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    def test_associativity_sampled_large_block(self):
        rng = random.Random(20240817)
        bs = [_elt(d) for d in basis(3, 2)]
        for _ in range(300):
            x, y, z = (rng.choice(bs) for _ in range(3))
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    def test_surgery_order_independence(self):
        # every stacked pair with a choice of cut: 242 on (2|2), 925 on (3|2)
        rng = random.Random(5)
        for m, n in ((2, 2), (3, 2)):
            for d1, d2 in _composable_pairs(m, n):
                if len(d1.cap.cups) < 2:
                    continue
                reference = basis_product(d1, d2)
                for picker in (lambda pairs: pairs[-1], rng.choice):
                    assert _direct(d1, d2, picker) == reference

    def test_worked_product(self):
        x = OrientedCircleDiagram.parse(
            "cups=(0,3);(1,2) rays=4 | vv^^v | cups=(1,2);(3,4) rays=0"
        )
        y = OrientedCircleDiagram.parse(
            "cups=(1,2);(3,4) rays=0 | vv^^v | cups=(0,3);(1,2) rays=4"
        )
        expected = OrientedCircleDiagram.parse(
            "cups=(0,3);(1,2) rays=4 | ^v^vv | cups=(0,3);(1,2) rays=4"
        )
        assert multiply(_elt(x), _elt(y)) == _elt(expected)

    def test_operators_agree_with_multiply_and_the_terms(self):
        elements = [_elt(d) for d in basis(2, 1)]
        elements += [x + Fraction(1, 2) * y for x, y in zip(elements, elements[1:])]
        for x in elements:
            for y in elements:
                assert x * y == multiply(x, y)
                assert x - y == x + y * -1
        for x in elements:
            assert (-x).terms == {d: -c for d, c in x.terms.items()}
            assert (x - x).is_zero() and -(-x) == x
            assert hash(x) == hash(AlgebraElement(x.terms))
        assert len(set(elements + [AlgebraElement(x.terms) for x in elements])) == len(elements)

    def test_repr_lists_the_terms_in_diagram_order(self):
        d1, d2 = sorted(basis(2, 1)[:2], key=str)
        assert repr(AlgebraElement()) == "AlgebraElement(0)"
        assert repr(_elt(d2) * 3 + _elt(d1) * Fraction(-1, 2)) == (
            f"AlgebraElement(-1/2 * ({d1}) + 3 * ({d2}))"
        )

    def test_mismatched_middle_is_zero(self):
        x = OrientedCircleDiagram.parse("cups=(0,1) rays=2 | v^v | cups=(0,1) rays=2")
        y = OrientedCircleDiagram.parse("cups=(1,2) rays=0 | vv^ | cups=(1,2) rays=0")
        assert multiply(_elt(x), _elt(y)).is_zero()


def _direct(d1, d2, pair_picker=None):
    return AlgebraElement(dict(surgery_product_reference(
        d1.cup, d1.weight, d1.cap, d2.weight, d2.cap, pair_picker
    )))


def _composable_pairs(m, n):
    return [
        (d1, d2)
        for d1 in basis(m, n)
        for d2 in basis(m, n)
        if d1.cap.cups == d2.cup.cups and d1.cap.rays == d2.cup.rays
    ]


class TestAgainstReference:
    """The product table against the depth-first reference of
    ``tests/oracles.py``: the same terms, coefficients and term order when
    the reference cuts the leftmost admissible pair, as the table does, and
    the same element when it cuts in another order; and each compiled plan
    against the one read off that reference's walk."""

    def test_every_stacked_pair_in_every_cut_order(self):
        # (3|2) and (2|3) share cup/cap triples, so (2|3) also runs on plans
        # that (3|2) compiled
        _plan.cache_clear()
        for m, n in ((2, 2), (3, 2), (2, 3), (4, 2)):
            table = _product_table(m, n)
            table.entries.clear()
            pairs = _composable_pairs(m, n)
            made = _plan.cache_info().currsize
            for seed, (d1, d2) in enumerate(pairs):
                entry = table.product(table.ids[d1], table.ids[d2])
                terms = [(table.diagrams[c], v) for c, v in entry]
                args = (d1.cup, d1.weight, d1.cap, d2.weight, d2.cap)
                assert terms == surgery_product_reference(*args)
                for picker in (lambda admissible: admissible[-1], random.Random(seed).choice):
                    assert _direct(d1, d2, picker) == AlgebraElement(dict(terms))
            triples = {(d1.cup, d1.cap, d2.cap) for d1, d2 in pairs}
            if (m, n) == (2, 3):
                assert _plan.cache_info().currsize - made < len(triples)
            else:
                assert _plan.cache_info().currsize - made == len(triples)


    @pytest.mark.parametrize("block", [(2, 2), (3, 2), (4, 2), (2, 4), (3, 3)])
    def test_every_plan_equals_the_rescanning_reference(self, block):
        # every (cup, cap, cap) triple of the block, stacked or not: the cuts
        # in order of their left endpoints against the leftmost admissible
        # pair found by a rescan after every cut
        weights = weights_in_block(*block)
        cups = [associated_cup_diagram(w) for w in weights]
        caps = [associated_cap_diagram(w) for w in weights]
        for a, b, d in iproduct(cups, caps, caps):
            assert _plan(a, b, d) == plan_reference(a, b, d)

class TestProductMemo:
    """``multiply`` reads basis products from one table per block, on basis
    ids; it must agree with a fresh surgery on every composable pair, cold
    and warm, and a pair that does not stack has the empty entry."""

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 1)])
    def test_memo_equals_direct_surgery(self, m, n):
        pairs = _composable_pairs(m, n)
        table = _product_table(m, n)
        table.entries.clear()
        for _ in ("empty table", "warm table"):
            for d1, d2 in pairs:
                assert multiply(_elt(d1), _elt(d2)) == _direct(d1, d2)
                entry = table.product(table.ids[d1], table.ids[d2])
                assert [(table.diagrams[c], v) for c, v in entry] == list(_direct(d1, d2))
            # one entry per stacked pair, filled cold and only read warm
            assert len(table.entries) == len(pairs)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
    def test_a_pair_that_does_not_stack_has_the_empty_entry(self, m, n):
        table = _product_table(m, n)
        stacked = {(table.ids[d1], table.ids[d2]) for d1, d2 in _composable_pairs(m, n)}
        filled = len(table.entries)
        size = len(basis(m, n))
        assert len(stacked) < size * size
        for a, b in iproduct(range(size), repeat=2):
            if (a, b) not in stacked:
                assert table.product(a, b) == ()
                assert basis_product(table.diagrams[a], table.diagrams[b]).is_zero()
        assert len(table.entries) == filled

    def test_changing_a_product_leaves_the_memo_alone(self):
        d1, d2 = next(
            (d1, d2) for d1, d2 in _composable_pairs(2, 2)
            if len(_direct(d1, d2)) > 1
        )
        expected = _direct(d1, d2)
        product = multiply(_elt(d1), _elt(d2))
        terms = product.terms
        for d in list(terms):
            terms[d] = terms[d] * 7
        terms[d1] = 1
        assert multiply(_elt(d1), _elt(d2)) == expected
        assert product == expected


WALK_DIGEST = "598126a347899b4940d8ca82cf0678a717d601bbd8097f5a944daaf141cd8a6b"
# every product of the 2,221 stacked pairs of basis(4, 2), in basis order;
# recorded from the depth-first surgery before cuts were compiled
TABLE_42_DIGEST = "61fed2b00fb7907e26dc8edaceee6ad2d10cd1516f23018d54d2f1bf3cb348fd"


class TestSurgeryTrace:
    def test_worked_trace(self):
        x = OrientedCircleDiagram.parse(
            "cups=(0,3);(1,2) rays=4 | vv^^v | cups=(1,2);(3,4) rays=0"
        )
        y = OrientedCircleDiagram.parse(
            "cups=(1,2);(3,4) rays=0 | vv^^v | cups=(0,3);(1,2) rays=4"
        )
        trace = surgery_trace(x, y)
        assert len(trace) == 4
        assert not trace[0].collapsed
        assert trace[-1].collapsed
        assert trace[-1].annotation == "result"
        # the final panel carries the product's labels
        assert "".join(trace[-1].bottom_labels) == "^v^vv"

    def test_trace_rejects_mismatch(self):
        x = OrientedCircleDiagram.parse("cups=(0,1) rays=2 | v^v | cups=(0,1) rays=2")
        y = OrientedCircleDiagram.parse("cups=(1,2) rays=0 | vv^ | cups=(1,2) rays=0")
        with pytest.raises(ValueError):
            surgery_trace(x, y)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3)])
    def test_trace_dies_exactly_when_the_product_is_zero(self, m, n):
        for d1, d2 in _composable_pairs(m, n):
            product = basis_product(d1, d2)
            if product.is_zero():
                with pytest.raises(ValueError):
                    surgery_trace(d1, d2)
            else:
                last = surgery_trace(d1, d2)[-1]
                assert Weight(last.bottom_labels) in {d.weight for d, _ in product}

    def test_products_and_traces_match_the_pinned_digest(self):
        # every product's terms in order with their coefficients, and every
        # trace's SVG, over the stacked pairs of (2|2), (3|2) and (2|3);
        # recorded from the surgery code before traces and products shared
        # one step loop
        digest = hashlib.sha256()
        for m, n in ((2, 2), (3, 2), (2, 3)):
            for d1, d2 in _composable_pairs(m, n):
                terms = [(str(d), str(c)) for d, c in basis_product(d1, d2)]
                digest.update(repr(terms).encode())
                try:
                    svg = render_trace_svg(surgery_trace(d1, d2))
                except ValueError:
                    svg = "zero"
                digest.update(svg.encode())
        assert digest.hexdigest() == WALK_DIGEST

    def test_the_42_product_table_matches_the_pinned_digest(self):
        digest = hashlib.sha256()
        pairs = _composable_pairs(4, 2)
        for d1, d2 in pairs:
            digest.update(repr([(str(d), str(c)) for d, c in basis_product(d1, d2)]).encode())
        assert len(pairs) == 2221
        assert digest.hexdigest() == TABLE_42_DIGEST


class TestFunctor:
    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_functor_preserves_multiplication(self, i):
        # the geometric-bimodule functor embeds Λ₂¹ morphisms into Λ₃²
        t = Matching(i, (3, 2))
        bs = [_elt(d) for d in basis(2, 1)]
        for x in bs:
            for y in bs:
                left = functor_image(t, multiply(x, y))
                right = multiply(functor_image(t, x), functor_image(t, y))
                assert left == right
