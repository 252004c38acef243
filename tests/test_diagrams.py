"""Weights, cup/cap diagrams, orientations and degrees."""

import copy
import os
import pickle
import subprocess
import sys
import threading
from functools import partial
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arckit import (
    CapDiagram,
    CupDiagram,
    OrientedCircleDiagram,
    Weight,
    associated_cup_diagram,
    bruhat_leq,
    ext_basis,
    ext_dims,
    kl_poly_closed,
    kl_poly_recursive,
    length,
    relative_length,
    shelton_dims,
    weights_in_block,
)
from arckit.arcalg import _product_table, basis
from arckit.diagrams import _WEIGHTS, cap_oriented, cup_oriented
from arckit.extalg import resolution
from arckit.repmod import decomposition_poly
from arckit.resolve import _deserialize, _resolve_cone_raw, _serialize, resolve_generic

import oracles


def weight_strategy(m, n):
    return st.permutations("^" * n + "v" * m).map(lambda s: Weight.parse("".join(s)))


@st.composite
def weight_pairs(draw, max_size=8):
    """Two weights of one block with at most ``max_size`` vertices."""
    size = draw(st.integers(0, max_size))
    n = draw(st.integers(0, size))
    return draw(weight_strategy(size - n, n)), draw(weight_strategy(size - n, n))


class TestWeight:
    def test_parse_str_roundtrip(self):
        for text in ("^vv", "vv^^v", "v^v^"):
            assert str(Weight.parse(text)) == text

    def test_block_counts(self):
        for m, n in ((2, 1), (3, 1), (2, 2), (3, 2), (4, 2)):
            ws = weights_in_block(m, n)
            assert len(ws) == comb(m + n, n)
            assert len(set(map(str, ws))) == len(ws)
            assert all(w.block == (m, n) for w in ws)

    def test_each_call_hands_out_a_fresh_list(self):
        ws = weights_in_block(3, 2)
        first = list(ws)
        ws.reverse()
        ws.append(Weight.parse("v^"))
        assert weights_in_block(3, 2) == first

    def test_j_index_roundtrip(self):
        for m in (2, 3, 4):
            for j in range(m + 1):
                w = Weight.from_j(m, j)
                assert w.block == (m, 1)
                assert w.to_j() == j

    def test_kl_index_roundtrip(self):
        for m in (2, 3):
            for w in weights_in_block(m, 2):
                k, l = w.to_kl()
                assert 0 <= l < k <= m + 1
                assert Weight.from_kl(m, k, l) == w

    def test_kl_out_of_range(self):
        with pytest.raises(ValueError):
            Weight.from_kl(2, 2, 2)
        with pytest.raises(ValueError):
            Weight.from_kl(2, 4, 1)

    def test_block_is_counted_once_and_stays_out_of_the_fields(self):
        w = Weight.parse("v^vv^")
        assert (w.m, w.n, w.block) == (3, 2, (3, 2))
        assert Weight._fields == ("labels",)  # what equality, hash and repr read
        assert repr(w) == "Weight('v^vv^')"
        assert w == Weight(("v", "^", "v", "v", "^")) and w < Weight.parse("vv^^v")
        assert w.__reduce__() == (Weight, (w.labels,))
        for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
            assert twin == w and hash(twin) == hash(w) and twin.block == (3, 2)
        with pytest.raises(ValueError):
            Weight(("v", "x"))

    @settings(max_examples=30, deadline=None)
    @given(weight_strategy(3, 2))
    def test_swap_is_involutive_on_down_up(self, w):
        for i in range(len(w) - 1):
            if w.has_down_up_at(i):
                assert w.swap(i).swap(i) == w


class TestOneObjectPerWeight:
    """Each label tuple has exactly one Weight, however it is made, so every
    weight-keyed dict and memo hits by identity."""

    def test_constructors_and_local_moves_return_the_one_instance(self):
        w = Weight.parse("v^v^")
        assert Weight(("v", "^", "v", "^")) is w and Weight.parse(" v^v^\n") is w
        assert Weight.from_kl(2, 3, 1) is w
        assert Weight.zero(2, 2) is Weight.parse("^^vv")
        assert Weight.from_j(3, 1) is Weight.parse("v^vv")
        assert w.swap(0) is Weight.parse("^vv^")
        assert w.delete(0) is Weight.parse("v^")
        assert Weight.parse("v^").insert_down_up(0) is w
        assert copy.copy(w) is w and copy.deepcopy(w) is w and pickle.loads(pickle.dumps(w)) is w
        assert copy.deepcopy([w, {w: 1}])[0] is w

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (2, 3)])
    def test_block_and_table_weights_are_the_one_instances(self, m, n):
        table = _product_table(m, n)
        assert all(a is b for a, b in zip(weights_in_block(m, n), table.weights, strict=True))
        assert all(Weight(w.labels) is w is _WEIGHTS[w.labels] for w in table.weights)

    def test_resolution_summands_are_the_table_instances(self):
        table = _product_table(4, 2)

        def summands(c):
            return [w for comp in c.components for w, _ in comp]

        # the 120 summand weights of the (4|2) cone resolutions ext_dims reads
        cone = [w for lam in table.weights for w in summands(_resolve_cone_raw(lam))]
        assert len(cone) == 120
        assert sum(w is table.weights[table.position[w]] for w in cone) == 120
        lam = Weight.parse("vv^v^v")
        for c in (resolve_generic(lam), resolution(lam), _deserialize(lam, _serialize(resolve_generic(lam)))):
            assert c.weight is lam
            assert all(w is table.weights[table.position[w]] for w in summands(c))

    def test_malformed_labels_raise_and_leave_nothing_in_the_table(self):
        for labels in (("v", "x"), ("^", "", "v"), ("vv",), ("v", "^", "^ ")):
            before = len(_WEIGHTS)
            with pytest.raises(ValueError):
                Weight(labels)
            assert labels not in _WEIGHTS and len(_WEIGHTS) == before

    def test_threads_that_build_one_new_weight_get_one_object(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(40):
                labels = tuple(format(trial, "b").replace("0", "v").replace("1", "^")) + ("v",) * 41
                assert labels not in _WEIGHTS  # 42 or more labels: no other test builds it
                start, built = threading.Barrier(8), []

                def build():
                    start.wait()
                    built.append(Weight(labels))

                threads = [threading.Thread(target=build) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert len(built) == 8 and all(w is _WEIGHTS[labels] for w in built)
        finally:
            sys.setswitchinterval(interval)


class TestBruhat:
    def test_zero_weight_is_maximum(self):
        for m, n in ((2, 1), (3, 1), (2, 2), (3, 2)):
            top = Weight.zero(m, n)
            assert all(bruhat_leq(w, top) for w in weights_in_block(m, n))

    def test_partial_order(self):
        ws = weights_in_block(2, 2)
        for a in ws:
            assert bruhat_leq(a, a)
            for b in ws:
                if bruhat_leq(a, b) and bruhat_leq(b, a):
                    assert a == b
                for c in ws:
                    if bruhat_leq(a, b) and bruhat_leq(b, c):
                        assert bruhat_leq(a, c)

    @settings(max_examples=300, deadline=None)
    @given(weight_pairs())
    def test_one_pass_equals_the_reference(self, pair):
        lam, mu = pair
        assert bruhat_leq(lam, mu) == oracles.bruhat_leq(lam, mu)
        assert bruhat_leq(mu, lam) == oracles.bruhat_leq(mu, lam)
        for i in range(lam.size):
            assert relative_length(i, lam, mu) == oracles.relative_length(i, lam, mu)

    def test_different_blocks_are_rejected(self):
        lam, mu = Weight.parse("v^v"), Weight.parse("^^v")
        for fn in (bruhat_leq, oracles.bruhat_leq):
            with pytest.raises(ValueError):
                fn(lam, mu)
        for fn in (relative_length, oracles.relative_length):
            with pytest.raises(ValueError):
                fn(0, lam, mu)

    # every public function that compares two weights; bruhat_leq holds the
    # block check for those that call it
    @pytest.mark.parametrize("fn", [
        bruhat_leq, partial(relative_length, 0), kl_poly_recursive, kl_poly_closed,
        decomposition_poly, ext_dims, shelton_dims, ext_basis,
    ], ids=lambda fn: getattr(fn, "__name__", "relative_length"))
    @pytest.mark.parametrize("one, other", [("vvv^", "vv^^"), ("vv^", "vv^^")])
    def test_every_weight_comparison_rejects_another_block(self, fn, one, other):
        for lam, mu in ((one, other), (other, one)):
            with pytest.raises(ValueError, match="^weights from different blocks$"):
                fn(Weight.parse(lam), Weight.parse(mu))

    def test_strictly_compatible_with_length(self):
        ws = weights_in_block(3, 2)
        for a in ws:
            for b in ws:
                if bruhat_leq(a, b) and a != b:
                    assert length(a) > length(b)


class TestDiagrams:
    def test_cup_parse_roundtrip(self):
        text = "cups=(0,3);(1,2) rays=4"
        cup = CupDiagram.parse(text, size=5)
        assert str(cup) == text
        assert cup.mirror().mirror() == cup

    def test_cup_and_cap_diagrams_share_data_not_equality(self):
        text = "cups=(0,3);(1,2) rays=4"
        cup, cap = CupDiagram.parse(text), CapDiagram.parse(text)
        assert type(cap) is CapDiagram
        assert cup.mirror() == cap and cap.mirror() == cup
        assert cup != cap and hash(cup) == hash(cap)
        assert repr(cap).startswith("CapDiagram(size=5, ")
        assert str(cap) == str(cup) == text

    def test_oriented_diagram_roundtrip(self):
        text = "cups=(0,3);(1,2) rays=4 | vv^^v | cups=(1,2);(3,4) rays=0"
        d = OrientedCircleDiagram.parse(text)
        assert str(d) == text

    def test_crossing_cups_rejected(self):
        with pytest.raises(ValueError):
            CupDiagram.parse("cups=(0,2);(1,3) rays=", size=4)

    def test_orientation_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OrientedCircleDiagram.parse(
                "cups=(0,1) rays=2 | ^^v | cups=(0,1) rays=2"
            )

    def test_associated_cup_diagram_is_oriented_degree_zero(self):
        for m, n in ((2, 1), (2, 2), (3, 2)):
            for w in weights_in_block(m, n):
                cup = associated_cup_diagram(w)
                assert cup_oriented(cup, w)
                assert cap_oriented(cup.mirror(), w)
                d = OrientedCircleDiagram(cup, w, cup.mirror())
                assert d.degree == 0

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 2), (2, 3)])
    def test_a_cap_is_oriented_exactly_when_its_mirror_cup_is(self, m, n):
        ws = weights_in_block(m, n)
        pairs = [(associated_cup_diagram(a).mirror(), w) for a in ws for w in ws]
        got = [cap_oriented(cap, w) for cap, w in pairs]
        assert got == [cup_oriented(cap.mirror(), w) for cap, w in pairs]
        assert True in got and False in got

    @pytest.mark.parametrize("m,n", [(0, 2), (2, 1), (2, 2), (3, 2), (2, 3)])
    def test_weights_by_cup_matches_a_scan_of_the_block(self, m, n):
        ws = weights_in_block(m, n)
        by_cup = oracles.weights_by_cup(m, n)
        assert len(by_cup) == len(ws)
        for w in ws:
            cup = associated_cup_diagram(w)
            assert by_cup[cup] == next(a for a in ws if associated_cup_diagram(a) == cup)

    def test_degree_counts_clockwise_cups_and_caps(self):
        # one anticlockwise circle (degree 0) vs one clockwise circle
        low = OrientedCircleDiagram.parse("cups=(0,1) rays= | v^ | cups=(0,1) rays=")
        high = OrientedCircleDiagram.parse("cups=(0,1) rays= | ^v | cups=(0,1) rays=")
        assert low.degree == 0
        assert high.degree == 2


class TestStoredHash:
    """A basis diagram hashes once, at construction, and never carries that
    hash into another process: it mixes its weight's identity hash, which is
    per process."""

    def test_hash_is_the_field_hash(self):
        for d in basis(2, 2):
            assert hash(d) == hash((d.cup, d.weight, d.cap))

    def test_copies_hash_like_the_original(self):
        for d in basis(2, 2):
            for twin in (copy.copy(d), copy.deepcopy(d), OrientedCircleDiagram(d.cup, d.weight, d.cap)):
                assert twin == d
                assert hash(twin) == hash(d)

    def test_pickle_from_another_hash_seed_is_found_in_the_basis(self):
        seed = "0" if os.environ.get("PYTHONHASHSEED") == "4242" else "4242"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        script = (
            "import pickle, sys\n"
            "from arckit.arcalg import basis\n"
            "sys.stdout.buffer.write(pickle.dumps((hash('v^'), basis(2, 2))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True
        )
        their_str_hash, diagrams = pickle.loads(proc.stdout)
        assert their_str_hash != hash("v^")  # the two processes hash differently
        position = {d: k for k, d in enumerate(basis(2, 2))}
        assert [position[d] for d in diagrams] == list(range(len(basis(2, 2))))
        assert all(d.weight is x.weight for d, x in zip(diagrams, basis(2, 2)))  # unpickled: the one instance
