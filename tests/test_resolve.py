"""Linear projective resolutions: shape, signs, exactness, oracles."""

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import arckit.cache
from arckit import (
    AlgebraElement,
    Weight,
    resolve_cone,
    resolve_generic,
    verify_resolution,
    weights_in_block,
)
from arckit import diagrams, extalg, resolve
from arckit.arcalg import _product_table, basis, hom_basis
from arckit.diagrams import OrientedCircleDiagram
from arckit.extalg import construct_element, ext_dims, in_range, resolution
from arckit.resolve import (
    ProjectiveComplex,
    ResolutionCache,
    _ab_type,
    _cover_data,
    _flat_differential,
    _normalize_signs,
    _resolve_cone_raw,
    _serialize,
    expected_terms,
    sign_target_n1,
    sign_target_n2,
)
from oracles import (
    cover_reference,
    differential,
    element,
    flat_differential_reference,
    hom_cohomology,
    hom_windows_ok,
    lift_chain_map_reference,
    resolve_generic_reference,
    right_action_reference,
    verify_homology_reference,
)


def _unique_degree_one(src: Weight, tgt: Weight):
    candidates = [d for d in hom_basis(src, tgt) if d.degree == 1]
    assert len(candidates) == 1
    return AlgebraElement.from_diagram(candidates[0])


class TestN1Resolutions:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_shape_is_staircase(self, m):
        for j in range(m + 1):
            lam = Weight.from_j(m, j)
            c = resolve_cone(lam)
            assert len(c) == j + 1
            for i, comp in enumerate(c.components):
                assert [(str(w), shift) for w, shift in comp] == [
                    (str(Weight.from_j(m, j - i)), i)
                ]

    @pytest.mark.parametrize("m", [3, 4])
    def test_differential_sign_pattern(self, m):
        for j in range(1, m + 1):
            lam = Weight.from_j(m, j)
            c = resolve_cone(lam)
            for i in range(1, len(c)):
                (src, _), (tgt, _) = c.components[i][0], c.components[i - 1][0]
                sign = sign_target_n1(lam, src, tgt)
                assert c.entry(i, 0, 0) == sign * _unique_degree_one(src, tgt)

    @pytest.mark.parametrize("m", [4])
    def test_verify_resolution_passes(self, m):
        for j in range(m + 1):
            lam = Weight.from_j(m, j)
            assert verify_resolution(resolve_cone(lam), lam) == []


class TestN2Resolutions:
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
    def test_differential_blocks_follow_sign_table(self, m):
        for lam in weights_in_block(m, 2):
            c = resolve_cone(lam)
            for i in range(1, len(c)):
                for s, t in c.differentials[i - 1]:
                    (src, _), (tgt, _) = c.components[i][s], c.components[i - 1][t]
                    sign = sign_target_n2(
                        lam,
                        src,
                        _ab_type(lam, src, i),
                        tgt,
                        _ab_type(lam, tgt, i - 1),
                    )
                    assert c.entry(i, s, t) == sign * _unique_degree_one(src, tgt)

    def test_all_seven_sign_families_appear(self):
        families = set()
        for lam in weights_in_block(3, 2):
            c = resolve_cone(lam)
            for i in range(1, len(c)):
                for (s, t), _ in c.differentials[i - 1].items():
                    (src, _), (tgt, _) = c.components[i][s], c.components[i - 1][t]
                    ta, tb = _ab_type(lam, src, i), _ab_type(lam, tgt, i - 1)
                    k1, l1 = src.to_kl()
                    k2, l2 = tgt.to_kl()
                    families.add((ta, tb, k2 - k1, l2 - l1))
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
    def test_verify_resolution_passes(self, m):
        for lam in weights_in_block(m, 2):
            assert verify_resolution(resolve_cone(lam), lam) == []

    @pytest.mark.parametrize("m", [2, 3])
    def test_hom_windows(self, m):
        ws = weights_in_block(m, 2)
        for lam in ws:
            for mu in ws:
                assert hom_windows_ok(lam, mu)


def homology_lines(failures: list[str]) -> list[str]:
    """The d² and homology lines of a ``verify_resolution`` failure list."""
    return [f for f in failures if f.startswith(("d²", "H"))]


def with_d2_entry_negated(c: ProjectiveComplex) -> ProjectiveComplex:
    """The complex with the first entry of d_2 negated."""
    d2 = dict(c.differentials[1])
    key = min(d2)
    d2[key] = tuple((x, -c) for x, c in d2[key])
    diffs = (c.differentials[0], d2) + c.differentials[2:]
    return ProjectiveComplex(c.weight, c.components, diffs)


def without_last_summand_of_c1(c: ProjectiveComplex) -> ProjectiveComplex:
    """The complex with C_1's last summand dropped, with its row of d_1 and
    its column of d_2; C_1 is empty when that summand was its only one."""
    last = len(c.components[1]) - 1
    diffs = ({key: u for key, u in c.differentials[0].items() if key[0] != last},)
    if len(c) > 2:
        diffs += ({key: u for key, u in c.differentials[1].items() if key[1] != last},)
    comps = (c.components[0], c.components[1][:last]) + c.components[2:]
    return ProjectiveComplex(c.weight, comps, diffs + c.differentials[2:])


class TestNegativeControl:
    def test_flipped_sign_breaks_d_squared(self):
        # flipping a single differential block must be caught
        lam = Weight.parse("vv^^")
        c = resolve_cone(lam)
        assert len(c) >= 3
        failures = verify_resolution(with_d2_entry_negated(c), lam)
        assert any(msg.startswith("d²≠0 at component 2") for msg in failures)

    def test_a_missing_generator_is_caught(self):
        # resolve_generic takes only the degree-(i + 1) kernel as generators;
        # a resolution short of one must fail the term and exactness checks
        lam = Weight.parse("v^v^v")
        failures = verify_resolution(without_last_summand_of_c1(resolve_generic(lam)), lam)
        assert "terms differ from the Kazhdan-Lusztig prediction" in failures
        assert any(msg.startswith("H_1 ≠ 0 in degree ") for msg in failures)


class TestOracleEquivalence:
    @pytest.mark.parametrize("m,n", [(3, 1), (2, 2)])
    def test_cone_and_generic_terms_identical(self, m, n):
        for lam in weights_in_block(m, n):
            cone = resolve_cone(lam)
            gen = resolve_generic(lam)
            assert len(cone) == len(gen)
            for a, b in zip(cone.components, gen.components):
                assert Counter((str(w), s) for w, s in a) == Counter(
                    (str(w), s) for w, s in b
                )

    @pytest.mark.parametrize("m,n", [(3, 1), (2, 2)])
    def test_generic_resolutions_verify(self, m, n):
        for lam in weights_in_block(m, n):
            assert verify_resolution(resolve_generic(lam), lam) == []

    @pytest.mark.parametrize("m,n", [(3, 1), (2, 2)])
    def test_hom_complex_cohomology_matches(self, m, n):
        ws = weights_in_block(m, n)
        gen = {w: resolve_generic(w) for w in ws}
        for lam in ws:
            for mu in ws:
                assert hom_cohomology(gen[lam], gen[mu]) == ext_dims(lam, mu)


# sha256 of _serialize(resolve_generic(λ)): the chosen generators and
# differentials, not only the terms, stay fixed under refactoring
GENERIC_DIGESTS = {
    (2, 1): {
        "^vv": "5a0b06e392c0af6e1ae29feb05b1f9d5d558a6f93e1613a9ef0e681ca196044f",
        "v^v": "bbcbb4bbced57afbbe987135d602f31c5921bd91323ed97505ff1ee3d63d6dd8",
        "vv^": "3c032d40a2d7e0e814874c01f5be02d670bb49f356c2d7777b9425140131ad55",
    },
    (3, 1): {
        "^vvv": "271963822ace6d122861ed4b609d050900a8dbc7a9d37c90665ea0543dfd1756",
        "v^vv": "76ce6b65a92c4457877d40f8cac2f5d6950d633304f09a1ca16857a7264eb74c",
        "vv^v": "e7060c01f6c267ca6c28ec16ba957fc7d22acdf061643d63681d43bbf1b32862",
        "vvv^": "033d2c0ba1a25b8aa3939f412ed57f2fb48061ba6b6b45e916a14dc3358d6d8c",
    },
    (2, 2): {
        "^^vv": "64ed30ddb1696dd3da266fc06e7c0f102b4b60b1269d6d37161fb19616b2269e",
        "^v^v": "4922775fb65e4df056b5531fedc79d187eccf1cbcbba1c8417ab6f86a46837a9",
        "^vv^": "c75e0783696ad4af2d77bced67d69982c45d6335599862390a67be97cf4a524e",
        "v^^v": "361bba4cb9eb0141f4d7698263f50b9ad1bfa6a825b09f9cae3a5a0fd8c2682f",
        "v^v^": "03c5688070571c3f468a87e4ab1c332196307de34cd35f9d4566fdede6f86f52",
        "vv^^": "1104c15f24b5af620b35868574a086381eea7ed8e0b41d954480556f65a4f679",
    },
    (3, 2): {
        "^^vvv": "9f8758857ea81162f040203bf4eb44e13a234d605e7c0bf26b7984e667f2a496",
        "^v^vv": "4dfb07d74fde0f6f7b38f1c18654c90a5e0ddc2b6d9b5a6731961605aa959091",
        "^vv^v": "261d9665df36264edd723397f475dda8222820ca5fad66c30f28f7dc948ec9e3",
        "v^^vv": "9c9ec36fd4ceb845bb380c09e62e54fab365f06fce8f4a85ec3bae09c515fb74",
        "^vvv^": "aae673b731677ff16e534db31e2d2bddfdc5b2c3f133b9202b676f1a54d029bc",
        "v^v^v": "a1b37badd3db6a22587a5f0963ac3d1c46575d256c70168b6205149ab9af800f",
        "v^vv^": "c08d7c3f46466605282f5a9e2773dc125b20763521cb2e401d32aa3c056ff525",
        "vv^^v": "1ba7d4979f7549ba2cc55bc730796e525bf8f969bf4f9dbde3246fb95ca3c07b",
        "vv^v^": "9721d2be0bbdc56b1b5c93a144e01f0b446494d04a66b636766b8a53a00e5e37",
        "vvv^^": "46d2710c348ab256029ca04873340782cf0cfdc95aa3190e8aa9c170596856c7",
    },
    # the 15 resolutions the homalg-42 benchmark workload runs
    (4, 2): {
        "^^vvvv": "785ccde4d58d4faf15f232256949255161a327571208c6d6a2a93524de019969",
        "^v^vvv": "55a861e05d85e351c38681b0ebcccdfdbbbda662b292425c10390e2ce2402d19",
        "^vv^vv": "4c018538311876228c64b65f319214cec1e97f5546b7ad9a7ea6e6a75086011b",
        "v^^vvv": "b497ea273626eafd1c201831b8f8eba18ca8850a119a6a555c77cc88b0c2c885",
        "^vvv^v": "1f711097a641c5701d55180d43c11639a71520c3c257919a00a8022d375c4767",
        "v^v^vv": "5516a191d378025d8b0a5344bafdec1338647924a038cdbbb7f2f6461099a3a3",
        "^vvvv^": "31e1c8eaa5c473532222e6f2b24d8d92824948dd2e10a7c961284b8b75686e3b",
        "v^vv^v": "0c67a92bacc522ba0c84ecb9842de03e31fc6b06868216ee9790df101c0229f5",
        "vv^^vv": "b85cbf3565c2d1f0b27c2c39ba9ad6342d0bd14b5fa7cbfcbc21c8ea4ea8e98b",
        "v^vvv^": "25f0cea0fb4a2c5f959cec53437e24dec4ee7a686e63c160c91c2871e1aed5ba",
        "vv^v^v": "d32fcf3cbe626d7265e79a6b3d16a45c68f14c615dfda3adf2fbc2f8958dbbc7",
        "vv^vv^": "46de1e88c5f3618c0829e67e1d6f4c5294fbb1f2a24a582a6d4d1ad130c929ae",
        "vvv^^v": "91700c451b4f7ef6f52969a0f1a394983112ded6c5872f0cea7266e4709d23fa",
        "vvv^v^": "305cec529586832761ba74a0ccb4c42c446b6a88e180ebb38a6c9386ed0c4ebc",
        "vvvv^^": "0b214c96021f83b4f00a32ebd942d81c8b46f59304efb168bfe0f418e9f1487b",
    },
}


class TestGenericPinned:
    @pytest.mark.parametrize("m,n", sorted(GENERIC_DIGESTS))
    def test_serialization_is_unchanged(self, m, n):
        got = {
            str(lam): hashlib.sha256(_serialize(resolve_generic(lam)).encode()).hexdigest()
            for lam in weights_in_block(m, n)
        }
        assert got == GENERIC_DIGESTS[(m, n)]


# sha256 of the concatenated _serialize(resolve_generic(λ)) over these
# blocks in order, λ in weights_in_block order, recorded while the radical
# of each syzygy still came from every positive-degree diagram and each
# differential matrix from one multiply per column
LARGE_GENERIC_BLOCKS = [(2, 3), (2, 4), (3, 3), (4, 3)]
LARGE_GENERIC_DIGEST = "14d97ef667c2db3cc8fe4e86db8dddcda5e99c8b8ed94530a9becb03dc01099b"
# the same over the 56 weights of (5|3), recorded while every degree of
# every kernel was still solved and the generators picked by a radical pass
BLOCK_53_DIGEST = "36d29c5eab2c8f539d1591086c6f3637ecac3f07651693b58812eebc0c182cc9"


class TestLargeGenericPinned:
    def test_serialization_is_unchanged(self):
        digest = hashlib.sha256()
        for block in LARGE_GENERIC_BLOCKS:
            for lam in weights_in_block(*block):
                digest.update(_serialize(resolve_generic(lam)).encode())
        assert digest.hexdigest() == LARGE_GENERIC_DIGEST

    def test_block_53_is_unchanged(self):
        digest = hashlib.sha256()
        for lam in weights_in_block(5, 3):
            digest.update(_serialize(resolve_generic(lam)).encode())
        assert digest.hexdigest() == BLOCK_53_DIGEST


# blocks on which the generic resolution's fast paths are compared with
# the references that multiply every pair
REFERENCE_BLOCKS = [(2, 2), (3, 2), (2, 3), (4, 2)]


def with_diagrams(flat) -> list:
    """A flat cover of ``_cover_data`` with each basis id replaced by its
    diagram, the form of the references."""
    diagrams = _product_table(*flat[0][2].block).diagrams
    return [(idx, diagrams[x], alpha, deg) for idx, x, alpha, deg in flat]


class TestAgainstReference:
    @pytest.mark.parametrize("block", REFERENCE_BLOCKS)
    def test_flat_differentials(self, block):
        # one matrix per absolute degree of the source cover, each with
        # entries in that degree's columns only, and together the reference
        for lam in weights_in_block(*block):
            for c in (resolution(lam), resolve_generic(lam)):
                for comp in c.components:
                    assert with_diagrams(_cover_data(comp)) == cover_reference(comp)
                for i, diff in enumerate(c.differentials, start=1):
                    source, target = c.components[i], c.components[i - 1]
                    column_degree = [deg for *_, deg in _cover_data(source)]
                    mats = _flat_differential(diff, source, target, sorted(set(column_degree)))
                    union = {}
                    for deg, mat in mats.items():
                        assert all(column_degree[col] == deg for _, col in mat.entries)
                        union.update(mat.entries)
                    reference = flat_differential_reference(differential(c, i), source, target)
                    shape = (reference.rows, reference.cols)
                    assert all((mat.rows, mat.cols) == shape for mat in mats.values())
                    assert union == reference.entries

    @pytest.mark.parametrize("block", REFERENCE_BLOCKS + [(3, 3)])
    def test_right_action_tables(self, block):
        # the x whose products land in an empty graded piece are skipped,
        # not surgered; the reference surgers every x of the degree
        table = _product_table(*block)
        for d in range(len(table.degree)):
            for degree in range(max(table.degree) + 1):
                want = right_action_reference(*block, d, degree)
                assert resolve._right_action(*block, d, degree) == want

    @pytest.mark.parametrize("block", REFERENCE_BLOCKS + [(3, 3)])
    def test_whole_resolutions(self, block):
        # the reference solves every degree of every kernel and keeps what
        # its greedy radical pass keeps; the fast path trusts linearity
        for lam in weights_in_block(*block):
            reference = resolve_generic_reference(lam)
            assert _serialize(reference) == _serialize(resolve_generic(lam))
            for i, comp in enumerate(reference.components):
                assert all(j == i for _, j in comp)

    def test_an_entry_outside_its_summands_is_refused(self):
        x, y, z = (Weight.parse(w) for w in ("v^v^", "v^^v", "vv^^"))
        (d,) = _product_table(2, 2).of_degree(x, y, 1)
        entry = {(0, 0): ((d, 1),)}
        _flat_differential(entry, [(x, 1)], [(y, 0)], [1, 2])
        for source, target in ((z, y), (x, z)):
            with pytest.raises(ValueError, match="left the projective summand"):
                _flat_differential(entry, [(source, 1)], [(target, 0)], [1, 2])


class TestVerifyAgainstReference:
    # d² and exactness on the per-degree matrices against the full-matrix
    # product and the bucketed ranks of oracles.verify_homology_reference
    @pytest.mark.parametrize("block", REFERENCE_BLOCKS)
    def test_every_weight(self, block):
        for lam in weights_in_block(*block):
            for c in (resolution(lam), resolve_generic(lam)):
                failures = verify_resolution(c, lam)
                assert failures == []
                assert homology_lines(failures) == verify_homology_reference(c, lam)

    @pytest.mark.parametrize("block", REFERENCE_BLOCKS[:3])
    def test_tampered_graded_complexes(self, block):
        # a dropped summand always changes the terms, and leaves C_1 empty
        # when it was its only one; a negated entry that a sign change of
        # one summand undoes still leaves a resolution
        empty = failing = 0
        for lam in weights_in_block(*block):
            for c in (resolution(lam), resolve_generic(lam)):
                if len(c) > 1:
                    dropped = without_last_summand_of_c1(c)
                    failures = verify_resolution(dropped, lam)
                    assert "terms differ from the Kazhdan-Lusztig prediction" in failures
                    assert homology_lines(failures) == verify_homology_reference(dropped, lam)
                    empty += not dropped.components[1]
                if len(c) > 2:
                    negated = with_d2_entry_negated(c)
                    expected = verify_homology_reference(negated, lam)
                    assert homology_lines(verify_resolution(negated, lam)) == expected
                    failing += bool(expected)
        assert empty and failing

    def test_an_ungraded_summand_fails_linearity_alone(self):
        lam = Weight.parse("vv^^")
        c = resolve_generic(lam)
        (mu, _), *rest = c.components[1]
        shifted = ProjectiveComplex(
            lam, (c.components[0], ((mu, 2), *rest)) + c.components[2:], c.differentials
        )
        failures = verify_resolution(shifted, lam)
        assert f"summand P({mu})<2> in component 1 is not linear" in failures
        assert homology_lines(failures) == []

    def test_an_entry_of_degree_two_fails_its_degree_alone(self):
        # e_src K e_tgt has only odd degrees here, so the degree-2 diagram
        # added, one of e_src K e_src, also lies outside its summands
        lam = Weight.parse("vv^^")
        c = resolve_generic(lam)
        src = c.components[1][0][0]
        (two, *_) = _product_table(2, 2).of_degree(src, src, 2)
        d1 = dict(c.differentials[0])
        d1[0, 0] = tuple(sorted(d1[0, 0] + ((two, 1),)))
        broken = ProjectiveComplex(lam, c.components, (d1,) + c.differentials[1:])
        failures = verify_resolution(broken, lam)
        assert "d_1[0,0] entry of degree 2 != 1" in failures
        assert homology_lines(failures) == []


def tampered(lam: Weight, old: str, new: str) -> str:
    """``_serialize(resolve_generic(λ))`` with ``old`` replaced, as a damaged
    cache entry whose checksum is valid holds it."""
    body = _serialize(resolve_generic(lam))
    assert old in body
    return body.replace(old, new, 1)


OTHER_BLOCK_OLD = "cups=(2,3) rays=0,1 | ^v^v | cups=(1,2) rays=0,3"
OTHER_BLOCK_NEW = "cups=(2,3) rays=0,1 | vv^v | cups=(1,2) rays=0,3"
# a basis diagram of (2|2), in an entry line of d_0 or d_5, which the
# resolution of vv^^, C_0 to C_4, lacks
STRAY_DIAGRAM = "cups=(1,2) rays=0,3 | ^v^v | cups=(0,3);(1,2) rays="
FIRST_SUMMAND = "summand 0 vv^^ 0\n"


class TestEntriesOutsideTheirSummands:
    LAM = Weight.parse("vv^^")
    # component 0 relabelled, so that every d_1 entry leaves e_src K e_tgt;
    # a d_1 entry moved to a summand C_1 lacks
    CASES = [
        ("summand 0 vv^^ 0", "summand 0 v^v^ 0", "entry outside e_src K e_tgt"),
        ("entry 1 0 0 ", "entry 1 7 0 ", "d_1[7,0] names a missing summand"),
    ]
    IDS = ["component-0", "missing-summand"]
    # a d_2 entry replaced by a diagram of (3|1) with the cup and cap of the
    # (2|2) one it replaces, which has no id in the (2|2) table; an entry
    # of a differential the complex lacks
    UNPARSED = [
        (OTHER_BLOCK_OLD, OTHER_BLOCK_NEW),
        (FIRST_SUMMAND, f"{FIRST_SUMMAND}entry 0 0 0 1 :: {STRAY_DIAGRAM}\n"),
        (FIRST_SUMMAND, f"{FIRST_SUMMAND}entry 5 0 0 1 :: {STRAY_DIAGRAM}\n"),
    ]
    UNPARSED_IDS = ["other-block", "differential-0", "differential-5"]

    @pytest.mark.parametrize("old,new,failure", CASES, ids=IDS)
    def test_verify_reports_them(self, old, new, failure):
        c = resolve._deserialize(self.LAM, tampered(self.LAM, old, new))
        assert any(failure in f for f in verify_resolution(c, self.LAM))

    @pytest.mark.parametrize("old,new", UNPARSED, ids=UNPARSED_IDS)
    def test_entries_that_do_not_parse(self, old, new):
        assert OrientedCircleDiagram.parse(STRAY_DIAGRAM) in _product_table(2, 2).ids
        with pytest.raises((ValueError, LookupError)):
            resolve._deserialize(self.LAM, tampered(self.LAM, old, new))

    @pytest.mark.parametrize(
        "old,new", [case[:2] for case in CASES] + UNPARSED, ids=IDS + UNPARSED_IDS
    )
    def test_the_cache_loads_them_as_a_miss(self, old, new, tmp_path):
        stored = ResolutionCache(str(tmp_path))
        key = (2, 2, str(self.LAM), "generic")
        arckit.cache.store(stored._path(key), tampered(self.LAM, old, new))
        assert arckit.cache.load(stored._path(key)) is not None  # the checksum holds
        assert stored.load(key) is None

    def test_a_wrong_component_zero_alone_is_a_miss(self, tmp_path):
        # P(λ)⟨1⟩ in component 0: every entry still lies in its summands
        stored = ResolutionCache(str(tmp_path))
        key = (2, 2, str(self.LAM), "generic")
        body = tampered(self.LAM, "summand 0 vv^^ 0", "summand 0 vv^^ 1")
        arckit.cache.store(stored._path(key), body)
        assert stored.load(key) is None


# sha256 of the concatenated _serialize(resolve_cone(λ)) over these blocks
# in order, λ in weights_in_block order: the sign-normalised cone
# resolutions of every n ≤ 2 block tier-1 reaches, recorded before the
# sign normalisation became one sweep
CONE_BLOCKS = [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (5, 2),
               (1, 2), (0, 2), (2, 0)]
CONE_DIGEST = "49f3171568ae9f52cb1b0a22ed74dfa2cb1c872db97b62aefb85e0343bd031f4"


# the same over the n = 3 blocks, whose cone resolutions stay raw (no sign
# table), recorded before the cone recursion was memoized
CONE_N3_BLOCKS = [(1, 3), (2, 3), (3, 3), (4, 3)]
CONE_N3_DIGEST = "5f6d4b190c543281332fc9c8484b19bcb3ea17d1ff7c8fb031bcba82e31800cb"


# the same over the n = 4 blocks, recorded while the chain-map lift still
# built its own equation system over the degree-one basis diagrams
CONE_N4_BLOCKS = [(1, 4), (2, 4), (3, 4), (4, 4)]
CONE_N4_DIGEST = "aa36bbcfdb280e249ee0014df505e64e04ff8aa8c738838b114c8f8655f785bc"


def _cone_digest(blocks) -> str:
    digest = hashlib.sha256()
    for block in blocks:
        for lam in weights_in_block(*block):
            digest.update(_serialize(resolve_cone(lam)).encode())
    return digest.hexdigest()


class TestConePinned:
    def test_serialization_is_unchanged(self):
        assert _cone_digest(CONE_BLOCKS) == CONE_DIGEST

    def test_raw_n3_serialization_is_unchanged(self):
        assert _cone_digest(CONE_N3_BLOCKS) == CONE_N3_DIGEST

    def test_raw_n4_serialization_is_unchanged(self):
        assert _cone_digest(CONE_N4_BLOCKS) == CONE_N4_DIGEST

    def test_a_summand_without_an_entry_has_no_sign(self):
        lam = Weight.parse("vv^")
        c = _resolve_cone_raw(lam)
        loose = c.components[:1] + (c.components[1] + ((lam, 1),),) + c.components[2:]
        with pytest.raises(AssertionError, match="has no entry"):
            _normalize_signs(ProjectiveComplex(lam, loose, c.differentials))


MEMO_BLOCKS = [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]


def _clear_recursions() -> None:
    resolve._resolve_cone_raw.cache_clear()
    diagrams.associated_cup_diagram.cache_clear()
    diagrams.associated_cap_diagram.cache_clear()


class TestMemoizedRecursions:
    """Each weight's cone recursion, arc diagrams and labelled elements are
    built once per process; whatever order fills the caches, the values
    are those of a cold computation."""

    @pytest.mark.parametrize("m,n", MEMO_BLOCKS)
    def test_a_warm_cone_equals_a_cold_one(self, m, n):
        # longest weights first, so each one's recursion is already filled
        # by the weights swept before it
        weights = weights_in_block(m, n)[::-1]
        warm = [_serialize(resolve_cone(lam)) for lam in weights]
        cold = []
        for lam in weights:
            _clear_recursions()
            cold.append(_serialize(resolve_cone(lam)))
        assert warm == cold

    @pytest.mark.parametrize("m,n", MEMO_BLOCKS)
    def test_one_chain_map_lift_per_weight(self, m, n, monkeypatch):
        lifts = Counter()
        lift = resolve._lift_chain_map

        def counting(f0, lower, upper):
            lifts[upper.weight] += 1
            return lift(f0, lower, upper)

        monkeypatch.setattr(resolve, "_lift_chain_map", counting)
        _clear_recursions()
        for lam in weights_in_block(m, n)[::-1]:
            resolve_cone(lam)
        reached = resolve._resolve_cone_raw.cache_info().currsize
        assert lifts and max(lifts.values()) == 1
        assert sum(lifts.values()) < reached  # λ₀ needs no lift

    @pytest.mark.parametrize("m,n", MEMO_BLOCKS)
    def test_the_lift_equals_its_reference(self, m, n, monkeypatch):
        # every (f0, lower, upper) a cold sweep of the block hands the lift
        calls = []
        lift = resolve._lift_chain_map

        def recording(f0, lower, upper):
            fs = lift(f0, lower, upper)
            calls.append((f0, lower, upper, fs))
            return fs

        monkeypatch.setattr(resolve, "_lift_chain_map", recording)
        _clear_recursions()
        for lam in weights_in_block(m, n):
            _resolve_cone_raw(lam)
        assert calls
        for f0, lower, upper, fs in calls:
            got = [{key: element(upper.block, u) for key, u in f.items()} for f in fs]
            assert got == lift_chain_map_reference(element(upper.block, f0), lower, upper)

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 2)])
    def test_a_warm_labelled_element_equals_a_cold_one(self, m, n):
        ws = weights_in_block(m, n)
        keys = [
            (label, lam, mu)
            for label in extalg._N2_CLASSES
            for lam in ws
            for mu in ws
            if in_range(label, lam, mu)
        ]
        warm = [construct_element(*key) for key in keys]
        assert all(construct_element(*key) is f for key, f in zip(keys, warm))
        cold = []
        for key in keys:
            construct_element.cache_clear()
            cold.append(construct_element(*key))
        assert [(f.k, f.j, f.coords) for f in warm] == [(f.k, f.j, f.coords) for f in cold]


# sha256 of the JSON list, over weights_in_block(4, 2), of the terms() of
# each resolve_generic(λ), every weight written as its string
TERMS_42_DIGEST = "a4d6acc30bbf031479b3b103ec1c5ce942b7e56cec21804332e46070057ac3a8"


class TestBlock42:
    def test_generic_resolutions_verify_and_keep_their_terms(self):
        terms = []
        for lam in weights_in_block(4, 2):
            complex_ = resolve_generic(lam)
            assert verify_resolution(complex_, lam) == []
            terms.append([[str(w) for w in row] for row in complex_.terms()])
        assert len(terms) == 15
        assert hashlib.sha256(json.dumps(terms).encode()).hexdigest() == TERMS_42_DIGEST


class TestIdTerms:
    """Each differential entry is (basis id, coeff) terms of the block's
    product table; diagrams appear only in ``entry`` and the cache format."""

    @pytest.mark.parametrize("block", [(2, 2), (3, 2), (2, 3)])
    def test_both_constructions(self, block):
        for lam in weights_in_block(*block):
            for c in (resolve_cone(lam), resolve_generic(lam)):
                assert resolve._deserialize(lam, _serialize(c)) == c
                for i, diff in enumerate(c.differentials, start=1):
                    for (s, t), u in diff.items():
                        ids = [x for x, _ in u]
                        assert ids == sorted(set(ids)) and all(coeff for _, coeff in u)
                        assert all(type(x) is int and 0 <= x < len(basis(*block)) for x in ids)
                        assert c.entry(i, s, t) == element(block, u)

    @pytest.mark.parametrize("x", [-1, len(basis(2, 2))])
    def test_an_id_outside_the_block_is_reported(self, x):
        lam = Weight.parse("vv^^")
        c = resolve_generic(lam)
        d1 = dict(c.differentials[0])
        d1[0, 0] = ((x, 1),)
        broken = ProjectiveComplex(lam, c.components, (d1,) + c.differentials[1:])
        assert "d_1[0,0] entry outside e_src K e_tgt" in verify_resolution(broken, lam)


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = ResolutionCache(str(tmp_path))
        lam = weights_in_block(2, 2)[1]
        c = resolve_cone(lam)
        key = (2, 2, str(lam), "cone")
        assert cache.load(key) is None
        cache.store(key, c)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.components == c.components
        assert loaded.differentials == c.differentials
        assert verify_resolution(loaded, lam) == []

    def test_damaged_entry_is_a_miss(self, tmp_path):
        cache = ResolutionCache(str(tmp_path))
        lam = Weight.parse("v^v^")
        key = (2, 2, str(lam), "generic")
        c = resolve_generic(lam)
        cache.store(key, c)
        (entry,) = tmp_path.iterdir()
        lines = entry.read_text().splitlines(keepends=True)
        entry.write_text("".join(l for l in lines if not l.startswith("summand 1 ")))
        assert cache.load(key) is None
        cache.store(key, c)
        assert cache.load(key).differentials == c.differentials

    def test_a_summand_of_another_block_is_a_miss(self, tmp_path):
        # P(^v)<4>, a projective of (1|1), next to C_4 = P(^^vv)<4>; no entry
        # names it, so every entry still lies in its summands and the block
        # is the one shape check it fails
        cache = ResolutionCache(str(tmp_path))
        lam = Weight.parse("vv^^")
        key = (2, 2, str(lam), "generic")
        body = tampered(lam, "summand 4 ^^vv 4\n", "summand 4 ^^vv 4\nsummand 4 ^v 4\n")
        arckit.cache.store(cache._path(key), body)
        assert resolve._shape_failures(resolve._deserialize(lam, body), lam) == [
            "summand P(^v) in component 4 lies in another block"
        ]
        assert cache.load(key) is None

    def test_failed_store_keeps_the_old_entry(self, tmp_path, monkeypatch):
        cache = ResolutionCache(str(tmp_path))
        lam = Weight.parse("v^v^")
        key = (2, 2, str(lam), "cone")
        c = resolve_cone(lam)
        cache.store(key, c)
        (entry,) = tmp_path.iterdir()
        whole = entry.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted before the rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", interrupted)
            with pytest.raises(OSError):
                cache.store(key, resolve_cone(Weight.parse("vv^^")))
        assert list(tmp_path.iterdir()) == [entry]  # no temp file left
        assert entry.read_bytes() == whole
        assert cache.load(key).differentials == c.differentials

    def test_concurrent_stores_never_show_a_partial_entry(self, tmp_path):
        path = str(tmp_path / "entry")
        payloads = [str(k) * 200_000 for k in range(3)]
        writer = (
            "import sys\nfrom arckit import cache\n"
            "for _ in range(20):\n    cache.store(sys.argv[1], sys.argv[2] * 200_000)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        procs = [
            subprocess.Popen([sys.executable, "-c", writer, path, str(k)], env=env)
            for k in range(3)
        ]
        deadline = time.monotonic() + 60
        try:
            reads = []
            while any(p.poll() is None for p in procs) and time.monotonic() < deadline:
                reads.append(arckit.cache.load(path))
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
            codes = [p.wait() for p in procs]
        assert codes == [0, 0, 0]
        reads.append(arckit.cache.load(path))
        first = next(i for i, r in enumerate(reads) if r is not None)
        # once an entry exists, every read sees one writer's whole payload
        assert set(reads[first:]) <= set(payloads)
        assert os.listdir(tmp_path) == ["entry"]
