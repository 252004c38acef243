"""Linear projective resolutions: shape, signs, exactness, oracles."""

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
from arckit.arcalg import hom_basis
from arckit.extalg import ext_dims, hom_windows_ok
from arckit.resolve import (
    ProjectiveComplex,
    ResolutionCache,
    _ab_type,
    expected_terms,
    sign_target_n1,
    sign_target_n2,
)
from oracles import hom_cohomology


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
                for (s, t), u in c.differentials[i - 1].items():
                    (src, _), (tgt, _) = c.components[i][s], c.components[i - 1][t]
                    sign = sign_target_n2(
                        lam,
                        src,
                        _ab_type(lam, src, i),
                        tgt,
                        _ab_type(lam, tgt, i - 1),
                    )
                    assert u == sign * _unique_degree_one(src, tgt)

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


class TestNegativeControl:
    def test_flipped_sign_breaks_d_squared(self):
        # flipping a single differential block must be caught
        lam = Weight.parse("vv^^")
        c = resolve_cone(lam)
        assert len(c) >= 3
        flipped = []
        for i, block in enumerate(c.differentials):
            block = dict(block)
            if i == 1:
                key = sorted(block)[0]
                block[key] = -1 * block[key]
            flipped.append(block)
        broken = ProjectiveComplex(c.weight, c.components, tuple(flipped))
        failures = verify_resolution(broken, lam)
        assert any("d^2" in msg or "square" in msg or "zero" in msg for msg in failures) or failures


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
                cache.store(key, resolve_cone(lam, normalize=False))
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
