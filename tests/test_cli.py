"""The command-line interface: outputs, exit codes, caching, rendering."""

import argparse
import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

import arckit.cache
from arckit import cli
from arckit.cli import main

DATA = Path(__file__).parent / "data"

TRACE_X = "cups=(0,3);(1,2) rays=4 | vv^^v | cups=(1,2);(3,4) rays=0"
TRACE_Y = "cups=(1,2);(3,4) rays=0 | vv^^v | cups=(0,3);(1,2) rays=4"
ZERO_X = "cups= rays=0,1,2 | ^vv | cups=(0,1) rays=2"
ZERO_Y = "cups=(0,1) rays=2 | ^vv | cups= rays=0,1,2"


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


class TestBasics:
    def test_klpoly_worked_example(self):
        code, out, _ = run(
            ["klpoly", "-m", "4", "-n", "2", "--lambda", "vvvv^^", "--mu", "v^vv^v"]
        )
        assert code == 0
        assert out.strip() == "q^4 + q^2"

    def test_klpoly_both_methods_agree(self):
        code, out, _ = run(
            [
                "klpoly", "-m", "4", "-n", "2",
                "--lambda", "vvvv^^", "--mu", "v^vv^v",
                "--method", "both", "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["polynomial"] == "q^4 + q^2"

    def test_kl_index_shorthand(self):
        # --kl k,l is translated to the weight string
        code_a, out_a, _ = run(
            ["klpoly", "-m", "2", "-n", "2", "--kl", "3,1", "--mu-kl", "2,1"]
        )
        code_b, out_b, _ = run(
            ["klpoly", "-m", "2", "-n", "2",
             "--lambda", "v^v^", "--mu", "v^^v"]
        )
        assert code_a == code_b == 0
        # same block, translated weights: both runs produce a polynomial
        assert out_a.strip() and out_b.strip()

    def test_basis_count(self):
        code, out, _ = run(["basis", "-m", "2", "-n", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["count"] == 9

    def test_decomp_table(self):
        code, out, _ = run(["decomp", "-m", "2", "-n", "1"])
        assert code == 0
        assert "^vv" in out and "q" in out

    def test_multiply(self):
        code, out, _ = run(
            ["multiply", "-m", "3", "-n", "2", "--format", "json", TRACE_X, TRACE_Y]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["zero"] is False
        assert doc["terms"] == [
            {
                "coeff": "1",
                "diagram": "cups=(0,3);(1,2) rays=4 | ^v^vv | cups=(0,3);(1,2) rays=4",
            }
        ]


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert run(["nosuch"])[0] == 2

    def test_malformed_weight_is_usage_error(self):
        code, _, err = run(
            ["klpoly", "-m", "4", "-n", "2", "--lambda", "xxxx", "--mu", "v^vv^v"]
        )
        assert code == 2

    def test_block_mismatch_is_domain_error(self):
        code, _, err = run(
            ["klpoly", "-m", "4", "-n", "2", "--lambda", "vv^^", "--mu", "v^vv^v"]
        )
        assert code == 1

    def test_kl_out_of_range_is_domain_error(self):
        code, _, _ = run(
            ["klpoly", "-m", "2", "-n", "2", "--kl", "2,2", "--mu-kl", "2,1"]
        )
        assert code == 1

    def test_malformed_diagram_is_usage_error(self):
        code, _, _ = run(["multiply", "-m", "3", "-n", "2", "not a diagram", TRACE_Y])
        assert code == 2

    def test_unwritable_output_is_error(self, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(["decomp", "-m", "2", "-n", "1", "-o", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_a_large_max_arity_is_no_traceback(self):
        # each arity's tuples are enumerated without recursion, so an arity
        # above the interpreter's recursion limit is answered, not crashed on
        code, out, err = run(
            ["ainfty", "-m", "1", "-n", "1", "--max-arity", "1200", "--format", "json"]
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["products"]) == 1199

    @pytest.mark.parametrize("flags", [
        ["--lambda", "vv^^"], ["--lambda", "vv^"], ["--mu", "v^v^"], ["--kl", "1,2"],
        ["--mu-kl", "1,2"], ["--j", "1"], ["--mu-j", "1"],
    ])
    def test_extdim_all_with_a_weight_flag_is_usage_error(self, flags):
        code, out, err = run(["extdim", "-m", "2", "-n", "2", "--all", *flags])
        assert (code, out) == (2, "")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--mu", "vv^"], ["--mu", "v^v^"], ["--mu-j", "1"], ["--mu-j", "5"], ["--mu-kl", "1,0"],
    ])
    def test_basis_mu_without_lambda_is_usage_error(self, flags):
        code, out, err = run(["basis", "-m", "2", "-n", "1", *flags])
        assert (code, out) == (2, "")
        assert "Traceback" not in err

    def test_max_arity_below_two_is_usage_error(self):
        code, out, _ = run(["ainfty", "-m", "1", "-n", "1", "--max-arity", "1"])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv, code", [
        (["klpoly", "-m", "2", "-n", "2", "--j", "1", "--mu-kl", "2,1"], 2),
        (["klpoly", "-m", "2", "-n", "1", "--kl", "1,0", "--mu-j", "1"], 2),
        (["klpoly", "-m", "2", "-n", "2", "--kl", "3", "--mu-kl", "2,1"], 2),
        (["extdim", "-m", "2", "-n", "2", "--kl", "3,1", "--mu-kl", "3"], 2),
        (["multiply", "-m", "2", "-n", "1", TRACE_X, TRACE_Y], 1),
        (["render", "-m", "1", "-n", "1"], 2),
        (["render", "-m", "1", "-n", "1", "--weight", "v^", "--product", TRACE_X, TRACE_Y], 2),
        (["render", "-m", "1", "-n", "1", "--weight", "vx"], 2),
        (["render", "-m", "1", "-n", "1", "--weight", "v^v"], 1),
        (["render", "-m", "2", "-n", "1", "--weight", "v^"], 1),
        (["multtable", "-m", "2", "-n", "1"], 1),
        (["ainfty", "-m", "2", "-n", "3", "--mode", "canonical"], 1),
    ], ids=lambda x: " ".join(x[:7]) if isinstance(x, list) else str(x))
    def test_rejected_input_prints_nothing_and_no_traceback(self, argv, code):
        got, out, err = run(argv)
        assert (got, out) == (code, "")
        assert err and "Traceback" not in err


class TestReports:
    def test_extdim_oracle_total(self):
        code, out, _ = run(
            ["extdim", "-m", "3", "-n", "1", "--all", "--oracle", "shelton",
             "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle_match"] is True
        assert doc["oracle_total"] == 16
        assert sum(row["total"] for row in doc["rows"]) == 16

    def test_ainfty_report(self):
        code, out, _ = run(
            ["ainfty", "-m", "2", "-n", "2", "--mode", "canonical",
             "--max-arity", "5", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["q_lambda3_zero"] is True
        assert doc["q_lambda2_products_zero"] is True
        assert doc["stasheff"]["violations"] == 0
        assert doc["stasheff"]["checked"] > 0
        products = doc["products"]
        assert products["3"]["nonzero_tuples"] > 0
        assert products["4"]["nonzero_tuples"] == 0
        assert products["5"]["nonzero_tuples"] == 0

    def test_multtable(self):
        code, out, _ = run(["multtable", "-m", "2", "-n", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"] == ["Id", "F", "Ftilde", "G", "K", "J"]
        assert len(doc["families"]) == 36

    def test_resolve_verify(self):
        code, out, _ = run(
            ["resolve", "-m", "2", "-n", "2", "--lambda", "vv^^", "--verify",
             "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        assert doc["issues"] == []

    def test_quiver(self):
        code, out, _ = run(
            ["quiver", "-m", "2", "-n", "2", "--algebra", "ext", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 6

    @pytest.mark.parametrize("n", ["3", "4"])
    def test_each_relation_factor_names_one_generator(self, n):
        code, out, _ = run(["quiver", "-m", "2", "-n", n, "--algebra", "ext", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        generators = [
            [g["label"], g["source"], g["target"], g["k"], g["j"]] for g in doc["generators"]
        ]
        factors = [r[side] for r in doc["relations"] for side in ("left", "right")]
        assert factors and any(f[0] == "generic" for f in factors)
        for factor in factors:
            assert sum(g[: len(factor)] == factor for g in generators) == 1


class TestDeterminismAndCache:
    def test_json_round_trip_fixpoint(self):
        _, out, _ = run(
            ["extdim", "-m", "2", "-n", "2", "--all", "--format", "json"]
        )
        doc = json.loads(out)
        assert json.loads(json.dumps(doc, indent=2, sort_keys=True)) == doc

    def test_repeated_runs_identical(self):
        args = ["cartan", "-m", "2", "-n", "2", "--format", "json"]
        assert run(args) == run(args)

    def test_cache_cold_vs_warm(self, tmp_path):
        args = [
            "resolve", "-m", "2", "-n", "2", "--lambda", "v^v^",
            "--format", "json", "--cache", str(tmp_path),
        ]
        cold = run(args)
        assert cold[0] == 0
        assert any(tmp_path.iterdir())
        warm = run(args)
        assert warm == cold

    def test_cached_resolution_serves_verify(self, tmp_path):
        # the resolve cache is filled by a plain run and read by --verify,
        # whose document is not in the CLI cache yet
        args = ["resolve", "-m", "2", "-n", "1", "--lambda", "vv^"]
        cache = ["--cache", str(tmp_path)]
        reference = run(args + ["--verify"])
        assert reference[0] == 0
        assert run(args + cache)[0] == 0
        assert run(args + cache + ["--verify"]) == reference

    def test_truncated_document_entry_is_recomputed(self, tmp_path):
        args = ["cartan", "-m", "2", "-n", "1"]
        cache = ["--cache", str(tmp_path)]
        reference = run(args)
        assert run(args + cache) == reference
        (entry,) = tmp_path.iterdir()
        whole = entry.read_bytes()
        entry.write_bytes(whole[: len(whole) // 2])
        assert run(args + cache) == reference
        assert entry.read_bytes() == whole  # overwritten by the recomputation

    def test_resolution_entry_missing_a_summand_line(self, tmp_path):
        args = ["resolve", "-m", "2", "-n", "1", "--lambda", "vv^"]
        cache = ["--cache", str(tmp_path)]
        reference = run(args + ["--verify"])
        assert run(args + cache)[0] == 0
        (entry,) = [p for p in tmp_path.iterdir() if "\nsummand " in p.read_text()]
        lines = entry.read_text().splitlines(keepends=True)
        entry.write_text("".join(l for l in lines if not l.startswith("summand 1 ")))
        # the --verify document is not cached, so the resolution entry is read
        assert run(args + cache + ["--verify"]) == reference

    @staticmethod
    def _tampered_resolution_is_recomputed(tmp_path, old, new):
        from arckit.diagrams import Weight
        from arckit.resolve import ResolutionCache, _serialize, resolve_generic

        args = ["resolve", "-m", "2", "-n", "2", "--lambda", "vv^^", "--method", "generic"]
        args += ["--verify", "--cache", str(tmp_path)]
        reference = run(args[:-2])
        whole = _serialize(resolve_generic(Weight.parse("vv^^")))
        assert old in whole
        path = ResolutionCache(str(tmp_path))._path((2, 2, "vv^^", "generic"))
        arckit.cache.store(path, whole.replace(old, new, 1))
        assert run(args) == reference  # exit 0, the same bytes, nothing on stderr
        assert arckit.cache.load(path) == whole  # overwritten by the recomputation

    def test_resolution_entry_outside_its_summands_is_recomputed(self, tmp_path):
        # a checksum-valid entry whose component 0 is P(v^v^): every d_1
        # entry lies outside its summands
        self._tampered_resolution_is_recomputed(tmp_path, "summand 0 vv^^ 0", "summand 0 v^v^ 0")

    def test_resolution_entry_with_a_diagram_of_another_block_is_recomputed(self, tmp_path):
        # a d_2 entry replaced by a diagram of (3|1) whose cup and cap
        # diagrams equal those of the (2|2) diagram it replaces
        old = "cups=(2,3) rays=0,1 | ^v^v | cups=(1,2) rays=0,3"
        self._tampered_resolution_is_recomputed(tmp_path, old, old.replace("^v^v", "vv^v"))

    def test_resolution_entry_with_a_summand_of_another_block_is_recomputed(self, tmp_path):
        # P(^v)<4>, a projective of (1|1), added to C_4
        old = "summand 4 ^^vv 4\n"
        self._tampered_resolution_is_recomputed(tmp_path, old, old + "summand 4 ^v 4\n")

    def test_resolution_entry_that_does_not_parse_is_recomputed(self, tmp_path):
        # a line of no known kind: the deserializer's "corrupt cache line"
        self._tampered_resolution_is_recomputed(tmp_path, "summand 4 ", "garbled 4 ")

    def test_resolution_entry_with_a_nonlinear_summand_is_recomputed(self, tmp_path):
        # P(^v^v)<2> in C_1: served, the verifier would report the summand
        self._tampered_resolution_is_recomputed(tmp_path, "summand 1 ^v^v 1", "summand 1 ^v^v 2")

    def test_document_entry_that_is_not_json_is_recomputed(self, tmp_path):
        # unlike a truncated entry, this one's checksum holds
        args = ["cartan", "-m", "2", "-n", "1", "--cache", str(tmp_path)]
        reference = run(args[:-2])
        assert run(args) == reference
        (entry,) = tmp_path.iterdir()
        whole = arckit.cache.load(str(entry))
        arckit.cache.store(str(entry), "{not json")
        assert arckit.cache.load(str(entry)) == "{not json"
        assert run(args) == reference
        assert arckit.cache.load(str(entry)) == whole  # overwritten by the recomputation

    def test_entry_under_other_source_is_not_served(self, tmp_path, monkeypatch):
        args = ["klpoly", "-m", "2", "-n", "2", "--lambda", "vv^^", "--mu", "^^vv"]
        cache = ["--cache", str(tmp_path)]
        reference = run(args)
        with monkeypatch.context() as patch:
            # what another version of the code left behind for the same command
            patch.setattr(arckit.cache, "source_digest", lambda: "0" * 64)
            assert run(args + cache) == reference
            (entry,) = tmp_path.iterdir()
            arckit.cache.store(str(entry), json.dumps({"polynomial": "stale"}))
            assert run(args + cache) == (0, "stale\n", "")
        assert run(args + cache) == reference

    def test_cache_holds_only_whole_entries(self, tmp_path):
        cache = ["--cache", str(tmp_path)]
        for args in (
            ["resolve", "-m", "2", "-n", "2", "--lambda", "v^v^", "--verify"],
            ["extdim", "-m", "2", "-n", "1", "--all", "--format", "json"],
            ["klpoly", "-m", "2", "-n", "2", "--lambda", "vv^^", "--mu", "^^vv"],
        ):
            assert run(args + cache)[0] == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 4  # three documents and one resolution
        assert all(len(n) == 64 and set(n) <= set("0123456789abcdef") for n in names)

    def test_cache_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARCKIT_CACHE", str(tmp_path))
        code, _, _ = run(
            ["resolve", "-m", "2", "-n", "2", "--lambda", "v^^v",
             "--format", "json"]
        )
        assert code == 0
        assert any(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["cartan", "-m", "2", "-n", "1"],
        ["resolve", "-m", "2", "-n", "1", "--lambda", "vv^", "--verify"],
    ])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_an_unwritable_cache_warns_and_answers(self, tmp_path, monkeypatch, args, via):
        # a cache location that is a regular file: no entry can be written
        # under it, so the run answers as uncached, with one warning line
        blocker = tmp_path / "file"
        blocker.write_text("")
        _, want, _ = run(args)
        if via == "env":
            monkeypatch.setenv("ARCKIT_CACHE", str(blocker))
        code, out, err = run(args + (["--cache", str(blocker)] if via == "flag" else []))
        assert (code, out) == (0, want)
        assert err.startswith("warning:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert blocker.read_text() == ""


# sha256 of stdout, or of the -o file for render, recorded while the n = 2
# labelled ranges were still written out in cli.py and ainfty.py: every
# README command as written (the text renderers), then the outputs that
# read the labelled classes' table and the n = 1 labelled basis
PINNED_DIGESTS = {
    ("klpoly", "-m", "4", "-n", "2", "--lambda", "vvvv^^", "--mu", "v^vv^v",
     "--method", "both"): "7a1de28601410892fd79fb9305fe7c6931c6f6f8bc32b70a3d698876d62b4e57",
    ("basis", "-m", "2", "-n", "1"):
        "c43d65b6616200fc932730f7420aac76c254480dc7cfa4c0faf2c1ac42b5e6e9",
    ("multiply", "-m", "3", "-n", "2", TRACE_X, TRACE_Y):
        "02e60fd5a7b14bdea93298da350437c160189539cc54a838926652460419243f",
    ("decomp", "-m", "2", "-n", "1"):
        "eb5404a01c0f54755680d367cac219a19540a6d668cada7bacb978fdeab2bcc6",
    ("cartan", "-m", "2", "-n", "2", "--format", "json"):
        "1adc3bdca9cdba21b25d6f2e55fc9e675f91b3574b7d021863fb9fa1c7eec08f",
    ("resolve", "-m", "2", "-n", "2", "--lambda", "vv^^", "--verify"):
        "a1c69913eef0803e40f665c98cadfb97468d6c36d671d015560a723db62514e5",
    ("extdim", "-m", "3", "-n", "1", "--all", "--oracle", "shelton"):
        "b0fcf5daf0fd4569f0957b1dd2093cd4bc1e51ecccdc4d52135587a1ad38edce",
    ("multtable", "-m", "2", "-n", "2"):
        "b43a3f581830418b5600b07814486daf7c0906e37ffe0fe766cc0b01f90be51a",
    ("quiver", "-m", "2", "-n", "2", "--algebra", "ext", "--format", "json"):
        "a1e6ea5303c25709837b3e1deaa68abbd19317de56f7f4ece7adb810881c7b37",
    ("ainfty", "-m", "2", "-n", "2", "--mode", "canonical", "--max-arity", "5"):
        "58c9905b725f5cea1a31c46f781b681e49bac76049c2fc2c100c40777acd2dc4",
    ("render", "-m", "1", "-n", "1", "--weight", "v^", "-o", "idempotent.svg"):
        "c43ba98a5938b5cb49f44a305607c7f576b9d95fcea5c8a42e568ed3a6b7f2b2",
    ("render", "-m", "3", "-n", "2", "--product", TRACE_X, TRACE_Y, "-o", "trace.svg"):
        "72ad6b9263307f96d93a0e6b6554108b59267ef74412b0e9ccd7855199af1a88",
    ("multtable", "-m", "3", "-n", "2", "--format", "json"):
        "5395808556fab75a7a6ad477068391edd0fb51a4a0757a02812c2b1fcb96a4e6",
    ("multtable", "-m", "4", "-n", "2", "--format", "json"):
        "92679df561d258ee247b3d0734cde1816ef4aae3467a4089b8f9ec20771e1df0",
    ("quiver", "-m", "3", "-n", "2", "--algebra", "ext", "--format", "json"):
        "16c5a9d38798791760687eddd336441a8eca62fca533d72742175421a4186e91",
    ("extbasis", "-m", "4", "-n", "2", "--lambda", "vvvv^^", "--mu", "^^vvvv",
     "--format", "json"): "16afd0b5405793d819b9f711ae020e8c9591e57b8003099243975a336e31db47",
    ("extbasis", "-m", "3", "-n", "1", "--j", "3", "--mu-j", "0", "--format", "json"):
        "e9fef1b1b0badc901a2eac6cf9a0e33d307fd8bbb82037e75661fc282863e855",
    # recorded while ext_basis and the splitting each picked their classes,
    # and ext_quiver decomposed each generator product twice
    ("extbasis", "-m", "3", "-n", "2", "--kl", "4,3", "--mu-kl", "1,0", "--format", "json"):
        "e8e00a427501c3448a2f4cea689ea6c2c4bbf0f7814614f5b87c2afc356d3874",
    ("extbasis", "-m", "3", "-n", "2", "--kl", "4,3", "--mu-kl", "1,0",
     "--method", "generic", "--format", "json"):
        "f05b339a4a5cdf9bbea5bfffae5d7d6d923493b73126565b315344cc8eead4d3",
    ("extbasis", "-m", "2", "-n", "3", "--lambda", "vv^^^", "--mu", "^^^vv",
     "--format", "json"): "eb65236bd03652fcaeab728f7bfe8d8ed75880ffa2c4661d61ace2904c5ab3fd",
    ("quiver", "-m", "3", "-n", "1", "--algebra", "ext", "--format", "json"):
        "b784d6f78768de9cdf3b1b091ded1df9255a2ea36ced3337d095c4ae7bc6ad6b",
    # re-pinned once a generic class's coefficient key names its position
    # (the old bytes merged the coefficients of classes of one (label, k, j)),
    # and again once a generic relation factor carries its generator's k and
    # j (the old factors named two generators each)
    ("quiver", "-m", "2", "-n", "3", "--algebra", "ext", "--format", "json"):
        "b1123743d3850dbece0aa088ad9662eaf90c949f99a02c29ea703e83ea8c8a9c",
    # a generic resolution of (4|2), whose radicals come from the product table
    ("resolve", "-m", "4", "-n", "2", "--lambda", "vvvv^^", "--method", "generic",
     "--verify", "--format", "json"):
        "f538385b397ecf71071d9918ee71eb8d5ca6f7f1d4d2b7f56dfbab1b19ec5296",
    # every Ext dimension of (4|3), each matrix entry one coefficient of one
    # surgery product, and a generic resolution of (3|3) with its
    # degree-one radicals and right-action tables; recorded before either
    ("extdim", "-m", "4", "-n", "3", "--all", "--oracle", "shelton", "--format", "json"):
        "26ba356a52d9b3e1ffeaad0ab6f66fbb7472d08625f92e6e486462891d01b98c",
    ("resolve", "-m", "3", "-n", "3", "--lambda", "vv^v^^", "--method", "generic",
     "--verify", "--format", "json"):
        "a677478321037b5e96b9164e8155c82d475d84f00793fe52f0765e0a247b264c",
    # the longest weight of (5|3), resolved generically
    ("resolve", "-m", "5", "-n", "3", "--lambda", "vvvvv^^^", "--method", "generic",
     "--verify", "--format", "json"):
        "d5ccb6a56b904d9b03daf0e926f5c4f7ef45c8027f3d5dd9e8a59a1a219b379d",
    # the raw (n = 3, unnormalized) cone resolution of the longest weight of
    # (4|3), whose recursion passes through (3|3), (2|3) and (1|3); recorded
    # before the recursion was memoized
    ("resolve", "-m", "4", "-n", "3", "--lambda", "vvvv^^^", "--method", "cone",
     "--verify", "--format", "json"):
        "551984b9cd6655f931c405a49d466a66a402ac47c4a8608a9085dbf3fe2049e6",
    # the raw cone resolution of the longest weight of (4|4); recorded while
    # the chain-map lift still built its own equation system
    ("resolve", "-m", "4", "-n", "4", "--lambda", "vvvv^^^^", "--method", "cone",
     "--verify", "--format", "json"):
        "9e0cf058b1da458d89bbebec1be40b8e7f7f19dba8d94d73f88e2a4eab9a69f6",
    # the quiver of K_m^n itself, recorded while its arrows and relations
    # were read off hom_basis and multiply
    ("quiver", "-m", "2", "-n", "2", "--algebra", "end", "--format", "json"):
        "56b50da28605d3dccb52e98d3d77d3b66859ffedd437c845784a8791a634d6a4",
    ("quiver", "-m", "3", "-n", "2", "--algebra", "end", "--format", "json"):
        "6bba885345c9b468321843c39ec6d836e1b22ab688275acf20320cac4f384280",
    ("quiver", "-m", "2", "-n", "3", "--algebra", "end", "--format", "json"):
        "eb7993d46e686f1f2739d625e6bcd1e322d070723e9736a488f80622f9246197",
    # text renderers and arguments that no command above reaches
    ("quiver", "-m", "2", "-n", "2", "--algebra", "end"):
        "90bd7fdd559fbb686386844a1cfcabd21dd7ea7828eeb86a3c6c45d02562ad8d",
    ("quiver", "-m", "2", "-n", "2", "--algebra", "ext"):
        "c45efe232ee35aabb96fc68389efc7fb1c49826edf4e2af7957a66e2c8249ce5",
    ("extbasis", "-m", "2", "-n", "2", "--lambda", "vv^^", "--mu", "^^vv"):
        "3e090d0fe6b5eac5183ca5ffa03b148fd30bbaa71471fca9255f0dbab0092f43",
    ("basis", "-m", "2", "-n", "2", "--lambda", "vv^^", "--mu", "v^v^"):
        "e550edf7b6aaa7f96a90de6a6c9990ae9d1100395ea6aa3cc063f124bb32d6a4",
    ("extdim", "-m", "2", "-n", "2", "--lambda", "vv^^", "--mu", "^^vv"):
        "2f63fa4246d0ab4e8aa65aae62850404e0035c57999a103be2500253fa136910",
    # two diagrams that stack and whose product is 0: the output is "0"
    ("multiply", "-m", "2", "-n", "1", ZERO_X, ZERO_Y):
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    # the Ext quiver of (4|2) and the table of (5|2), recorded while each
    # product was decomposed by its own solve
    ("quiver", "-m", "4", "-n", "2", "--algebra", "ext", "--format", "json"):
        "3e6ef570d6b33993af5b5fffb8dabe6d113da1598a33c23d4680c9afa781b89d",
    ("multtable", "-m", "5", "-n", "2", "--format", "json"):
        "013bbdbe5c7c821e6a0556eedfb1f0ce31b7360639711888e6cc223a41c16325",
    # the Ext quivers of (5|2) and (2|4), recorded while ext_quiver composed
    # each pair of classes and read Π of the product off a second split
    ("quiver", "-m", "5", "-n", "2", "--algebra", "ext", "--format", "json"):
        "4f6022666310f1b2402445dee2aef1a57f4fff9be084265f885d60e7e6dc7dc6",
    ("quiver", "-m", "2", "-n", "4", "--algebra", "ext", "--format", "json"):
        "d163565d148a494354c236d445ddec6bba81d00ef567e3a0083c3975cd5b0ee1",
    # canonical mode on an n = 1 block: 24 identities checked, 0 violations,
    # and the per-arity counts of generic mode
    ("ainfty", "-m", "3", "-n", "1", "--mode", "canonical", "--format", "json"):
        "b0411cc6d9ba969c97722a41bc2cc16ba994eb774d8f477c5688d6b9f36d8735",
    # every Ext dimension of (3|3), recorded while weights were equal by
    # their labels and hashed like them
    ("extdim", "-m", "3", "-n", "3", "--all"):
        "aa40e2dfbda33c56ad69fd0bb7765ffff323eacd315d3b7c649073e432e8e056",
}

# pins the installed-script step of CI checks and tier-1 does not run,
# each too slow for tier-1: the generic resolution of the longest weight of
# (4|4), 16 components, whose --verify ranks each d_i's per-degree matrices
# over every degree (about 2.4 s), the first generic A-infinity report of
# (3|3), its products read off a larger product table than any test builds,
# the (3|3) report to arity 6, where every arity-6 chain is zero by its
# bidegree (about 25 s), the Ext quiver of (3|3) (about 1 s), recorded
# while each product was decomposed by its own solve, and the Ext
# dimensions of every pair of (4|4) against the recursion, 4,900 rows and
# 7,014 in all (about 0.9 s), recorded while ext_dims read the
# sign-normalized resolution and surgered every term
CI_ONLY_DIGESTS = {
    ("resolve", "-m", "4", "-n", "4", "--lambda", "vvvv^^^^", "--method", "generic",
     "--verify", "--format", "json"):
        "b137b4604f8b92c2dd119fd4de23571bad251d918d2cdc4cfec508035f4cf254",
    ("ainfty", "-m", "3", "-n", "3", "--max-arity", "3", "--format", "json"):
        "cb7145789072602afae778c4c4ff3724a67c281e41f043681d512eacf05f0e99",
    ("ainfty", "-m", "3", "-n", "3", "--max-arity", "6", "--format", "json"):
        "d279a15e05c2eee8d6f4ea1e17e2b066cf6dd64b74d5d1f50dc49713e9da39d6",
    ("quiver", "-m", "3", "-n", "3", "--algebra", "ext", "--format", "json"):
        "d80e1149a62d03263c7099e2af3283ac322691ac13ae4543efabd8612c8d6cec",
    ("extdim", "-m", "4", "-n", "4", "--all", "--oracle", "shelton", "--format", "json"):
        "537163ff00f020bf03b1ee3611df0e5fc8be4c159c8d344734058d3c511513c1",
}


def _pin_id(args):
    # a pin is named by its first five arguments; the quiver pins share
    # those, so each but the Ext quivers in JSON is named by its whole argv
    if args[0] == "quiver" and args[5:] != ("--algebra", "ext", "--format", "json"):
        return " ".join(args)
    return " ".join(args[:5])


class TestPinnedOutputs:
    @pytest.mark.parametrize("args", list(PINNED_DIGESTS), ids=_pin_id)
    def test_output_is_unchanged(self, args, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(list(args))
        assert (code, err) == (0, "")
        if "-o" in args:
            out = (tmp_path / args[args.index("-o") + 1]).read_text()
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[args]


# each subcommand's first README command above; then, for every
# subcommand, its help, an unknown flag, a missing -m and a bad --format;
# then argv that name no subcommand
PARSER_CASES = list({args[0]: list(args) for args in reversed(PINNED_DIGESTS)}.values())
PARSER_CASES += [
    argv
    for name in cli._COMMANDS
    for argv in (
        [name, "--help"],
        [name, "-m", "2", "-n", "2", "--bogus"],
        [name, "-n", "2"],
        [name, "-m", "2", "-n", "2", "--format", "xml"],
    )
]
PARSER_CASES += [["--help"], ["nosuch", "-m", "2"], []]


class TestOneSubparser:
    def test_a_named_subcommand_builds_only_its_subparser(self):
        def subcommands(parser):
            (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return list(action.choices)

        assert subcommands(cli._build_parser()) == list(cli._COMMANDS)
        for name in cli._COMMANDS:
            assert subcommands(cli._build_parser(name)) == [name]
        assert subcommands(cli._build_parser("nosuch")) == list(cli._COMMANDS)

    @pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda a: " ".join(a[:5]) or "empty")
    def test_main_answers_as_with_the_full_parser(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where render's -o writes
        full_parser = cli._build_parser

        def outcome():
            result = run(argv)
            files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
            for p in tmp_path.iterdir():
                p.unlink()
            return result, files

        one = outcome()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_build_parser", lambda only=None: full_parser())
            assert outcome() == one
        if one[0][0] == 0 and "--help" not in argv:
            args_one = cli._build_parser(argv[0]).parse_args(argv)
            args_full = cli._build_parser().parse_args(argv)
            assert vars(args_one) == vars(args_full)
            assert cli._cache_path("d", args_one) == cli._cache_path("d", args_full)


class TestHash:
    @pytest.mark.parametrize(
        "data",
        [b"", b"arckit resolve -m 2 -n 2", "λ ∧ ∨ μ".encode(), bytes(range(256)) * 4096],
        ids=["empty", "ascii", "utf-8", "1MB"],
    )
    def test_the_builtin_sha256_is_hashlibs(self, data):
        assert arckit.cache._sha256(data) == hashlib.sha256(data).hexdigest()


class TestRender:
    def test_idempotent_diagram(self, tmp_path):
        target = tmp_path / "e.svg"
        code, _, _ = run(
            ["render", "-m", "1", "-n", "1", "--weight", "v^", "-o", str(target)]
        )
        assert code == 0
        svg = target.read_text()
        assert svg.startswith("<svg")
        assert svg.count("path") >= 2  # one cup, one cap
        assert "∧" in svg and "∨" in svg

    def test_trace_matches_golden_file(self, tmp_path):
        target = tmp_path / "trace.svg"
        code, _, _ = run(
            ["render", "-m", "3", "-n", "2", "--product", TRACE_X, TRACE_Y,
             "-o", str(target)]
        )
        assert code == 0
        assert target.read_bytes() == (DATA / "trace_golden.svg").read_bytes()

    @pytest.mark.parametrize("picture", [["--weight", "v^"], ["--product", TRACE_X, TRACE_Y]])
    def test_json_document_holds_the_svg_that_o_writes(self, picture, tmp_path):
        m, n = ("1", "1") if picture[0] == "--weight" else ("3", "2")
        argv = ["render", "-m", m, "-n", n, *picture]
        code, out, err = run(argv + ["--format", "json"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert sorted(doc) == ["block", "svg"] and doc["block"] == [int(m), int(n)]
        target = tmp_path / "out.svg"
        assert run(argv + ["-o", str(target)])[0] == 0
        assert doc["svg"].encode() == target.read_bytes()

    def test_invalid_diagram_is_usage_error(self):
        code, _, _ = run(
            ["render", "-m", "3", "-n", "2", "--diagram", "garbage"]
        )
        assert code == 2
