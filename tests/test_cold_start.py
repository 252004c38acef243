"""What a fresh interpreter loads: ``import arckit`` loads no submodule,
``import arckit.cli`` loads no algebra module, a usage error is answered
before any algebra module loads, and a ``--cache`` hit before any algebra
module or hashlib (OpenSSL) does.  The algebra modules themselves load no
``dataclasses``, nor the ``inspect`` and ``ast`` it pulls in.  A cold
pass also counts its work, surgery products and compiled surgery plans:
numbers that no timing noise can move.

Each check runs in a subprocess and reads ``sys.modules`` there, since
this test process has long imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ALGEBRA = {
    f"arckit.{name}"
    for name in ("diagrams", "arcalg", "exact", "repmod", "resolve", "extalg", "ainfty")
}


def fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter; it leaves its findings in ``out``,
    which comes back with the ``arckit`` modules it loaded."""
    tail = (
        "\nout['loaded'] = sorted(m for m in sys.modules if m.split('.')[0] == 'arckit')"
        "\nsys.__stdout__.write(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\nout = {}\n" + script + tail],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_cli(argv: list[str]) -> dict:
    """``arckit.cli.main(argv)`` in a new interpreter: exit code, stdout,
    the ``arckit`` modules loaded and whether hashlib (OpenSSL) loaded."""
    return fresh(
        "import contextlib, io\n"
        "from arckit.cli import main\n"
        "buffer = io.StringIO()\n"
        "with contextlib.redirect_stdout(buffer):\n"
        f"    out['code'] = main({argv!r})\n"
        "out['stdout'] = buffer.getvalue()\n"
        "out['hashlib'] = sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
    )


def test_import_arckit_loads_no_submodule():
    out = fresh("import arckit\n")
    assert out["loaded"] == ["arckit"]


def test_every_public_name_resolves_to_its_defining_module():
    out = fresh(
        "import importlib, arckit\n"
        "out['missing_from_dir'] = sorted(set(arckit.__all__) - set(dir(arckit)))\n"
        "out['wrong'] = [\n"
        "    name for name, module in arckit._EXPORTS.items()\n"
        "    if getattr(arckit, name) is not getattr(\n"
        "        importlib.import_module(f'arckit.{module}'), name)\n"
        "]\n"
        "out['exported'] = sorted(arckit._EXPORTS) == arckit.__all__\n"
        "try:\n"
        "    arckit.no_such_name\n"
        "except AttributeError:\n"
        "    out['unknown'] = 'AttributeError'\n"
        "from arckit import *\n"
        "out['star'] = all(name in globals() for name in arckit.__all__)\n"
        "from arckit import ainfty\n"
        "out['submodule'] = ainfty.__name__\n"
    )
    assert out["wrong"] == [] and out["exported"] is True
    assert out["missing_from_dir"] == []
    assert out["unknown"] == "AttributeError"
    assert out["star"] is True
    assert out["submodule"] == "arckit.ainfty"


def test_import_cli_loads_no_algebra_module():
    out = fresh("import arckit.cli\n")
    assert out["loaded"] == ["arckit", "arckit.cache", "arckit.cli"]


@pytest.mark.parametrize(
    "argv",
    [
        ["cartan", "-m", "2", "-n", "2", "--format", "json"],
        ["ainfty", "-m", "2", "-n", "2", "--mode", "canonical", "--max-arity", "5"],
    ],
)
def test_warm_cache_hit_loads_no_algebra_module(argv, tmp_path):
    argv = argv + ["--cache", str(tmp_path)]
    cold = run_cli(argv)
    assert cold["code"] == 0 and cold["stdout"]
    assert ALGEBRA & set(cold["loaded"])  # the cold run computed the answer
    warm = run_cli(argv)
    assert warm["code"] == 0
    assert warm["stdout"] == cold["stdout"]
    assert not ALGEBRA & set(warm["loaded"])
    assert warm["hashlib"] == []  # the interpreter's built-in sha256


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "-m", "2", "-n", "1", "--bogus"],
        ["ainfty", "-m", "2", "-n", "2", "--max-arity", "1"],
    ],
)
def test_usage_error_loads_no_algebra_module(argv):
    out = run_cli(argv)
    assert out["code"] == 2
    assert not ALGEBRA & set(out["loaded"])


def test_algebra_modules_load_no_dataclasses_or_inspect():
    # the value classes are hand-written: importing dataclasses costs its
    # decoration and a chain of modules the algebra never uses
    out = fresh(
        "from arckit import ainfty, arcalg, diagrams, exact, extalg, repmod, resolve\n"
        "out['heavy'] = sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules))\n"
    )
    assert ALGEBRA <= set(out["loaded"])
    assert out["heavy"] == []


def _counting_surgeries(script: str) -> dict:
    """Run ``script`` in a new interpreter, counting each surgery product
    (an ``arcalg._carry`` call) and, after it, the compiled plans."""
    return fresh(
        "from arckit import arcalg\n"
        "carry, out['surgeries'] = arcalg._carry, 0\n"
        "def counted(*args):\n"
        "    out['surgeries'] += 1\n"
        "    return carry(*args)\n"
        "arcalg._carry = counted\n"
        + script
        + "out['plans'] = arcalg._plan.cache_info().currsize\n"
    )


def test_counted_work_of_a_homalg_pass():
    # the homalg-42 pass of benchmarks/worker.py: each x·d and z·rep_t
    # whose degree has no basis diagram where it lands is 0 unsurgered
    out = _counting_surgeries(
        "from arckit import extalg, resolve, weights_in_block\n"
        "weights = weights_in_block(4, 2)\n"
        "arcalg.basis(4, 2)\n"
        "for lam in weights:\n"
        "    assert resolve.verify_resolution(resolve.resolve_generic(lam), lam) == []\n"
        "for lam in weights:\n"
        "    for mu in weights:\n"
        "        extalg.ext_dims(lam, mu)\n"
    )
    assert (out["surgeries"], out["plans"]) == (293, 222)


def test_a_cold_split_compiles_its_plans():
    # the (3|2) canonical-n2 split of ainfty-32.  This number moves only on
    # purpose: skipping empty pieces inside _ProductTable.product would
    # drop 42 of these plans and move ainfty-32's rescaled metrics with
    # its raw times flat (ROADMAP item 5, defect 12)
    out = _counting_surgeries(
        "from arckit import build_splitting\n"
        "build_splitting(3, 2, 'canonical-n2').all_h_classes()\n"
    )
    assert out["plans"] == 221
