"""The benchmark's span tracer still finds every name it wraps, and the
splitting still holds the data the benchmark worker reads.

``benchmarks/tracer.py`` rebinds ``arckit`` functions and methods by name
for traced benchmark runs, so a rename in ``src/`` would only show up when
the benchmark runs with ``--trace 1``.  ``Tracer.install()`` rebinds module
globals, so it runs in a fresh interpreter here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from arckit import build_splitting
from arckit.extalg import hom_space

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, importlib, io, json, pkgutil, sys, tempfile
import arckit
for info in pkgutil.iter_modules(arckit.__path__):
    importlib.import_module(f"arckit.{info.name}")
import tracer
named = {f"arckit.{entry[0]}" for entry in tracer.FUNCTIONS + tracer.METHODS + tracer.CACHES}
missing = sorted(named - set(sys.modules))
t = tracer.Tracer()
t.install()
with tempfile.TemporaryDirectory() as cache:
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            code = arckit.cli.main(["resolve", "-m", "1", "-n", "1", "--lambda", "v^", "--cache", cache])
        assert code == 0
print(json.dumps({"missing": missing, "counters": t.counters, "spans": t.summary()["spans"]}))
"""


def test_tracer_installs_on_every_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    # one document lookup per command; the second run is served from the cache
    assert result["counters"] == {"cli.cache.lookups": 2, "cli.cache.hits": 1}
    spans = result["spans"]
    assert spans["resolve.cache.load"]["calls"] == 1
    assert spans["resolve.cache.store"]["calls"] == 1


def test_the_splitting_keeps_what_the_worker_reads():
    # under --trace 1, benchmarks/worker.py counts ainfty.h_dim and
    # ainfty.hom_dim off split._pairs and each _SpaceSplit's h_classes and space
    split = build_splitting(2, 2, "canonical-n2")
    classes = split.all_h_classes()
    assert sum(len(s.h_classes) for pair in split._pairs.values() for s in pair.values()) == (
        len(classes)
    )
    for (lam, mu), pair in split._pairs.items():
        for k, s in pair.items():
            assert len(s.space) == len(hom_space(lam, mu, k))
