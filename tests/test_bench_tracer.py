"""The benchmark's span tracer still finds every name it wraps.

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
