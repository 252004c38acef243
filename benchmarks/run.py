"""Benchmark harness for arckit: fixed workloads timed end to end, and a
separate traced run for per-layer numbers.

    python3 benchmarks/run.py --workload ainfty-32 --seed 1 --seconds 10 --trace 0

Run from anywhere; paths are taken relative to this file, and the program
under test is the checkout's ``src/arckit`` (stdlib only, nothing to
build).  Every process is a fresh interpreter, single-threaded, started
one at a time, because command-line users pay the import, the
``lru_cache``s and the lazy splittings on every run.

Workloads (the seed only permutes the order of the ops; see ``worker.py``
and ``cli_session.py``):

* ``ainfty-32``  A∞ minimal model on (3|2), canonical-n2 splitting: 4,232
  ``pi_coefficients(lambda_n(...))`` queries.  Loads the splitting build,
  ``exact.solve`` on a few dozen fixed matrices and the surgery product.
* ``homalg-42``  generic resolutions (with verification) of the 15 weights
  of (4|2) and ``ext_dims`` on its 225 ordered pairs.  Never touches
  ``ainfty``; time goes to the surgery product, ``resolve_generic`` and
  one-shot ranks.
* ``cli-session`` every README command plus error paths as separate
  ``arckit`` processes, on an empty ``--cache`` dir and then again on the
  same dir.  Time goes to interpreter start, import and both caches.

One run repeats whole passes until ``--seconds`` have been measured, with
a per-workload minimum (three sessions for ``cli-session`` so that p90 has
at least 100 samples).  Set-up time is the median over several fresh
processes.  Times are reported in reference-speed seconds: the host's
speed drifts with other tenants' load, so every interval is rescaled by
a machine-speed sample taken next to it (see ``speed.py``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs one untraced and one traced pass and prints the per-layer
metrics from the traced pass (layer times are raw seconds, as the spans
recorded them); ``trace.overhead_s`` is the difference of the two passes'
wall times.  A layer a workload does not exercise reports 0.  Each run also writes ``.bench_out/<run>/result.json``
with the run metadata (git SHA, Python, nproc, seed, module line counts)
and, when traced, the spans of every traced process.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is false when an op gives a
wrong answer or fails and is not listed under ``known_failures`` in the
workload's reference file; known failures still count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import cli_session
from speed import Rescaler, SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("diagrams", "arcalg", "repmod", "resolve", "exact", "extalg", "ainfty", "cli")
RUN_BUDGET_S = 170.0

# minimum passes per run and set-up samples per run
WORKLOADS = {
    "ainfty-32": {"min_passes": 1, "setup_samples": 2},
    "homalg-42": {"min_passes": 1, "setup_samples": 5},
    "cli-session": {"min_passes": 3, "setup_samples": 7},
}

# spans reported as <name>.calls and <name>.self_s
SPAN_METRICS = (
    "exact.solve", "exact.rank", "exact.kernel_basis", "arcalg.multiply",
    "resolve.resolve_generic", "resolve.resolve_cone", "repmod",
    "extalg.compose", "extalg.hom_differential", "extalg.ext_dims",
    "ainfty.build_pair", "ainfty.lambda_n", "ainfty.q", "ainfty.pi",
)


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts one child at a time, times it, and keeps the peak RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.peak_rss_kb = 0
        self.env = dict(os.environ)
        for name in ("ARCKIT_CACHE", "ARCKIT_BENCH_TRACE", "PYTHONSTARTUP"):
            self.env.pop(name, None)
        # a fixed hash seed keeps set and dict layouts, and so run times, steady
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def spawn(self, argv, cwd: Path, log: Path, extra_env=None) -> tuple[int, float, float]:
        """Run argv with stdout/stderr in log.out/log.err; (code, start, end)."""
        env = dict(self.env, **(extra_env or {}))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("run budget exhausted")
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                [str(a) for a in argv], cwd=cwd, env=env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if end >= self.deadline:
            raise HarnessError(f"{argv[1]} killed at the run budget")
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, start, end


# -- in-process workloads -------------------------------------------------


def worker_pass(runner, workdir, workload, seed, mode, trace, tag) -> dict:
    out = workdir / f"{tag}.json"
    argv = [sys.executable, HERE / "worker.py", "--workload", workload,
            "--seed", seed, "--mode", mode, "--trace", trace, "--out", out]
    if trace:
        argv += ["--spans", workdir.parent / f"spans-{tag}.tsv"]
    code, start, end = runner.spawn(argv, ROOT, workdir / tag)
    if code != 0:
        tail = Path(f"{workdir / tag}.err").read_text(errors="replace")[-2000:]
        raise HarnessError(f"worker {tag} exited {code}:\n{tail}")
    data = json.loads(out.read_text())
    scale = Rescaler(data["speed"])
    return {
        "wall": scale.seconds(start, end),
        "setup": scale.seconds(start, data["setup_end"]),
        "wall_raw": end - start,
        "setup_raw": data["setup_end"] - start,
        "ops": [[lat * scale.factor(t + lat / 2), ok] for t, lat, ok in data.get("ops", [])],
        "failures": data.get("failures", []),
        "enumeration_ok": data.get("enumeration_ok", True),
        "trace": [data["trace"]] if "trace" in data else [],
    }


# -- the CLI session ------------------------------------------------------


def _cache_sizes(directory: Path) -> dict:
    if not directory.is_dir():
        return {}
    return {
        p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir()
    }


def cli_pass(runner, workdir, rng, reference, trace, tag) -> dict:
    """One session: the command list cold on an empty cache, then warm."""
    sdir = workdir / tag
    sdir.mkdir()
    cache = sdir / "cache"
    ops, traces, bytes_written = [], [], 0
    first = last = None
    speed = SpeedLog()
    for pass_name in ("cold", "warm"):
        for name in cli_session.pass_order(rng):
            speed.sample()
            output_name = cli_session.COMMANDS[name][2]
            output_path = sdir / output_name if output_name else None
            if output_path is not None and output_path.exists():
                output_path.unlink()
            extra_env, before = {}, {}
            if trace:
                trace_file = workdir.parent / f"{tag}-{len(ops):02d}-{name}.json"
                extra_env["ARCKIT_BENCH_TRACE"] = str(trace_file)
                before = _cache_sizes(cache)
            argv = [sys.executable, HERE / "arckit_cli.py",
                    *cli_session.argv(name, cache.name)]
            code, start, end = runner.spawn(argv, sdir, sdir / "cmd", extra_env)
            first = start if first is None else first
            last = end
            stdout = Path(f"{sdir / 'cmd'}.out").read_text(errors="replace")
            stderr = Path(f"{sdir / 'cmd'}.err").read_text(errors="replace")
            output = (
                output_path.read_text(errors="replace")
                if output_path is not None and output_path.exists()
                else None
            )
            error = cli_session.check(name, reference["commands"], code, stdout, stderr, output)
            ops.append({"pass": pass_name, "name": name, "start": start, "end": end,
                        "error": error})
            if trace:
                if trace_file.exists():
                    traces.append(json.loads(trace_file.read_text()))
                after = _cache_sizes(cache)
                bytes_written += sum(
                    size for f, (size, mtime) in after.items()
                    if before.get(f) != (size, mtime)
                )
    speed.sample()
    scale = Rescaler(speed.samples)
    return {
        "wall": scale.seconds(first, last),
        "wall_raw": last - first,
        "ops": [[scale.seconds(op["start"], op["end"]), op["error"] is None] for op in ops],
        "failures": [{"op": op["name"], "pass": op["pass"], "error": op["error"]}
                     for op in ops if op["error"]],
        "commands": ops,
        "enumeration_ok": True,
        "trace": traces,
        "bytes_written": bytes_written,
    }


def import_samples(runner, workdir, count) -> list[float]:
    """Reference-speed seconds of ``count`` bare ``import arckit.cli`` spawns."""
    speed, spans = SpeedLog(), []
    for i in range(count):
        speed.sample()
        code, start, end = runner.spawn(
            [sys.executable, "-c", "import arckit.cli"], ROOT, workdir / f"import-{i}"
        )
        if code != 0:
            raise HarnessError("import arckit.cli failed")
        spans.append((start, end))
    speed.sample()
    scale = Rescaler(speed.samples)
    return [scale.seconds(start, end) for start, end in spans]


# -- metrics ----------------------------------------------------------------


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(passes, setups, peak_rss_kb, cli) -> dict:
    setup_s = statistics.median(setups)
    latencies = sorted(lat for p in passes for lat, _ in p["ops"])
    attempted = len(latencies)
    failed = sum(not ok for p in passes for _, ok in p["ops"])
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "setup_s": setup_s,
        "ops_per_s": statistics.median(
            len(p["ops"]) / (p["wall"] - (setup_s if cli else p["setup"]))
            for p in passes
        ),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": peak_rss_kb / 1024,
        "success_rate": 1 - failed / attempted,
    }


def per_layer(traced, untraced, lines) -> dict:
    spans, counters, caches = {}, {}, {}
    for summary in traced["trace"]:
        for name, row in summary["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "raised": 0})
            for key in total:
                total[key] += row[key]
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, info in summary["caches"].items():
            total = caches.setdefault(name, {"hits": 0, "misses": 0})
            for key in total:
                total[key] += info[key]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = span(name, "calls")
        m[f"{name}.self_s"] = span(name, "self_s")
    m["resolve.verify_resolution.self_s"] = span("resolve.verify_resolution", "self_s")
    m["exact.solve.repeat_share"] = _share(
        counters.get("exact.solve.repeats", 0), span("exact.solve", "calls"))
    m["exact.cells"] = counters.get("exact.cells", 0)
    m["arcalg.multiply.repeat_share"] = _share(
        counters.get("arcalg.multiply.repeats", 0), span("arcalg.multiply", "calls"))
    m["arcalg.multiply.nonzero_share"] = _share(
        counters.get("arcalg.multiply.nonzero", 0), span("arcalg.multiply", "calls"))
    for name in ("extalg.hom_space", "extalg.resolution"):
        info = caches.get(name, {"hits": 0, "misses": 0})
        m[f"{name}.hit_share"] = _share(info["hits"], info["hits"] + info["misses"])
    m["ainfty.h_dim"] = counters.get("ainfty.h_dim", 0)
    m["ainfty.hom_dim"] = counters.get("ainfty.hom_dim", 0)

    commands = traced.get("commands", [])

    def median_ms(values):
        values = list(values)
        return 1000 * statistics.median(values) if values else 0.0

    m["cli.import_ms"] = median_ms(s["import_s"] for s in traced["trace"] if "import_s" in s)
    m["cli.cold_cmd_ms"] = median_ms(
        c["end"] - c["start"] for c in commands if c["pass"] == "cold")
    m["cli.warm_cmd_ms"] = median_ms(
        c["end"] - c["start"] for c in commands if c["pass"] == "warm")
    m["cli.cache.hit_share"] = _share(
        counters.get("cli.cache.hits", 0), counters.get("cli.cache.lookups", 0))
    m["cli.cache.bytes_written"] = traced.get("bytes_written", 0)
    m["resolve.cache.loads"] = span("resolve.cache.load", "calls")
    m["resolve.cache.stores"] = span("resolve.cache.store", "calls") - span(
        "resolve.cache.store", "raised")
    m["resolve.cache.errors"] = span("resolve.cache.load", "raised") + span(
        "resolve.cache.store", "raised")
    for module, count in lines.items():
        m[f"{module}.lines"] = count
    m["trace.overhead_s"] = traced["wall"] - untraced["wall"]
    return m


# -- run metadata -------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read without git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def line_counts() -> dict:
    return {
        module: len((SRC / "arckit" / f"{module}.py").read_text().splitlines())
        for module in MODULES
    }


# -- entry point --------------------------------------------------------------


def run(args, spec, workdir, runner, reference) -> tuple[dict, dict]:
    cli = args.workload == "cli-session"
    rng = random.Random(args.seed)
    info = WORKLOADS[args.workload]

    def one_pass(trace: int, tag: str) -> dict:
        if cli:
            return cli_pass(runner, workdir, rng, reference, trace, tag)
        return worker_pass(runner, workdir, args.workload, args.seed, "full", trace, tag)

    if args.trace:
        untraced = one_pass(0, "untraced")
        traced = one_pass(1, "traced")
        passes = [untraced, traced]
        metrics = per_layer(traced, untraced, line_counts())
        names = spec["per_layer"]
    else:
        passes = []
        began = time.monotonic()
        while len(passes) < info["min_passes"] or time.monotonic() - began < args.seconds:
            if passes and time.monotonic() + 1.5 * passes[-1]["wall"] > runner.deadline:
                break
            passes.append(one_pass(0, f"pass-{len(passes)}"))
        if cli:
            setups = import_samples(runner, workdir, info["setup_samples"])
        else:
            setups = [p["setup"] for p in passes]
            for i in range(len(setups), info["setup_samples"]):
                setups.append(
                    worker_pass(runner, workdir, args.workload, args.seed, "setup", 0,
                                f"setup-{i}")["setup"]
                )
        metrics = end_to_end(passes, setups, runner.peak_rss_kb, cli)
        names = spec["end_to_end"]

    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise HarnessError(f"metrics not computed: {missing}")
    failures = [f for p in passes for f in p["failures"]]
    known = reference["known_failures"]
    correct = all(p["enumeration_ok"] for p in passes) and all(
        f["op"] in known for f in failures
    )
    result = {
        "correct": correct,
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": sum(not ok for p in passes for _, ok in p["ops"]),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names
        },
    }
    detail = {
        "passes": [
            {k: v for k, v in p.items() if k not in ("ops", "trace", "commands")}
            for p in passes
        ],
        "failures": failures,
        "peak_rss_kb": runner.peak_rss_kb,
    }
    if args.trace:
        detail["all_metrics"] = metrics
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="arckit benchmark")
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arckit" / "__init__.py").is_file():
        print(f"error: no arckit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    deadline = time.monotonic() + RUN_BUDGET_S
    # the harness and every child share one CPU, so that the speed samples
    # describe the CPU the timed work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    # byte-compile up front so that no timed process pays for it
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "arckit")],
        check=True, stdin=subprocess.DEVNULL,
    )
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = OUT / run_name
    workdir = run_dir / "work"
    workdir.mkdir(parents=True)
    runner = Runner(deadline)
    try:
        result, detail = run(args, spec, workdir, runner, reference)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "lines": line_counts(),
    }
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, **detail}, fh, indent=1)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for op, count in Counter(f["op"] for f in detail["failures"]).items():
        print(f"failed {count}x: {op}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
