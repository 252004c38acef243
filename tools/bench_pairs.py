"""Alternating parent/change/control runs of benchmarks/run.py, as one JSON file (stdlib only).

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR CONTROL_DIR OUT.json --pairs 10 --seconds 10

Pair i runs every workload of CHANGE_DIR's BENCHMARK.json with --seed i+1 in each
checkout, the parent first in even pairs and last in odd ones.  CONTROL_DIR, a second
checkout of the parent's commit, runs as a third side, an A/A control: the spread of its
per-pair changes is what the host alone moves a metric.  OUT keeps each run's last stdout
line, the medians, the parent's IQR and, per other side, its wins, its median per-pair
change (``<side>_pct``, percent of the parent's value) and, for the control, the range of
those changes (``control_pct_range``), per end-to-end metric and per raw time
(``wall_raw`` and, but for cli-session, ``setup_raw``: the median over a run's passes of
the unscaled seconds in its ``.bench_out/<workload>-seed<i>-trace0-<pid>/result.json``,
beside the rescaled ``wall_s`` and ``setup_s``), and ``frontier``: 3 cold processes per
checkout, sides alternating, of each CLI command, of a (4|3) generic split that must have
1,575 classes, and of ``resolve_generic`` then ``verify_resolution`` on each weight of (4|4),
which must find no failure and whose ``_serialize`` texts, joined in block order, have the
pinned sha256 prefix.  A run keeps its wall and CPU time (ru_utime + ru_stime of os.wait4),
the peak memory it reads itself (VmHWM at exit; wait4's ru_maxrss also counts the parent's)
and whether its stdout has the pinned sha256 prefix; a side, the median wall, its min-max
range, the median CPU time and the highest VmHWM.
PARENT_DIR, CHANGE_DIR and CONTROL_DIR must each be the top of a git checkout, so that OUT
names their SHAs; the tool exits non-zero on a `git archive` export, and on a control
checked out at another commit than the parent.
"""

import argparse, hashlib, json, os, platform, statistics, subprocess, sys, tempfile, time
from pathlib import Path

FRONTIER = {"cartan -m 2 -n 2": "27a2dc8e", "quiver -m 2 -n 2 --algebra ext": "c45efe23",
            "ainfty -m 3 -n 2 --mode canonical --max-arity 5": "b2d770ac",
            "ainfty -m 3 -n 3 --max-arity 4 --format json": "bec879ae",
            "ainfty -m 3 -n 3 --max-arity 6 --format json": "d279a15e",
            "multtable -m 5 -n 2 --format json": "013bbdbe",
            "quiver -m 5 -n 2 --algebra ext --format json": "4f602266",
            "quiver -m 3 -n 3 --algebra ext --format json": "d80e1149",
            "extdim -m 4 -n 4 --all --oracle shelton --format json": "537163ff"}
HWM = ("import atexit, sys; atexit.register(lambda: sys.stderr.write(next(line for line in "
       "open('/proc/self/status') if line.startswith('VmHWM:')))); ")
CLI = "from arckit.cli import main; sys.exit(main())"
SPLIT_43 = "from arckit import build_splitting; print(len(build_splitting(4, 3, 'generic').all_h_classes()))"
RESOLVE_44 = ("import hashlib; from arckit import weights_in_block; "
              "from arckit.resolve import _serialize, resolve_generic, verify_resolution; "
              "done = [(len(verify_resolution(c, w)), _serialize(c)) "
              "for w in weights_in_block(4, 4) for c in [resolve_generic(w)]]; "
              "print(hashlib.sha256(''.join(t for _, t in done).encode()).hexdigest(), "
              "sum(f for f, _ in done))")
SIDES = ("parent", "change", "control")
FRONTIER_RUNS = 3


def bench(root: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv, out, err)
    result = json.loads(out.splitlines()[-1])
    # run.py names its run directory after its own pid, the child's
    run_dir = Path(root, ".bench_out", f"{workload}-seed{seed}-trace0-{proc.pid}")
    passes = json.loads((run_dir / "result.json").read_text())["passes"]
    result["raw"] = {name: statistics.median(p[name] for p in passes)
                     for name in ("wall_raw", "setup_raw") if name in passes[0]}
    return result


def cold(root: str, code: str, argv: list, check) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(root, "src")))
    argv = [sys.executable, "-c", HWM + code, *argv]
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        # reap the child here, not through proc.wait, so that wait4 gives its own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, argv, out, err.read())
        hwm = int(err.read().decode().splitlines()[-1].split()[1])
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "vmhwm_kb": hwm, **check(out)}


def alternate(sides: tuple, count: int, run) -> dict:
    """run(side, i) for each i < count on every side, in order when i is even, else reversed."""
    runs = {side: [] for side in sides}
    for i in range(count):
        for side in sides if i % 2 == 0 else sides[::-1]:
            runs[side].append(run(side, i))
    return runs


def frontier(roots: dict, job) -> dict:
    runs = alternate(tuple(roots), FRONTIER_RUNS, lambda side, i: cold(roots[side], *job))
    return {side: {"wall_s": statistics.median(r["wall_s"] for r in got),
                   "wall_range": [min(r["wall_s"] for r in got), max(r["wall_s"] for r in got)],
                   "cpu_s": statistics.median(r["cpu_s"] for r in got),
                   "vmhwm_kb": max(r["vmhwm_kb"] for r in got), "runs": got} for side, got in runs.items()}


def describe(root: str) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True).stdout.strip()
    if git("rev-parse", "--show-toplevel") != str(Path(root).resolve()):
        sys.exit(f"{root} is not the top of a git checkout, so its SHA cannot be recorded; "
                 "make one with `git worktree add DIR SHA` or `git clone`")
    files = sorted(Path(root, "src", "arckit").glob("*.py"))
    return {"head": git("rev-parse", "HEAD"), "src_uncommitted": bool(git("status", "--porcelain", "src")),
            "wc_l_src_arckit": sum(len(p.read_text().splitlines()) for p in files)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in (*SIDES, "out"):
        parser.add_argument(name)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    spec = json.loads(Path(args.change, "BENCHMARK.json").read_text())
    roots = {side: getattr(args, side) for side in SIDES}
    report = {"nproc": os.cpu_count(), "python": platform.python_version(), "pairs": args.pairs,
              "seconds": args.seconds, **{side: describe(root) for side, root in roots.items()},
              "workloads": {}}
    if report["control"]["head"] != report["parent"]["head"]:
        sys.exit("the control must be a checkout of the parent's commit")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = alternate(tuple(roots), args.pairs,
                         lambda side, i: bench(roots[side], workload, i + 1, args.seconds))
        series = {m["name"]: (m["better"], {s: [r["metrics"][m["name"]]["value"] for r in runs[s]] for s in roots})
                  for m in spec["end_to_end"]}
        for name in runs["parent"][0]["raw"]:
            series[name] = ("lower", {s: [r["raw"][name] for r in runs[s]] for s in roots})
        summary = {}
        for name, (better, values) in series.items():
            before = values.pop("parent")
            q1, _, q3 = statistics.quantiles(before, n=4)
            sign = 1 if better == "lower" else -1
            entry = summary[name] = {"parent_median": statistics.median(before), "parent_iqr": q3 - q1}
            for side, after in values.items():
                pct = [100 * (a - b) / b if b else 0.0 for b, a in zip(before, after)]
                entry.update({f"{side}_median": statistics.median(after), f"{side}_pct": statistics.median(pct),
                              f"{side}_wins": sum(sign * (b - a) > 0 for b, a in zip(before, after))})
                if side == "control":
                    entry["control_pct_range"] = [min(pct), max(pct)]
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    jobs = {cmd: (CLI, cmd.split(), lambda out, pin=pin: {
        "sha256_ok": hashlib.sha256(out).hexdigest().startswith(pin)}) for cmd, pin in FRONTIER.items()}
    jobs["(4|3) generic split"] = (SPLIT_43, [], lambda out: {"classes": int(out), "classes_ok": int(out) == 1575})
    jobs["(4|4) resolve_generic + verify_resolution"] = (RESOLVE_44, [], lambda out: {
        "sha256_ok": out.startswith(b"9043ff3b"), "failures": int(out.split()[1])})
    report["frontier"] = {name: frontier(roots, job) for name, job in jobs.items()}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
