"""Alternating parent/change runs of benchmarks/run.py, as one JSON file (stdlib only).

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR OUT.json --pairs 10 --seconds 10

Pair i runs every workload of CHANGE_DIR's BENCHMARK.json with --seed i+1 in both
checkouts, the parent first in even pairs.  OUT keeps each run's last stdout line, the
medians, the parent's IQR and the change's wins per end-to-end metric, and ``frontier``:
one cold CLI process per command and checkout, with its wall time, the peak memory it
reads itself (VmHWM of /proc/self/status at exit; the ru_maxrss of wait4 also counts the
parent's high-water mark) and whether its stdout has the pinned sha256 prefix.
"""

import argparse, hashlib, json, os, platform, statistics, subprocess, sys, time
from pathlib import Path

FRONTIER = {"cartan -m 2 -n 2": "27a2dc8e", "quiver -m 2 -n 2 --algebra ext": "c45efe23",
            "ainfty -m 3 -n 2 --mode canonical --max-arity 5": "b2d770ac",
            "ainfty -m 3 -n 3 --max-arity 4 --format json": "bec879ae",
            "multtable -m 5 -n 2 --format json": "013bbdbe",
            "quiver -m 3 -n 3 --algebra ext --format json": "d80e1149"}
CHILD = ("import atexit, sys; atexit.register(lambda: sys.stderr.write(next(line for line in "
         "open('/proc/self/status') if line.startswith('VmHWM:')))); "
         "from arckit.cli import main; sys.exit(main())")
SIDES = ("parent", "change")


def bench(root: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def cold_cli(root: str, command: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(root, "src")))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, *command.split()], env=env,
                          capture_output=True, check=True)
    return {"wall_s": time.perf_counter() - start,
            "vmhwm_kb": int(done.stderr.decode().splitlines()[-1].split()[1]),
            "sha256_ok": hashlib.sha256(done.stdout).hexdigest().startswith(FRONTIER[command])}


def describe(root: str) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True).stdout.strip()
    files = sorted(Path(root, "src", "arckit").glob("*.py"))
    return {"head": git("rev-parse", "HEAD"), "src_uncommitted": bool(git("status", "--porcelain", "src")),
            "wc_l_src_arckit": sum(len(p.read_text().splitlines()) for p in files)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("parent", "change", "out"):
        parser.add_argument(name)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    spec = json.loads(Path(args.change, "BENCHMARK.json").read_text())
    report = {"nproc": os.cpu_count(), "python": platform.python_version(), "pairs": args.pairs,
              "seconds": args.seconds, **{side: describe(getattr(args, side)) for side in SIDES},
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(bench(getattr(args, side), workload, i + 1, args.seconds))
        summary = {}
        for metric in spec["end_to_end"]:
            before, after = ([r["metrics"][metric["name"]]["value"] for r in runs[s]] for s in SIDES)
            q1, _, q3 = statistics.quantiles(before, n=4)
            sign = 1 if metric["better"] == "lower" else -1
            summary[metric["name"]] = {
                "parent_median": statistics.median(before), "change_median": statistics.median(after),
                "parent_iqr": q3 - q1, "change_wins": sum(sign * (b - a) > 0 for b, a in zip(before, after))}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    report["frontier"] = {cmd: {side: cold_cli(getattr(args, side), cmd) for side in SIDES} for cmd in FRONTIER}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
