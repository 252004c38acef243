"""One fresh interpreter running an in-process workload of the benchmark.

    python3 benchmarks/worker.py --workload ainfty-32 --seed 1 \
        --mode full --trace 0 --out result.json

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  Nothing is warmed before the clock starts: the import, the
``lru_cache``s and the lazy splittings are paid inside the process, as a
command-line user pays them on every run.

Workloads (the seed only permutes the order of the ops):

* ``ainfty-32``: set-up builds the canonical-n2 splitting of (3|2) and all
  100 (λ, μ) pairs; each op is ``pi_coefficients(lambda_n(split, chain))``
  on one composable tuple of non-idempotent H-classes of arity 2 to 5.
* ``homalg-42``: set-up is ``weights_in_block(4, 2)`` and ``basis(4, 2)``;
  the ops are ``resolve_generic`` plus ``verify_resolution`` for each of
  the 15 weights and ``ext_dims`` for each of the 225 ordered pairs.

``--mode setup`` stops after the set-up.  ``--trace 1`` wraps the
boundary functions (see ``tracer.py``) before anything runs.  The result
is one JSON file: the monotonic time the set-up ended, every op's start,
latency and check, the machine-speed samples (see ``speed.py``), and with
tracing the layer summary.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from arckit import ainfty, arcalg, diagrams, extalg, resolve
from speed import SpeedLog

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
AINFTY_ARITIES = range(2, 6)
MAX_REPORTED_FAILURES = 20


# -- canonical forms shared with make_reference.py ----------------------


def ainfty_key(chain) -> str:
    return "|".join(
        f"{c.source}>{c.target}:{c.label}:{c.k}:{c.j}" for c in chain
    )


def ainfty_value(coeffs: dict) -> list:
    return sorted(
        [label, k, j, pos, str(Fraction(v))]
        for (label, k, j, pos), v in coeffs.items()
    )


def ainfty_setup(speed: SpeedLog):
    split = ainfty.build_splitting(3, 2, "canonical-n2")
    # the pairs all_h_classes() builds, one at a time so that the machine
    # speed is sampled during the set-up too
    weights = diagrams.weights_in_block(3, 2)
    for lam in weights:
        for mu in weights:
            speed.maybe_sample()
            split.h_classes(lam, mu)
    split.all_h_classes()
    return split


def ainfty_ops(split) -> list:
    classes = split.all_h_classes(include_idempotents=False)
    return [
        chain
        for arity in AINFTY_ARITIES
        for chain in ainfty.composable_tuples(classes, arity)
    ]


def ainfty_run(split, chain) -> dict:
    return split.pi_coefficients(ainfty.lambda_n(split, chain))


def homalg_setup() -> list:
    weights = diagrams.weights_in_block(4, 2)
    arcalg.basis(4, 2)
    return weights


def homalg_ops(weights) -> list:
    return [("resolve", lam) for lam in weights] + [
        ("ext", lam, mu) for lam in weights for mu in weights
    ]


def homalg_key(op) -> str:
    return ":".join([op[0]] + [str(w) for w in op[1:]])


def homalg_run(op):
    if op[0] == "resolve":
        lam = op[1]
        complex_ = resolve.resolve_generic(lam)
        return complex_, resolve.verify_resolution(complex_, lam)
    return extalg.ext_dims(op[1], op[2])


def homalg_value(op, result):
    if op[0] == "resolve":
        complex_, issues = result
        return {
            "terms": [[str(w) for w in row] for row in complex_.terms()],
            "issues": issues,
        }
    return {str(k): d for k, d in sorted(result.items())}


# -- the worker ----------------------------------------------------------


def _check_source() -> None:
    expected = HERE.parent / "src" / "arckit"
    if Path(ainfty.__file__).resolve().parent != expected:
        raise SystemExit(f"arckit imported from {ainfty.__file__}, not {expected}")


def _timed_ops(ops, run, key, value, expected, default, speed) -> tuple[list, list]:
    """Per op: [start (monotonic), latency, ok]; and the failures."""
    latencies, failures = [], []
    clock = time.monotonic
    for op in ops:
        speed.maybe_sample()
        start = clock()
        try:
            result = run(op)
        except Exception as exc:  # a raising op is a failed op, not a harness error
            latencies.append([start, clock() - start, False])
            failures.append({"op": key(op), "error": repr(exc)})
            continue
        latency = clock() - start
        got = value(op, result)
        ok = got == expected.get(key(op), default)
        latencies.append([start, latency, ok])
        if not ok:
            failures.append({"op": key(op), "got": got})
    return latencies, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("ainfty-32", "homalg-42"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the span dump (with --trace 1)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    _check_source()
    speed = SpeedLog()
    speed.sample()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out: dict = {}
    if args.workload == "ainfty-32":
        split = ainfty_setup(speed)
    else:
        weights = homalg_setup()
    out["setup_end"] = time.monotonic()
    speed.sample()

    if args.mode == "full":
        reference = json.loads((REFERENCE / f"{args.workload}.json").read_text())
        rng = random.Random(args.seed)
        if args.workload == "ainfty-32":
            ops = ainfty_ops(split)
            counts = {}
            for chain in ops:
                counts[str(len(chain))] = counts.get(str(len(chain)), 0) + 1
            out["enumeration_ok"] = counts == reference["counts"]
            rng.shuffle(ops)
            latencies, failures = _timed_ops(
                ops,
                lambda chain: ainfty_run(split, chain),
                ainfty_key,
                lambda chain, coeffs: ainfty_value(coeffs),
                reference["nonzero"],
                [],
                speed,
            )
        else:
            ops = homalg_ops(weights)
            out["enumeration_ok"] = sorted(map(homalg_key, ops)) == sorted(
                reference["ops"]
            )
            rng.shuffle(ops)
            latencies, failures = _timed_ops(
                ops, homalg_run, homalg_key, homalg_value, reference["ops"], None, speed
            )
        out["ops"] = latencies
        out["failures"] = failures[:MAX_REPORTED_FAILURES]
        speed.sample()
    out["speed"] = speed.samples

    if tracer is not None:
        if args.workload == "ainfty-32":
            pairs = split._pairs.values()
            tracer.count("ainfty.h_dim", sum(len(s.h_classes) for p in pairs for s in p.values()))
            tracer.count("ainfty.hom_dim", sum(len(s.space) for p in pairs for s in p.values()))
        out["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
