"""Record the reference output of every op of the benchmark.

    python3 benchmarks/make_reference.py [ainfty-32 homalg-42 cli-session]

Writes ``benchmarks/reference/<workload>.json`` from the current
``src/arckit``.  The references were recorded once, at the commit that
introduced the benchmark; every later run is checked against them.  Run
this again only for a deliberate change of a computed answer.

* ``ainfty-32``: the op count per arity and the exact nonzero m_n
  coefficients per tuple (every other tuple has Π(λ_n) = 0).
* ``homalg-42``: the terms of each generic resolution, which must verify,
  and the Ext dimensions of each pair, which must agree with the
  independent ``shelton_dims`` recursion.
* ``cli-session``: each command's stdout and ``-o`` file, run without
  ``--cache``; then one cached session records the commands that break
  the contract at this commit as ``known_failures``.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cli_session  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def ainfty_reference() -> dict:
    split = worker.ainfty_setup(worker.SpeedLog())
    ops = worker.ainfty_ops(split)
    counts: dict[str, int] = {}
    nonzero = {}
    for chain in ops:
        counts[str(len(chain))] = counts.get(str(len(chain)), 0) + 1
        value = worker.ainfty_value(worker.ainfty_run(split, chain))
        if value:
            nonzero[worker.ainfty_key(chain)] = value
    return {"counts": counts, "nonzero": nonzero, "known_failures": {}}


def homalg_reference() -> dict:
    weights = worker.homalg_setup()
    ops = {}
    for op in worker.homalg_ops(weights):
        value = worker.homalg_value(op, worker.homalg_run(op))
        if op[0] == "resolve" and value["issues"]:
            raise SystemExit(f"{worker.homalg_key(op)} does not verify: {value['issues']}")
        if op[0] == "ext":
            oracle = {str(k): d for k, d in sorted(worker.extalg.shelton_dims(op[1], op[2]).items()) if d}
            if oracle != value:
                raise SystemExit(f"{worker.homalg_key(op)}: {value} != shelton {oracle}")
        ops[worker.homalg_key(op)] = value
    return {"ops": ops, "known_failures": {}}


def cli_reference() -> dict:
    runner = run.Runner(time.monotonic() + 600)
    workdir = run.OUT / "reference-cli"
    workdir.mkdir(parents=True, exist_ok=True)
    commands = {}
    for name, (_, codes, output_name) in cli_session.COMMANDS.items():
        if codes != (0,):
            continue
        log = workdir / name
        code, _, _ = runner.spawn(
            [sys.executable, HERE / "arckit_cli.py", *cli_session.argv(name, None)],
            workdir, log,
        )
        if code != 0:
            raise SystemExit(f"{name} exited {code} without --cache")
        output = workdir / output_name if output_name else None
        commands[name] = {
            "stdout": Path(f"{log}.out").read_text(),
            "output": output.read_text() if output else None,
        }
    reference = {"commands": commands, "known_failures": {}}
    session = run.cli_pass(runner, workdir, random.Random(0), reference, 0, "session")
    shutil.rmtree(workdir)
    for failure in session["failures"]:
        reference["known_failures"][failure["op"]] = failure["error"]
    return reference


def main(argv: list[str]) -> int:
    makers = {
        "ainfty-32": ainfty_reference,
        "homalg-42": homalg_reference,
        "cli-session": cli_reference,
    }
    for workload in argv or list(makers):
        reference = makers[workload]()
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
