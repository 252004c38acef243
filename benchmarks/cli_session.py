"""The commands of the ``cli-session`` workload and their checks.

Every command of README's "Command line" section, a ``resolve`` followed
by ``resolve --verify`` on the same weight, and the error paths covered by
README's exit-code contract (0 success, 1 domain error, 2 usage error,
never a traceback).  A session runs the list on an empty ``--cache``
directory (cold pass, writes) and again on the same directory (warm
pass, reads); the seed permutes the order within each pass, keeping the
``resolve`` pair in order.

The reference output of a command is the same command run without
``--cache`` at the seed commit (``make_reference.py``), because README
promises cached results byte for byte.  A command expected to fail must
print nothing on stdout.
"""

from __future__ import annotations

import random

X = "cups=(0,3);(1,2) rays=4 | vv^^v | cups=(1,2);(3,4) rays=0"
Y = "cups=(1,2);(3,4) rays=0 | vv^^v | cups=(0,3);(1,2) rays=4"

# name -> (argv without --cache, exit codes the contract allows, -o file)
COMMANDS = {
    "klpoly": (
        ["klpoly", "-m", "4", "-n", "2", "--lambda", "vvvv^^", "--mu", "v^vv^v",
         "--method", "both"], (0,), None),
    "basis": (["basis", "-m", "2", "-n", "1"], (0,), None),
    "multiply": (["multiply", "-m", "3", "-n", "2", X, Y], (0,), None),
    "decomp": (["decomp", "-m", "2", "-n", "1"], (0,), None),
    "cartan": (["cartan", "-m", "2", "-n", "2", "--format", "json"], (0,), None),
    "resolve-verify": (
        ["resolve", "-m", "2", "-n", "2", "--lambda", "vv^^", "--verify"], (0,), None),
    "extdim": (
        ["extdim", "-m", "3", "-n", "1", "--all", "--oracle", "shelton"], (0,), None),
    "multtable": (["multtable", "-m", "2", "-n", "2"], (0,), None),
    "quiver": (
        ["quiver", "-m", "2", "-n", "2", "--algebra", "ext", "--format", "json"],
        (0,), None),
    "ainfty": (
        ["ainfty", "-m", "2", "-n", "2", "--mode", "canonical", "--max-arity", "5"],
        (0,), None),
    "render-weight": (
        ["render", "-m", "1", "-n", "1", "--weight", "v^", "-o", "idempotent.svg"],
        (0,), "idempotent.svg"),
    "render-product": (
        ["render", "-m", "3", "-n", "2", "--product", X, Y, "-o", "trace.svg"],
        (0,), "trace.svg"),
    "pair-resolve": (["resolve", "-m", "2", "-n", "1", "--lambda", "vv^"], (0,), None),
    "pair-resolve-verify": (
        ["resolve", "-m", "2", "-n", "1", "--lambda", "vv^", "--verify"], (0,), None),
    "error-bad-flag": (["basis", "-m", "2", "-n", "1", "--bogus"], (2,), None),
    "error-weight-outside-block": (
        ["resolve", "-m", "2", "-n", "1", "--lambda", "vv^^"], (1,), None),
    # the contract fixes "an error code and no traceback", not which of the two
    "error-unwritable-output": (
        ["decomp", "-m", "2", "-n", "1", "-o", "missing-dir/out.txt"], (1, 2), None),
    "error-max-arity-1": (["ainfty", "-m", "1", "-n", "1", "--max-arity", "1"], (2,), None),
}

# commands that run back to back, in this order
UNITS = [[name] for name in COMMANDS if not name.startswith("pair-")] + [
    ["pair-resolve", "pair-resolve-verify"]
]


def pass_order(rng: random.Random) -> list[str]:
    units = list(UNITS)
    rng.shuffle(units)
    return [name for unit in units for name in unit]


def argv(name: str, cache_dir: str | None) -> list[str]:
    args = list(COMMANDS[name][0])
    return args + ["--cache", cache_dir] if cache_dir else args


def check(name: str, reference: dict, code: int, stdout: str, stderr: str,
          output: str | None) -> str | None:
    """None when the command kept its contract and reference, else why not."""
    _, codes, _ = COMMANDS[name]
    if "Traceback (most recent call last)" in stderr:
        return "printed a traceback"
    if code not in codes:
        return f"exit code {code}, expected {' or '.join(map(str, codes))}"
    expected = reference[name] if codes == (0,) else {"stdout": "", "output": None}
    if stdout != expected["stdout"]:
        return "stdout differs from the reference"
    if output != expected["output"]:
        return "-o file differs from the reference"
    return None
