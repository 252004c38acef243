"""Every public function and class of the package has a caller outside the tests.

A name that a module's ``__all__`` binds by ``def`` or ``class`` must be
referenced somewhere in ``src/arckit`` outside its own definition, as a
name or an attribute, or appear as a word in a file under ``benchmarks/``,
``demos/`` or ``tools/`` (``benchmarks/tracer.py`` names what it wraps in
strings).  Code that only tests call belongs in ``tests/oracles.py``.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "arckit"

# the AlgebraElement wrapper of arcalg._functor_id, which the README names
# as the functor's public face (ROADMAP item 18 keeps it)
EXEMPT = {("arcalg", "functor_image")}


def _names(tree) -> Counter:
    """How often each name is referenced in ``tree``, as a name or an attribute."""
    return Counter(
        x.id if isinstance(x, ast.Name) else x.attr
        for x in ast.walk(tree) if isinstance(x, (ast.Name, ast.Attribute))
    )


def _uncalled() -> list[tuple[str, str]]:
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    outside = "\n".join(
        path.read_text(encoding="utf-8") for folder in ("benchmarks", "demos", "tools")
        for path in sorted((ROOT / folder).rglob("*.py"))
    )
    found = []
    for module, tree in trees.items():
        public = set(getattr(importlib.import_module(f"arckit.{module}"), "__all__", ()))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name not in public:
                continue
            referenced = everywhere[node.name] > _names(node)[node.name]
            if not referenced and not re.search(rf"\b{node.name}\b", outside):
                found.append((module, node.name))
    return found


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert sorted(set(_uncalled()) - EXEMPT) == []


def test_the_exemption_is_still_needed():
    assert EXEMPT <= set(_uncalled())
