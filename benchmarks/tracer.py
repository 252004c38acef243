"""Span tracing for the benchmark's traced runs.

The tracer wraps the public boundary functions of the ``arckit`` modules
from outside: ``src/`` is not modified.  Each call becomes a span (name,
parent span, start, end, whether it raised), kept in flat arrays in
memory and written out when the process ends.  A layer's self time is its
spans' durations minus the parts covered by their child spans.

Because ``from .exact import rank`` copies the binding into the importing
module, every function is replaced in every ``arckit`` namespace that binds
it.  ``Splitting`` and ``GradedModule`` methods are replaced on the class.
Functions behind ``lru_cache`` that are only read for hit shares are left
unwrapped, and their ``cache_info()`` is read at the end.

Counting hooks (repeat keys, matrix cells, cache lookups) run after a
span has ended; the time they take is subtracted from the enclosing span
so that it does not show up as the caller's self time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

# (module, attribute, span name); the span names are the layer metric names
FUNCTIONS = [
    ("exact", "solve", "exact.solve"),
    ("exact", "rank", "exact.rank"),
    ("exact", "kernel_basis", "exact.kernel_basis"),
    ("arcalg", "multiply", "arcalg.multiply"),
    ("repmod", "decomposition_matrix", "repmod"),
    ("repmod", "cartan_matrix", "repmod"),
    ("repmod", "kl_poly_recursive", "repmod"),
    ("repmod", "kl_poly_closed", "repmod"),
    ("repmod", "projective_module", "repmod"),
    ("repmod", "cell_module", "repmod"),
    ("resolve", "resolve_generic", "resolve.resolve_generic"),
    ("resolve", "resolve_cone", "resolve.resolve_cone"),
    ("resolve", "verify_resolution", "resolve.verify_resolution"),
    ("extalg", "compose", "extalg.compose"),
    ("extalg", "hom_differential", "extalg.hom_differential"),
    ("extalg", "ext_dims", "extalg.ext_dims"),
    ("ainfty", "lambda_n", "ainfty.lambda_n"),
    ("cli", "_cache_path", "cli.cache_path"),
]

# (module, class, method, span name); pi and pi_coefficients both apply Π
METHODS = [
    ("repmod", "GradedModule", "act", "repmod"),
    ("resolve", "ResolutionCache", "load", "resolve.cache.load"),
    ("resolve", "ResolutionCache", "store", "resolve.cache.store"),
    ("ainfty", "Splitting", "_build_pair", "ainfty.build_pair"),
    ("ainfty", "Splitting", "q", "ainfty.q"),
    ("ainfty", "Splitting", "pi", "ainfty.pi"),
    ("ainfty", "Splitting", "pi_coefficients", "ainfty.pi"),
]

# lru_cache'd functions whose hit share is reported
CACHES = [("extalg", "hom_space"), ("extalg", "resolution")]


class Tracer:
    """Records spans for wrapped functions and counts at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.hook_s: dict[int, float] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._solved: set = set()
        self._matrix_keys: dict[int, tuple] = {}
        self._products: set = set()
        self._caches: list = []

    # -- wrapping ------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, raised = (
            self.name_id, self.parent, self.start, self.end, self.raised
        )
        stack, hook_s, clock = self._stack, self.hook_s, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            raised.append(1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            raised[idx] = 0
            if hook is not None:
                t = clock()
                hook(args, result)
                if stack:
                    hook_s[stack[-1]] = hook_s.get(stack[-1], 0.0) + clock() - t
            return result

        return traced

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- counting hooks ------------------------------------------------

    def _matrix_key(self, matrix) -> tuple:
        # keyed by content; the matrix is kept alive so that its id stays unique
        hit = self._matrix_keys.get(id(matrix))
        if hit is not None and hit[0] is matrix:
            return hit[1]
        key = (matrix.rows, matrix.cols, frozenset(matrix.entries.items()))
        self._matrix_keys[id(matrix)] = (matrix, key)
        return key

    def _on_solve(self, args, result) -> None:
        key = self._matrix_key(args[0])
        if key in self._solved:
            self.count("exact.solve.repeats")
        else:
            self._solved.add(key)

    def _on_elimination(self, args, result) -> None:
        self.count("exact.cells", args[0].rows * args[0].cols)

    def _on_multiply(self, args, result) -> None:
        key = (args[0], args[1])
        if key in self._products:
            self.count("arcalg.multiply.repeats")
        else:
            self._products.add(key)
        if not result.is_zero():
            self.count("arcalg.multiply.nonzero")

    def _on_cache_path(self, args, result) -> None:
        self.count("cli.cache.lookups")
        if os.path.exists(result):
            self.count("cli.cache.hits")

    def _hook(self, span: str):
        return {
            "exact.solve": self._on_solve,
            "exact.rank": self._on_elimination,
            "exact.kernel_basis": self._on_elimination,
            "arcalg.multiply": self._on_multiply,
            "cli.cache_path": self._on_cache_path,
        }.get(span)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary function of the loaded ``arckit`` modules."""
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == "arckit" or name.startswith("arckit.")
        ]
        for modname, attr, span in FUNCTIONS:
            module = sys.modules.get(f"arckit.{modname}")
            if module is None:
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span, original, self._hook(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for modname, cls_name, attr, span in METHODS:
            module = sys.modules.get(f"arckit.{modname}")
            if module is None:
                continue
            cls = getattr(module, cls_name)
            setattr(cls, attr, self.wrap(span, getattr(cls, attr), self._hook(span)))
        self._caches = [
            (f"{modname}.{attr}", getattr(sys.modules[f"arckit.{modname}"], attr))
            for modname, attr in CACHES
            if f"arckit.{modname}" in sys.modules
        ]

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self time and raised calls per span name, plus counters."""
        n = len(self.end)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        spans: dict[str, dict] = {}
        for i in range(n):
            row = spans.setdefault(
                self.names[self.name_id[i]], {"calls": 0, "self_s": 0.0, "raised": 0}
            )
            row["calls"] += 1
            row["self_s"] += (
                self.end[i] - self.start[i] - covered[i] - self.hook_s.get(i, 0.0)
            )
            row["raised"] += self.raised[i]
        caches = {}
        for name, fn in self._caches:
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "spans": spans,
            "counters": dict(self.counters),
            "caches": caches,
            "span_count": n,
        }

    def write_spans(self, path: str) -> None:
        """One line per span: index, parent, name, start, end, raised."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart\tend\traised\n")
            for i in range(len(self.end)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{names[self.name_id[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.raised[i]}\n"
                )
