"""Per-layer spans around the public entry points of flatklein.

The tracer wraps, from outside the package, every function named in the
`__all__` of a layer module (for a module without one, the names the package
`__all__` takes from it) in every flatklein module that holds it, plus the
public methods of `CutPolytope`.  Private names are never touched.

Spans are not kept one by one: each (parent, name) edge accumulates its call
count and time, and each name its call count, total and self time, where
self time is a span's duration minus that of its child spans.  A call nested
directly in a span of the same name (a module-level delegate calling the
method of the same name) is folded into that span.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from time import perf_counter_ns

LAYERS = ("klein_space", "cut_polytope", "stratification", "planner", "oracle")


def replace_everywhere(old, new) -> None:
    """Rebind every attribute of a flatklein module that holds `old`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "flatklein" or name.startswith("flatklein.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def public_functions(fk):
    """(layer, name, function) for every traced module-level function."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"flatklein.{layer}"]
        names = getattr(module, "__all__", None)
        if names is None:
            names = [n for n in fk.__all__
                     if getattr(getattr(fk, n), "__module__", None) == module.__name__]
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                out.append((layer, name, obj))
    return out


class Tracer:
    def __init__(self):
        self.on = False
        self.stack: list[list] = []          # [name, child_ns] per open span
        self.by_name: dict[str, list[int]] = {}   # name -> [calls, self_ns]
        self.edges: dict[tuple, list[int]] = {}   # (parent, name) -> [calls, total_ns]
        self.counts: dict[str, int] = {}
        self._seen: dict[str, set] = {}

    # -- counters -----------------------------------------------------------

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def first_time(self, key: str, item) -> bool:
        seen = self._seen.setdefault(key, set())
        if item in seen:
            return False
        seen.add(item)
        return True

    def distinct(self, key: str) -> int:
        return len(self._seen.get(key, ()))

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            if not self.on or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                rec = self.by_name.setdefault(name, [0, 0])
                rec[0] += 1
                rec[1] += took - frame[1]
                edge = self.edges.setdefault((parent, name), [0, 0])
                edge[0] += 1
                edge[1] += took
            if count is not None:
                count(self, args, result, parent)
            return result
        return traced

    def install(self, fk) -> None:
        for layer, name, fn in public_functions(fk):
            full = f"{layer}.{name}"
            replace_everywhere(fn, self.wrap(full, fn, COUNTERS.get(full)))
        cls = fk.CutPolytope
        for name, fn in list(vars(cls).items()):
            if not name.startswith("_") and inspect.isfunction(fn):
                full = f"cut_polytope.{name}"
                setattr(cls, name, self.wrap(full, fn, COUNTERS.get(full)))

    # -- report -------------------------------------------------------------

    def summary(self) -> dict:
        """Additive per-layer figures (merged over processes by summing)."""
        out = {}
        for name, (calls, self_ns) in self.by_name.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
        out.update(self.counts)
        out["cut_polytope.cells_distinct"] = self.distinct("cells")
        out["planner.strata_seen"] = self.distinct("plan_strata")
        return out

    def edge_table(self) -> list[dict]:
        return [{"parent": p, "name": n, "calls": c, "total_s": t / 1e9}
                for (p, n), (c, t) in sorted(self.edges.items(),
                                             key=lambda kv: -kv[1][1])]


def _per_cell(counter_key: str):
    """Count the size of a cached per-cell result once per distinct cell.

    The first argument is the cell (method call) or its base point (the
    module-level function of the same name).
    """
    def count(tracer, args, result, parent):
        base = getattr(args[0], "point", args[0])
        if tracer.first_time(counter_key, tuple(getattr(base, "rep", base))):
            tracer.add(counter_key, len(result))
    return count


def _cells(tracer, args, result, parent):
    tracer.first_time("cells", result.point.rep)


def _lifts(tracer, args, result, parent):
    tracer.add("klein_space.minimal_lifts.lifts", len(result))


def _strata(tracer, args, result, parent):
    tracer.add("stratification.catalog.strata", len(result))


def _plan_stratum(tracer, args, result, parent):
    if parent == "planner.plan":
        key = (result.domain.kinds, result.alpha.signs)
        if not tracer.first_time("plan_strata", key):
            tracer.add("planner.table_reused", 1)


def _bases(tracer, args, result, parent):
    halfspaces = args[0]
    if halfspaces:
        tracer.add("oracle.brute_vertices.bases",
                   math.comb(len(halfspaces), len(halfspaces[0][0])))


def _edges(tracer, args, result, parent):
    tracer.add("oracle.certify_vertices.edges", result.edge_count)


COUNTERS = {
    "klein_space.minimal_lifts": _lifts,
    "cut_polytope.cut_polytope": _cells,
    "cut_polytope.vertices": _per_cell("cut_polytope.vertices.count"),
    "cut_polytope.face_lattice": _per_cell("cut_polytope.face_lattice.faces"),
    "cut_polytope.face_equivalences": _per_cell("cut_polytope.face_equivalences.classes"),
    "stratification.catalog": _strata,
    "stratification.classify": _plan_stratum,
    "oracle.brute_vertices": _bases,
    "oracle.certify_vertices": _edges,
}
