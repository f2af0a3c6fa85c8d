"""Spans around calls into fanforge's layer modules, recorded from outside.

Every public function defined in a layer module is replaced by a wrapper
that records a span: name, start, end, parent span and the id of the fan
whose job is running.  Modules import each other's functions by name, so
each wrapped function is rebound wherever a fanforge module, the package
namespace or the benchmark's ``workloads`` module holds it, and
``installed`` checks that no unwrapped reference is left.  Spans are kept
in flat arrays and written at the end.

A span's self time is its duration minus the time covered by its child
spans.  ``incl_s`` of a function counts only its outermost span, so
recursion is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import types
from array import array
from time import perf_counter

LAYERS = (
    "linalg", "lp", "cones", "fan", "plfun", "mori", "primcoll", "refine",
    "theorems",
)
# Elementwise vector helpers run millions of times; spanning them costs
# about a quarter of the run time and says nothing about the layers.
UNTRACED = {
    "linalg.vec", "linalg.vdot", "linalg.vadd", "linalg.vsub", "linalg.vscale",
    "linalg.vneg", "linalg.vsum", "linalg.is_zero_vec", "linalg.primitivize",
}
DISTINCT_FAN = ("plfun.pl_basis", "plfun.is_quasi_projective")
REFINEMENTS = ("refine.simplicial_refinement", "refine.qp_refinement")


def _fanforge_modules():
    """fanforge's modules, plus the benchmark's own ``workloads`` module,
    which calls into the layers."""
    return [
        m for name, m in sys.modules.items()
        if (name in ("fanforge", "workloads") or name.startswith("fanforge."))
        and isinstance(m, types.ModuleType)
    ]


class Tracer:
    """Spans and counters of one traced pass.  Spans are recorded only while
    ``installed()`` is active and ``on`` is set; ``fan`` tags them."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.active_depth: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_fan = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.fan = -1
        self.on = False
        self.cells = 0
        self.retries = 0
        self.refinements = 0
        self.first_try = 0
        self.fan_calls = {n: 0 for n in DISTINCT_FAN}
        self.fan_seen = {n: {} for n in DISTINCT_FAN}
        self._originals: dict[int, tuple[object, object]] = {}

    # -- installation -------------------------------------------------------

    def _wrap_all(self):
        for layer in LAYERS:
            modname = f"fanforge.{layer}"
            for attr, fn in list(vars(sys.modules[modname]).items()):
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == modname
                    and not attr.startswith("_")
                    and f"{layer}.{attr}" not in UNTRACED
                ):
                    self._originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))

    def _rebind(self, swap: dict):
        for mod in _fanforge_modules():
            for attr, val in list(vars(mod).items()):
                new = swap.get(id(val))
                if new is not None:
                    setattr(mod, attr, new)

    @contextlib.contextmanager
    def installed(self):
        """Rebind every reference to a layer function to its wrapper, check
        that none is left unwrapped, and restore the originals on exit."""
        if not self._originals:
            self._wrap_all()
        self._rebind({i: w for i, (_, w) in self._originals.items()})
        try:
            stale = [
                f"{mod.__name__}.{attr}"
                for mod in _fanforge_modules()
                for attr, val in vars(mod).items()
                if id(val) in self._originals
            ]
            if stale:
                raise RuntimeError(f"unwrapped references remain: {stale}")
            yield self
        finally:
            self._rebind({id(w): fn for fn, w in self._originals.values()})

    def _wrap(self, fn, name: str):
        k = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self.active_depth.append(0)
        hook = self._hook(name)
        tr = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            stack = tr.stack
            idx = len(tr.span_name)
            tr.span_name.append(k)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            tr.span_fan.append(tr.fan)
            frame = [idx, 0.0]
            stack.append(frame)
            tr.active_depth[k] += 1
            t0 = perf_counter()
            tr.span_start.append(t0)
            tr.span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tr.active_depth[k] -= 1
                dur = t1 - t0
                tr.span_end[idx] = t1
                tr.calls[k] += 1
                tr.self_s[k] += dur - frame[1]
                if tr.active_depth[k] == 0:
                    tr.incl_s[k] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, result)
            return result

        return span

    def _hook(self, name):
        if name == "lp.simplex_max":
            def cells(args, result):
                a = args[0]
                self.cells += len(a) * (len(a[0]) if a else 0)
            return cells
        if name in DISTINCT_FAN:
            def distinct(args, result):
                self.fan_calls[name] += 1
                self.fan_seen[name].setdefault(id(args[0]), args[0])
            return distinct
        if name in REFINEMENTS:
            def retries(args, result):
                r = result[0] if isinstance(result, tuple) else result
                self.refinements += 1
                self.retries += r.retries
                self.first_try += r.retries == 0
            return retries
        return None

    # -- results ------------------------------------------------------------

    def counts(self) -> dict:
        """The figures that must repeat exactly between two traced runs."""
        out = {f"{n}.calls": c for n, c in zip(self.names, self.calls)}
        out["lp.simplex_max.cells"] = self.cells
        out["refine.retries"] = self.retries
        out["refine.refinements"] = self.refinements
        out["refine.first_try"] = self.first_try
        for n in DISTINCT_FAN:
            out[f"{n}.distinct"] = len(self.fan_seen[n])
        return out

    def metrics(self) -> dict:
        """Per-layer metrics by name, as (value, unit)."""
        by = {n: i for i, n in enumerate(self.names)}
        m = {}
        for layer in LAYERS:
            ks = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
            m[f"{layer}.calls"] = (sum(self.calls[i] for i in ks), "count")
            m[f"{layer}.self_s"] = (sum(self.self_s[i] for i in ks), "s")

        def get(name, field):
            i = by[name]
            return {"calls": (self.calls[i], "count"), "self_s": (self.self_s[i], "s"),
                    "incl_s": (self.incl_s[i], "s")}[field]

        wanted = {
            "linalg.rref": ("calls", "self_s"), "linalg.rank": ("calls", "self_s"),
            "linalg.kernel_basis": ("calls", "self_s"), "linalg.det": ("calls", "self_s"),
            "linalg.solve_linear": ("calls", "self_s"),
            "lp.simplex_max": ("calls", "self_s"), "lp.strict_feasible": ("calls",),
            "lp.solve_nonneg": ("calls",),
            "cones.double_description": ("calls", "self_s"),
            "cones.cone_contains": ("calls",),
            "cones.hcone_covered_by": ("calls", "incl_s"),
            "fan.validate_fan": ("calls", "incl_s"),
            "fan.minimal_cone_containing": ("calls", "self_s"),
            "plfun.pl_basis": ("calls", "incl_s"),
            "plfun.is_quasi_projective": ("calls", "incl_s"),
            "plfun.wall_functional": ("calls",),
            "mori.extremal_walls": ("calls", "incl_s"), "mori.mori_cone": ("calls",),
            "mori.relation_row": ("self_s",),
            "primcoll.enumerate_primitive_collections": ("calls", "self_s"),
            "primcoll.primitive_relation": ("calls", "incl_s"),
            "refine.weighted_subdivision": ("calls", "self_s"),
            "theorems.check_main_theorem": ("incl_s",),
            "theorems.check_extremal_primitive": ("incl_s",),
            "theorems.check_reid_all_walls": ("incl_s",),
            "theorems.check_type_a_description": ("incl_s",),
        }
        for name, fields in wanted.items():
            for field in fields:
                m[f"{name}.{field}"] = get(name, field)
        m["lp.simplex_max.cells"] = (self.cells, "count")
        for n in DISTINCT_FAN:
            calls = self.fan_calls[n]
            share = len(self.fan_seen[n]) / calls if calls else 0.0
            m[f"{n}.distinct_share"] = (share, "ratio")
        m["refine.retries"] = (self.retries, "count")
        ratio = self.first_try / self.refinements if self.refinements else 0.0
        m["refine.first_try_ratio"] = (ratio, "ratio")
        return m

    def write(self, path, fan_ids, env):
        """Write every span, column by column, with the run's environment."""
        with open(path, "w") as fh:
            json.dump({
                "env": env,
                "fans": fan_ids,
                "names": self.names,
                "span": {
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "fan": self.span_fan.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
            }, fh)
