"""Span recorder installed around the package's public functions from outside.

`install` wraps each function named in TARGETS and rebinds every module
attribute of the package that refers to it, so callers inside the package
(including ``from .x import f`` bindings and function-local imports) reach
the wrapper.  Spans (name, start, end, parent) stay in memory; `metrics`
folds them into the per-layer numbers and `dump` writes them out.  Nothing
under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import time
from typing import Callable, Dict, List, Optional

MODULES = ("exact", "poly", "rootsys", "subsys", "singclass", "families",
           "flatmap", "cli")

TARGETS = {
    "exact": ("solve_linear", "row_reduce", "nullspace"),
    "poly": ("resultant", "gcd_univariate", "parse"),
    "rootsys": ("build_root_system", "vanishing_set"),
    "subsys": ("enumerate_subsystems", "match_realizations",
               "reflection_closure", "classify_subsystem"),
    "singclass": ("fiber_configuration", "singular_points", "classify_point",
                  "split_branch"),
    "families": ("verify_catalogue", "verify_equivariance",
                 "derive_quotient_chart", "reynolds_average", "sample_stratum",
                 "stratum_membership", "check_stratum_point",
                 "fiber_orbit_configuration", "classify_quotient_fiber",
                 "theorem_singular_spotcheck"),
    "flatmap": ("flat_chart", "verify_iso", "pi_prime",
                "correspondence_check"),
    "cli": ("verify_case", "full_report"),
}

# Spans of these functions are named per case; enumerate_subsystems takes a
# root system rather than a case id and inherits the case of its caller.
PER_CASE = ("families.derive_quotient_chart", "subsys.enumerate_subsystems",
            "subsys.match_realizations", "flatmap.correspondence_check",
            "cli.verify_case")

CALLS_AND_TIME = (
    "families.reynolds_average", "exact.solve_linear",
    "families.check_stratum_point", "families.fiber_orbit_configuration",
    "families.classify_quotient_fiber", "subsys.reflection_closure",
    "subsys.classify_subsystem", "exact.row_reduce", "exact.nullspace",
    "rootsys.vanishing_set", "singclass.fiber_configuration",
    "singclass.singular_points", "singclass.classify_point",
    "poly.resultant", "poly.gcd_univariate", "poly.parse")
TIME_ONLY = (
    "families.verify_equivariance", "families.sample_stratum",
    "families.theorem_singular_spotcheck", "flatmap.verify_iso",
    "flatmap.flat_chart", "families.verify_catalogue",
    "rootsys.build_root_system")
CALLS_ONLY = ("singclass.split_branch", "flatmap.pi_prime")


class Recorder:
    """In-memory spans plus the counters that need a call's arguments."""

    def __init__(self) -> None:
        self.spans: List[list] = []      # [name, case, start, end, parent]
        self.stack: List[int] = []
        self.active = False
        self.sylvester_max = 0
        self.sampled_points = 0
        self.subsystems = 0
        self.gc_collections = 0
        self.gc_seconds = 0.0
        self._gc_start: Optional[float] = None

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def wrap(self, qual: str, fn: Callable) -> Callable:
        per_case = qual in PER_CASE
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            case = spans[parent][1] if parent >= 0 else None
            if args and isinstance(args[0], str) and per_case:
                case = args[0]
            if qual == "poly.resultant":
                p, q, name = args[:3]
                self.sylvester_max = max(self.sylvester_max,
                                         p.degree_in(name) + q.degree_in(name))
            idx = len(spans)
            spans.append([qual, case, time.perf_counter(), None, parent])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if qual == "families.sample_stratum":
                self.sampled_points += len(result)
            elif qual == "subsys.enumerate_subsystems":
                self.subsystems += len(result)
            return result

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"singfold.{m}") for m in MODULES}
        for mod_name, funcs in TARGETS.items():
            for fname in funcs:
                orig = getattr(mods[mod_name], fname)
                wrapper = self.wrap(f"{mod_name}.{fname}", orig)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def metrics(self, cases) -> Dict[str, dict]:
        """Per-layer metrics: exact call counts, inclusive and self seconds."""
        child = [0.0] * len(self.spans)
        for name, case, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Dict[str, int] = {}
        secs: Dict[str, float] = {}
        layer_self = {m: 0.0 for m in MODULES}
        membership_in_sampler = 0
        for i, (name, case, start, end, parent) in enumerate(self.spans):
            dur = end - start
            key = f"{name}.{case}" if name in PER_CASE else name
            calls[key] = calls.get(key, 0) + 1
            secs[key] = secs.get(key, 0.0) + dur
            layer_self[name.split(".")[0]] += dur - child[i]
            if name == "families.stratum_membership" and parent >= 0 and \
                    self.spans[parent][0] == "families.sample_stratum":
                membership_in_sampler += 1
        full_report_self = sum(
            ((end - start) - child[i]
             for i, (name, _, start, end, _) in enumerate(self.spans)
             if name == "cli.full_report"), 0.0)

        out: Dict[str, dict] = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for qual in PER_CASE:
            for case in cases:
                put(f"{qual}.{case}.s", secs.get(f"{qual}.{case}", 0.0), "s")
        for qual in CALLS_AND_TIME:
            put(f"{qual}.calls", calls.get(qual, 0), "count")
            put(f"{qual}.s", secs.get(qual, 0.0), "s")
        for qual in TIME_ONLY:
            put(f"{qual}.s", secs.get(qual, 0.0), "s")
        for qual in CALLS_ONLY:
            put(f"{qual}.calls", calls.get(qual, 0), "count")
        put("families.sample_accept_ratio",
            self.sampled_points / membership_in_sampler
            if membership_in_sampler else 0.0, "ratio")
        put("poly.resultant.sylvester_max", self.sylvester_max, "rows")
        put("subsys.subsystems", self.subsystems, "count")
        put("cli.write.s", full_report_self, "s")
        put("runtime.gc.collections", self.gc_collections, "count")
        put("runtime.gc.s", self.gc_seconds, "s")
        for layer, value in layer_self.items():
            put(f"{layer}.self_s", value, "s")
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "case", "start", "end", "parent"],
                       "spans": self.spans}, fh)
