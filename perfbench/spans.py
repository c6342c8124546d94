"""In-memory span tracing around the public functions of each layer.

Spans are recorded from the benchmark's side only: every traced function
is replaced, in each module namespace that holds it, by a wrapper that
records a span and calls the original.  Replacing the function where the
caller looks it up matters: ``riccati.certify_decay`` reaches
``simulate_ode`` through the ``riccati`` namespace, the command line
front end reaches ``synthesis.min_energy_control`` through the
``synthesis`` module, and both routes have to be seen.

A span is ``(id, name, start, end, parent_id, scenario_id)``.  Spans
stay in memory until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass

# public functions per layer whose calls become spans
TRACED = {
    "spectral": ("check_degeneracy", "partition_spectrum"),
    "synthesis": ("default_actuators", "build_companion",
                  "transform_and_group", "rank_conditions",
                  "kalman_observability_check", "min_energy_control",
                  "controllability_gramian", "recover_v"),
    "riccati": ("build_shifted", "solve_are", "certify_decay",
                "simulate_closed_loop", "make_closed_loop",
                "rayleigh_bounds", "embed_initial"),
    "simulate": ("simulate_exact", "simulate_ode", "fit_decay_rate",
                 "steady_state", "translate_system"),
    "fluids": ("model_spectrum", "oldroyd_to_abstract", "jeffreys_reduce",
               "indicator_actuators_1d", "indicator_actuators_2d"),
    "serialize": ("json_dump", "json_load", "trajectory_csv",
                  "decay_curve_csv", "null_control_csv", "write_csv",
                  "controller_document"),
    "cli": ("main", "load_scenario", "prepare", "cmd_analyze",
            "cmd_synthesize", "cmd_simulate", "cmd_certify"),
}

# serialize functions whose first argument is a file they write
_WRITERS = frozenset(("json_dump", "trajectory_csv", "decay_curve_csv",
                      "null_control_csv", "write_csv"))


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    scenario: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and per-layer counters while :attr:`active` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.active = False
        self.scenario = 0
        self._stack: list[Span] = []
        self._depth: dict[str, int] = {}     # open spans per layer
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + amount

    def inside(self, layer: str) -> bool:
        return self._depth.get(layer, 0) > 0

    def _wrap(self, layer: str, func):
        name = f"{layer}.{func.__name__}"
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            parent = tracer._stack[-1].sid if tracer._stack else None
            span = Span(len(tracer.spans), name, time.perf_counter(), 0.0,
                        parent, tracer.scenario)
            tracer.spans.append(span)
            tracer._stack.append(span)
            tracer._depth[layer] = tracer._depth.get(layer, 0) + 1
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[layer] -= 1
            tracer._observe(layer, func.__name__, args, result)
            return result

        return traced

    def _observe(self, layer, fname, args, result):
        outermost = not self.inside(layer)
        if layer == "spectral" and fname == "check_degeneracy":
            self.count("spectral.check_degeneracy.calls")
            self.count("spectral.entries_scanned", len(args[0].entries))
        elif layer == "simulate" and fname in ("simulate_exact",
                                                "simulate_ode"):
            self.count("simulate.mode_samples", result.alpha.size)
        elif layer == "riccati" and fname == "solve_are":
            self.count("riccati.are_dim_sum",
                       result.system.p_2k_shifted.shape[0])
        elif layer == "serialize" and outermost:
            self.count("serialize.calls")
            if fname in _WRITERS:
                self.count("serialize.bytes_written",
                           os.path.getsize(args[0]))

    # -- installation ----------------------------------------------------

    def install(self, package: str = "pidestab") -> None:
        """Wrap every traced function in every namespace that holds it."""
        import scipy.linalg

        homes = {layer: importlib.import_module(f"{package}.{layer}")
                 for layer in TRACED}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        for layer, names in TRACED.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

        expm = scipy.linalg.expm
        tracer = self

        @functools.wraps(expm)
        def counted_expm(*args, **kwargs):
            if tracer.active and tracer.inside("synthesis"):
                tracer.count("synthesis.expm_calls")
            return expm(*args, **kwargs)

        self._patched.append((scipy.linalg, "expm", expm))
        scipy.linalg.expm = counted_expm

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent,
                    "scenario": s.scenario}) + "\n")


def layer_metrics(spans, counters) -> dict:
    """Busy, self and count figures from a finished set of spans.

    ``<layer>.busy_s`` sums the spans of a layer that have no ancestor in
    the same layer; ``<function>.busy_s`` does the same per function
    name.  ``self_s`` subtracts from each span the time its direct
    children cover, so nested spans of the same layer are not counted
    twice.
    """
    by_id = {s.sid: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def has_ancestor(span, pred) -> bool:
        p = span.parent
        while p is not None:
            anc = by_id[p]
            if pred(anc):
                return True
            p = anc.parent
        return False

    out: dict[str, float] = {}
    for s in spans:
        exclusive = s.duration - child_time.get(s.sid, 0.0)
        for key in (f"{s.layer}.self_s", f"{s.name}.self_s"):
            out[key] = out.get(key, 0.0) + exclusive
        if not has_ancestor(s, lambda a: a.layer == s.layer):
            out[f"{s.layer}.busy_s"] = \
                out.get(f"{s.layer}.busy_s", 0.0) + s.duration
        if not has_ancestor(s, lambda a: a.name == s.name):
            out[f"{s.name}.busy_s"] = \
                out.get(f"{s.name}.busy_s", 0.0) + s.duration
    out.update(counters)
    return out
