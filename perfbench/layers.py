"""Layer attribution for traced runs, from outside the program.

``install`` replaces each layer entry point with a timing wrapper at
the place the calling module looks it up (a module global or a class
attribute), so the program's own code is unchanged.  Each wrapper
keeps a stack frame; a call's self time is its duration minus the
durations of the wrapped calls nested inside it.  The timed region is
the outermost frame, so its self time is what no wrapped layer
covers: ``unattributed_s``.  Every time is read from one clock, the
child's ``refclock.RefClock``.

Untraced runs install only the few entry points their end-to-end
metrics need (``TIMED``), so both kinds of run time those the same way.

Only synchronous functions are wrapped.  The serve workload's asyncio
loop runs them to completion without yielding, so the stack stays
properly nested there too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict

REGION = "unattributed"

# (module, attribute path, layer).  Module globals are patched in the
# module that calls them, class attributes on the class.
ENTRY_POINTS = [
    ("repro.search.index", "InvertedIndex.from_corpus", "search.index_build"),
    ("repro.search.engine", "build_placement_problem", "core.correlation.mine"),
    ("repro.core.lp", "build_placement_lp", "core.lp.build"),
    ("repro.core.lprr", "solve_placement_lp", "core.lp.extract"),
    ("repro.lpsolve.model", "LinearProgram.solve", "lpsolve.solve"),
    ("repro.core.lprr", "round_best_of", "core.rounding.round"),
    ("repro.core.lprr", "repair_capacity", "core.repair.repair"),
    ("repro.core.lprr", "greedy_placement", "core.greedy.greedy"),
    ("repro.core.lprr", "LPRRPlanner.plan", "core.lprr.plan"),
    ("repro.search.engine", "DistributedSearchEngine.execute_log", "search.replay"),
    ("repro.search.replicated_engine", "ReplicatedSearchEngine.execute", "search.execute"),
    ("repro.online.sketch", "SketchCorrelationEstimator.observe_trace", "online.sketch.ingest"),
    ("repro.online.drift", "DriftDetector.assess", "online.drift.detect"),
    ("repro.online.controller", "select_migrations", "core.migration.select"),
    ("repro.online.controller", "heavy_hitter_plan", "online.replan"),
    ("repro.online.controller", "OnlinePlanner.observe_period", "online.period"),
]

# Entry points untraced runs time anyway, per workload: a handful of
# calls per job, so the wrappers cost nothing measurable.
TIMED = {
    "offline": (),
    "online": ("online.period", "online.replan"),
    "serve": (),
}

# Per-layer metrics with no public entry point reachable from outside.
NOT_MEASURED = {
    "core.repair.move_evals": "move_delta is a closure inside repair_capacity",
}


class LayerTracer:
    """Self and inclusive time per layer, with nested calls subtracted."""

    def __init__(self, clock, observe=None) -> None:
        self.clock = clock
        # Called as the region closes; its result is kept in `observed`,
        # so counters the program keeps cover the region and its set-up,
        # not the checks that follow it.
        self.observe = observe
        self.observed = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []
        # Totals when the timed region opened and when it closed.
        self.setup: dict | None = None
        self.region: dict | None = None

    def _enter(self, layer: str) -> None:
        self._stack.append([layer, 0.0, self.clock()])

    def _exit(self) -> None:
        end = self.clock()
        layer, nested, start = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - nested
        self.calls[layer] += 1
        self.durations[layer].append(duration)
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, layer: str, func):
        """``func`` with its calls attributed to ``layer``."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self._enter(layer)
            try:
                return func(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def enter_region(self) -> None:
        self.setup = self.snapshot()
        self._enter(REGION)

    def exit_region(self) -> None:
        self._exit()
        self.region = self.snapshot()
        if self.observe is not None:
            self.observed = self.observe()

    def in_region(self, kind: str, layer: str):
        """A layer's ``self_s`` or ``calls`` total, or its
        ``durations`` list, over the timed region only."""
        if kind == "durations":
            return self.region[kind].get(layer, [])[len(self.setup[kind].get(layer, [])) :]
        return self.region[kind].get(layer, 0) - self.setup[kind].get(layer, 0)

    def snapshot(self) -> dict:
        """A JSON-ready copy of the totals so far."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "durations": {k: list(v) for k, v in self.durations.items()},
        }


def install(tracer: LayerTracer, layers=None) -> None:
    """Wrap the entry points of ``layers`` (default: every one)."""
    for module_name, path, layer in ENTRY_POINTS:
        if layers is not None and layer not in layers:
            continue
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            wrapped = classmethod(tracer.wrap(layer, static.__func__))
        else:
            wrapped = tracer.wrap(layer, static)
        setattr(owner, attr, wrapped)
