"""Span recording around the public entry points of each ``repro`` layer.

The benchmark never edits the program: a traced pass installs wrappers
from here, runs, and uninstalls them, so untraced passes execute the
unmodified functions.  Each wrapped call records one span -- id, name,
start, end, parent id -- in memory; :meth:`Tracer.dump` writes them out
when the run ends.  Self time (a span's duration minus the time its
direct children cover), inclusive time and call counts are folded in
online, per phase (``setup`` or ``pass``), so the report never re-walks
the span list.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute, scope).  Scope "module" patches only
# that module's binding, "all" every loaded repro module bound to the
# same function object (``from x import f`` copies the reference),
# "class" the named class attribute.
TARGETS = (
    ("library.build", "repro.library.compass", "build_compass_library", "all"),
    ("library.build", "repro.mapping.match", "MatchTable.__init__", "class"),
    ("bench.load", "repro.bench.mcnc", "load_circuit", "all"),
    ("opt.eliminate", "repro.opt.script", "eliminate", "module"),
    ("opt.sweep", "repro.opt.script", "sweep", "module"),
    ("opt.decompose", "repro.opt.script", "decompose_network", "module"),
    ("opt.simplify", "repro.opt.script", "simplify_network", "module"),
    ("netlist.adjacency", "repro.netlist.network",
     "Network._build_adjacency", "class"),
    ("netlist.flat", "repro.netlist.flat", "build_flat", "all"),
    ("mapping.subject", "repro.mapping.mapper", "to_subject_graph", "module"),
    ("mapping.cuts", "repro.mapping.mapper", "enumerate_cuts", "module"),
    ("mapping.cover", "repro.mapping.mapper", "map_network", "all"),
    ("mapping.sizing", "repro.mapping.mapper", "speed_up_sizing", "all"),
    ("mapping.sizing", "repro.mapping.mapper", "recover_area", "all"),
    ("power.activity", "repro.power.activity", "random_activities", "all"),
    ("power.estimate", "repro.core.state", "ScalingState.power", "class"),
    ("timing.query", "repro.core.state", "ScalingState.timing", "class"),
    ("cvs.run", "repro.core.cvs", "run_cvs", "all"),
    ("dscale.run", "repro.core.dscale", "run_dscale", "all"),
    ("dscale.order_pairs", "repro.core.dscale", "candidate_order_pairs",
     "all"),
    ("gscale.run", "repro.core.gscale", "run_gscale", "all"),
    ("gscale.cpn", "repro.core.gscale", "get_cpn", "all"),
    ("moves.check", "repro.core.moves", "MoveEngine.check_moves", "class"),
    ("moves.price", "repro.core.moves", "MoveEngine.price_moves", "class"),
    ("moves.profile", "repro.core.moves", "MoveEngine.profile_resizes",
     "class"),
    ("moves.apply", "repro.core.moves", "MoveEngine.apply", "class"),
    ("moves.try", "repro.core.moves", "MoveEngine.try_move", "class"),
    ("graphalg.antichain", "repro.graphalg.antichain",
     "max_weight_antichain", "all"),
    ("graphalg.separator", "repro.graphalg.separator",
     "min_weight_separator", "all"),
)

STAGE_SPANS = ("optimize", "map", "constrain", "scale")
"""Flow stages wrapped through ``Flow.with_stage`` as ``api.<stage>``."""


def _size(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _antichain_sizes(args, kwargs, result):
    elements = kwargs.get("elements", args[0] if args else ())
    pairs = kwargs.get("order_pairs", args[1] if len(args) > 1 else ())
    return {"elements": _size(elements), "pairs": _size(pairs)}


def _separator_sizes(args, kwargs, result):
    return {"nodes": _size(kwargs.get("nodes", args[0] if args else ()))}


def _dscale_rounds(args, kwargs, result):
    return {"rounds": result.rounds}


def _gscale_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


OBSERVERS = {
    "graphalg.antichain": _antichain_sizes,
    "graphalg.separator": _separator_sizes,
    "dscale.run": _dscale_rounds,
    "gscale.run": _gscale_iterations,
}
"""Per-span counters read from a call's arguments or result."""


class Tracer:
    """In-memory span recorder with online self-time aggregation."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.phase = "setup"
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.total_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        # Open spans: [id, name, start, child seconds].
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    # -- spans -------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        key = (self.phase, name)
        self.self_s[key] += duration - child
        self.total_s[key] += duration
        self.calls[key] += 1
        self.spans.append(
            (span_id, name, start, end, parent[0] if parent else -1)
        )

    def count(self, name: str, counter: str, value: float) -> None:
        self.counters[(self.phase, f"{name}.{counter}")] += value

    def wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(frame)
            if observe is not None:
                for counter, value in observe(args, kwargs, result).items():
                    self.count(name, counter, value)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------

    def _patch(self, owner, attr: str, name: str, original) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry point (imports the modules)."""
        import importlib

        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, module_name, attr, scope in TARGETS:
            module = importlib.import_module(module_name)
            if scope == "class":
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, method, name, owner.__dict__[method])
                continue
            original = getattr(module, attr)
            if scope == "module":
                self._patch(module, attr, name, original)
                continue
            for loaded_name, loaded in list(sys.modules.items()):
                if not (loaded_name == "repro" or
                        loaded_name.startswith("repro.")):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, binding, name, original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Call through the installed wrappers without recording spans."""
        self._paused = True
        try:
            yield self
        finally:
            self._paused = False

    def stage_flow(self, flow):
        """``flow`` with the ``api.*`` stages wrapped via ``with_stage``."""
        for stage in STAGE_SPANS:
            flow = flow.with_stage(
                stage, self.wrap(flow.stages[stage], f"api.{stage}")
            )
        return flow

    # -- output ------------------------------------------------------

    def dump(self, path) -> None:
        """Write every recorded span (id, name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )
