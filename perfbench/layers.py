"""Outside-in instrumentation of the simulator's layers.

Nothing here edits the program. Every hook replaces a public attribute —
a class method, a module-level function, or a closure handed out by a
public factory such as ``CacheHierarchy.make_fast_path`` — with a timing
or counting wrapper, and :meth:`Patcher.restore` puts the originals back.
Hooks installed in the parent before the fork pool starts are inherited
by its workers.

Two kinds of hook exist:

* the **collector** (always on while a timed repetition runs) wraps
  ``SystemSimulator.run`` and, after each cell, reads the exact work
  counters the hierarchy, controller, remap cache and devices already
  keep. It costs one dict build per cell, so untraced timings stay
  representative;
* the **tracer** (only in the separate traced repetition) wraps every
  layer entry point. Coarse entry points (``build_workload``,
  ``run_cell``, ``SystemSimulator.run``, tracker finalisation, metrics
  collection) record one span per call. Per-access entry points (the
  hierarchy walk, controller serve/replay/scalar calls, oracle probes,
  observer updates) would create millions of spans, so they are rolled up
  into one span per (enclosing span, enclosing rolled-up entry point,
  entry point) carrying ``calls``, ``busy_s`` and ``self_s``. Self time
  is exact: a per-thread stack subtracts the time of nested wrapped calls
  from each call's duration.
"""

from __future__ import annotations

import os
import time
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names, in report order; a span's layer is its name up to the
#: first dot.
LAYERS = (
    "workloads", "cache", "core", "baselines", "compression", "sim",
    "parallel", "obs",
)

_MISSING = object()


class Patcher:
    """Replaces attributes and remembers how to put them back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr = make(current value)``; an attribute a class
        only inherits is deleted again on restore."""
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


class Recorder:
    """Per-process span store for the traced repetition.

    Spans are plain dicts in the same shape as
    :meth:`repro.obs.spans.Span.to_dict`, so a worker can hand them to
    its own ``SpanTracer.adopt`` and they travel home with the cell
    payload. A forked worker inherits the parent's recorder; the first
    coarse span it opens notices the new pid and starts afresh.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.stack: List[list] = []
        self.rollups: Dict[Tuple[Optional[str], Optional[str], str], list] = {}
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.origin = f"b{self.pid}"
        self.seq = 0
        self.wall_offset = time.time() - perf_counter()
        # Cleared in place: wrappers hold references to these objects.
        self.spans.clear()
        self.stack.clear()
        self.rollups.clear()

    def next_id(self) -> str:
        self.seq += 1
        return f"{self.origin}-{self.seq:05d}"

    def drain(self) -> List[Dict[str, Any]]:
        """Every finished span and rollup since the last drain."""
        out = list(self.spans)
        for (parent, within, name), (calls, busy, own, first, last, results) in self.rollups.items():
            start = self.wall_offset + first
            out.append({
                "span_id": self.next_id(),
                "parent_id": parent,
                "name": name,
                "start_s": start,
                "end_s": start + (last - first),
                "duration_s": last - first,
                "attributes": {
                    "rollup": True, "within": within, "calls": calls, "busy_s": busy,
                    "self_s": own, "results": results, "pid": self.pid,
                },
                "events": [],
            })
        self.spans.clear()
        self.rollups.clear()
        return out


def coarse(rec: Recorder, name: str, fn, before=None, after=None):
    """One span per call. ``before(args, kwargs)`` and ``after(result)``
    return extra span attributes."""

    def wrapper(*args, **kwargs):
        if rec.pid != os.getpid():
            rec.reset()
        span_id = rec.next_id()
        stack = rec.stack
        parent = stack[-1][1] if stack else None
        frame = [0.0, span_id, None]
        stack.append(frame)
        attrs = before(args, kwargs) if before is not None else {}
        out = None
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = perf_counter()
            stack.pop()
            duration = t1 - t0
            if stack:
                stack[-1][0] += duration
            if after is not None and out is not None:
                attrs.update(after(out))
            attrs["self_s"] = duration - frame[0]
            attrs["pid"] = rec.pid
            start = rec.wall_offset + t0
            rec.spans.append({
                "span_id": span_id, "parent_id": parent, "name": name,
                "start_s": start, "end_s": start + duration,
                "duration_s": duration, "attributes": attrs, "events": [],
            })

    return wrapper


def rollup(rec: Recorder, name: str, fn, count_results: bool = False):
    """Per-call timing folded into one record per (enclosing span,
    enclosing rolled-up entry point, name). With ``count_results`` the
    record also counts calls that returned something other than ``None``
    (an accepted deferred op)."""
    stack = rec.stack
    rollups = rec.rollups

    def wrapper(*args, **kwargs):
        if stack:
            top = stack[-1]
            frame = [0.0, top[1], name]
            key = (top[1], top[2], name)
        else:
            frame = [0.0, None, name]
            key = (None, None, name)
        stack.append(frame)
        t0 = perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = perf_counter()
            stack.pop()
            duration = t1 - t0
            if stack:
                stack[-1][0] += duration
            acc = rollups.get(key)
            if acc is None:
                acc = rollups[key] = [0, 0.0, 0.0, t0, t1, 0]
            acc[0] += 1
            acc[1] += duration
            acc[2] += duration - frame[0]
            acc[4] = t1
            if count_results and out is not None:
                acc[5] += 1

    return wrapper


# --------------------------------------------------------------- collector
def cell_record(simulator, result) -> Dict[str, Any]:
    """Exact work counters of one finished cell, read from outside."""
    from repro.core import BaryonController

    controller = simulator.controller
    inner = getattr(controller, "_inner", controller)
    devices: Dict[str, int] = {}
    for device in (inner.devices.fast, inner.devices.slow):
        for key, value in device.stats.as_dict().items():
            devices[f"{device.name}.{key}"] = int(value)
    remap = getattr(inner, "remap_cache", None)
    return {
        "workload": result.name,
        "design": result.design,
        "baryon": isinstance(inner, BaryonController),
        "hierarchy": dict(simulator.hierarchy.stats.as_dict()),
        "controller": dict(inner.stats.as_dict()),
        "remap": dict(remap.stats.as_dict()) if remap is not None else {},
        "declines": dict(getattr(inner, "deferred_declines", None) or {}),
        "devices": devices,
    }


def install_collector(patcher: Patcher, sink: Callable[[Dict[str, Any]], None]) -> None:
    """After every ``SystemSimulator.run``, send the cell's counters to
    ``sink`` (called in whichever process ran the cell)."""
    from repro.sim import SystemSimulator

    def make(run):
        def collected_run(self, trace, name="", design="", **kwargs):
            result = run(self, trace, name, design, **kwargs)
            sink(cell_record(self, result))
            return result
        return collected_run

    patcher.wrap(SystemSimulator, "run", make)


# ------------------------------------------------------------------ tracer
def install_tracer(patcher: Patcher, rec: Recorder) -> None:
    """Wrap the public entry points of every measured layer.

    Must run before the controllers and simulators of the traced
    repetition are built: the deferred server and the fast hierarchy
    walk bind oracle and cache methods once, at factory time.
    """
    import repro.analysis.experiments as experiments
    import repro.obs as obs
    import repro.parallel.runner as runner
    import repro.workloads as workloads
    import repro.workloads.suite as suite
    from repro.baselines import DiceCache, Hybrid2, SimpleCache, UnisonCache
    from repro.cache.hierarchy import CacheHierarchy
    from repro.compression.synthetic import SyntheticCompressibility
    from repro.core import BaryonController
    from repro.core.tracking import StagePhaseTracker
    from repro.obs.metrics import Histogram, LabeledCounter, TimeSeries
    from repro.obs.spans import SpanTracer
    from repro.sim import SystemSimulator

    def roll(name, count_results=False):
        return lambda fn: rollup(rec, name, fn, count_results)

    # workloads: trace generation, wherever callers look the name up.
    build = coarse(
        rec, "workloads.build_workload", workloads.build_workload,
        before=lambda a, k: {"workload": a[0]},
    )
    for module in (workloads, suite, runner, experiments):
        patcher.wrap(module, "build_workload", lambda _fn: build)

    # analysis: one span per cell, annotated with the controller's
    # decline counters; the worker's pending spans ride home in the
    # cell payload through the run's own SpanTracer.
    def cell_attrs(args, kwargs):
        seed = kwargs.get("seed", args[5] if len(args) > 5 else 1)
        return {"workload": args[0], "design": args[1], "seed": seed}

    def cell_after(out):
        controller = out[1]
        inner = getattr(controller, "_inner", controller)
        return {"declines": dict(getattr(inner, "deferred_declines", None) or {})}

    def make_run_cell(fn):
        timed = coarse(rec, "analysis.run_cell", fn, cell_attrs, cell_after)

        def traced_run_cell(*args, **kwargs):
            out = timed(*args, **kwargs)
            spans = kwargs.get("spans")
            if isinstance(spans, SpanTracer):
                spans.adopt(rec.drain())
            return out
        return traced_run_cell

    patcher.wrap(experiments, "run_cell", make_run_cell)

    # sim
    patcher.wrap(SystemSimulator, "run", lambda fn: coarse(
        rec, "sim.run", fn,
        before=lambda a, k: {"workload": a[2] if len(a) > 2 else k.get("name", ""),
                             "design": a[3] if len(a) > 3 else k.get("design", "")},
    ))

    # cache
    patcher.wrap(CacheHierarchy, "access", roll("cache.access"))
    patcher.wrap(CacheHierarchy, "access_fast", roll("cache.access_fast"))
    patcher.wrap(CacheHierarchy, "install_llc_fast", roll("cache.install"))
    patcher.wrap(CacheHierarchy, "install_llc", roll("cache.install"))

    def make_fast_path(fn):
        def traced(self):
            closures = fn(self)
            if closures is None:
                return None
            access, install, flush = closures
            return (rollup(rec, "cache.fast_access", access),
                    rollup(rec, "cache.install", install), flush)
        return traced

    patcher.wrap(CacheHierarchy, "make_fast_path", make_fast_path)

    # core: scalar reference path, per-op seam, vectorised classifier,
    # inline deferred server.
    patcher.wrap(BaryonController, "access", roll("core.scalar"))
    patcher.wrap(BaryonController, "access_deferred", roll("core.serve", True))
    patcher.wrap(BaryonController, "access_classified", roll("core.serve", True))
    patcher.wrap(BaryonController, "access_batch", roll("core.replay"))

    def make_classifier(fn):
        timed = rollup(rec, "core.classify", fn)

        def traced(self, addrs, writes):
            classifier = timed(self, addrs, writes)
            if classifier is not None:
                classifier.classify = rollup(rec, "core.classify", classifier.classify)
            return classifier
        return traced

    def make_server(fn):
        timed = rollup(rec, "core.make_server", fn)

        def traced(self, dirty_blocks=None):
            server = timed(self, dirty_blocks)
            if server is None:
                return None
            serve, flush, replay = server
            return (rollup(rec, "core.serve", serve, True),
                    rollup(rec, "core.flush", flush),
                    rollup(rec, "core.replay", replay))
        return traced

    patcher.wrap(BaryonController, "make_run_classifier", make_classifier)
    patcher.wrap(BaryonController, "make_deferred_server", make_server)

    # baselines
    for cls in (SimpleCache, UnisonCache, DiceCache, Hybrid2):
        patcher.wrap(cls, "access", roll("baselines.scalar"))
    patcher.wrap(SimpleCache, "access_deferred", roll("baselines.serve", True))
    patcher.wrap(SimpleCache, "access_batch", roll("baselines.replay"))

    # compression: the synthetic oracle's public methods.
    for method in ("set_default_profile", "add_region", "profile_of", "fits",
                   "fits_at", "is_zero", "max_cf", "note_write", "peek_write",
                   "version_of"):
        patcher.wrap(SyntheticCompressibility, method, roll("compression.oracle"))

    # obs: the phase tracker and the metric instruments.
    for method in ("tick", "record", "block_staged", "block_unstaged"):
        patcher.wrap(StagePhaseTracker, method, roll("obs.tracker"))
    patcher.wrap(StagePhaseTracker, "finalize",
                 lambda fn: coarse(rec, "obs.finalize", fn))
    patcher.wrap(Histogram, "observe", roll("obs.metrics"))
    for method in ("tick", "sample_at", "advance_to"):
        patcher.wrap(TimeSeries, method, roll("obs.metrics"))
    patcher.wrap(LabeledCounter, "inc", roll("obs.metrics"))
    patcher.wrap(obs, "collect_run_metrics",
                 lambda fn: coarse(rec, "obs.collect", fn))


# ----------------------------------------------------------------- analysis
def _children(spans: List[Dict[str, Any]]) -> Dict[Optional[str], List[Dict[str, Any]]]:
    kids: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in spans:
        kids.setdefault(span.get("parent_id"), []).append(span)
    return kids


def _descendants(span_id: str, kids) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    todo = [span_id]
    while todo:
        for child in kids.get(todo.pop(), ()):
            out.append(child)
            todo.append(child["span_id"])
    return out


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time(span: Dict[str, Any], kids) -> float:
    """A program span's duration minus the part of it its children
    cover; overlapping children (parallel cells) count once. Benchmark
    spans carry the exact figure from the call stack as ``self_s``."""
    start = span["start_s"]
    end = start + (span.get("duration_s") or 0.0)
    return (span.get("duration_s") or 0.0) - _covered(
        start, end,
        [(c["start_s"], c["start_s"] + (c.get("duration_s") or 0.0))
         for c in kids.get(span["span_id"], ())],
    )


def _busy(span: Dict[str, Any]) -> float:
    attrs = span.get("attributes") or {}
    if attrs.get("rollup"):
        return float(attrs["busy_s"])
    return float(span.get("duration_s") or 0.0)


def analyse(spans: List[Dict[str, Any]], workers: int, fork_s: float) -> Dict[str, Any]:
    """Per-layer self time, call counts, per-cell paths and the
    parallel layer's phase times from one traced repetition; ``fork_s``
    is the pool start the benchmark timed itself."""
    kids = _children(spans)
    bench = [s for s in spans if "pid" in (s.get("attributes") or {})]

    by_name: Dict[str, Dict[str, float]] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span in bench:
        attrs = span["attributes"]
        entry = by_name.setdefault(
            span["name"], {"self_s": 0.0, "busy_s": 0.0, "calls": 0, "results": 0}
        )
        entry["self_s"] += float(attrs["self_s"])
        entry["busy_s"] += _busy(span)
        entry["calls"] += int(attrs.get("calls", 1))
        entry["results"] += int(attrs.get("results", 0))
        layer = span["name"].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += float(attrs["self_s"])

    # Per-cell path report: which path served the cell's LLC misses.
    cells = []
    for span in bench:
        if span["name"] != "analysis.run_cell":
            continue
        deferred = scalar = 0
        for child in _descendants(span["span_id"], kids):
            name = child["name"]
            attrs = child.get("attributes") or {}
            if name in ("core.serve", "baselines.serve"):
                deferred += int(attrs.get("results", 0))
            elif name in ("core.scalar", "baselines.scalar") and attrs.get("within") is None:
                scalar += int(attrs.get("calls", 1))
        attrs = span["attributes"]
        cells.append({
            "workload": attrs.get("workload"), "design": attrs.get("design"),
            "seed": attrs.get("seed"),
            "path": "deferred" if deferred else "scalar",
            "deferred_ops": deferred, "scalar_calls": scalar,
            "declines": {k: v for k, v in (attrs.get("declines") or {}).items() if v},
        })
    cells.sort(key=lambda c: (str(c["workload"]), str(c["seed"]), str(c["design"])))

    parallel = _parallel(spans, kids, workers)
    layer_self["parallel"] = parallel["self_s"] + fork_s
    return {
        "layer_self_s": layer_self,
        "by_name": by_name,
        "cells": cells,
        "parallel": parallel,
    }


#: ``run_plan``'s orchestration phases (see ``repro.parallel.runner``).
_SWEEP_PHASES = ("sweep", "plan", "fork", "simulate", "merge", "checkpoint")


def _parallel(spans, kids, workers: int) -> Dict[str, float]:
    """Plan/merge time, result transport, worker busy share and the
    straggler tail, from ``run_plan``'s own sweep spans. The layer's
    self time is its phases' self time plus result transport."""
    out = {"plan_s": 0.0, "merge_s": 0.0, "transport_s": 0.0,
           "busy_share": 0.0, "tail_idle_s": 0.0, "simulate_s": 0.0, "self_s": 0.0}
    for span in spans:
        if span["name"] in _SWEEP_PHASES:
            out["self_s"] += self_time(span, kids)
        if span["name"] == "plan":
            out["plan_s"] += span.get("duration_s") or 0.0
        elif span["name"] == "merge":
            out["merge_s"] += span.get("duration_s") or 0.0
    simulate = [s for s in spans if s["name"] == "simulate"]
    if not simulate:
        return out
    busy = 0.0
    last_end_by_pid: Dict[int, float] = {}
    for sim_span in simulate:
        out["simulate_s"] += sim_span.get("duration_s") or 0.0
        for cell in kids.get(sim_span["span_id"], ()):
            if cell["name"] != "cell":
                continue
            inside = kids.get(cell["span_id"], ())
            if not inside:
                continue
            lo = min(s["start_s"] for s in inside)
            hi = max(s["start_s"] + (s.get("duration_s") or 0.0) for s in inside)
            busy += hi - lo
            cell_end = cell["start_s"] + (cell.get("duration_s") or 0.0)
            out["transport_s"] += max(0.0, cell_end - hi)
            pids = {(s.get("attributes") or {}).get("pid") for s in inside} - {None}
            for pid in pids:
                last_end_by_pid[pid] = max(last_end_by_pid.get(pid, hi), hi)
    out["self_s"] += out["transport_s"]
    if out["simulate_s"] > 0:
        out["busy_share"] = busy / (max(1, workers) * out["simulate_s"])
    if last_end_by_pid:
        final = max(last_end_by_pid.values())
        out["tail_idle_s"] = sum(final - end for end in last_end_by_pid.values())
    return out
