#!/usr/bin/env python3
"""Figure-regeneration benchmark: one command, four workloads.

    python3 perfbench/run.py --workload figure-reads --seed 1 --seconds 20 --trace 0

Runs the named workload from the checkout's ``src`` tree, repeating it
for ``--seconds`` seconds, checks every result, and prints as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one
instrumented repetition and reports the per-layer metrics instead. See
``perfbench/README.md`` for what each workload and metric is for.

All times are host times. Simulated results (cycles, serve rates) are
checked outputs, never metrics.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import pathlib
import queue as queue_mod
import resource
import statistics
import subprocess
import sys
import dataclasses
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Capacity scale of every workload (the figure protocol's default).
SCALE = 256
#: Worker processes of the pooled workloads (sized for a 2-CPU host).
JOBS = 2
#: Prefix of every cell's trace replayed through both simulator loops.
PREFIX_ACCESSES = 2000
#: Fresh-interpreter set-up measurements per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: A cell slower than this is counted failed (and the run still ends in time).
CELL_TIMEOUT_S = 60.0
#: No repetition starts once this much of the run has elapsed.
RUN_BUDGET_S = 120.0
MIN_REPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pool" | "serial" | "observed"
    workloads: Tuple[str, ...]
    designs: Tuple[str, ...]
    accesses: int
    seeds_per_workload: int = 1


def workload_table(designs: Tuple[str, ...], spec_proxies: Tuple[str, ...]) -> Dict[str, Workload]:
    return {
        "figure-reads": Workload(
            "figure-reads", "pool", ("YCSB-B", "pr.twitter"), designs, 20_000),
        "figure-writes": Workload(
            "figure-writes", "pool", ("519.lbm_r", "YCSB-A"), designs, 12_000),
        "trace-sweep": Workload(
            "trace-sweep", "serial", spec_proxies, ("simple",), 10_000,
            seeds_per_workload=2),
        "observed-stage": Workload(
            "observed-stage", "observed", ("YCSB-A", "505.mcf_r"), ("baryon",), 20_000),
    }


WORKLOAD_NAMES = ("figure-reads", "figure-writes", "trace-sweep", "observed-stage")


# ------------------------------------------------------------------ set-up
def load_program(jobs: int):
    """Imports, config and (for pooled workloads) the worker pool: the
    set-up a user's sweep pays before its first cell."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import repro.analysis  # noqa: F401
    import repro.obs  # noqa: F401
    from repro.parallel import CellExecutor
    from repro.workloads import scaled_system

    configs = scaled_system(SCALE)
    executor = CellExecutor(jobs=jobs) if jobs > 1 else None
    return configs, executor


def setup_probe(jobs: int) -> None:
    t0 = perf_counter()
    _, executor = load_program(jobs)
    elapsed = perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}), flush=True)
    if executor is not None:
        executor.close()


def measure_setup(jobs: int) -> List[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--setup-probe", str(jobs)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------- helpers
def cpu_times() -> Tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def result_digest(results: Dict[Tuple, Dict[str, Any]]) -> str:
    payload = json.dumps(
        [[list(map(str, key)), results[key]] for key in sorted(results, key=str)],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def record_keys(records: List[Dict[str, Any]]) -> collections.Counter:
    return collections.Counter(json.dumps(r, sort_keys=True) for r in records)


def multiset_diff(a: collections.Counter, b: collections.Counter) -> int:
    return max(sum((a - b).values()), sum((b - a).values()))


class Sink:
    """Where the collector sends each cell's counters: straight into a
    list in this process, through a queue from forked pool workers."""

    def __init__(self) -> None:
        import multiprocessing

        self.pid = os.getpid()
        self.local: List[Dict[str, Any]] = []
        self.queue = multiprocessing.get_context("fork").Queue()
        self.token = 0
        #: Tags in-process records (the observed-stage plain twins).
        self.label = ""

    def __call__(self, record: Dict[str, Any]) -> None:
        record = dict(record, token=self.token, label=self.label)
        if os.getpid() == self.pid:
            self.local.append(record)
        else:
            self.queue.put(record)

    def start(self) -> None:
        self.token += 1
        self.local.clear()

    def take(self, expected: int, label: str = "") -> List[Dict[str, Any]]:
        """This repetition's records with ``label`` (waiting for
        ``expected`` of them in total)."""
        got = [r for r in self.local if r["token"] == self.token and r["label"] == label]
        self.local.clear()
        while len(got) < expected:
            try:
                record = self.queue.get(timeout=CELL_TIMEOUT_S)
            except queue_mod.Empty:
                break
            if record["token"] == self.token:
                got.append(record)
        for record in got:
            del record["token"], record["label"]
        return got


# ------------------------------------------------------------- repetitions
@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    accesses: int
    cells: int
    failed: int
    results: Dict[Tuple, Dict[str, Any]]
    records: List[Dict[str, Any]]
    fork_s: float = 0.0
    traces_generated: int = 0
    plain_wall_s: float = 0.0
    outcome: Any = None


class Bench:
    def __init__(self, wl: Workload, seed: int, configs, sink: Sink) -> None:
        self.wl = wl
        self.seed = seed
        self.config, self.sim_config = configs
        self.sink = sink
        self.seeds = [seed * wl.seeds_per_workload + i for i in range(wl.seeds_per_workload)]

    def plan(self):
        from repro.parallel import plan_cells

        if self.wl.seeds_per_workload > 1:
            return plan_cells(self.wl.workloads, self.wl.designs, seeds=self.seeds)
        return plan_cells(self.wl.workloads, self.wl.designs, seed=self.seed)

    def cells(self) -> List[Tuple[str, str, int]]:
        return [(c.workload, c.design, c.seed) for c in self.plan()]

    def rep(self, index: int, patch=None, telemetry=None) -> Rep:
        """One repetition with fresh state: empty trace cache, own pool.

        ``patch(patcher)`` installs the tracer before any pool is forked
        or controller built; ``telemetry`` is the run's sweep telemetry.
        """
        from repro.parallel import clear_trace_cache

        from layers import Patcher, install_collector

        patcher = Patcher()
        if patch is not None:
            patch(patcher)
        install_collector(patcher, self.sink)
        self.sink.start()
        clear_trace_cache()
        try:
            if self.wl.kind == "observed":
                return self._observed_rep(index, traced=patch is not None)
            return self._plan_rep(telemetry)
        finally:
            patcher.restore()

    def _plan_rep(self, telemetry) -> Rep:
        from repro.parallel import CellExecutor, run_plan

        plan = self.plan()
        self_cpu0, kids_cpu0 = cpu_times()
        executor = None
        fork_s = 0.0
        if self.wl.kind == "pool":
            t0 = perf_counter()
            executor = CellExecutor(jobs=JOBS)
            fork_s = perf_counter() - t0
        try:
            t0 = perf_counter()
            outcome = run_plan(
                plan, self.config, self.sim_config,
                n_accesses=self.wl.accesses, jobs=1, executor=executor,
                max_attempts=1, cell_timeout_s=CELL_TIMEOUT_S, telemetry=telemetry,
            )
            wall = perf_counter() - t0
            records = self.sink.take(len(outcome.results))
        finally:
            if executor is not None:
                executor.close()
        self_cpu1, kids_cpu1 = cpu_times()
        return Rep(
            wall_s=wall,
            cpu_s=(self_cpu1 - self_cpu0) + (kids_cpu1 - kids_cpu0),
            accesses=len(plan) * self.wl.accesses,
            cells=len(plan),
            failed=len(plan) - len(outcome.results),
            results={key: r.to_dict() for key, r in outcome.results.items()},
            records=records,
            fork_s=fork_s,
            traces_generated=outcome.traces_generated,
            outcome=outcome,
        )

    def _observed_rep(self, index: int, traced: bool) -> Rep:
        """Fig. 3/4 usage: each cell with a stage-phase tracker and a
        metrics registry attached, and (untraced) the same cell plain.
        The two alternate which goes first."""
        import repro.analysis.experiments as experiments
        from repro.core.tracking import StagePhaseTracker
        from repro.obs.metrics import MetricsRegistry

        results: Dict[Tuple, Dict[str, Any]] = {}
        failed = 0
        wall = plain_wall = cpu = 0.0
        cells = self.cells()
        for workload, design, seed in cells:
            runs = ["observed"] if traced else (
                ["observed", "plain"] if index % 2 == 0 else ["plain", "observed"])
            got = {}
            for mode in runs:
                observers = {}
                self.sink.label = mode
                if mode == "observed":
                    observers = {"tracker": StagePhaseTracker(), "metrics": MetricsRegistry()}
                cpu0 = cpu_times()[0]
                t0 = perf_counter()
                try:
                    result, _ = experiments.run_cell(
                        workload, design, self.config, self.sim_config,
                        n_accesses=self.wl.accesses, seed=seed, **observers,
                    )
                except Exception as err:  # a raising cell is a failed cell
                    print(f"cell {workload}/{design} ({mode}) raised: {err!r}", file=sys.stderr)
                    continue
                elapsed = perf_counter() - t0
                if mode == "observed":
                    wall += elapsed
                    cpu += cpu_times()[0] - cpu0
                    tracker = observers["tracker"]
                    if not tracker.breakdown or not observers["metrics"].to_json():
                        print(f"observers of {workload}/{design} recorded nothing", file=sys.stderr)
                        continue
                else:
                    plain_wall += elapsed
                got[mode] = result.to_dict()
            if "observed" not in got or (not traced and got.get("plain") != got["observed"]):
                failed += 1
                if "observed" in got:
                    print(f"observed != plain for {workload}/{design}", file=sys.stderr)
                continue
            results[(workload, design)] = got["observed"]
        self.sink.label = ""
        # Plain runs are checks, not the measured work.
        records = self.sink.take(0, label="observed")
        return Rep(
            wall_s=wall, cpu_s=cpu, accesses=len(cells) * self.wl.accesses,
            cells=len(cells), failed=failed, results=results, records=records,
            plain_wall_s=plain_wall,
        )

    # ---------------------------------------------------------- checks
    def prefix_check(self) -> int:
        """Scalar reference loop vs. batched loop on a prefix of every
        cell's trace; returns the number of cells that differ."""
        from repro.analysis import build_controller
        from repro.sim import SystemSimulator
        from repro.workloads import build_workload

        n = min(PREFIX_ACCESSES, self.wl.accesses)
        traces = {}
        bad = 0
        for workload, design, seed in self.cells():
            if (workload, seed) not in traces:
                traces[(workload, seed)] = build_workload(
                    workload, self.config.layout.fast_capacity,
                    n_accesses=self.wl.accesses, seed=seed,
                ).slice(0, n)
            trace = traces[(workload, seed)]
            out = []
            for scalar in (True, False):
                ctrl = build_controller(design, self.config, seed=seed)
                if hasattr(ctrl, "oracle"):
                    trace.apply_compressibility(ctrl.oracle)
                sim = SystemSimulator(ctrl, self.sim_config)
                out.append(sim.run(trace, workload, design, scalar=scalar).to_dict())
            if out[0] != out[1]:
                bad += 1
                print(f"scalar != batched on {workload}/{design} seed {seed}", file=sys.stderr)
        return bad


# ---------------------------------------------------------------- metrics
def sum_counters(records: List[Dict[str, Any]]) -> Dict[str, float]:
    total: Dict[str, float] = collections.defaultdict(float)
    for r in records:
        h = r["hierarchy"]
        for key in ("l1_hits", "l2_hits", "llc_hits", "llc_misses"):
            total[f"cache.{key}"] += h.get(key, 0)
        c = r["controller"]
        if r["baryon"]:
            for case in ("stage_hit", "stage_miss", "commit_hit", "commit_miss",
                         "block_miss", "fast_home"):
                total[f"core.case.{case}"] += c.get(f"case_{case}", 0)
            total["core.commits"] += c.get("commits", 0)
            total["metadata.remap_table_reads"] += c.get("remap_table_reads", 0)
            for reason in ("z_break", "write_overflow", "staging_fetch", "no_stage", "invariant"):
                total[f"core.declines.{reason}"] += r["declines"].get(reason, 0)
        else:
            total["baselines.declines.block_fill"] += r["declines"].get("block_fill", 0)
        total["metadata.remap_hits"] += r["remap"].get("hits", 0)
        total["metadata.remap_probes"] += r["remap"].get("hits", 0) + r["remap"].get("misses", 0)
        d = r["devices"]
        for dev in ("fast", "slow"):
            total[f"devices.{dev}_read_bytes"] += d.get(f"{dev}.read_bytes", 0)
            total[f"devices.{dev}_write_bytes"] += d.get(f"{dev}.write_bytes", 0)
            total[f"devices.{dev}_ops"] += d.get(f"{dev}.reads", 0) + d.get(f"{dev}.writes", 0)
    total["cache.accesses"] = sum(
        total[f"cache.{k}"] for k in ("l1_hits", "l2_hits", "llc_hits", "llc_misses"))
    return dict(total)


def outcome_mismatches(rep: Rep) -> int:
    """Cells whose collector counters disagree with the runner's own
    merged ``MatrixOutcome`` counters (0 or every cell)."""
    if rep.outcome is None:
        return 0
    controller: Dict[str, int] = collections.Counter()
    devices: Dict[str, int] = collections.Counter()
    for r in rep.records:
        controller.update(r["controller"])
        devices.update(r["devices"])

    def nonzero(counts) -> Dict[str, int]:
        return {k: v for k, v in counts.items() if v}

    ok = (nonzero(controller) == nonzero(rep.outcome.counters.as_dict())
          and nonzero(devices) == nonzero(rep.outcome.device_counters.as_dict()))
    return 0 if ok else rep.cells


def layer_metrics(bench: Bench, reps: List[Rep], traced: Rep, spans):
    """``({name: (value, unit)}, trace analysis)`` for the traced run:
    times from the traced repetition, exact counters from the first
    untraced one."""
    from layers import analyse

    workers = JOBS if bench.wl.kind == "pool" else 1
    report = analyse(spans, workers, traced.fork_s)
    names = report["by_name"]
    own = report["layer_self_s"]

    def stat(name: str, field: str) -> float:
        return float(names.get(name, {}).get(field, 0))

    counters = sum_counters(reps[0].records)
    accesses = traced.accesses
    traces = stat("workloads.build_workload", "calls")
    deferred = stat("core.serve", "results")
    scalar = stat("core.scalar", "calls")
    miss_ops = deferred + scalar
    untraced_wall = statistics.median(r.wall_s for r in reps)
    par = report["parallel"]
    obs_ratio = (
        statistics.median(r.wall_s / r.plain_wall_s for r in reps if r.plain_wall_s)
        if bench.wl.kind == "observed" else 0.0
    )
    cells = report["cells"]

    m: Dict[str, Tuple[float, str]] = {
        "workloads.gen_s": (own["workloads"], "s"),
        "workloads.traces": (traces, "count"),
        "workloads.gen_ns_per_access": (
            own["workloads"] / (traces * bench.wl.accesses) * 1e9 if traces else 0.0, "ns"),
        "cache.s": (own["cache"], "s"),
        "cache.ns_per_access": (
            own["cache"] / counters["cache.accesses"] * 1e9 if counters["cache.accesses"] else 0.0,
            "ns"),
        "core.s": (own["core"], "s"),
        "core.classify_s": (stat("core.classify", "self_s"), "s"),
        "core.serve_s": (stat("core.serve", "self_s"), "s"),
        "core.replay_s": (stat("core.replay", "self_s"), "s"),
        "core.scalar_s": (stat("core.scalar", "self_s"), "s"),
        "core.llc_miss_ops": (miss_ops, "count"),
        "core.deferred_ops": (deferred, "count"),
        "core.scalar_calls": (scalar, "count"),
        "core.batch_flushes": (stat("core.replay", "calls"), "count"),
        "core.deferred_share": (deferred / miss_ops if miss_ops else 0.0, "ratio"),
        "baselines.s": (own["baselines"], "s"),
        "baselines.calls": (stat("baselines.scalar", "calls"), "count"),
        "baselines.deferred_ops": (stat("baselines.serve", "results"), "count"),
        "metadata.remap_probes": (counters.get("metadata.remap_probes", 0.0), "count"),
        "metadata.remap_hit_rate": (
            counters["metadata.remap_hits"] / counters["metadata.remap_probes"]
            if counters.get("metadata.remap_probes") else 0.0, "ratio"),
        "metadata.remap_table_reads": (counters.get("metadata.remap_table_reads", 0.0), "count"),
        "compression.oracle_s": (own["compression"], "s"),
        "compression.oracle_calls": (stat("compression.oracle", "calls"), "count"),
        "sim.run_s": (stat("sim.run", "busy_s"), "s"),
        "sim.self_s": (stat("sim.run", "self_s"), "s"),
        "sim.ns_per_access": (stat("sim.run", "busy_s") / accesses * 1e9, "ns"),
        "sim.deferred_cells": (sum(c["path"] == "deferred" for c in cells), "count"),
        "sim.scalar_cells": (sum(c["path"] == "scalar" for c in cells), "count"),
        "parallel.plan_s": (par["plan_s"], "s"),
        "parallel.fork_s": (traced.fork_s, "s"),
        "parallel.transport_s": (par["transport_s"], "s"),
        "parallel.merge_s": (par["merge_s"], "s"),
        "parallel.busy_share": (par["busy_share"], "ratio"),
        "parallel.tail_idle_s": (par["tail_idle_s"], "s"),
        "parallel.traces_replayed": (
            float(reps[0].cells - reps[0].traces_generated) if bench.wl.kind != "observed" else 0.0,
            "count"),
        "obs.s": (own["obs"], "s"),
        "obs.overhead_ratio": (obs_ratio, "ratio"),
        "trace.overhead_ratio": (traced.wall_s / untraced_wall, "ratio"),
    }
    for key in ("cache.accesses", "cache.l1_hits", "cache.l2_hits", "cache.llc_hits",
                "cache.llc_misses", "core.commits", "baselines.declines.block_fill"):
        m[key] = (counters.get(key, 0.0), "count")
    for reason in ("z_break", "write_overflow", "staging_fetch", "no_stage", "invariant"):
        m[f"core.declines.{reason}"] = (counters.get(f"core.declines.{reason}", 0.0), "count")
    for case in ("stage_hit", "stage_miss", "commit_hit", "commit_miss", "block_miss", "fast_home"):
        m[f"core.case.{case}"] = (counters.get(f"core.case.{case}", 0.0), "count")
    for dev in ("fast", "slow"):
        for field in ("read_bytes", "write_bytes"):
            m[f"devices.{dev}_{field}"] = (counters.get(f"devices.{dev}_{field}", 0.0), "B")
        m[f"devices.{dev}_ops"] = (counters.get(f"devices.{dev}_ops", 0.0), "count")
    return m, report


# ------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--accesses", type=int, default=None,
                        help="override the trace length per cell (smoke runs)")
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    configs, _ = load_program(jobs=1)
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from repro.analysis.experiments import DESIGNS
    from repro.workloads import WORKLOADS

    spec_proxies = tuple(name for name, w in WORKLOADS.items() if w.generator == "spec")
    wl = workload_table(tuple(DESIGNS), spec_proxies)[args.workload]
    if args.accesses is not None:
        wl = dataclasses.replace(wl, accesses=args.accesses)
    bench = Bench(wl, args.seed, configs, Sink())

    # Timed repetitions, untraced.
    reps: List[Rep] = []
    started = perf_counter()
    while True:
        reps.append(bench.rep(len(reps)))
        elapsed = perf_counter() - started
        # Stop where the next repetition would end nearer past the
        # window than this one ends before it.
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and (
                elapsed + per_rep / 2 >= args.seconds or elapsed + per_rep > RUN_BUDGET_S):
            break
    peak_rss_mb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0

    # Checks: every repetition repeats the first exactly.
    attempted = sum(r.cells for r in reps)
    failed = sum(r.failed for r in reps)
    first = reps[0]
    first_keys = record_keys(first.records)
    digests = set()
    for rep in reps:
        digests.add(result_digest(rep.results))
        if rep is not first:
            failed += sum(1 for k in first.results if rep.results.get(k) != first.results[k])
            failed += multiset_diff(first_keys, record_keys(rep.records))
        failed += outcome_mismatches(rep)
    if len(digests) > 1:
        print(f"sim_digest differs across repetitions: {sorted(digests)}", file=sys.stderr)
    print(f"sim_digest {args.workload} seed={args.seed} {result_digest(first.results)}")
    counters = json.dumps(sorted(first_keys.elements())).encode()
    print(f"counter_digest {args.workload} seed={args.seed} {hashlib.sha256(counters).hexdigest()}")
    t0 = perf_counter()
    failed += bench.prefix_check()
    print(f"prefix check {perf_counter() - t0:.2f}s")
    checks = ["scalar-vs-batched prefix", "digest repeat", "counter repeat",
              "collector vs MatrixOutcome" if wl.kind != "observed" else "observed vs plain"]

    if args.trace:
        from layers import Recorder, install_tracer
        from repro.obs.spans import SpanTracer
        from repro.parallel import SweepTelemetry

        rec = Recorder()
        tracer = SpanTracer(origin="p")
        traced = bench.rep(
            len(reps), patch=lambda p: install_tracer(p, rec),
            telemetry=SweepTelemetry(spans=tracer, heartbeat_every=0),
        )
        attempted += traced.cells
        failed += traced.failed
        failed += sum(1 for k in first.results if traced.results.get(k) != first.results[k])
        failed += multiset_diff(first_keys, record_keys(traced.records))
        checks.append("traced == untraced")
        spans = tracer.export() + rec.drain()
        metrics, report = layer_metrics(bench, reps, traced, spans)
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        for cell in report["cells"]:
            print(f"path {cell['workload']}/{cell['design']} seed={cell['seed']} "
                  f"{cell['path']} deferred_ops={cell['deferred_ops']} "
                  f"scalar_calls={cell['scalar_calls']} declines={cell['declines']}")
        print("layer self time (s): " + " ".join(
            f"{k}={v:.3f}" for k, v in report["layer_self_s"].items()))
        print("counts only (the fast path inlines them past any wrappable "
              "attribute): metadata, devices")
    else:
        total_accesses = first.accesses
        setup = measure_setup(JOBS if wl.kind == "pool" else 1)
        metrics = {
            "accesses_per_s": (statistics.median(r.accesses / r.wall_s for r in reps), "1/s"),
            "cpu_us_per_access": (
                statistics.median(r.cpu_s / r.accesses * 1e6 for r in reps), "us"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"reps={len(reps)} accesses/rep={total_accesses} "
              f"walls={[round(r.wall_s, 3) for r in reps]} setup={[round(s, 3) for s in setup]}")

    failed = min(failed, attempted)
    print("checks: " + ", ".join(checks))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
