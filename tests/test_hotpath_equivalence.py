"""Batched hot path vs the scalar reference loop, and window bugfixes.

The batched loop in :class:`repro.sim.system.SystemSimulator` must be a
pure speed optimization: every :class:`~repro.sim.results.SimResult`
counter — including the float ``cycles`` accumulator — must match the
scalar reference loop bit for bit, and the differential content oracle
must reach the same verdict either way. The windowing tests pin the
measurement-window semantics of energy and ``extra``: on a stationary
trace the per-access measured stats must not depend on the warmup
fraction.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.analysis.experiments import build_controller
from repro.common.config import CacheGeometry, HierarchyConfig, SimulationConfig
from repro.core import BaryonController
from repro.sim import SystemSimulator
from repro.validation import ContentBackedController, generate_trace, make_tiny_config
from repro.workloads import StreamWorkload, ZipfWorkload
from repro.workloads.base import Trace

from tests.conftest import KB, make_small_config, make_small_sim_config


def _make_trace(workload_cls, config, n, seed, **wl_kwargs):
    return workload_cls(
        "wl", 4 * config.layout.fast_capacity, seed=seed, **wl_kwargs
    ).generate(n)


def _run(workload_cls, *, scalar, design="baryon", n=3000, seed=2,
         sim_config=None, **wl_kwargs):
    config = make_small_config()
    sim_config = sim_config or make_small_sim_config()
    trace = _make_trace(workload_cls, config, n, seed, **wl_kwargs)
    ctrl = build_controller(design, config, seed=seed)
    if hasattr(ctrl, "oracle"):  # as run_cell: Hybrid2 never compresses
        trace.apply_compressibility(ctrl.oracle)
    sim = SystemSimulator(ctrl, sim_config)
    return sim.run(trace, "wl", design, scalar=scalar)


#: Every design the figures drive through the Baryon server:
#: set-associative LRU (``baryon``), 64 B sub-blocks, the fully-associative
#: FIFO flat design, and Hybrid2 (a configured inner Baryon controller).
#: The default design keeps its bare workload id.
_BATCHED_CELLS = [
    pytest.param(
        workload_cls, design,
        id=workload_cls.__name__ + ("" if design == "baryon" else f"-{design}"),
    )
    for design in ("baryon", "baryon-64b", "baryon-fa", "hybrid2")
    for workload_cls in (ZipfWorkload, StreamWorkload)
]


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("workload_cls,design", _BATCHED_CELLS)
    def test_simresult_bit_identical(self, workload_cls, design):
        """Every SimResult field, cycles included, matches bit for bit."""
        ref = _run(workload_cls, scalar=True, design=design)
        fast = _run(workload_cls, scalar=False, design=design)
        assert fast.to_dict() == ref.to_dict()
        assert fast.cycles == ref.cycles  # exact float equality, no tolerance

    @pytest.mark.parametrize("design", ["baryon", "unison"])
    def test_non_lru_hierarchy_bit_identical(self, design):
        """A FIFO LLC makes the batched loop drive the hierarchy's
        reference walk: deferred (baryon) and per-miss (unison) cells
        still match the scalar loop bit for bit."""
        base = make_small_sim_config()
        fifo_llc = dataclasses.replace(
            base,
            hierarchy=dataclasses.replace(
                base.hierarchy,
                llc=dataclasses.replace(base.hierarchy.llc, replacement="fifo"),
            ),
        )
        ref = _run(ZipfWorkload, scalar=True, design=design, sim_config=fifo_llc)
        fast = _run(ZipfWorkload, scalar=False, design=design, sim_config=fifo_llc)
        assert fast.to_dict() == ref.to_dict()
        assert fast.cycles == ref.cycles
        assert ref.llc_misses > 0

    def test_empty_and_tiny_traces(self):
        config = make_small_config()
        for n in (0, 1, 3):
            results = []
            for scalar in (True, False):
                trace = _make_trace(ZipfWorkload, config, n, seed=5)
                ctrl = BaryonController(config, seed=5)
                trace.apply_compressibility(ctrl.oracle)
                sim = SystemSimulator(ctrl, make_small_sim_config())
                results.append(sim.run(trace, scalar=scalar).to_dict())
            assert results[0] == results[1]

    def test_content_oracle_verdict_identical(self):
        """The differential content oracle sees the same access stream and
        serves the same read values under either loop."""
        config = make_tiny_config()
        records = generate_trace(random.Random(11), config, 800)
        n = len(records)
        trace = Trace(
            name="oracle",
            addrs=np.asarray([a for a, _ in records], dtype=np.uint64),
            writes=np.asarray([w for _, w in records], dtype=bool),
            igaps=np.zeros(n, dtype=np.uint32),
            cores=np.zeros(n, dtype=np.uint8),
        )
        fingerprints = []
        for scalar in (True, False):
            controller = ContentBackedController(config, seed=11)
            sim = SystemSimulator(controller, make_small_sim_config())
            result = sim.run(trace, scalar=scalar)
            fingerprints.append(
                (
                    controller.served_reads,
                    controller.vstats.as_dict(),
                    result.to_dict(),
                )
            )
        assert fingerprints[0] == fingerprints[1]


class TestProbeIndexAndServer:
    """The stage area's O(1) probe index must agree with its scanning
    lookups, and the deferred server with the scalar path."""

    def test_probe_index_holds_after_every_mutation(self):
        """Drive a movement-heavy tiny trace access by access, checking
        the probe index against the scanning lookups after every access —
        so every stage mutation site (insert, slot removal, invalidation
        on commit or eviction) is checked the moment it happens, not just
        at the end."""
        config = make_tiny_config()
        records = generate_trace(random.Random(21), config, 700)
        ctrl = BaryonController(config, seed=21)
        now = 0.0
        for addr, is_write in records:
            mem = ctrl.access(addr, is_write, now)
            if not is_write:
                now += mem.latency_cycles
            ctrl.stage.verify_probe_index()
        # The tiny config forces constant movement: all mutation sites
        # actually fired inside the verified window.
        assert ctrl.stats.get("commits") > 0
        assert ctrl.stage.stats.get("allocations") > 0
        assert ctrl.stage.stats.get("invalidations") > 0
        assert ctrl.stage.stage_sub  # the index was live, not trivially empty

    def test_random_scalar_batched_interleaving(self):
        """Flip between the scalar ``access`` call and the deferred server
        at random mid-run; the final counters and clock must match the
        all-scalar replay bit for bit."""
        config = make_tiny_config()
        records = generate_trace(random.Random(31), config, 900)
        mlp = 4.0

        ref = BaryonController(config, seed=31)
        cycles = 0.0
        for addr, is_write in records:
            mem = ref.access(addr, is_write, cycles)
            if not is_write:
                cycles += mem.latency_cycles / mlp

        mixed = BaryonController(config, seed=31)
        assert mixed.supports_batching
        serve, flush, replay = mixed.make_deferred_server()
        rng = random.Random(77)
        b_cycles = 0.0
        ops = []
        deferred_used = 0
        for addr, is_write in records:
            op = serve(addr, is_write) if rng.random() < 0.6 else None
            if op is not None:
                ops.append(op)
                deferred_used += 1
                continue
            if ops:
                b_cycles = replay(ops, b_cycles, mlp)
                ops.clear()
            flush()
            mem = mixed.access(addr, is_write, b_cycles)
            if not is_write:
                b_cycles += mem.latency_cycles / mlp
        if ops:
            b_cycles = replay(ops, b_cycles, mlp)
        flush()
        assert deferred_used > 0
        assert b_cycles == cycles  # exact float equality, no tolerance
        assert mixed.stats.as_dict() == ref.stats.as_dict()
        assert (mixed.devices.fast.stats.as_dict()
                == ref.devices.fast.stats.as_dict())
        assert (mixed.devices.slow.stats.as_dict()
                == ref.devices.slow.stats.as_dict())
        assert (mixed.remap_cache.stats.as_dict()
                == ref.remap_cache.stats.as_dict())
        mixed.stage.verify_probe_index()


class TestDeferredServerTwin:
    """The deferred server vs the scalar replay, as the fuzzer drives it."""

    @pytest.mark.parametrize("seed", [3, 17, 29, 41])
    def test_random_chunks_and_interleavings_bit_identical(self, seed):
        """The fuzzer's server twin under random forced mid-run flush
        boundaries; raises on any divergence."""
        from repro.validation.fuzz import run_batched_case

        config_kwargs = {}
        records = generate_trace(
            random.Random(seed), make_tiny_config(**config_kwargs), 900
        )
        run_batched_case(config_kwargs, records, seed, random.Random(seed * 7))

    def test_decline_reasons_are_counted_per_reason(self):
        """A batched sim run charges every decline to a named reason —
        the counters stay out of ``stats`` (bit-identity) but must sum
        to the seam's decline count."""
        config = make_small_config()
        sim_config = make_small_sim_config()
        trace = _make_trace(ZipfWorkload, config, 3000, seed=2)
        ctrl = BaryonController(config, seed=2)
        trace.apply_compressibility(ctrl.oracle)
        SystemSimulator(ctrl, sim_config).run(trace, "wl", "baryon")
        declines = ctrl.deferred_declines
        assert set(declines) == {
            "z_break", "write_overflow", "staging_fetch", "no_stage",
            "invariant",
        }
        assert all(count >= 0 for count in declines.values())


class TestSimpleDesignSeam:
    """The ``simple`` baseline batches its hit stream too."""

    def test_sim_run_bit_identical_and_seam_engaged(self):
        from repro.baselines.simple_cache import SimpleCache

        config = make_small_config()
        sim_config = make_small_sim_config()
        payloads = {}
        ctrls = {}
        for scalar in (True, False):
            trace = _make_trace(ZipfWorkload, config, 3000, seed=2)
            ctrl = SimpleCache(config)
            sim = SystemSimulator(ctrl, sim_config)
            payloads[scalar] = sim.run(trace, "wl", "simple", scalar=scalar).to_dict()
            ctrls[scalar] = ctrl
        assert payloads[True] == payloads[False]
        # The batched run actually entered the deferred seam: its miss
        # stream declined per-reason (hits batched silently), while the
        # scalar run never classifies.
        assert ctrls[False].deferred_declines["block_fill"] > 0
        assert ctrls[True].deferred_declines["block_fill"] == 0

    @pytest.mark.parametrize("seed", [5, 23])
    def test_fuzz_twin_clean(self, seed):
        from repro.validation.fuzz import run_simple_case

        records = generate_trace(random.Random(seed), make_tiny_config(), 700)
        run_simple_case({}, records, seed)


def _run_with_warmup(warmup_fraction, n=20000, seed=3):
    config = make_small_config()
    sim_config = dataclasses.replace(
        make_small_sim_config(), warmup_fraction=warmup_fraction
    )
    trace = _make_trace(ZipfWorkload, config, n, seed)
    ctrl = BaryonController(config, seed=seed)
    trace.apply_compressibility(ctrl.oracle)
    return SystemSimulator(ctrl, sim_config).run(trace)


class TestMeasurementWindow:
    """Energy and ``extra`` must describe the measured window only."""

    def test_energy_per_access_warmup_invariant(self):
        full = _run_with_warmup(0.0)
        half = _run_with_warmup(0.5)
        assert half.memory_accesses < full.memory_accesses
        per_full = full.energy.total_j / full.memory_accesses
        per_half = half.energy.total_j / half.memory_accesses
        # Pre-fix, half-warmup energy covered the whole run: per-access
        # energy came out ~2x. Stationary trace => ~equal per access.
        assert 0.7 < per_half / per_full < 1.4

    def test_extra_counters_warmup_invariant(self):
        full = _run_with_warmup(0.0)
        half = _run_with_warmup(0.5)
        commits_full = full.extra["ctrl_commits"] / full.memory_accesses
        commits_half = half.extra["ctrl_commits"] / half.memory_accesses
        # Pre-fix, ctrl_commits was the full-run total regardless of
        # warmup; per measured access it came out ~2x for warmup 0.5.
        assert 0.7 < commits_half / commits_full < 1.4
        # Miss rate is now a window rate; on a stationary trace both
        # windows sit near the steady-state rate.
        assert full.extra["llc_miss_rate"] > 0.0
        assert half.extra["llc_miss_rate"] == pytest.approx(
            full.extra["llc_miss_rate"], rel=0.25
        )

    def test_useful_bytes_follow_line_size(self):
        """useful_bytes derives from the configured LLC line size."""
        config = make_small_config()
        hierarchy = HierarchyConfig(
            cores=2,
            l1d=CacheGeometry("L1D", 16 * KB, 8, line_size=128, latency_cycles=4),
            l2=CacheGeometry("L2", 64 * KB, 8, line_size=128, latency_cycles=9),
            llc=CacheGeometry("LLC", 128 * KB, 16, line_size=128, latency_cycles=38),
        )
        sim_config = SimulationConfig(hierarchy=hierarchy, warmup_fraction=0.1)
        trace = _make_trace(ZipfWorkload, config, 4000, seed=2)
        ctrl = BaryonController(config, seed=2)
        trace.apply_compressibility(ctrl.oracle)
        result = SystemSimulator(ctrl, sim_config).run(trace)
        assert result.llc_misses > 0
        assert result.useful_bytes == result.llc_misses * 128


def _run_observed(design, workload, *, scalar, observed=True, n=4000, seed=1):
    """One cell with a stage-phase tracker (designs with a stage area)
    and a metrics registry attached; ``metrics_window`` 333 does not
    divide the 2,048-access chunks, and the serve-rate series is
    pre-registered with a small capacity so it decimates mid-run."""
    from repro.core.tracking import StagePhaseTracker
    from repro.obs.metrics import MetricsRegistry
    from repro.workloads import build_workload

    config = make_small_config()
    trace = build_workload(
        workload, config.layout.fast_capacity, n_accesses=n, seed=seed
    )
    tracker = registry = None
    if observed:
        if design != "simple":
            tracker = StagePhaseTracker()
        registry = MetricsRegistry()
        registry.series("repro_serve_rate", every=333, capacity=3)
    ctrl = build_controller(design, config, seed=seed, tracker=tracker)
    if hasattr(ctrl, "oracle"):
        trace.apply_compressibility(ctrl.oracle)
    sim = SystemSimulator(
        ctrl, make_small_sim_config(), metrics=registry, metrics_window=333
    )
    result = sim.run(trace, workload, design, scalar=scalar)
    return result, sim, tracker, registry


_OBSERVED_CELLS = [
    pytest.param(design, workload, id=f"{design}-{workload}")
    for design in ("baryon", "baryon-64b", "baryon-fa", "hybrid2", "simple")
    for workload in ("YCSB-B", "YCSB-A")
]


class TestObservedDeferredEqualsScalar:
    """The stage-phase tracker and the metrics registry ride the deferred
    server and see exactly what they see on the scalar loop."""

    @pytest.mark.parametrize("design,workload", _OBSERVED_CELLS)
    def test_observers_bit_identical(self, design, workload):
        ref, ref_sim, ref_tracker, ref_registry = _run_observed(
            design, workload, scalar=True
        )
        fast, sim, tracker, registry = _run_observed(
            design, workload, scalar=False
        )
        assert (ref_sim.path, ref_sim.path_gate) == ("scalar", "scalar")
        assert (sim.path, sim.path_gate) == ("deferred", None)
        assert fast == ref
        assert fast.cycles == ref.cycles
        assert registry.to_json() == ref_registry.to_json()
        series = registry.get("repro_serve_rate")
        assert series.every > 333 and series.points  # decimated mid-run
        assert registry.get("repro_mem_latency_cycles").total > 0
        if tracker is not None:
            assert tracker.breakdown
            assert tracker.breakdown == ref_tracker.breakdown
            assert tracker.mpki_distribution() == ref_tracker.mpki_distribution()
        plain, plain_sim, _, _ = _run_observed(
            design, workload, scalar=False, observed=False
        )
        assert plain_sim.path == "deferred"
        assert plain == fast
        assert plain.cycles == fast.cycles


class TestPathReporting:
    """Results say which loop ran and which gate kept it off the server."""

    def _sim(self, design="baryon", **kwargs):
        config = make_small_config()
        trace = _make_trace(ZipfWorkload, config, 1500, seed=4)
        ctrl = build_controller(design, config, seed=4)
        if hasattr(ctrl, "oracle"):
            trace.apply_compressibility(ctrl.oracle)
        sim = SystemSimulator(ctrl, make_small_sim_config(), **kwargs)
        return sim, trace

    def test_deferred_batched_and_scalar_paths(self):
        from repro.obs import PhaseProfiler

        sim, trace = self._sim()
        deferred = sim.run(trace)
        assert (sim.path, sim.path_gate) == ("deferred", None)
        assert (deferred.path, deferred.path_gate) == ("deferred", None)
        sim, trace = self._sim()
        scalar = sim.run(trace, scalar=True)
        assert (scalar.path, scalar.path_gate) == ("scalar", "scalar")
        sim, trace = self._sim(profiler=PhaseProfiler())
        profiled = sim.run(trace)
        assert (profiled.path, profiled.path_gate) == ("batched", "profiler")
        sim, trace = self._sim("unison")
        assert sim.run(trace).path_gate == "design"
        # The path is not part of the numbers: equality and the
        # serialized form ignore it.
        assert scalar == deferred == profiled
        assert "path" not in deferred.to_dict()
        assert "path_gate" not in deferred.to_dict()

    def test_controller_gates_name_their_reason(self):
        from repro.obs import EventTracer, attach_observability

        config = make_small_config()
        assert BaryonController(config).batching_gate() is None
        assert build_controller("dice", config).batching_gate() == "design"
        assert build_controller("simple", config).batching_gate() is None
        for design in ("baryon", "hybrid2", "simple"):
            ctrl = build_controller(design, config)
            attach_observability(ctrl, EventTracer(capacity=16), None)
            assert ctrl.batching_gate() == "event-tracer"
            assert not ctrl.supports_batching
        oracle = ContentBackedController(make_tiny_config())
        assert oracle.batching_gate() == "content-oracle"
        assert not oracle.supports_batching

    def test_run_cell_result_carries_the_path(self):
        from repro.analysis.experiments import run_cell
        from repro.core.tracking import StagePhaseTracker
        from repro.obs.metrics import MetricsRegistry

        result, _ = run_cell(
            "YCSB-B", "baryon", make_small_config(), make_small_sim_config(),
            n_accesses=1500, tracker=StagePhaseTracker(),
            metrics=MetricsRegistry(),
        )
        assert (result.path, result.path_gate) == ("deferred", None)
