"""Deterministic trace fuzzing for the content oracle.

Random traces through random tiny configurations exercise controller
paths no hand-written test reaches: stage overflow under every toggle
combination, commits racing home displacement, zero-block breaks in the
flat scheme, 64 B sub-blocking, the no-stage ablation. Everything is
seeded — an iteration is fully reproduced by ``(seed, iteration)`` — so
any violation the fuzzer finds can be replayed, delta-debugged
(:mod:`repro.validation.minimize`) and frozen as a pytest fixture
(:mod:`repro.validation.emit`).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.config import (
    BaryonConfig,
    CommitConfig,
    CompressionConfig,
    HybridLayout,
    StageConfig,
)
from repro.common.errors import OracleViolation
from repro.common.stats import CounterGroup
from repro.core.tracking import StagePhaseTracker
from repro.validation.content import ContentBackedController, replay

KB = 1024
TraceRecord = Tuple[int, bool]


def make_tiny_config(
    fast_kb: int = 64,
    ratio: int = 8,
    stage_kb: int = 4,
    stage_ways: int = 2,
    flat: float = 0.0,
    fully_associative: bool = False,
    stage_enabled: bool = True,
    sub_block_size: Optional[int] = None,
    compression_enabled: bool = True,
    compressed_writeback: bool = True,
    two_level_replacement: bool = True,
    share_physical_blocks: bool = True,
    cacheline_aligned: bool = True,
    zero_block_support: bool = True,
    commit_all: bool = False,
    stability_only: bool = False,
) -> BaryonConfig:
    """A deliberately tiny configuration for fast, stressful fuzzing.

    Small capacities force constant replacement/commit/swap traffic, so a
    few hundred accesses visit every movement path. All parameters are
    plain scalars so a sampled configuration round-trips through the
    emitted fixture's ``CONFIG_KWARGS`` literal.
    """
    layout = HybridLayout(
        fast_capacity=fast_kb * KB,
        slow_capacity=ratio * fast_kb * KB,
        associativity=4,
        flat_fraction=flat,
        fully_associative=fully_associative,
    )
    stage = StageConfig(
        size_bytes=stage_kb * KB,
        ways=stage_ways,
        enabled=stage_enabled,
        aging_period_accesses=64,
    )
    compression = CompressionConfig(
        cacheline_aligned=cacheline_aligned,
        zero_block_support=zero_block_support,
    )
    commit = CommitConfig(commit_all=commit_all, stability_only=stability_only)
    config = dataclasses.replace(
        BaryonConfig(),
        layout=layout,
        stage=stage,
        compression=compression,
        commit=commit,
        compression_enabled=compression_enabled,
        compressed_writeback=compressed_writeback,
        two_level_replacement=two_level_replacement,
        share_physical_blocks=share_physical_blocks,
    )
    if sub_block_size is not None:
        config = config.with_sub_block_size(sub_block_size)
    return config


def sample_config_kwargs(rng: random.Random) -> Dict:
    """Draw one :func:`make_tiny_config` parameterization."""
    kwargs: Dict = {
        "fast_kb": rng.choice([64, 128, 256]),
        "ratio": rng.choice([4, 8]),
        "stage_kb": rng.choice([4, 8, 16]),
        "stage_ways": rng.choice([2, 4]),
        "flat": rng.choice([0.0, 0.0, 0.75, 1.0]),
        "stage_enabled": rng.random() > 0.15,
        "compression_enabled": rng.random() > 0.25,
        "compressed_writeback": rng.random() > 0.5,
        "two_level_replacement": rng.random() > 0.25,
        "share_physical_blocks": rng.random() > 0.25,
        "cacheline_aligned": rng.random() > 0.5,
        "zero_block_support": rng.random() > 0.5,
    }
    if kwargs["flat"] > 0 and rng.random() > 0.5:
        kwargs["fully_associative"] = True
    if rng.random() > 0.8:
        kwargs["sub_block_size"] = 64
    commit = rng.random()
    if commit > 0.85:
        kwargs["commit_all"] = True
    elif commit > 0.7:
        kwargs["stability_only"] = True
    # stage blocks must divide evenly into ways
    if (kwargs["stage_kb"] * KB) // 2048 < kwargs["stage_ways"]:
        kwargs["stage_ways"] = 2
    return kwargs


def generate_trace(
    rng: random.Random, config: BaryonConfig, n_accesses: int = 600
) -> List[TraceRecord]:
    """A seeded workload with enough locality to stage and commit.

    Accesses concentrate on a small hot set of super-blocks (so stage
    phases complete and commits happen) with a cold tail (so evictions,
    swaps and zero-block fetches happen), mixing sequential bursts with
    random single accesses at a configurable write fraction.
    """
    g = config.geometry
    span_bytes = config.layout.fast_capacity + config.layout.slow_capacity
    n_supers = max(2, span_bytes // g.super_block_size)
    hot = rng.sample(range(n_supers), min(n_supers, rng.randint(4, 12)))
    write_fraction = rng.uniform(0.2, 0.6)
    trace: List[TraceRecord] = []
    while len(trace) < n_accesses:
        super_id = (
            rng.choice(hot) if rng.random() < 0.85 else rng.randrange(n_supers)
        )
        base = super_id * g.super_block_size
        offset = rng.randrange(g.super_block_size // g.cacheline_size)
        addr = base + offset * g.cacheline_size
        if rng.random() < 0.3:
            # Sequential burst: consecutive cachelines, one r/w mode.
            is_write = rng.random() < write_fraction
            for step in range(rng.randint(2, 8)):
                line_addr = addr + step * g.cacheline_size
                if line_addr >= base + g.super_block_size:
                    break
                trace.append((line_addr, is_write))
        else:
            trace.append((addr, rng.random() < write_fraction))
    return trace[:n_accesses]


@dataclass
class FuzzFailure:
    """One fuzzer-found violation, with everything needed to replay it."""

    iteration: int
    config_kwargs: Dict
    seed: int
    trace: List[TraceRecord]
    error: OracleViolation
    minimized: Optional[List[TraceRecord]] = None


@dataclass
class FuzzReport:
    iterations: int = 0
    accesses: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    stats: CounterGroup = field(
        default_factory=lambda: CounterGroup("repro_validation")
    )

    @property
    def ok(self) -> bool:
        return not self.failures


def run_case(
    config_kwargs: Dict,
    trace: List[TraceRecord],
    seed: int,
    inject_bug: Optional[str] = None,
) -> ContentBackedController:
    """Replay one (config, trace) case content-backed; raises on violation."""
    controller = ContentBackedController(
        make_tiny_config(**config_kwargs), seed=seed, inject_bug=inject_bug
    )
    return replay(controller, trace)


def _group_dict(group) -> Dict:
    return group.as_dict() if hasattr(group, "as_dict") else dict(group)


def _scalar_replay(controller, trace: List[TraceRecord], mlp: float) -> float:
    """Plain ``access`` replay; returns the finishing clock."""
    cycles = 0.0
    for addr, is_write in trace:
        mem = controller.access(addr, is_write, cycles)
        if not is_write:
            cycles += mem.latency_cycles / mlp
    return cycles


def _assert_twin_match(scalar_ctrl, twin_ctrl, cycles: float,
                       twin_cycles: float, path: str) -> None:
    """Raise ``batched_divergence`` unless the twin matches bit-for-bit.

    Wrapped controllers (Hybrid2) are compared through their inner
    Baryon controller, so the remap cache and both probe indices are
    checked too.
    """
    scalar_ctrl = getattr(scalar_ctrl, "_inner", scalar_ctrl)
    twin_ctrl = getattr(twin_ctrl, "_inner", twin_ctrl)
    groups = [
        ("controller", scalar_ctrl.stats, twin_ctrl.stats),
        ("fast_device", scalar_ctrl.devices.fast.stats,
         twin_ctrl.devices.fast.stats),
        ("slow_device", scalar_ctrl.devices.slow.stats,
         twin_ctrl.devices.slow.stats),
    ]
    if hasattr(scalar_ctrl, "remap_cache"):
        groups.append(
            ("remap_cache", scalar_ctrl.remap_cache.stats,
             twin_ctrl.remap_cache.stats)
        )
    for name, scalar_group, twin_group in groups:
        scalar_counts = _group_dict(scalar_group)
        twin_counts = _group_dict(twin_group)
        if scalar_counts != twin_counts:
            key = next(
                k for k in sorted(set(scalar_counts) | set(twin_counts))
                if scalar_counts.get(k) != twin_counts.get(k)
            )
            raise OracleViolation(
                f"{path} seam diverged in {name} counter {key!r}: "
                f"{scalar_counts.get(key)} vs {twin_counts.get(key)}",
                kind="batched_divergence", location=f"{name}.{key}",
            )
    if twin_cycles != cycles:
        raise OracleViolation(
            f"{path} seam diverged in cycles: {cycles} vs {twin_cycles}",
            kind="batched_divergence", location="cycles",
        )
    stage = getattr(twin_ctrl, "stage", None)
    if stage is not None:
        try:
            stage.verify_probe_index()
        except AssertionError as err:
            raise OracleViolation(
                f"{path} twin's stage probe index diverged: {err}",
                kind="batched_divergence", location="stage.probe_index",
            ) from err
    for role, ctrl in (("scalar", scalar_ctrl), ("twin", twin_ctrl)):
        fast_area = getattr(ctrl, "fast_area", None)
        if fast_area is None:
            continue
        try:
            fast_area.verify_index()
        except AssertionError as err:
            raise OracleViolation(
                f"{path} {role}'s fast-area index diverged: {err}",
                kind="batched_divergence", location="fast_area.ways_of_super",
            ) from err


def _server_replay(
    controller, trace: List[TraceRecord], mlp: float,
    rng: Optional[random.Random] = None,
) -> float:
    """Replay through the deferred ``(serve, flush, replay)`` server the
    way ``SystemSimulator._deferred_span`` drives it; returns the
    finishing clock.

    Accepted ops accumulate and replay at the next decline, which first
    flushes the server and then takes the scalar ``access`` call. With
    ``rng``, random extra replay/flush boundaries are forced mid-run —
    the same write-back points progress chunking introduces.
    """
    serve, flush, replay = controller.make_deferred_server()
    n = len(trace)
    boundary = n + 1
    if rng is not None and rng.random() < 0.7:
        boundary = rng.randrange(1, n + 1)
    cycles = 0.0
    ops: List = []
    for i, (addr, is_write) in enumerate(trace):
        if i == boundary:
            if ops:
                cycles = replay(ops, cycles, mlp)
                ops.clear()
            flush()
            boundary += rng.randrange(1, max(2, n // 4))
        op = serve(addr, is_write)
        if op is not None:
            ops.append(op)
            continue
        if ops:
            cycles = replay(ops, cycles, mlp)
            ops.clear()
        flush()
        mem = controller.access(addr, is_write, cycles)
        if not is_write:
            cycles += mem.latency_cycles / mlp
    if ops:
        cycles = replay(ops, cycles, mlp)
    flush()
    return cycles


def _tracker_state(tracker: StagePhaseTracker) -> Dict[str, object]:
    return {
        "breakdown": dict(tracker.breakdown),
        "open_phases": tracker.open_phases(),
        # Welford mean/variance are order-sensitive floats: equal only if
        # the same phases closed with the same miss rates, in order.
        "bin_stats": [(s.count, s.mean, s.variance) for s in tracker.bin_stats],
    }


def _run_server_twin(make_controller, trace: List[TraceRecord],
                     rng: Optional[random.Random], path: str,
                     tracked: bool = True) -> None:
    """One scalar replay vs one deferred-server replay of fresh twins.

    With ``tracked``, ``make_controller(tracker)`` attaches a stage-phase
    tracker to each twin, and the server's tracker calls must leave the
    same breakdown, open phases and bin stats as the scalar path's.
    """
    trackers = (
        (StagePhaseTracker(), StagePhaseTracker()) if tracked else (None, None)
    )
    scalar_ctrl = make_controller(trackers[0])
    twin_ctrl = make_controller(trackers[1])
    if not twin_ctrl.supports_batching:
        raise OracleViolation(
            f"forced {path} configuration does not support batching",
            kind="batched_divergence", location="supports_batching",
        )
    mlp = 4.0
    cycles = _scalar_replay(scalar_ctrl, trace, mlp)
    twin_cycles = _server_replay(twin_ctrl, trace, mlp, rng)
    _assert_twin_match(scalar_ctrl, twin_ctrl, cycles, twin_cycles, path)
    if not tracked:
        return
    scalar_state = _tracker_state(trackers[0])
    twin_state = _tracker_state(trackers[1])
    for name, value in scalar_state.items():
        if twin_state[name] != value:
            raise OracleViolation(
                f"{path} seam diverged in the stage-phase tracker's {name}",
                kind="batched_divergence", location=f"tracker.{name}",
            )


def run_batched_case(
    config_kwargs: Dict,
    trace: List[TraceRecord],
    seed: int,
    rng: Optional[random.Random] = None,
) -> None:
    """Replay one fuzz case through Baryon's deferred server; raise on drift.

    The configuration is *forced*: fault injection off, the synthetic
    compressibility oracle on — exactly the shape for which
    ``BaryonController.supports_batching`` holds, for every fast-area
    policy (LRU, FIFO fully-associative, flat). One controller replays
    the trace through plain ``access`` calls; a twin replays it through
    the ``(serve, flush, replay)`` server, under random forced flush
    boundaries when ``rng`` is given. Both must finish with
    bit-identical counters (controller, devices, remap cache) and the
    same clock, their stage-phase trackers must agree (breakdown, open
    phases, bin stats), and the twin's stage probe index must agree with
    its scanning lookups. Raises :class:`OracleViolation`
    (``kind="batched_divergence"``) otherwise.
    """
    from repro.core import BaryonController

    _run_server_twin(
        lambda tracker: BaryonController(
            make_tiny_config(**config_kwargs), seed=seed, tracker=tracker
        ),
        trace, rng, "batched",
    )


def run_simple_case(
    config_kwargs: Dict,
    trace: List[TraceRecord],
    seed: int,
    rng: Optional[random.Random] = None,
) -> None:
    """Drive the ``simple`` baseline's deferred server against its scalar
    twin.

    The simple design serves its commit-hit stream deferred (block
    misses decline with no state applied), so the same twin-controller
    discipline applies: counters, device traffic, remap-cache stats and
    the clock must be bit-identical.
    """
    from repro.baselines.simple_cache import SimpleCache

    _run_server_twin(
        lambda _tracker: SimpleCache(make_tiny_config(**config_kwargs)),
        trace, rng, "simple", tracked=False,
    )


def run_hybrid2_case(
    config_kwargs: Dict,
    trace: List[TraceRecord],
    seed: int,
    rng: Optional[random.Random] = None,
) -> None:
    """Drive Hybrid2 through the deferred server against its scalar twin.

    :class:`~repro.baselines.hybrid2.Hybrid2` forces a combination
    :func:`sample_config_kwargs` never draws: k = 0, compression off, no
    physical-block sharing, and a fully-associative flat layout. The
    same twin discipline as :func:`run_batched_case` applies, through
    the wrapper's delegated ``(serve, flush, replay)`` contract.
    """
    from repro.baselines.hybrid2 import Hybrid2

    _run_server_twin(
        lambda tracker: Hybrid2(
            make_tiny_config(**config_kwargs), seed=seed, tracker=tracker
        ),
        trace, rng, "hybrid2",
    )


def run_fuzz(
    iterations: int,
    seed: int,
    n_accesses: int = 600,
    inject_bug: Optional[str] = None,
    batched: bool = False,
) -> FuzzReport:
    """Run ``iterations`` seeded fuzz cases; collect (don't raise) failures.

    With ``batched=True`` every iteration additionally replays its trace
    through the deferred server three times, each against a fresh scalar
    twin and under random forced flush boundaries: Baryon's server
    (:func:`run_batched_case`), Hybrid2's (:func:`run_hybrid2_case`) and
    the ``simple`` baseline's (:func:`run_simple_case`).
    """
    report = FuzzReport()
    for iteration in range(iterations):
        rng = random.Random(f"{seed}:{iteration}")
        config_kwargs = sample_config_kwargs(rng)
        trace = generate_trace(rng, make_tiny_config(**config_kwargs), n_accesses)
        report.iterations += 1
        report.accesses += len(trace)
        report.stats.inc("fuzz_iterations")
        report.stats.inc("fuzz_accesses", len(trace))
        try:
            controller = run_case(config_kwargs, trace, seed, inject_bug)
            if batched:
                run_batched_case(config_kwargs, trace, seed, rng)
                report.stats.inc("fuzz_batched_checks")
                run_hybrid2_case(config_kwargs, trace, seed, rng)
                report.stats.inc("fuzz_hybrid2_checks")
                run_simple_case(config_kwargs, trace, seed, rng)
                report.stats.inc("fuzz_simple_checks")
        except OracleViolation as error:
            report.stats.inc("fuzz_violations")
            report.failures.append(
                FuzzFailure(
                    iteration=iteration,
                    config_kwargs=config_kwargs,
                    seed=seed,
                    trace=trace,
                    error=error,
                )
            )
        else:
            report.stats.merge(controller.vstats)
    return report


def selftest_case() -> Tuple[Dict, List[TraceRecord]]:
    """A deterministic case where ``drop_dirty_writeback`` must be caught.

    Compression is disabled (single-sub staging, no zero blocks), the
    stage area is one set of two 2 kB ways. Writes fill one stage entry's
    eight slots, a ninth range insert FIFO-evicts the first (dirty) slot
    — the injected bug drops its writeback — and the final read of that
    sub-block observes the stale slow copy.
    """
    config_kwargs = {
        "fast_kb": 64,
        "stage_kb": 4,
        "stage_ways": 2,
        "compression_enabled": False,
    }
    block = 2048
    sub = 256
    trace: List[TraceRecord] = [(0 * block, True)]
    trace += [(b * block, True) for b in range(1, 8)]
    trace.append((0 * block + 1 * sub, True))
    trace.append((0 * block, False))
    return config_kwargs, trace
