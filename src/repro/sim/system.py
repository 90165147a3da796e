"""The system simulator: drive a trace through caches into a controller."""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import SimulationConfig
from repro.devices.energy import EnergyModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import NULL_PROFILER, PhaseProfiler
from repro.obs.spans import NULL_SPANS, SpanTracer
from repro.sim.results import SimResult


def _sample_due(series, ticks: int, value: float) -> None:
    """Advance ``series`` to ``ticks``, recording ``value`` when that is
    its due tick (as per-access ``tick`` calls would)."""
    if ticks == series.next_due():
        series.sample_at(ticks, value)
    else:
        series.advance_to(ticks)


class SystemSimulator:
    """Runs one (controller, trace) pair and produces a :class:`SimResult`.

    The controller is any object with the
    ``access(addr, is_write, now) -> AccessResult`` duck type (Baryon or a
    baseline). A fresh :class:`~repro.cache.hierarchy.CacheHierarchy` is
    built per simulator unless one is injected.

    Two interchangeable per-access loops drive the trace:

    ``scalar``
        The original reference loop, kept verbatim: one
        :class:`~repro.cache.hierarchy.HierarchyResult` per access from
        the hierarchy's reference walk, per-access metric ticks,
        per-access profiling.
    ``batched`` (default)
        The hot-path loop: trace arrays are converted to plain Python
        lists once, the hierarchy runs through the
        ``(access, install, flush)`` closures of
        :meth:`~repro.cache.hierarchy.CacheHierarchy.make_fast_path`, and
        observing/profiling hooks fire on interval samples instead of
        every access. Each warmup/measured segment runs in
        ``progress_every``-sized chunks. Simulation state and every
        :class:`SimResult` counter are bit-identical to the scalar loop
        (the float accumulation order of ``cycles`` is preserved
        operation for operation); ``tests/test_hotpath_equivalence.py``
        asserts this.

    When no gate applies, the batched loop additionally *defers* the
    timing of LLC misses and writebacks through the controller's one
    deferred contract, the ``(serve, flush, replay)`` triple from
    ``make_deferred_server()``: ``serve`` applies each access's state
    effects eagerly in trace order and returns an op record, and
    ``replay`` runs the channel timing of a whole span of ops in one
    call. An access ``serve`` declines flushes the pending span and takes
    the scalar ``access`` call, so results — cycles, counters, energy —
    stay bit-identical to both reference loops. The gates, first match
    wins, are ``scalar`` (requested), ``profiler`` and the controller's
    ``batching_gate()`` reason: ``faults``, ``recovery``, ``checker``,
    ``event-tracer``, ``quarantine``, ``content-oracle``, or ``design``
    for the baselines with no server (Unison, DICE). After :meth:`run`,
    :attr:`path` (``deferred``, ``batched`` or ``scalar``) and
    :attr:`path_gate` say which loop ran and why; the result carries
    both too.

    The stage-phase tracker and the metrics registry are not gates. The
    server makes the tracker's calls itself, and an observed deferred
    span asks ``replay`` for each op's latency, observes the demand
    misses' latencies in trace order, and ends at each time-series
    sample tick so that the sample sees the scalar loop's values.

    Observability (all optional, all free when absent):

    ``metrics``
        A :class:`~repro.obs.metrics.MetricsRegistry`; the simulator
        registers a memory-latency histogram plus windowed serve-rate and
        IPC time series sampled every ``metrics_window`` accesses.
    ``profiler``
        A :class:`~repro.obs.profiler.PhaseProfiler`; wall-clock is split
        into warmup/measured phases and cache-hierarchy vs controller
        time, with instruction counts per phase. The batched loop samples
        the hierarchy/controller timers one access in 64.
    ``spans``
        A :class:`~repro.obs.spans.SpanTracer`; the run is wrapped in a
        ``sim.run`` span with ``sim.warmup``/``sim.measured`` child
        phase spans (batched loop; the scalar reference loop records the
        run span only).
    ``progress``
        A ``callable(done, total)`` invoked every ``progress_every``
        accesses (and at each phase boundary), at the batched loop's
        chunk ends. Chunking only changes where local accumulators are
        written back and pending deferred ops replay, so results stay
        bit-identical to the scalar loop.
    """

    def __init__(
        self,
        controller,
        config: Optional[SimulationConfig] = None,
        hierarchy: Optional[CacheHierarchy] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[PhaseProfiler] = None,
        metrics_window: int = 1000,
        spans: Optional[SpanTracer] = None,
        progress=None,
        progress_every: int = 2048,
    ) -> None:
        self.controller = controller
        self.config = config or SimulationConfig()
        self.hierarchy = hierarchy or CacheHierarchy(self.config.hierarchy)
        self.profiler = profiler or NULL_PROFILER
        self.metrics = metrics
        self.spans = spans or NULL_SPANS
        self._progress = progress
        self._progress_every = max(1, progress_every)
        self._run_span = None
        self._deferred = False
        #: The loop the last :meth:`run` took (``deferred``, ``batched``
        #: or ``scalar``) and the first gate that kept it off the
        #: deferred server (``None`` when it ran there).
        self.path = ""
        self.path_gate: Optional[str] = None
        self._server = None
        self._fast_path = None
        self.cycles = 0.0
        self.instructions = 0
        self._served_fast = 0
        self._mem_seen = 0
        if metrics is not None:
            self._h_latency = metrics.histogram(
                "repro_mem_latency_cycles",
                help="memory-level demand access latency (cycles)",
            )
            self._ts_serve = metrics.series(
                "repro_serve_rate",
                help="running fast-memory serve rate",
                every=metrics_window,
            )
            self._ts_ipc = metrics.series(
                "repro_ipc", help="running instructions per cycle",
                every=metrics_window,
            )

    def run(
        self, trace, name: str = "", design: str = "", *, scalar: bool = False
    ) -> SimResult:
        """Simulate the whole trace; measure after the warmup fraction.

        The measured window is ``[warmup_end, n)``: the snapshot is taken
        just before access ``warmup_end`` runs, or after the loop when
        warmup covers the whole (possibly empty) trace — so the window is
        always well-defined, at worst empty. ``scalar=True`` selects the
        reference per-access loop instead of the batched hot path.
        """
        n = len(trace)
        warmup_end = min(n, int(n * self.config.warmup_fraction))
        # The deferred batch path needs full custody of the per-access
        # flow: no per-access profiler hooks, and a controller with no
        # per-access hooks of its own. The first gate that applies names
        # the path taken.
        if scalar:
            gate = "scalar"
        elif self.profiler.enabled:
            gate = "profiler"
        else:
            batching_gate = getattr(self.controller, "batching_gate", None)
            gate = batching_gate() if batching_gate is not None else "design"
        self.path_gate = gate
        self._deferred = gate is None
        self.path = (
            "scalar" if scalar else "deferred" if gate is None else "batched"
        )
        spans = self.spans
        if spans.enabled:
            self._run_span = spans.start(
                "sim.run", design=design or getattr(self.controller, "name", ""),
                workload=name, accesses=n, warmup=warmup_end,
            )
        try:
            if scalar:
                mark, wall_start = self._run_scalar(trace, n, warmup_end)
            else:
                mark, wall_start = self._run_batched(trace, n, warmup_end)
            return self._finalize(
                trace, name, design, n, warmup_end, mark, wall_start
            )
        finally:
            if self._run_span is not None:
                spans.end(
                    self._run_span,
                    instructions=self.instructions, cycles=self.cycles,
                )
                self._run_span = None

    # ----------------------------------------------------- reference loop
    def _run_scalar(
        self, trace, n: int, warmup_end: int
    ) -> Tuple[Optional[Dict[str, float]], float]:
        """The original per-access loop, kept verbatim as the equivalence
        reference for the batched hot path."""
        mark: Optional[Dict[str, float]] = None

        addrs = trace.addrs
        writes = trace.writes
        igaps = trace.igaps
        cores = trace.cores
        mlp = self.config.memory_level_parallelism
        base_cpi = self.config.base_cpi
        # The trace interleaves all cores' streams: wall-clock compute
        # time per access is the per-thread time over the core count.
        threads = max(1, self.config.hierarchy.cores)

        profiling = self.profiler.enabled
        observing = self.metrics is not None
        progress = self._progress
        progress_stride = self._progress_every
        served_fast = 0
        mem_seen = 0
        wall_start = perf_counter() if profiling else 0.0

        for i in range(n):
            if i == warmup_end:
                mark = self._snapshot()
                if profiling:
                    self.profiler.add("warmup", perf_counter() - wall_start, calls=i)
                    self.profiler.count("warmup_instructions", self.instructions)
                    wall_start = perf_counter()
            gap = int(igaps[i])
            self.instructions += gap + 1
            self.cycles += gap * base_cpi / threads

            addr = int(addrs[i])
            is_write = bool(writes[i])
            if profiling:
                t0 = perf_counter()
                result = self.hierarchy.access(addr, is_write, int(cores[i]))
                self.profiler.add("hierarchy", perf_counter() - t0)
            else:
                result = self.hierarchy.access(addr, is_write, int(cores[i]))
            self.cycles += result.latency_cycles / threads
            if result.llc_miss:
                if profiling:
                    t0 = perf_counter()
                    mem = self.controller.access(addr, is_write, self.cycles)
                    self.profiler.add("controller", perf_counter() - t0)
                else:
                    mem = self.controller.access(addr, is_write, self.cycles)
                if not is_write:
                    # Writes are posted; only read latency stalls the core.
                    self.cycles += mem.latency_cycles / mlp
                if observing:
                    self._h_latency.observe(mem.latency_cycles)
                    mem_seen += 1
                    if mem.served_fast:
                        served_fast += 1
                for line_addr in mem.prefetched_lines:
                    for wb in self.hierarchy.install_llc(line_addr):
                        self.controller.access(wb, True, self.cycles)
            for wb in result.writebacks:
                self.controller.access(wb, True, self.cycles)
            if observing:
                self._ts_serve.tick(served_fast / mem_seen if mem_seen else 0.0)
                self._ts_ipc.tick(
                    self.instructions / self.cycles if self.cycles else 0.0
                )
            if progress is not None and not ((i + 1) % progress_stride):
                progress(i + 1, n)

        self._served_fast = served_fast
        self._mem_seen = mem_seen
        if progress is not None and n % progress_stride:
            progress(n, n)
        return mark, wall_start

    # ----------------------------------------------------- batched hot path
    def _run_batched(
        self, trace, n: int, warmup_end: int
    ) -> Tuple[Optional[Dict[str, float]], float]:
        """Segmented hot-path loop: warmup span, boundary snapshot,
        measured span. State effects are bit-identical to the scalar
        loop (see :meth:`run`)."""
        mark: Optional[Dict[str, float]] = None
        profiling = self.profiler.enabled
        self._served_fast = 0
        self._mem_seen = 0

        # One bulk conversion: list indexing beats numpy scalar reads in
        # a Python loop, and ``tolist`` yields native int/bool objects.
        addrs = trace.addrs
        writes = trace.writes
        igaps = trace.igaps
        cores = trace.cores
        # The controller's deferred serve/flush/replay closures.
        self._server = (
            self.controller.make_deferred_server() if self._deferred else None
        )
        # The hierarchy's (access, install, flush) walk closures.
        self._fast_path = self.hierarchy.make_fast_path()
        addrs = addrs.tolist() if hasattr(addrs, "tolist") else list(addrs)
        writes = writes.tolist() if hasattr(writes, "tolist") else list(writes)
        igaps = igaps.tolist() if hasattr(igaps, "tolist") else list(igaps)
        cores = cores.tolist() if hasattr(cores, "tolist") else list(cores)

        spans = self.spans
        wall_start = perf_counter() if profiling else 0.0
        phase_span = (
            spans.start("sim.warmup", parent=self._run_span, accesses=warmup_end)
            if spans.enabled and warmup_end else None
        )
        self._segment(0, warmup_end, addrs, writes, igaps, cores, n)
        if phase_span is not None:
            spans.end(phase_span)
        if warmup_end < n:
            mark = self._snapshot()
            if profiling:
                self.profiler.add(
                    "warmup", perf_counter() - wall_start, calls=warmup_end
                )
                self.profiler.count("warmup_instructions", self.instructions)
                wall_start = perf_counter()
            phase_span = (
                spans.start(
                    "sim.measured", parent=self._run_span,
                    accesses=n - warmup_end,
                )
                if spans.enabled else None
            )
            self._segment(warmup_end, n, addrs, writes, igaps, cores, n)
            if phase_span is not None:
                spans.end(phase_span)
        return mark, wall_start

    def _segment(
        self, start: int, stop: int, addrs, writes, igaps, cores, total: int
    ) -> None:
        """One warmup/measured segment in ``progress_every``-sized chunks.

        Chunking bounds the deferred span's pending ``ops``; state
        write-back and replay at chunk ends are the only difference, so
        counters stay bit-identical. The progress callback, when attached,
        fires after each chunk."""
        progress = self._progress
        stride = self._progress_every
        pos = start
        while pos < stop:
            chunk_end = min(stop, pos + stride)
            self._batched_span(pos, chunk_end, addrs, writes, igaps, cores)
            pos = chunk_end
            if progress is not None:
                progress(pos, total)

    def _batched_span(
        self, start: int, stop: int, addrs, writes, igaps, cores
    ) -> None:
        """Run accesses ``[start, stop)`` through the allocation-free path.

        The float accumulation into ``cycles`` keeps the scalar loop's
        operation order exactly: the only skipped additions are ``+ 0.0``
        terms (zero instruction gaps), which cannot change a non-negative
        accumulator bit pattern, and the precomputed L1 quotient equals
        the per-access division bit for bit.
        """
        if start >= stop:
            return
        if self._deferred:
            if self.metrics is None:
                self._deferred_span(start, stop, addrs, writes, igaps, cores)
                return
            # Observed: each deferred span ends at the next series sample
            # tick, where its final replay has made ``cycles`` and the
            # serve counts current.
            ts_serve = self._ts_serve
            ts_ipc = self._ts_ipc
            pos = start
            while pos < stop:
                end = min(
                    stop,
                    pos + ts_serve.next_due() - ts_serve.ticks,
                    pos + ts_ipc.next_due() - ts_ipc.ticks,
                )
                self._deferred_span(pos, end, addrs, writes, igaps, cores)
                mem_seen = self._mem_seen
                _sample_due(
                    ts_serve, ts_serve.ticks + end - pos,
                    self._served_fast / mem_seen if mem_seen else 0.0,
                )
                _sample_due(
                    ts_ipc, ts_ipc.ticks + end - pos,
                    self.instructions / self.cycles if self.cycles else 0.0,
                )
                pos = end
            return
        cfg = self.config
        base_cpi = cfg.base_cpi
        mlp = cfg.memory_level_parallelism
        threads = max(1, cfg.hierarchy.cores)
        access_fast, install_fast, hier_flush = self._fast_path
        ctrl_access = self.controller.access
        l1_div = self.hierarchy.config.l1d.latency_cycles / threads
        profiler = self.profiler
        profiling = profiler.enabled
        observing = self.metrics is not None

        cycles = self.cycles
        instructions = self.instructions
        served_fast = self._served_fast
        mem_seen = self._mem_seen
        if observing:
            ts_serve = self._ts_serve
            ts_ipc = self._ts_ipc
            observe_latency = self._h_latency.observe
            serve_ticks = ts_serve.ticks
            due_serve = ts_serve.next_due()
            ipc_ticks = ts_ipc.ticks
            due_ipc = ts_ipc.next_due()

        for i in range(start, stop):
            gap = igaps[i]
            instructions += gap + 1
            if gap:
                cycles += gap * base_cpi / threads

            addr = addrs[i]
            is_write = writes[i]
            if profiling and not (i & 63):
                t0 = perf_counter()
                outcome = access_fast(addr, is_write, cores[i])
                profiler.add("hierarchy", perf_counter() - t0)
            else:
                outcome = access_fast(addr, is_write, cores[i])
            if outcome is None:
                cycles += l1_div
            else:
                cycles += outcome[1] / threads
                if outcome[2]:  # LLC miss: the controller serves it.
                    if profiling and not (i & 63):
                        t0 = perf_counter()
                        mem = ctrl_access(addr, is_write, cycles)
                        profiler.add("controller", perf_counter() - t0)
                    else:
                        mem = ctrl_access(addr, is_write, cycles)
                    if not is_write:
                        # Writes are posted; only reads stall the core.
                        cycles += mem.latency_cycles / mlp
                    if observing:
                        observe_latency(mem.latency_cycles)
                        mem_seen += 1
                        if mem.served_fast:
                            served_fast += 1
                    pls = mem.prefetched_lines
                    if pls:
                        for line_addr in pls:
                            wb = install_fast(line_addr)
                            if wb is not None:
                                ctrl_access(wb, True, cycles)
                wbs = outcome[3]
                if wbs is not None:
                    for wb in wbs:
                        ctrl_access(wb, True, cycles)
            if observing:
                serve_ticks += 1
                if serve_ticks == due_serve:
                    ts_serve.sample_at(
                        serve_ticks, served_fast / mem_seen if mem_seen else 0.0
                    )
                    due_serve = ts_serve.next_due()
                ipc_ticks += 1
                if ipc_ticks == due_ipc:
                    ts_ipc.sample_at(
                        ipc_ticks, instructions / cycles if cycles else 0.0
                    )
                    due_ipc = ts_ipc.next_due()

        hier_flush()
        self.cycles = cycles
        self.instructions = instructions
        self._served_fast = served_fast
        self._mem_seen = mem_seen
        if observing:
            ts_serve.advance_to(serve_ticks)
            ts_ipc.advance_to(ipc_ticks)

    def _deferred_span(
        self, start: int, stop: int, addrs, writes, igaps, cores
    ) -> None:
        """The deferred-timing variant of :meth:`_batched_span`.

        LLC misses and dirty writebacks go through the controller's
        ``serve``: accepted ones are state-applied eagerly (in trace
        order) and their op records accumulate in ``ops`` together with
        the interleaved core-side cycle increments; one ``replay`` call
        evolves the channel pools and the ``cycles`` accumulator in the
        scalar loop's exact float operation order. A declined access
        first replays the pending ops (so ``cycles`` is current) and
        flushes the server's tallied counters, then takes the scalar
        ``controller.access`` call with that clock, exactly as the plain
        batched loop would. With metrics attached, every replay also
        reports each op's latency, and the demand misses' latencies are
        observed in trace order (see :meth:`_observe_ops`).
        """
        cfg = self.config
        base_cpi = cfg.base_cpi
        mlp = cfg.memory_level_parallelism
        threads = max(1, cfg.hierarchy.cores)
        access_fast, install_fast, hier_flush = self._fast_path
        ctrl_access = self.controller.access
        serve, server_flush, replay = self._server
        l1_div = self.hierarchy.config.l1d.latency_cycles / threads

        cycles = self.cycles
        instructions = self.instructions
        ops = []
        append = ops.append
        if self.metrics is None:
            sink = None
            append_demand = append_wb = append
        else:
            # Replay reports each op's (latency, served_fast) into
            # ``sink``; ``demand`` marks which ops are demand misses (the
            # scalar loop observes those, not writebacks).
            sink = []
            demand = []
            mark = demand.append

            def append_demand(op):
                append(op)
                mark(True)

            def append_wb(op):
                append(op)
                mark(False)

        def settle(cycles):
            # Replay the pending ops; an observed span observes them.
            cycles = replay(ops, cycles, mlp, sink)
            ops.clear()
            if sink is not None:
                self._observe_ops(demand, sink)
            return cycles

        # zip over list slices: one C-level iteration replaces four
        # per-element list index reads in the hottest Python loop.
        for addr, is_write, gap, core in zip(
            addrs[start:stop], writes[start:stop],
            igaps[start:stop], cores[start:stop],
        ):
            instructions += gap + 1
            if gap:
                g = gap * base_cpi / threads
                if ops:
                    append(g)
                else:
                    cycles += g
            outcome = access_fast(addr, is_write, core)
            if outcome is None:
                if ops:
                    append(l1_div)
                else:
                    cycles += l1_div
                continue
            h = outcome[1] / threads
            if ops:
                append(h)
            else:
                cycles += h
            if outcome[2]:  # LLC miss: the controller serves it.
                op = serve(addr, is_write)
                if op is not None:
                    append_demand(op)
                    pls = op[6]
                    if pls:
                        for line_addr in pls:
                            wb = install_fast(line_addr)
                            if wb is not None:
                                wop = serve(wb, True)
                                if wop is not None:
                                    append_wb(wop)
                                else:
                                    cycles = settle(cycles)
                                    server_flush()
                                    ctrl_access(wb, True, cycles)
                else:
                    if ops:
                        cycles = settle(cycles)
                    server_flush()
                    mem = ctrl_access(addr, is_write, cycles)
                    if not is_write:
                        # Writes are posted; only reads stall the core.
                        cycles += mem.latency_cycles / mlp
                    if sink is not None:
                        self._h_latency.observe(mem.latency_cycles)
                        self._mem_seen += 1
                        if mem.served_fast:
                            self._served_fast += 1
                    pls = mem.prefetched_lines
                    if pls:
                        for line_addr in pls:
                            wb = install_fast(line_addr)
                            if wb is not None:
                                ctrl_access(wb, True, cycles)
            wbs = outcome[3]
            if wbs is not None:
                for wb in wbs:
                    # Writebacks are posted ops: a deferred one replays at
                    # the exact clock the scalar call would have seen, so
                    # accepted writebacks extend the span instead of
                    # flushing it.
                    wop = serve(wb, True)
                    if wop is not None:
                        append_wb(wop)
                    else:
                        if ops:
                            cycles = settle(cycles)
                        server_flush()
                        ctrl_access(wb, True, cycles)
        if ops:
            cycles = settle(cycles)
        server_flush()
        hier_flush()
        self.cycles = cycles
        self.instructions = instructions

    def _observe_ops(self, demand, sink) -> None:
        """Observe the replayed demand ops' latencies in trace order and
        count them into the serve rate, as the scalar loop does per
        access; writeback ops are skipped. Clears both lists."""
        observe = self._h_latency.observe
        seen = served = 0
        for is_demand, (latency, fast) in zip(demand, sink):
            if is_demand:
                observe(latency)
                seen += 1
                if fast:
                    served += 1
        self._mem_seen += seen
        self._served_fast += served
        demand.clear()
        sink.clear()

    # -------------------------------------------------------- result assembly
    def _finalize(
        self,
        trace,
        name: str,
        design: str,
        n: int,
        warmup_end: int,
        mark: Optional[Dict[str, float]],
        wall_start: float,
    ) -> SimResult:
        profiling = self.profiler.enabled
        tracker = getattr(self.controller, "tracker", None)
        if tracker is not None:
            tracker.finalize()
        # Deterministic tail flush: a traced run's JSONL sink holds every
        # event the moment the simulator finalizes, even if the caller
        # never closes the tracer (short runs used to lose buffered tail
        # events to the file object's write buffer).
        obs = getattr(self.controller, "obs", None)
        if obs is not None and obs.enabled:
            obs.flush()

        if mark is None:
            # Warmup covered the whole trace (or it was empty): the
            # measured window is empty and every delta below is zero.
            mark = self._snapshot()
        if profiling:
            phase = "measured" if warmup_end < n else "warmup"
            self.profiler.add(phase, perf_counter() - wall_start, calls=n - warmup_end)
            self.profiler.count(
                "measured_instructions",
                self.instructions - self.profiler.counters.get("warmup_instructions", 0),
            )
            self.profiler.count("accesses", n)
        end = self._snapshot()
        cases = {
            key[len("case_"):]: int(end.get(key, 0) - mark.get(key, 0))
            for key in end
            if key.startswith("case_")
        }
        # Energy for the measured window only: charging the whole run's
        # traffic would inflate the window's joules by the warmup share.
        energy = EnergyModel(self.controller.devices.timings).report_deltas(
            int(end["fast_read_bytes"] - mark["fast_read_bytes"]),
            int(end["fast_write_bytes"] - mark["fast_write_bytes"]),
            int(end["fast_ops"] - mark["fast_ops"]),
            int(end["slow_read_bytes"] - mark["slow_read_bytes"]),
            int(end["slow_write_bytes"] - mark["slow_write_bytes"]),
        )
        # Windowed extras: full-run rates would smear warmup transients
        # into the measurement window (e.g. cold-cache misses).
        d_llc_accesses = end["llc_accesses"] - mark["llc_accesses"]
        d_llc_misses = end["llc_misses"] - mark["llc_misses"]
        extra = {
            "llc_miss_rate": (
                d_llc_misses / d_llc_accesses if d_llc_accesses else 0.0
            ),
            "ctrl_commits": end["commits"] - mark["commits"],
        }
        return SimResult(
            name=name or getattr(trace, "name", ""),
            design=design or getattr(self.controller, "name", type(self.controller).__name__),
            instructions=int(end["instructions"] - mark["instructions"]),
            cycles=end["cycles"] - mark["cycles"],
            memory_accesses=int(end["mem_accesses"] - mark["mem_accesses"]),
            llc_misses=int(d_llc_misses),
            served_fast=int(end["served_fast"] - mark["served_fast"]),
            fast_traffic_bytes=int(end["fast_bytes"] - mark["fast_bytes"]),
            slow_traffic_bytes=int(end["slow_bytes"] - mark["slow_bytes"]),
            useful_bytes=int(end["useful_bytes"] - mark["useful_bytes"]),
            case_counts=cases,
            energy=energy,
            extra=extra,
            path=self.path,
            path_gate=self.path_gate,
        )

    def _snapshot(self) -> Dict[str, float]:
        devices = self.controller.devices
        stats = self.controller.stats
        fast_stats = devices.fast.stats
        slow_stats = devices.slow.stats
        llc_stats = self.hierarchy.llc.stats
        llc_misses = llc_stats.get("misses")
        snap: Dict[str, float] = {
            "instructions": float(self.instructions),
            "cycles": self.cycles,
            "mem_accesses": float(stats.get("accesses")),
            "served_fast": float(stats.get("served_fast")),
            "fast_bytes": float(devices.fast.total_bytes),
            "slow_bytes": float(devices.slow.total_bytes),
            "llc_misses": float(llc_misses),
            "llc_accesses": float(llc_stats.get("accesses")),
            # Useful bytes = demanded lines at the configured LLC line
            # granularity (the unit moved between memory and the LLC).
            "useful_bytes": float(llc_misses * self.hierarchy.llc.geometry.line_size),
            "commits": float(stats.get("commits")),
            "fast_read_bytes": float(fast_stats.get("read_bytes")),
            "fast_write_bytes": float(fast_stats.get("write_bytes")),
            "fast_ops": float(fast_stats.get("reads") + fast_stats.get("writes")),
            "slow_read_bytes": float(slow_stats.get("read_bytes")),
            "slow_write_bytes": float(slow_stats.get("write_bytes")),
        }
        for key, value in stats.as_dict().items():
            if key.startswith("case_"):
                snap[key] = float(value)
        return snap
