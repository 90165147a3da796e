"""Simple: the no-compression, no-sub-blocking DRAM cache baseline.

2 kB blocks, 4-way set-associative, LRU, whole-block fills and whole-block
dirty writebacks — the "Simple" configuration that normalizes Fig. 9.
Metadata follows the Section III-A baseline: a remap cache probed on every
access, with off-chip remap-table reads on misses.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.baselines.base import BaselineController
from repro.core.events import CASE_COUNTER_KEYS, AccessCase, AccessResult
from repro.metadata.remap_cache import RemapCache

_COMMIT_HIT_KEY = CASE_COUNTER_KEYS[AccessCase.COMMIT_HIT]


class SimpleCache(BaselineController):
    """Plain block-grain DRAM cache of the slow memory."""

    name = "simple"

    def __init__(self, config=None, devices=None) -> None:
        super().__init__(config, devices)
        layout = self.config.layout
        fast_blocks = max(1, layout.fast_capacity // self.geometry.block_size)
        self.ways = layout.associativity
        self.num_sets = max(1, fast_blocks // self.ways)
        #: Set index -> ``{tag: dirty}`` in LRU->MRU insertion order.
        self._sets: Dict[int, Dict[int, bool]] = defaultdict(dict)
        self.remap_cache = RemapCache(
            num_sets=self.config.remap_cache.num_sets,
            ways=self.config.remap_cache.ways,
            latency_cycles=self.config.remap_cache.latency_cycles,
        )
        self._block_size = self.geometry.block_size
        self._super_size = self.geometry.super_block_size
        self._rc_sets, self._rc_num_sets, self._rc_ways = (
            self.remap_cache.probe_state()
        )
        #: Deferred-server decline counters (see the Baryon controller's
        #: attribute of the same name). The only scalar-path
        #: case here is the whole-block fill with its eviction.
        self.deferred_declines: Dict[str, int] = {"block_fill": 0}
        # Deferred-server tallies, folded in by flush_deferred().
        self._t_reads = self._t_writes = 0
        self._t_rc_misses = self._t_rc_evictions = 0

    def access(self, addr: int, is_write: bool, now: Optional[float] = None) -> AccessResult:
        now = self._advance(now)
        g = self.geometry
        block_id = g.block_id(addr)
        cache_set = self._sets[block_id % self.num_sets]
        tag = block_id // self.num_sets

        meta = float(self.remap_cache.latency_cycles)
        if not self.remap_cache.access(g.super_block_id(addr)):
            meta += self.devices.fast.read(now, 16, demand=True).total_cycles

        dirty = cache_set.pop(tag, None)
        if dirty is not None:
            cache_set[tag] = dirty or is_write
            if is_write:
                device = self.devices.fast.write(now, g.cacheline_size)
            else:
                device = self.devices.fast.read(now, g.cacheline_size)
            return self._count(
                AccessResult(AccessCase.COMMIT_HIT, meta + device.total_cycles, is_write),
                is_write,
                addr,
            )

        # Miss: respond from slow memory, then fill the whole 2 kB block.
        if is_write:
            demand = self.devices.slow.write(now, g.cacheline_size)
        else:
            demand = self.devices.slow.read(now, g.cacheline_size, demand=True)
        latency = meta + demand.total_cycles
        if len(cache_set) >= self.ways:
            if cache_set.pop(next(iter(cache_set))):
                self.devices.fast.read(now, g.block_size, demand=False)
                self.devices.slow.write(now, g.block_size)
                self.stats.inc("dirty_writebacks")
            self.stats.inc("evictions")
        self.devices.slow.read(now, g.block_size - g.cacheline_size, demand=False)
        self.devices.fast.write(now, g.block_size)
        cache_set[tag] = is_write
        self.stats.inc("block_fills")
        return self._count(
            AccessResult(AccessCase.BLOCK_MISS, latency, is_write), is_write, addr
        )

    # ------------------------------------------------ deferred batch path
    def batching_gate(self) -> Optional[str]:
        """Hits mutate no clock-dependent state (the LRU order and the
        remap-cache fill are trace-order effects), so the deferred server
        applies whenever per-access event tracing is off."""
        return "event-tracer" if self.obs.enabled else None

    def make_deferred_server(self):
        """The ``(serve, flush, replay)`` deferred contract (see
        :meth:`repro.core.controller.BaryonController.make_deferred_server`).

        :meth:`access_deferred` serves, :meth:`flush_deferred` folds its
        tallied counters back and :meth:`access_batch` replays.
        """
        return self.access_deferred, self.flush_deferred, self.access_batch

    def access_deferred(self, addr: int, is_write: bool = False):
        """Serve one block hit eagerly; defer its channel timing.

        Returns an op tuple in the shared 7-slot shape (trailing slots
        unused: this design moves one cacheline per hit and never
        prefetches, so ``(rc_miss, is_write)`` fully determines the
        replay). Misses fill a whole block (eviction, slow fetch:
        clock-dependent channel work ordered against the fill) and
        decline to the scalar path with **no state applied**.

        The block-set LRU update and the remap-cache probe (inlined per
        :meth:`~repro.metadata.remap_cache.RemapCache.probe_state`)
        apply eagerly; the controller, fast-device and remap-cache
        counters are tallied in four integers that :meth:`flush_deferred`
        folds back before anything reads them.
        """
        block_id = addr // self._block_size
        num_sets = self.num_sets
        cache_set = self._sets[block_id % num_sets]
        tag = block_id // num_sets
        dirty = cache_set.pop(tag, None)
        if dirty is None:
            self.deferred_declines["block_fill"] += 1
            return None
        cache_set[tag] = dirty or is_write
        if is_write:
            self._t_writes += 1
        else:
            self._t_reads += 1

        super_id = addr // self._super_size
        rc_num_sets = self._rc_num_sets
        rc_set = self._rc_sets[super_id % rc_num_sets]
        rc_tag = super_id // rc_num_sets
        rc_miss = not rc_set.pop(rc_tag, False)
        rc_set[rc_tag] = True
        if rc_miss:
            self._t_rc_misses += 1
            if len(rc_set) > self._rc_ways:
                del rc_set[next(iter(rc_set))]
                self._t_rc_evictions += 1
        return (rc_miss, is_write, None, None, None, None, None)

    def flush_deferred(self) -> None:
        """Fold the tallies of :meth:`access_deferred` into the
        controller stats, the fast device and the remap cache, exactly
        as the per-op scalar updates would have left them."""
        reads, writes = self._t_reads, self._t_writes
        served = reads + writes
        if not served:
            return
        rc_misses = self._t_rc_misses
        stats = self.stats
        stats.inc("accesses", served)
        if writes:
            stats.inc("writes", writes)
        if reads:
            stats.inc("reads", reads)
        stats.inc("served_fast", served)
        stats.inc(_COMMIT_HIT_KEY, served)
        self.remap_cache.credit_probes(
            served, served - rc_misses, rc_misses, self._t_rc_evictions
        )
        fast = self.devices.fast
        nbytes = self.geometry.cacheline_size
        read_bytes = 16 * rc_misses + nbytes * reads
        fast._n_read_bytes += read_bytes
        fast._n_reads += rc_misses + reads
        fast._n_demand_read_bytes += read_bytes
        fast._n_write_bytes += nbytes * writes
        fast._n_writes += writes
        self._t_reads = self._t_writes = 0
        self._t_rc_misses = self._t_rc_evictions = 0

    def access_batch(self, ops, cycles: float, mlp: float, sink=None) -> float:
        """Replay a span of deferred hit ops against the fast channel.

        Mirrors the scalar :meth:`access` float accumulation operation
        for operation (``probe_lat`` is the ``+ 0.0`` spike-free device
        latency), so ``cycles`` and the channel busy state stay
        bit-identical to the scalar path. With a ``sink`` list, each op
        appends the scalar call's ``(latency, served_fast)``.
        """
        fast = self.devices.fast
        transfer = fast.pool.transfer
        rc_lat = float(self.remap_cache.latency_cycles)
        probe_lat = fast.read_latency + 0.0
        write_lat = fast.write_latency
        nbytes = self.geometry.cacheline_size
        now = self._now
        for op in ops:
            if op.__class__ is float:
                cycles += op
                continue
            rc_miss = op[0]
            is_write = op[1]
            now = cycles
            if is_write and sink is None:
                # Posted: channel occupancy only, no core-visible latency.
                if rc_miss:
                    transfer(now, 16, True)
                transfer(now, nbytes)
                continue
            meta = rc_lat
            if rc_miss:
                queue, tr = transfer(now, 16, True)
                meta += (probe_lat + queue) + tr
            if is_write:
                # Observed posted write: the scalar latency, no stall.
                queue, tr = transfer(now, nbytes)
                sink.append((meta + ((write_lat + queue) + tr), True))
                continue
            queue, tr = transfer(now, nbytes, True)
            latency = meta + ((probe_lat + queue) + tr)
            cycles += latency / mlp
            if sink is not None:
                sink.append((latency, True))
        self._now = now
        return cycles
