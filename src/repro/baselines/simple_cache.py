"""Simple: the no-compression, no-sub-blocking DRAM cache baseline.

2 kB blocks, 4-way set-associative, LRU, whole-block fills and whole-block
dirty writebacks — the "Simple" configuration that normalizes Fig. 9.
Metadata follows the Section III-A baseline: a remap cache probed on every
access, with off-chip remap-table reads on misses.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.base import BaselineController
from repro.cache.replacement import CacheLine, LruSet
from repro.core.events import CASE_COUNTER_KEYS, AccessCase, AccessResult
from repro.metadata.remap_cache import RemapCache

_COMMIT_HIT_KEY = CASE_COUNTER_KEYS[AccessCase.COMMIT_HIT]


def _no_flush() -> None:
    return None


class SimpleCache(BaselineController):
    """Plain block-grain DRAM cache of the slow memory."""

    name = "simple"

    def __init__(self, config=None, devices=None) -> None:
        super().__init__(config, devices)
        layout = self.config.layout
        fast_blocks = max(1, layout.fast_capacity // self.geometry.block_size)
        self.ways = layout.associativity
        self.num_sets = max(1, fast_blocks // self.ways)
        self._sets: Dict[int, LruSet] = {}
        self.remap_cache = RemapCache(
            num_sets=self.config.remap_cache.num_sets,
            ways=self.config.remap_cache.ways,
            latency_cycles=self.config.remap_cache.latency_cycles,
        )
        #: Deferred-server decline counters (see the Baryon controller's
        #: attribute of the same name). The only scalar-path
        #: case here is the whole-block fill with its eviction.
        self.deferred_declines: Dict[str, int] = {"block_fill": 0}

    def _set_for(self, index: int) -> LruSet:
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = LruSet(self.ways)
            self._sets[index] = cache_set
        return cache_set

    def access(self, addr: int, is_write: bool, now: Optional[float] = None) -> AccessResult:
        now = self._advance(now)
        g = self.geometry
        block_id = g.block_id(addr)
        set_index = block_id % self.num_sets
        tag = block_id // self.num_sets
        cache_set = self._set_for(set_index)

        meta = float(self.remap_cache.latency_cycles)
        if not self.remap_cache.access(g.super_block_id(addr)):
            meta += self.devices.fast.read(now, 16, demand=True).total_cycles

        line = cache_set.lookup(tag)
        if line is not None:
            cache_set.touch(line)
            if is_write:
                line.dirty = True
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
        if cache_set.is_full():
            victim = cache_set.victim()
            if victim.dirty:
                self.devices.fast.read(now, g.block_size, demand=False)
                self.devices.slow.write(now, g.block_size)
                self.stats.inc("dirty_writebacks")
            cache_set.evict(victim.tag)
            self.stats.inc("evictions")
        self.devices.slow.read(now, g.block_size - g.cacheline_size, demand=False)
        self.devices.fast.write(now, g.block_size)
        cache_set.insert(CacheLine(tag, dirty=is_write))
        self.stats.inc("block_fills")
        return self._count(
            AccessResult(AccessCase.BLOCK_MISS, latency, is_write), is_write, addr
        )

    # ------------------------------------------------ deferred batch path
    @property
    def supports_batching(self) -> bool:
        """Hits mutate no clock-dependent state (the LRU stamp and the
        remap-cache fill are trace-order effects), so the deferred server
        applies whenever per-access event tracing is off."""
        return not self.obs.enabled

    def make_deferred_server(self):
        """The ``(serve, flush, replay)`` deferred contract (see
        :meth:`repro.core.controller.BaryonController.make_deferred_server`).

        :meth:`access_deferred` serves and :meth:`access_batch` replays;
        every counter is applied per op, so there is nothing to flush.
        """
        return self.access_deferred, _no_flush, self.access_batch

    def access_deferred(self, addr: int, is_write: bool = False):
        """Serve one block hit eagerly; defer its channel timing.

        Returns an op tuple in the shared 7-slot shape (trailing slots
        unused: this design moves one cacheline per hit and never
        prefetches, so ``(rc_miss, is_write)`` fully determines the
        replay). Misses fill a whole block (eviction, slow fetch:
        clock-dependent channel work ordered against the fill) and
        decline to the scalar path with **no state applied**.
        """
        g = self.geometry
        block_id = g.block_id(addr)
        set_index = block_id % self.num_sets
        tag = block_id // self.num_sets
        cache_set = self._set_for(set_index)
        line = cache_set.lookup(tag)
        if line is None:
            self.deferred_declines["block_fill"] += 1
            return None

        rc_miss = not self.remap_cache.access(g.super_block_id(addr))
        fast = self.devices.fast
        if rc_miss:
            fast._n_read_bytes += 16
            fast._n_reads += 1
            fast._n_demand_read_bytes += 16
        cache_set.touch(line)
        nbytes = g.cacheline_size
        if is_write:
            line.dirty = True
            fast._n_write_bytes += nbytes
            fast._n_writes += 1
        else:
            fast._n_read_bytes += nbytes
            fast._n_reads += 1
            fast._n_demand_read_bytes += nbytes
        stats = self.stats
        stats.inc("accesses")
        stats.inc("writes" if is_write else "reads")
        stats.inc("served_fast")
        stats.inc(_COMMIT_HIT_KEY)
        return (rc_miss, is_write, None, None, None, None, None)

    def access_batch(self, ops, cycles: float, mlp: float) -> float:
        """Replay a span of deferred hit ops against the fast channel.

        Mirrors the scalar :meth:`access` float accumulation operation
        for operation (``probe_lat`` is the ``+ 0.0`` spike-free device
        latency), so ``cycles`` and the channel busy state stay
        bit-identical to the scalar path.
        """
        fast = self.devices.fast
        transfer = fast.pool.transfer
        rc_lat = float(self.remap_cache.latency_cycles)
        probe_lat = fast.read_latency + 0.0
        nbytes = self.geometry.cacheline_size
        now = self._now
        for op in ops:
            if op.__class__ is float:
                cycles += op
                continue
            rc_miss = op[0]
            is_write = op[1]
            now = cycles
            if is_write:
                # Posted: channel occupancy only, no core-visible latency.
                if rc_miss:
                    transfer(now, 16, True)
                transfer(now, nbytes)
                continue
            meta = rc_lat
            if rc_miss:
                queue, tr = transfer(now, 16, True)
                meta += (probe_lat + queue) + tr
            queue, tr = transfer(now, nbytes, True)
            cycles += (meta + ((probe_lat + queue) + tr)) / mlp
        self._now = now
        return cycles
