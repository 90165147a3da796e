"""Multi-core cache hierarchy: private L1D/L2 per core, shared LLC.

The hierarchy consumes the raw trace and emits the memory-controller-level
events: demand LLC misses (with their latency contribution) and dirty LLC
writebacks. L1I is omitted — the synthetic traces model data accesses, and
Table I's L1I would filter instruction fetches we do not generate.

The hierarchy is non-inclusive/non-exclusive (the common "NINE" policy):
L2/LLC victims do not back-invalidate inner levels; dirty victims propagate
downward level by level. :meth:`install_llc` supports the bandwidth-free
memory-to-LLC prefetch of Sec. III-E — when the controller decompresses one
64 B chunk into up to four cachelines, the extra lines are installed into
the LLC directly.

Two walks, one result. :meth:`access_fast` is the reference walk: a plain
pass over each level's ``access_raw`` that works under any replacement
policy and returns ``None`` for the L1-hit case, a plain tuple otherwise.
:meth:`access` wraps it into a :class:`HierarchyResult` for the scalar
loop. :meth:`make_fast_path` returns the closures every batched loop
drives: the one place the LRU probe and allocate are inlined. Level hit
counters accumulate in integers that fold into the public ``stats`` group
lazily on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cache.replacement import CacheLine
from repro.cache.sram_cache import SetAssociativeCache
from repro.common.config import HierarchyConfig
from repro.common.stats import CounterGroup


@dataclass
class HierarchyResult:
    """What one trace access did to the hierarchy.

    ``llc_miss`` — the access needs main memory; ``latency_cycles`` — the
    SRAM lookup latency already spent on the way down; ``writebacks`` —
    dirty LLC victim addresses that must be written to main memory.
    """

    hit_level: str
    llc_miss: bool
    latency_cycles: int
    writebacks: List[int] = field(default_factory=list)


class CacheHierarchy:
    """Private L1D + L2 per core, one shared LLC."""

    def __init__(self, config: Optional[HierarchyConfig] = None) -> None:
        self.config = config or HierarchyConfig()
        cores = self.config.cores
        self._l1: List[SetAssociativeCache] = [
            SetAssociativeCache(self.config.l1d) for _ in range(cores)
        ]
        self._l2: List[SetAssociativeCache] = [
            SetAssociativeCache(self.config.l2) for _ in range(cores)
        ]
        self.llc = SetAssociativeCache(self.config.llc)
        self._stats = CounterGroup("hierarchy")
        self._cores = cores
        self._lat_l1 = self.config.l1d.latency_cycles
        self._lat_l12 = self._lat_l1 + self.config.l2.latency_cycles
        self._lat_full = self._lat_l12 + self.config.llc.latency_cycles
        # Deferred level-hit counters, folded into ``stats`` on read.
        self._n_l1_hits = 0
        self._n_l2_hits = 0
        self._n_llc_hits = 0
        self._n_llc_misses = 0
        self._n_prefetch_installs = 0

    @property
    def stats(self) -> CounterGroup:
        """Counter group with all pending hot-path counts folded in."""
        if self._n_l1_hits:
            self._stats.inc("l1_hits", self._n_l1_hits)
            self._n_l1_hits = 0
        if self._n_l2_hits:
            self._stats.inc("l2_hits", self._n_l2_hits)
            self._n_l2_hits = 0
        if self._n_llc_hits:
            self._stats.inc("llc_hits", self._n_llc_hits)
            self._n_llc_hits = 0
        if self._n_llc_misses:
            self._stats.inc("llc_misses", self._n_llc_misses)
            self._n_llc_misses = 0
        if self._n_prefetch_installs:
            self._stats.inc("llc_prefetch_installs", self._n_prefetch_installs)
            self._n_prefetch_installs = 0
        return self._stats

    def access_fast(
        self, addr: int, is_write: bool, core: int = 0
    ) -> Optional[Tuple[str, int, bool, Optional[List[int]]]]:
        """Run one demand access through L1 -> L2 -> LLC: the reference walk.

        Returns ``None`` for the L1-hit case; otherwise a tuple
        ``(hit_level, latency_cycles, llc_miss, writebacks)`` where
        ``writebacks`` is ``None`` when no dirty LLC victims spilled.
        Each level is probed through its own
        :meth:`~repro.cache.sram_cache.SetAssociativeCache.access_raw`, so
        this walk serves any replacement policy and is the independent
        check of the inlined closure from :meth:`make_fast_path`.
        """
        core %= self._cores
        hit, l1_wb, _ = self._l1[core].access_raw(addr, is_write)
        if hit:
            self._n_l1_hits += 1
            return None
        llc = self.llc
        writebacks: List[int] = []
        l2 = self._l2[core]
        # Demand probe at L2 (read-only under NINE), then the dirty L1
        # victim lands in L2 (write-allocate) and may spill into the LLC.
        hit2, l2_wb, _ = l2.access_raw(addr, False)
        if l1_wb is not None:
            _, spill, _ = l2.access_raw(l1_wb, True)
            if spill is not None:
                _, llc_wb, _ = llc.access_raw(spill, True)
                if llc_wb is not None:
                    writebacks.append(llc_wb)
        if hit2:
            self._n_l2_hits += 1
            # Dirtiness is tracked at L1; the L2 copy stays clean (NINE).
            return ("L2", self._lat_l12, False, writebacks or None)
        if l2_wb is not None:
            _, llc_wb, _ = llc.access_raw(l2_wb, True)
            if llc_wb is not None:
                writebacks.append(llc_wb)
        hit3, llc_wb, _ = llc.access_raw(addr, False)
        if llc_wb is not None:
            writebacks.append(llc_wb)
        if hit3:
            self._n_llc_hits += 1
            return ("LLC", self._lat_full, False, writebacks or None)
        self._n_llc_misses += 1
        return ("MEM", self._lat_full, True, writebacks or None)

    def access(self, addr: int, is_write: bool, core: int = 0) -> HierarchyResult:
        """Run one demand access through L1 -> L2 -> LLC."""
        outcome = self.access_fast(addr, is_write, core)
        if outcome is None:
            return HierarchyResult("L1", False, self._lat_l1, [])
        level, latency, llc_miss, writebacks = outcome
        return HierarchyResult(level, llc_miss, latency, writebacks or [])

    def make_fast_path(self):
        """Closure triple ``(access, install, flush)`` every batched loop drives.

        ``access``/``install`` have the results and state effects of
        :meth:`access_fast` and :meth:`install_llc_fast`. This is the one
        inlined LRU walk: per-call attribute walks are hoisted into closure
        locals, each level's probe and ``_allocate`` LRU arm are written
        out, and the hierarchy-level hit counters are tallied in closure
        integers; ``flush`` folds the tallies back before any
        :attr:`stats` read. Per-cache counters stay attribute increments
        (their owners read them lazily through their own ``stats``).
        When any level is not plain-LRU the triple is the reference walk
        itself: ``(access_fast, install_llc_fast, no-op)``.
        """
        l1s = self._l1
        l2s = self._l2
        llc = self.llc
        if not all(c._is_lru for c in (*l1s, *l2s, llc)):
            return self.access_fast, self.install_llc_fast, lambda: None
        cores = self._cores
        lat_l12 = self._lat_l12
        lat_full = self._lat_full
        l1_geom = [(c, c._line_size, c.num_sets, c._sets) for c in l1s]
        l2_geom = [(c, c._line_size, c.num_sets, c._sets) for c in l2s]
        llc_line = llc._line_size
        llc_sets_n = llc.num_sets
        llc_sets = llc._sets
        llc_raw = llc.access_raw
        new_cache_line = CacheLine

        n_l1 = n_l2 = n_llc = n_miss = n_pref = 0

        def access(addr, is_write, core=0):
            nonlocal n_l1, n_l2, n_llc, n_miss
            l1, l1_line, l1_nsets, l1_sets = l1_geom[core % cores]
            line = addr // l1_line
            index = line % l1_nsets
            cache_set = l1_sets[index]
            tag = line // l1_nsets
            lines = cache_set.lines
            entry = lines.get(tag)
            l1._n_accesses += 1
            if entry is not None:
                cache_set._clock += 1
                entry.counter = cache_set._clock
                lines[tag] = lines.pop(tag)
                if is_write:
                    entry.dirty = True
                l1._n_hits += 1
                n_l1 += 1
                return None
            l1._n_misses += 1
            # SetAssociativeCache._allocate (LRU arm), inlined.
            if len(lines) >= cache_set.ways:
                victim_tag, victim = next(iter(lines.items()))
                if victim.dirty:
                    l1_wb = (victim_tag * l1_nsets + index) * l1_line
                    l1._n_writebacks += 1
                else:
                    l1_wb = None
                del lines[victim_tag]
                l1._n_evictions += 1
                victim.tag = tag
                victim.dirty = is_write
                victim.payload = None
                victim.referenced = False
                victim.stamp = 0
                new_line = victim
            else:
                l1_wb = None
                new_line = new_cache_line(tag, dirty=is_write)
            cache_set._clock += 1
            new_line.counter = cache_set._clock
            lines[tag] = new_line

            writebacks = None
            l2, l2_line, l2_nsets, l2_sets = l2_geom[core % cores]
            line = addr // l2_line
            index = line % l2_nsets
            cache_set = l2_sets[index]
            tag = line // l2_nsets
            lines = cache_set.lines
            entry = lines.get(tag)
            l2._n_accesses += 1
            if entry is not None:
                cache_set._clock += 1
                entry.counter = cache_set._clock
                lines[tag] = lines.pop(tag)
                l2._n_hits += 1
                hit2 = True
                l2_wb = None
            else:
                l2._n_misses += 1
                hit2 = False
                if len(lines) >= cache_set.ways:
                    victim_tag, victim = next(iter(lines.items()))
                    if victim.dirty:
                        l2_wb = (victim_tag * l2_nsets + index) * l2_line
                        l2._n_writebacks += 1
                    else:
                        l2_wb = None
                    del lines[victim_tag]
                    l2._n_evictions += 1
                    victim.tag = tag
                    victim.dirty = False
                    victim.payload = None
                    victim.referenced = False
                    victim.stamp = 0
                    new_line = victim
                else:
                    l2_wb = None
                    new_line = new_cache_line(tag)
                cache_set._clock += 1
                new_line.counter = cache_set._clock
                lines[tag] = new_line
            if l1_wb is not None:
                # Dirty L1 victim lands in L2 (write-allocate at L2).
                _, spill, _ = l2.access_raw(l1_wb, True)
                if spill is not None:
                    _, llc_wb, _ = llc_raw(spill, True)
                    if llc_wb is not None:
                        writebacks = [llc_wb]
            if hit2:
                n_l2 += 1
                # Dirtiness is tracked at L1; the L2 copy stays clean.
                return ("L2", lat_l12, False, writebacks)
            if l2_wb is not None:
                _, llc_wb, _ = llc_raw(l2_wb, True)
                if llc_wb is not None:
                    if writebacks is None:
                        writebacks = [llc_wb]
                    else:
                        writebacks.append(llc_wb)

            line = addr // llc_line
            index = line % llc_sets_n
            cache_set = llc_sets[index]
            tag = line // llc_sets_n
            lines = cache_set.lines
            entry = lines.get(tag)
            llc._n_accesses += 1
            if entry is not None:
                cache_set._clock += 1
                entry.counter = cache_set._clock
                lines[tag] = lines.pop(tag)
                llc._n_hits += 1
                hit3 = True
                llc_wb = None
            else:
                llc._n_misses += 1
                hit3 = False
                if len(lines) >= cache_set.ways:
                    victim_tag, victim = next(iter(lines.items()))
                    if victim.dirty:
                        llc_wb = (victim_tag * llc_sets_n + index) * llc_line
                        llc._n_writebacks += 1
                    else:
                        llc_wb = None
                    del lines[victim_tag]
                    llc._n_evictions += 1
                    victim.tag = tag
                    victim.dirty = False
                    victim.payload = None
                    victim.referenced = False
                    victim.stamp = 0
                    new_line = victim
                else:
                    llc_wb = None
                    new_line = new_cache_line(tag)
                cache_set._clock += 1
                new_line.counter = cache_set._clock
                lines[tag] = new_line
            if llc_wb is not None:
                if writebacks is None:
                    writebacks = [llc_wb]
                else:
                    writebacks.append(llc_wb)
            if hit3:
                n_llc += 1
                return ("LLC", lat_full, False, writebacks)
            n_miss += 1
            return ("MEM", lat_full, True, writebacks)

        def install(addr):
            # install_raw with the LRU allocate arm inlined.
            nonlocal n_pref
            n_pref += 1
            line = addr // llc_line
            index = line % llc_sets_n
            cache_set = llc_sets[index]
            tag = line // llc_sets_n
            lines = cache_set.lines
            if lines.get(tag) is not None:
                return None
            llc._n_installs += 1
            if len(lines) >= cache_set.ways:
                victim_tag, victim = next(iter(lines.items()))
                if victim.dirty:
                    wb = (victim_tag * llc_sets_n + index) * llc_line
                    llc._n_writebacks += 1
                else:
                    wb = None
                del lines[victim_tag]
                llc._n_evictions += 1
                victim.tag = tag
                victim.dirty = False
                victim.payload = None
                victim.referenced = False
                victim.stamp = 0
                new_line = victim
            else:
                wb = None
                new_line = new_cache_line(tag)
            cache_set._clock += 1
            new_line.counter = cache_set._clock
            lines[tag] = new_line
            return wb

        def flush():
            nonlocal n_l1, n_l2, n_llc, n_miss, n_pref
            self._n_l1_hits += n_l1
            self._n_l2_hits += n_l2
            self._n_llc_hits += n_llc
            self._n_llc_misses += n_miss
            self._n_prefetch_installs += n_pref
            n_l1 = n_l2 = n_llc = n_miss = n_pref = 0

        return access, install, flush

    def install_llc_fast(self, addr: int) -> Optional[int]:
        """Install a prefetched line into the LLC; returns the dirty
        writeback address, if any (allocation-free form)."""
        writeback = self.llc.install_raw(addr)
        self._n_prefetch_installs += 1
        return writeback

    def install_llc(self, addr: int) -> List[int]:
        """Install a prefetched line into the LLC; returns dirty writebacks."""
        writeback = self.install_llc_fast(addr)
        return [writeback] if writeback is not None else []

    @property
    def llc_miss_rate(self) -> float:
        accesses = self.llc.stats.get("accesses")
        return self.llc.stats.get("misses") / accesses if accesses else 0.0
