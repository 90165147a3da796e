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
drives: the one place the LRU probe and allocate are inlined, on the
caches' plain ``{tag: dirty}`` sets (insertion order is the LRU->MRU
order, so a hit is a pop and re-insert and the victim is the first key).
The reference walk counts into integers that fold into the public
``stats`` groups lazily on read; the closures tally every hierarchy and
per-cache counter in closure integers that their ``flush`` folds back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

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
        locals, each level's ``{tag: dirty}`` probe and LRU allocate are
        written out, and every counter the walk moves — per-cache
        accesses, hits, misses, writebacks, evictions and installs (per
        core for L1 and L2) and the hierarchy-level hit counters — is
        tallied in closure integers. ``flush`` folds the tallies back; it
        must run before any :attr:`stats` read of the hierarchy or its
        caches. When any level is not plain-LRU the triple is the
        reference walk itself: ``(access_fast, install_llc_fast, no-op)``.
        """
        l1s = self._l1
        l2s = self._l2
        llc = self.llc
        if not all(c._is_lru for c in (*l1s, *l2s, llc)):
            return self.access_fast, self.install_llc_fast, lambda: None
        cores = self._cores
        lat_l12 = self._lat_l12
        lat_full = self._lat_full
        # Every core's L1 (and L2) shares one geometry.
        l1_sets = [c._sets for c in l1s]
        l1_line, l1_nsets, l1_ways = l1s[0]._line_size, l1s[0].num_sets, l1s[0]._ways
        l2_sets = [c._sets for c in l2s]
        l2_line, l2_nsets, l2_ways = l2s[0]._line_size, l2s[0].num_sets, l2s[0]._ways
        l2_raws = [c.access_raw for c in l2s]
        llc_sets = llc._sets
        llc_line, llc_nsets, llc_ways = llc._line_size, llc.num_sets, llc._ways
        llc_raw = llc.access_raw

        # Per-core L1/L2 tallies: hits, misses, writebacks, evictions.
        h1, m1, w1, e1 = ([0] * cores for _ in range(4))
        h2, m2, w2, e2 = ([0] * cores for _ in range(4))
        # LLC tallies: demand hits/misses, writebacks/evictions (demand
        # and install), installs, and install calls.
        h3 = m3 = w3 = e3 = n_inst = n_pref = 0

        def access(addr, is_write, core=0):
            nonlocal h3, m3, w3, e3
            c = core % cores
            line = addr // l1_line
            index = line % l1_nsets
            tag = line // l1_nsets
            cache_set = l1_sets[c][index]
            dirty = cache_set.pop(tag, None)
            if dirty is not None:
                cache_set[tag] = dirty or is_write
                h1[c] += 1
                return None
            m1[c] += 1
            l1_wb = None
            if len(cache_set) >= l1_ways:
                victim = next(iter(cache_set))
                e1[c] += 1
                if cache_set.pop(victim):
                    l1_wb = (victim * l1_nsets + index) * l1_line
                    w1[c] += 1
            cache_set[tag] = is_write

            # Demand probe at L2: read-only under NINE, so a hit keeps
            # the line's dirty bit as it is.
            writebacks = None
            line = addr // l2_line
            index = line % l2_nsets
            tag = line // l2_nsets
            cache_set = l2_sets[c][index]
            l2_dirty = cache_set.pop(tag, None)
            l2_wb = None
            if l2_dirty is not None:
                cache_set[tag] = l2_dirty
                h2[c] += 1
            else:
                m2[c] += 1
                if len(cache_set) >= l2_ways:
                    victim = next(iter(cache_set))
                    e2[c] += 1
                    if cache_set.pop(victim):
                        l2_wb = (victim * l2_nsets + index) * l2_line
                        w2[c] += 1
                cache_set[tag] = False
            if l1_wb is not None:
                # Dirty L1 victim lands in L2 (write-allocate at L2).
                _, spill, _ = l2_raws[c](l1_wb, True)
                if spill is not None:
                    _, llc_wb, _ = llc_raw(spill, True)
                    if llc_wb is not None:
                        writebacks = [llc_wb]
            if l2_dirty is not None:
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
            index = line % llc_nsets
            tag = line // llc_nsets
            cache_set = llc_sets[index]
            dirty = cache_set.pop(tag, None)
            if dirty is not None:
                cache_set[tag] = dirty
                h3 += 1
                return ("LLC", lat_full, False, writebacks)
            m3 += 1
            if len(cache_set) >= llc_ways:
                victim = next(iter(cache_set))
                e3 += 1
                if cache_set.pop(victim):
                    w3 += 1
                    llc_wb = (victim * llc_nsets + index) * llc_line
                    if writebacks is None:
                        writebacks = [llc_wb]
                    else:
                        writebacks.append(llc_wb)
            cache_set[tag] = False
            return ("MEM", lat_full, True, writebacks)

        def install(addr):
            # install_raw with the LRU allocate inlined.
            nonlocal w3, e3, n_inst, n_pref
            n_pref += 1
            line = addr // llc_line
            index = line % llc_nsets
            tag = line // llc_nsets
            cache_set = llc_sets[index]
            if tag in cache_set:
                return None
            n_inst += 1
            wb = None
            if len(cache_set) >= llc_ways:
                victim = next(iter(cache_set))
                e3 += 1
                if cache_set.pop(victim):
                    wb = (victim * llc_nsets + index) * llc_line
                    w3 += 1
            cache_set[tag] = False
            return wb

        def flush():
            nonlocal h3, m3, w3, e3, n_inst, n_pref
            for c in range(cores):
                l1s[c].credit(h1[c], m1[c], w1[c], e1[c])
                l2s[c].credit(h2[c], m2[c], w2[c], e2[c])
            llc.credit(h3, m3, w3, e3, n_inst)
            self._n_l1_hits += sum(h1)
            self._n_l2_hits += sum(h2)
            self._n_llc_hits += h3
            self._n_llc_misses += m3
            self._n_prefetch_installs += n_pref
            for tally in (h1, m1, w1, e1, h2, m2, w2, e2):
                tally[:] = [0] * cores
            h3 = m3 = w3 = e3 = n_inst = n_pref = 0

        return access, install, flush

    def install_llc_fast(self, addr: int) -> Optional[int]:
        """Install a prefetched line into the LLC; returns the dirty
        writeback address, if any."""
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
