"""Generic set-associative SRAM cache.

Write-back, write-allocate, physically indexed. The cache reports, for
every access, whether it hit and which (if any) dirty victim address must
be written back — the two facts the next level down needs. It also supports
:meth:`install` for prefetch-style fills that bypass the demand path (the
memory-to-LLC install of decompressed neighbour cachelines, Sec. III-E).

Hot-path engineering: an LRU set is a plain ``{tag: dirty}`` dict whose
insertion order is the LRU->MRU order; the per-access work runs through
:meth:`access_raw`, which returns a plain tuple instead of allocating an
:class:`AccessOutcome`, and event counts accumulate in plain integer
attributes that are folded into the public ``stats``
:class:`~repro.common.stats.CounterGroup` lazily on read. Counts tallied
by the hierarchy's inlined walk arrive through :meth:`credit` when that
walk flushes; everything else is exact at any observation point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cache.replacement import CacheLine, make_set
from repro.common.config import CacheGeometry
from repro.common.stats import CounterGroup


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one cache access.

    ``writeback_addr`` is the byte address of the dirty victim that must be
    written to the next level (None when the victim was clean or no
    eviction happened).
    """

    hit: bool
    writeback_addr: Optional[int] = None
    victim_addr: Optional[int] = None


#: Shared hit outcome — frozen, so one instance serves every hit.
_HIT = AccessOutcome(hit=True)


class SetAssociativeCache:
    """One level of the hierarchy; line granularity = ``geometry.line_size``."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self._ways = geometry.ways
        # LRU dominates the hierarchy configs: each LRU set is a plain
        # ``{tag: dirty}`` dict whose insertion order is the LRU->MRU
        # order (a hit re-inserts its tag; the victim is the first key).
        # The other policies keep their :func:`make_set` objects.
        self._is_lru = geometry.replacement == "lru"
        self._sets: List = [
            {} if self._is_lru else make_set(geometry.replacement, geometry.ways)
            for _ in range(self.num_sets)
        ]
        self._stats = CounterGroup(geometry.name)
        self._line_size = geometry.line_size
        # Deferred counters, folded into ``_stats`` on read.
        self._n_accesses = 0
        self._n_hits = 0
        self._n_misses = 0
        self._n_installs = 0
        self._n_writebacks = 0
        self._n_evictions = 0

    @property
    def stats(self) -> CounterGroup:
        """Counter group with all pending hot-path counts folded in."""
        if self._n_accesses:
            self._stats.inc("accesses", self._n_accesses)
            self._n_accesses = 0
        if self._n_hits:
            self._stats.inc("hits", self._n_hits)
            self._n_hits = 0
        if self._n_misses:
            self._stats.inc("misses", self._n_misses)
            self._n_misses = 0
        if self._n_installs:
            self._stats.inc("installs", self._n_installs)
            self._n_installs = 0
        if self._n_writebacks:
            self._stats.inc("writebacks", self._n_writebacks)
            self._n_writebacks = 0
        if self._n_evictions:
            self._stats.inc("evictions", self._n_evictions)
            self._n_evictions = 0
        return self._stats

    def credit(
        self, hits: int, misses: int, writebacks: int, evictions: int,
        installs: int = 0,
    ) -> None:
        """Fold counts tallied by an externally inlined walk (see
        :meth:`~repro.cache.hierarchy.CacheHierarchy.make_fast_path`)."""
        self._n_accesses += hits + misses
        self._n_hits += hits
        self._n_misses += misses
        self._n_writebacks += writebacks
        self._n_evictions += evictions
        self._n_installs += installs

    # -- address math -----------------------------------------------------
    def _index_tag(self, addr: int) -> tuple[int, int]:
        line = addr // self._line_size
        return line % self.num_sets, line // self.num_sets

    def _addr_of(self, index: int, tag: int) -> int:
        return (tag * self.num_sets + index) * self._line_size

    # -- operations ---------------------------------------------------------
    def access_raw(
        self, addr: int, is_write: bool
    ) -> Tuple[bool, Optional[int], Optional[int]]:
        """Demand access returning ``(hit, writeback_addr, victim_addr)``.

        Allocation-free form of :meth:`access` for the per-access hot
        path; semantics and counter effects are identical.
        """
        line = addr // self._line_size
        index = line % self.num_sets
        cache_set = self._sets[index]
        tag = line // self.num_sets
        self._n_accesses += 1
        if self._is_lru:
            dirty = cache_set.pop(tag, None)
            if dirty is not None:
                cache_set[tag] = dirty or is_write
                self._n_hits += 1
                return True, None, None
        else:
            entry = cache_set.lines.get(tag)
            if entry is not None:
                cache_set.touch(entry)
                if is_write:
                    entry.dirty = True
                self._n_hits += 1
                return True, None, None
        self._n_misses += 1
        writeback, victim = self._allocate(cache_set, index, tag, is_write)
        return False, writeback, victim

    def access(self, addr: int, is_write: bool) -> AccessOutcome:
        """Demand access with allocate-on-miss; returns hit + writeback info."""
        hit, writeback, victim = self.access_raw(addr, is_write)
        if hit:
            return _HIT
        return AccessOutcome(hit=False, writeback_addr=writeback, victim_addr=victim)

    def install_raw(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Prefetch-style fill; returns the dirty victim address, if any.

        A no-op when the line is already resident (returns None).
        """
        return self.install(addr, dirty).writeback_addr

    def install(self, addr: int, dirty: bool = False) -> AccessOutcome:
        """Fill a line without a demand access (prefetch install).

        A no-op when the line is already resident.
        """
        if self.contains(addr):
            return _HIT
        index, tag = self._index_tag(addr)
        self._n_installs += 1
        writeback, victim = self._allocate(self._sets[index], index, tag, dirty)
        return AccessOutcome(hit=False, writeback_addr=writeback, victim_addr=victim)

    def contains(self, addr: int) -> bool:
        index, tag = self._index_tag(addr)
        cache_set = self._sets[index]
        if self._is_lru:
            return tag in cache_set
        return tag in cache_set.lines

    def invalidate(self, addr: int) -> Optional[int]:
        """Drop a line if present; returns its address when it was dirty."""
        index, tag = self._index_tag(addr)
        cache_set = self._sets[index]
        if self._is_lru:
            dirty = cache_set.pop(tag, None)
        else:
            line = cache_set.invalidate(tag)
            dirty = line is not None and line.dirty
        return self._addr_of(index, tag) if dirty else None

    def _allocate(
        self, cache_set, index: int, tag: int, dirty: bool
    ) -> tuple[Optional[int], Optional[int]]:
        writeback = None
        victim_addr = None
        if self._is_lru:
            if len(cache_set) >= self._ways:
                victim_tag = next(iter(cache_set))
                victim_addr = self._addr_of(index, victim_tag)
                if cache_set.pop(victim_tag):
                    writeback = victim_addr
                    self._n_writebacks += 1
                self._n_evictions += 1
            cache_set[tag] = dirty
            return writeback, victim_addr
        if cache_set.is_full():
            victim = cache_set.victim()
            victim_addr = self._addr_of(index, victim.tag)
            if victim.dirty:
                writeback = victim_addr
                self._n_writebacks += 1
            cache_set.evict(victim.tag)
            self._n_evictions += 1
        cache_set.insert(CacheLine(tag, dirty=dirty))
        return writeback, victim_addr

    @property
    def hit_rate(self) -> float:
        accesses = self.stats.get("accesses")
        return self.stats.get("hits") / accesses if accesses else 0.0
