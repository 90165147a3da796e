"""Unison Cache (Jevdjic et al., MICRO 2014).

A die-stacked DRAM cache with 2 kB pages, 64 B sub-blocking via *footprint
prediction*, embedded in-DRAM tags and a way predictor:

* pages allocate on a miss but fetch only the *predicted footprint* — the
  set of 64 B lines the page used during its previous residency (tracked
  in a footprint history table); first-time pages fetch the demanded line
  plus a small default spatial window;
* tags live in DRAM next to the data, so every lookup costs a fast-memory
  access; a way predictor lets the common case issue tag+data as a single
  access, with a second access on misprediction;
* unused sub-block slots of a page stay unused — the capacity
  under-utilization Baryon's co-location removes (Fig. 1a).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Optional, Set

from repro.baselines.base import BaselineController
from repro.core.events import AccessCase, AccessResult

#: Default footprint for never-seen pages: the demanded line plus the next
#: ones in this window (Footprint Cache's singleton/spatial default).
_DEFAULT_WINDOW_LINES = 4


class UnisonCache(BaselineController):
    """Footprint-predicting sub-blocked DRAM cache with in-DRAM tags."""

    name = "unison"

    def __init__(self, config=None, devices=None) -> None:
        super().__init__(config, devices)
        layout = self.config.layout
        g = self.geometry
        fast_pages = max(1, layout.fast_capacity // g.block_size)
        self.ways = layout.associativity
        self.num_sets = max(1, fast_pages // self.ways)
        self.lines_per_page = g.block_size // g.cacheline_size
        #: Set index -> ``{tag: page payload}`` in LRU->MRU insertion order.
        self._sets: Dict[int, Dict[int, Dict[str, Any]]] = defaultdict(dict)
        #: Footprint history: page id -> line-index bitmap of the last
        #: residency. The SRAM table is bounded — Baryon's evaluation
        #: scales it with the fast memory size (one entry per fast page,
        #: doubled) — with FIFO eviction of the oldest entries.
        self._history: Dict[int, int] = {}
        self._history_capacity = max(1024, 2 * fast_pages)
        #: Way predictor: last way used per set (MRU-based prediction).
        self._predicted_way: Dict[int, int] = {}

    def _line_index(self, addr: int) -> int:
        return (addr % self.geometry.block_size) // self.geometry.cacheline_size

    def access(self, addr: int, is_write: bool, now: Optional[float] = None) -> AccessResult:
        now = self._advance(now)
        g = self.geometry
        page_id = g.block_id(addr)
        set_index = page_id % self.num_sets
        tag = page_id // self.num_sets
        line_idx = self._line_index(addr)
        cache_set = self._sets[set_index]

        payload = cache_set.get(tag)
        # In-DRAM tags: the tag probe is a fast-memory access. With a
        # correct way prediction it is bundled with the data access.
        predicted = self._predicted_way.get(set_index)
        tag_probe = self.devices.fast.read(now, g.cacheline_size, demand=True)
        latency = tag_probe.total_cycles
        if payload is not None:
            actual_way = payload["way"]
            if predicted is not None and predicted != actual_way:
                # Misprediction: a second access to the right way.
                latency += self.devices.fast.read(
                    now, g.cacheline_size, demand=True
                ).total_cycles
                self.stats.inc("way_mispredictions")
            self._predicted_way[set_index] = actual_way
            # LRU touch: re-insert the page at the MRU end.
            cache_set[tag] = cache_set.pop(tag)
            present: Set[int] = payload["present"]
            touched: Set[int] = payload["touched"]
            touched.add(line_idx)
            if line_idx in present:
                if is_write:
                    payload["dirty"].add(line_idx)
                    self.devices.fast.write(now, g.cacheline_size)
                return self._count(
                    AccessResult(AccessCase.COMMIT_HIT, latency, is_write), is_write, addr
                )
            # Footprint miss: fetch the single line from slow memory.
            if is_write:
                demand = self.devices.slow.write(now, g.cacheline_size)
                payload["dirty"].add(line_idx)
            else:
                demand = self.devices.slow.read(now, g.cacheline_size, demand=True)
            self.devices.fast.write(now, g.cacheline_size)
            present.add(line_idx)
            self.stats.inc("footprint_misses")
            return self._count(
                AccessResult(AccessCase.STAGE_MISS, latency + demand.total_cycles, is_write),
                is_write,
                addr,
            )

        # Page miss: allocate and fetch the predicted footprint.
        if is_write:
            demand = self.devices.slow.write(now, g.cacheline_size)
        else:
            demand = self.devices.slow.read(now, g.cacheline_size, demand=True)
        latency += demand.total_cycles
        footprint = self._predict_footprint(page_id, line_idx)
        free_way = len(cache_set)
        if free_way >= self.ways:
            free_way = self._evict(now, cache_set)
        fetch_lines = len(footprint)
        extra = max(0, fetch_lines - 1) * g.cacheline_size
        if extra:
            self.devices.slow.read(now, extra, demand=False)
        self.devices.fast.write(now, fetch_lines * g.cacheline_size)
        payload = {
            "page": page_id,
            "way": free_way,
            "present": set(footprint),
            "touched": {line_idx},
            "dirty": {line_idx} if is_write else set(),
        }
        cache_set[tag] = payload
        self.stats.inc("page_fills")
        self.stats.inc("footprint_fetched_lines", fetch_lines)
        return self._count(
            AccessResult(AccessCase.BLOCK_MISS, latency, is_write), is_write, addr
        )

    def _predict_footprint(self, page_id: int, line_idx: int) -> Set[int]:
        bitmap = self._history.get(page_id)
        if bitmap is None:
            end = min(self.lines_per_page, line_idx + _DEFAULT_WINDOW_LINES)
            return set(range(line_idx, end))
        footprint = {i for i in range(self.lines_per_page) if (bitmap >> i) & 1}
        footprint.add(line_idx)
        return footprint

    def _evict(self, now: float, cache_set: Dict[int, Dict[str, Any]]) -> int:
        """Evict the LRU page; returns the way index it occupied."""
        payload = cache_set.pop(next(iter(cache_set)))
        dirty_lines = len(payload["dirty"])
        if dirty_lines:
            nbytes = dirty_lines * self.geometry.cacheline_size
            self.devices.fast.read(now, nbytes, demand=False)
            self.devices.slow.write(now, nbytes)
            self.stats.inc("dirty_writebacks")
        bitmap = 0
        for i in payload["touched"]:
            bitmap |= 1 << i
        self._history.pop(payload["page"], None)
        self._history[payload["page"]] = bitmap
        while len(self._history) > self._history_capacity:
            # FIFO: dicts preserve insertion order, so the first key is
            # the oldest footprint record.
            self._history.pop(next(iter(self._history)))
            self.stats.inc("history_evictions")
        self.stats.inc("evictions")
        return payload["way"]
