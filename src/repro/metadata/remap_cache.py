"""On-chip remap cache at super-block-line granularity (Sec. III-C).

Each line caches all eight remap entries of one super-block (16 B of
entries plus a tag), so one fill serves the whole prefix-sum position
calculation. The cache only models presence — the authoritative entries
live in the :class:`~repro.metadata.remap.RemapTable` — because what the
simulator needs from it is the hit/miss behaviour that decides whether an
access pays the extra off-chip remap-table lookup.

Default geometry: 256 sets x 8 ways = 2048 super-block lines ~= 32 kB,
matching Table I, with >90% typical hit rates as the paper reports.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import CorruptionError
from repro.common.stats import CounterGroup, RatioStat
from repro.obs.tracer import NULL_TRACER


class RemapCache:
    """Set-associative, LRU, super-block-granularity metadata cache."""

    def __init__(
        self,
        num_sets: int = 256,
        ways: int = 8,
        entries_per_line: int = 8,
        latency_cycles: int = 3,
    ) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.entries_per_line = entries_per_line
        self.latency_cycles = latency_cycles
        #: One ``{tag: True}`` dict per set, in LRU->MRU insertion order.
        self._sets: List[Dict[int, bool]] = [{} for _ in range(num_sets)]
        self._stats = CounterGroup("remap_cache")
        # Deferred per-probe counters, folded into ``stats`` on read.
        self._n_hits = 0
        self._n_misses = 0
        self._n_evictions = 0
        self.hit_ratio = RatioStat("remap_cache_hits")
        #: Observability hook point; see :mod:`repro.obs`.
        self.obs = NULL_TRACER
        #: Optional :class:`~repro.resilience.faults.FaultInjector`. A
        #: corrupted line raises before any hit/miss accounting; recovery
        #: invalidates and refills with injection paused.
        self.faults = None

    def _split(self, super_block_id: int) -> tuple[int, int]:
        return super_block_id % self.num_sets, super_block_id // self.num_sets

    @property
    def stats(self) -> CounterGroup:
        """Counter group with all pending probe counts folded in."""
        if self._n_hits:
            self._stats.inc("hits", self._n_hits)
            self._n_hits = 0
        if self._n_misses:
            self._stats.inc("misses", self._n_misses)
            self._n_misses = 0
        if self._n_evictions:
            self._stats.inc("evictions", self._n_evictions)
            self._n_evictions = 0
        return self._stats

    def access(self, super_block_id: int) -> bool:
        """Probe for a super-block line; fills on miss. Returns hit."""
        if (
            self.faults is not None
            and self.faults.active
            and self.faults.remap_corruption()
        ):
            raise CorruptionError(
                f"remap cache line for super-block {super_block_id} corrupted",
                site="remap_cache",
                set_index=super_block_id % self.num_sets,
                block_id=super_block_id,
            )
        cache_set = self._sets[super_block_id % self.num_sets]
        tag = super_block_id // self.num_sets
        hit = cache_set.pop(tag, False)
        ratio = self.hit_ratio
        ratio.total += 1
        if self.obs.enabled:
            self.obs.emit("remap_cache", super=super_block_id, hit=hit)
        if hit:
            ratio.hits += 1
            cache_set[tag] = True
            self._n_hits += 1
        else:
            self._fill(cache_set, tag)
        return hit

    def _fill(self, cache_set: Dict[int, bool], tag: int) -> None:
        """Miss: install ``tag`` at MRU, evicting the LRU line if full."""
        self._n_misses += 1
        cache_set[tag] = True
        if len(cache_set) > self.ways:
            del cache_set[next(iter(cache_set))]
            self._n_evictions += 1

    def probe_state(self):
        """Bindings for an externally inlined probe loop.

        The deferred servers of Baryon and Simple inline :meth:`access`
        (minus faults and tracing, which disable batching altogether)
        and hoist the cache's state once. Returns
        ``(sets, num_sets, ways)``: ``sets[sid % num_sets]`` is a plain
        dict of resident tags (``sid // num_sets``, value always
        ``True``) whose insertion order is the LRU->MRU order. An inline
        probe must preserve this class's transitions exactly:

        * hit — ``sets_i.pop(tag, False)`` is true; re-insert the tag
          (``sets_i[tag] = True``) so it becomes the MRU;
        * miss — insert the tag, then, when the set now holds more than
          ``ways`` tags, delete ``next(iter(sets_i))`` (the LRU).

        Hit/miss/eviction outcomes must be tallied by the caller and
        folded back through :meth:`credit_probes` before anything reads
        ``stats`` or ``hit_ratio``.
        """
        return self._sets, self.num_sets, self.ways

    def credit_probes(
        self, total: int, hits: int, misses: int, evictions: int
    ) -> None:
        """Fold a batch of externally tallied probe outcomes back in.

        The counterpart of :meth:`probe_state`: after this, ``stats``,
        ``hit_ratio`` and ``hit_rate`` read exactly as if every probe
        had gone through :meth:`access`.
        """
        ratio = self.hit_ratio
        ratio.total += total
        ratio.hits += hits
        self._n_hits += hits
        self._n_misses += misses
        self._n_evictions += evictions

    def contains(self, super_block_id: int) -> bool:
        index, tag = self._split(super_block_id)
        return tag in self._sets[index]

    def invalidate(self, super_block_id: int) -> None:
        index, tag = self._split(super_block_id)
        self._sets[index].pop(tag, None)

    def repair(self, super_block_id: int) -> bool:
        """Drop and refill one (corrupted) line in a single pass.

        Fuses the old ``invalidate`` + fault-paused ``access`` repair
        sequence: draw-for-draw identical to it — a paused access never
        consults the fault injector, the dropped line makes the refill
        an unconditional miss, and all hit/miss/eviction accounting
        matches a plain missing probe. Returns ``False``: the access now
        pays the off-chip table probe, as any miss would.
        """
        index, tag = self._split(super_block_id)
        cache_set = self._sets[index]
        cache_set.pop(tag, None)
        self.hit_ratio.total += 1
        if self.obs.enabled:
            self.obs.emit("remap_cache", super=super_block_id, hit=False)
        self._fill(cache_set, tag)
        return False

    def storage_bytes(self, entry_bytes: int = 2, tag_bytes: int = 4) -> int:
        line_bytes = self.entries_per_line * entry_bytes + tag_bytes
        return self.num_sets * self.ways * line_bytes

    @property
    def hit_rate(self) -> float:
        return self.hit_ratio.rate
