"""The plain-dict LRU sets against an independent LRU reference.

``SetAssociativeCache`` (LRU), ``RemapCache`` and ``SimpleCache`` keep
each set as a ``{tag: value}`` dict whose insertion order is the
recency order. The reference here is the policy object instead: one
``make_set("lru")`` of ``CacheLine`` entries per set, with every victim
chosen by a scan for the smallest recency stamp (cross-checked against
the set's own O(1) victim). Random streams of reads, writes, installs
and invalidates must leave both with the same contents in the same
recency order, the same victims and dirty writebacks, and the same
counters.
"""

import random
from collections import Counter, defaultdict

import pytest

from repro.baselines import SimpleCache
from repro.cache.replacement import CacheLine, make_set
from repro.cache.sram_cache import SetAssociativeCache
from repro.common.config import CacheGeometry
from repro.metadata.remap_cache import RemapCache

from tests.conftest import make_small_config


class LruModel:
    """Reference LRU cache: a ``make_set("lru")`` of ``CacheLine`` per set."""

    def __init__(self, ways: int) -> None:
        self.sets = defaultdict(lambda: make_set("lru", ways))

    def has(self, index, tag) -> bool:
        return self.sets[index].lookup(tag) is not None

    def touch(self, index, tag, is_write=False) -> bool:
        """Hit: promote to MRU (and dirty on a write). Returns hit."""
        cache_set = self.sets[index]
        line = cache_set.lookup(tag)
        if line is None:
            return False
        cache_set.touch(line)
        line.dirty = line.dirty or is_write
        return True

    def fill(self, index, tag, dirty=False):
        """Insert a missing tag; returns the evicted ``CacheLine`` or None."""
        cache_set = self.sets[index]
        victim = None
        if cache_set.is_full():
            victim = min(cache_set.lines.values(), key=lambda line: line.counter)
            assert victim is cache_set.victim()
            cache_set.evict(victim.tag)
        cache_set.insert(CacheLine(tag, dirty=dirty))
        return victim

    def invalidate(self, index, tag):
        return self.sets[index].invalidate(tag)

    def contents(self, index):
        """``(tag, dirty)`` pairs, least recently used first."""
        lines = sorted(self.sets[index].lines.values(), key=lambda line: line.counter)
        return [(line.tag, line.dirty) for line in lines]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_set_associative_cache_matches_reference(seed):
    num_sets, ways, line_size = 4, 4, 64
    cache = SetAssociativeCache(
        CacheGeometry("T", num_sets * ways * line_size, ways, line_size=line_size)
    )
    assert cache.num_sets == num_sets
    model = LruModel(ways)
    want = Counter()
    rng = random.Random(seed)

    def addr_of(index, tag):
        return (tag * num_sets + index) * line_size

    for _ in range(3000):
        index, tag = rng.randrange(num_sets), rng.randrange(12)
        addr = addr_of(index, tag) + rng.randrange(line_size)
        op = rng.random()
        if op < 0.7:
            is_write = rng.random() < 0.4
            got = cache.access_raw(addr, is_write)
            want["accesses"] += 1
            if model.touch(index, tag, is_write):
                want["hits"] += 1
                assert got == (True, None, None)
            else:
                want["misses"] += 1
                victim = model.fill(index, tag, is_write)
                victim_addr = wb = None
                if victim is not None:
                    want["evictions"] += 1
                    victim_addr = addr_of(index, victim.tag)
                    if victim.dirty:
                        want["writebacks"] += 1
                        wb = victim_addr
                assert got == (False, wb, victim_addr)
        elif op < 0.85:
            dirty = rng.random() < 0.3
            outcome = cache.install(addr, dirty)
            if model.has(index, tag):
                assert outcome.hit  # resident: no fill, no promotion
            else:
                want["installs"] += 1
                victim = model.fill(index, tag, dirty)
                assert not outcome.hit
                if victim is None:
                    assert outcome.victim_addr is None
                else:
                    want["evictions"] += 1
                    assert outcome.victim_addr == addr_of(index, victim.tag)
                    want["writebacks"] += victim.dirty
                assert outcome.writeback_addr == (
                    outcome.victim_addr if victim is not None and victim.dirty else None
                )
        elif op < 0.95:
            line = model.invalidate(index, tag)
            dirty = line is not None and line.dirty
            assert cache.invalidate(addr) == (addr_of(index, tag) if dirty else None)
        else:
            assert cache.contains(addr) == model.has(index, tag)
        assert [list(s.items()) for s in cache._sets] == [
            model.contents(i) for i in range(num_sets)
        ]
    stats = cache.stats
    for key in ("accesses", "hits", "misses", "installs", "writebacks", "evictions"):
        assert stats.get(key) == want[key], key
    assert want["writebacks"] > 0 and want["installs"] > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_remap_cache_matches_reference(seed):
    num_sets, ways = 4, 4
    rc = RemapCache(num_sets=num_sets, ways=ways)
    model = LruModel(ways)
    want = Counter()
    rng = random.Random(seed)
    for _ in range(3000):
        sid = rng.randrange(num_sets * 10)
        index, tag = sid % num_sets, sid // num_sets
        op = rng.random()
        if op < 0.85 or op >= 0.93:
            repair = op >= 0.93
            if repair:
                model.invalidate(index, tag)
                got = rc.repair(sid)
            else:
                got = rc.access(sid)
            want["total"] += 1
            if model.touch(index, tag):
                want["hits"] += 1
                assert got is True
            else:
                want["misses"] += 1
                want["evictions"] += model.fill(index, tag) is not None
                assert got is False
        elif op < 0.9:
            model.invalidate(index, tag)
            rc.invalidate(sid)
        else:
            assert rc.contains(sid) == model.has(index, tag)
        assert [list(s) for s in rc._sets] == [
            [t for t, _ in model.contents(i)] for i in range(num_sets)
        ]
    stats = rc.stats
    assert stats.get("hits") == want["hits"] == rc.hit_ratio.hits
    assert stats.get("misses") == want["misses"]
    assert stats.get("evictions") == want["evictions"] > 0
    assert rc.hit_ratio.total == want["total"]


@pytest.mark.parametrize("seed", [1, 2])
def test_simple_cache_sets_match_reference(seed):
    """Scalar ``access`` and the deferred server, interleaved at random,
    against a reference for the block sets and one for the remap cache;
    the flushed counters must equal an all-scalar controller's."""
    ctrl = SimpleCache(make_small_config())
    scalar = SimpleCache(make_small_config())
    g = ctrl.geometry
    rc = ctrl.remap_cache
    # Super-blocks r + k * rc.num_sets share remap set r; their blocks
    # 8 * super + j share one block set for every k, so a dozen k
    # values overflow both.
    per_super = g.super_block_blocks
    assert (per_super * rc.num_sets) % ctrl.num_sets == 0
    blocks = LruModel(ctrl.ways)
    remap = LruModel(rc.ways)
    want = Counter()

    def probe_remap(super_id):
        """Reference remap probe; returns whether it missed."""
        rci, rc_tag = super_id % rc.num_sets, super_id // rc.num_sets
        if remap.touch(rci, rc_tag):
            want["rc_hits"] += 1
            return False
        want["rc_misses"] += 1
        want["rc_evictions"] += remap.fill(rci, rc_tag) is not None
        return True

    serve, flush, _ = ctrl.make_deferred_server()
    rng = random.Random(seed)
    for _ in range(2500):
        super_id = rng.randrange(2) + rc.num_sets * rng.randrange(12)
        block_id = per_super * super_id + rng.randrange(2)
        addr = block_id * g.block_size + rng.randrange(g.block_size // 64) * 64
        index, tag = block_id % ctrl.num_sets, block_id // ctrl.num_sets
        is_write = rng.random() < 0.4
        scalar.access(addr, is_write)
        use_server = rng.random() < 0.6
        op = serve(addr, is_write) if use_server else None
        if op is not None:
            assert blocks.touch(index, tag, is_write)
            want["served"] += 1
            assert op[:2] == (probe_remap(super_id), is_write)
            want["deferred_rc_misses"] += op[0]
        else:
            # A block miss declines with no state applied and, as in the
            # simulator, takes the scalar path after a flush.
            assert not (use_server and blocks.has(index, tag))
            flush()
            ctrl.access(addr, is_write)
            probe_remap(super_id)
            if blocks.touch(index, tag, is_write):
                want["served"] += 1
            else:
                victim = blocks.fill(index, tag, is_write)
                if victim is not None:
                    want["evictions"] += 1
                    want["dirty_writebacks"] += victim.dirty
        assert list(ctrl._sets[index].items()) == blocks.contents(index)
        rci = super_id % rc.num_sets
        assert list(rc._sets[rci]) == [t for t, _ in remap.contents(rci)]
    flush()
    stats = ctrl.stats
    assert stats.get("served_fast") == want["served"] > 0
    assert stats.get("evictions") == want["evictions"] > 0
    assert stats.get("dirty_writebacks") == want["dirty_writebacks"] > 0
    assert rc.stats.get("hits") == want["rc_hits"]
    assert rc.stats.get("misses") == want["rc_misses"]
    assert rc.stats.get("evictions") == want["rc_evictions"] > 0
    assert rc.hit_ratio.total == stats.get("accesses")
    # Deferred hits that missed the remap cache were exercised, and every
    # tally folded back exactly.
    assert want["deferred_rc_misses"] > 0
    assert stats.as_dict() == scalar.stats.as_dict()
    assert rc.stats.as_dict() == scalar.remap_cache.stats.as_dict()
    for ours, theirs in ((ctrl.devices.fast, scalar.devices.fast),
                         (ctrl.devices.slow, scalar.devices.slow)):
        assert ours.stats.as_dict() == theirs.stats.as_dict()
