"""Directed edge cases across the controller and supporting structures."""

import dataclasses

import numpy as np
import pytest

from repro.common.config import CommitConfig, Geometry
from repro.common.errors import ConfigurationError
from repro.core import AccessCase, BaryonController
from repro.metadata.remap_cache import RemapCache
from repro.workloads.base import Trace

from tests.conftest import make_small_config
from tests.test_controller_cases import ScriptedOracle, make_controller


class TestCommitLastSlotEviction:
    """Case 2 write overflow where only the last range is evicted."""

    def build_committed_block(self):
        oracle = ScriptedOracle(cf=2)
        ctrl = make_controller(oracle, commit=CommitConfig(commit_all=True))
        ctrl.access(0, False)          # range (0, 2)
        ctrl.access(4 * 256, False)    # range (4, 2)
        # Force the stage set to replace: touch ways+1 distinct supers.
        n = ctrl.stage.num_sets
        sbs = ctrl.geometry.super_block_size
        for i in range(1, ctrl.stage.ways + 1):
            ctrl.access(i * n * sbs, False)
        assert ctrl.remap_table.get(0).is_remapped
        return ctrl, oracle

    def test_partial_eviction_keeps_earlier_ranges(self):
        ctrl, oracle = self.build_committed_block()
        oracle.overflow_on_write = True
        result = ctrl.access(4 * 256, True)  # write into the LAST range
        assert result.write_overflow
        assert ctrl.stats.get("committed_range_evictions") == 1
        entry = ctrl.remap_table.get(0)
        assert entry.sub_block_remapped(0)       # earlier range survives
        assert not entry.sub_block_remapped(4)   # last range evicted
        assert ctrl.access(0, False).case is AccessCase.COMMIT_HIT
        assert ctrl.access(4 * 256, False).case is AccessCase.COMMIT_MISS

    def test_non_last_overflow_evicts_whole_block(self):
        ctrl, oracle = self.build_committed_block()
        oracle.overflow_on_write = True
        result = ctrl.access(0, True)  # write into the FIRST range
        assert result.write_overflow
        assert not ctrl.remap_table.get(0).is_remapped


class TestStageStructuralPaths:
    def test_super_spans_multiple_stage_blocks(self):
        """A hot super-block can occupy a second physical block when its
        bound block is full and NOT the set's LRU (Fig. 8 bottom)."""
        ctrl = make_controller(ScriptedOracle(cf=1))
        n = ctrl.stage.num_sets
        sbs = ctrl.geometry.super_block_size
        ctrl.access(1 * n * sbs, False)  # super 1 -> becomes the LRU way
        for sub in range(8):             # block 0 of super 0 fills a way
            ctrl.access(sub * 256, False)
        # A second block of super 0: its data cannot join block 0's full
        # way; since that way is MRU, a block-level replacement evicts the
        # LRU (super 1) and super 0 spans two physical blocks.
        ctrl.access(2048, False)
        entries = ctrl.stage.lookup_super(0)
        assert len(entries) == 2
        assert ctrl.stage.lookup_super(n) == []  # super 1 evicted

    def test_sub_block_fifo_replacement_when_block_owns_everything(self):
        """A block owning all 8 slots FIFO-replaces within itself."""
        ctrl = make_controller(ScriptedOracle(cf=1))
        for sub in range(8):
            ctrl.access(sub * 256, False)
        # The 8 slots hold subs 0..7; writes force an overflow-free refetch
        # by touching a brand-new sub after evicting one... instead use the
        # 64 B-variant trick: shrink the geometry so there are >8 subs.
        config = make_small_config().with_sub_block_size(64)
        ctrl = BaryonController(config, seed=1)
        ctrl.oracle = ScriptedOracle(cf=1)
        for sub in range(33):  # 32 sub-blocks + wrap
            ctrl.access((sub % 32) * 64, False)
        assert ctrl.stats.get("accesses") == 33

    def test_regroup_move_on_block_level_replacement(self):
        """Case 3 insert into a full, non-LRU block regroups the data
        block into a fresh physical block (Fig. 8 bottom)."""
        ctrl = make_controller(ScriptedOracle(cf=1))
        n = ctrl.stage.num_sets
        sbs = ctrl.geometry.super_block_size
        # Fill block A of super 0 with 7 ranges from block 0 + 1 range of block 1.
        for sub in range(7):
            ctrl.access(sub * 256, False)
        ctrl.access(2048, False)
        # Make another super the LRU by touching super 0 last.
        ctrl.access(1 * n * sbs, False)
        ctrl.access(0, False)  # touch super 0 -> MRU
        # Now a new sub of block 0 must go to its (full) physical block,
        # which is not LRU -> block-level move.
        ctrl.access(7 * 256, False)
        assert ctrl.stats.get("stage_regroup_moves") >= 1
        found = ctrl.stage.lookup_sub_block(0, 0, 7)
        assert found is not None


class TestRemapCacheBehaviour:
    def test_eviction_after_capacity(self):
        cache = RemapCache(num_sets=2, ways=2)
        for super_id in range(6):
            cache.access(super_id)
        assert cache.stats.get("evictions") >= 1

    def test_hit_rate_improves_with_locality(self):
        cache = RemapCache(num_sets=4, ways=2)
        for _ in range(10):
            cache.access(1)
        assert cache.hit_rate > 0.8

    def test_invalidate(self):
        cache = RemapCache()
        cache.access(7)
        assert cache.contains(7)
        cache.invalidate(7)
        assert not cache.contains(7)

    def test_repair_under_full_set_with_resident_tag(self):
        """Repairing a line that is resident in a full set refills it in
        place: the drop frees the slot, so nothing else is evicted."""
        cache = RemapCache(num_sets=2, ways=2)
        cache.access(0)
        cache.access(2)  # set 0 now full: tags for supers 0 and 2
        assert cache.repair(2) is False  # repair reports a miss (re-probe)
        assert cache.contains(0) and cache.contains(2)
        assert cache.stats.get("evictions") == 0

    def test_repair_under_full_set_with_absent_tag(self):
        """Repairing a super absent from a full set behaves like a plain
        missing probe: the LRU line is evicted to make room."""
        cache = RemapCache(num_sets=2, ways=2)
        cache.access(0)
        cache.access(2)
        assert cache.repair(4) is False
        assert cache.contains(4) and cache.contains(2)
        assert not cache.contains(0)  # LRU victim
        assert cache.stats.get("evictions") == 1

    def test_storage_is_32kb_at_table1_geometry(self):
        """256 sets x 8 ways x 16 B entry data = 32 kB (plus 8 kB tags)."""
        cache = RemapCache(num_sets=256, ways=8, entries_per_line=8)
        assert cache.storage_bytes(entry_bytes=2, tag_bytes=0) == 32 * 1024
        assert cache.storage_bytes(entry_bytes=2, tag_bytes=4) == 40 * 1024


class TestTraceValidation:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ConfigurationError):
            Trace(
                name="bad",
                addrs=np.zeros(4, dtype=np.uint64),
                writes=np.zeros(3, dtype=bool),
                igaps=np.zeros(4, dtype=np.uint32),
                cores=np.zeros(4, dtype=np.uint16),
            )

    def test_unknown_profile_rejected(self):
        trace = Trace(
            name="t",
            addrs=np.zeros(1, dtype=np.uint64),
            writes=np.zeros(1, dtype=bool),
            igaps=np.zeros(1, dtype=np.uint32),
            cores=np.zeros(1, dtype=np.uint16),
            default_profile="nonexistent",
        )
        from repro.compression.synthetic import SyntheticCompressibility

        with pytest.raises(ConfigurationError):
            trace.apply_compressibility(SyntheticCompressibility())

    def test_empty_trace_write_fraction(self):
        trace = Trace(
            name="e",
            addrs=np.zeros(0, dtype=np.uint64),
            writes=np.zeros(0, dtype=bool),
            igaps=np.zeros(0, dtype=np.uint32),
            cores=np.zeros(0, dtype=np.uint16),
        )
        assert trace.write_fraction == 0.0


class TestHighAddresses:
    def test_far_addresses_work(self):
        ctrl = make_controller(ScriptedOracle(cf=2))
        addr = (1 << 36) + 5 * 256 + 64  # 64 GB territory
        result = ctrl.access(addr, False)
        assert result.case is AccessCase.BLOCK_MISS
        hit = ctrl.access(addr, False)
        assert hit.case is AccessCase.STAGE_HIT

    def test_many_supers_same_set_alias(self):
        ctrl = make_controller(ScriptedOracle(cf=1))
        n = ctrl.stage.num_sets
        sbs = ctrl.geometry.super_block_size
        for i in range(ctrl.stage.ways * 3):
            ctrl.access(i * n * sbs, False)
        # Set capacity respected throughout.
        set_entries = [
            e for e in ctrl.stage.tags.entries[0] if e.valid
        ]
        assert len(set_entries) <= ctrl.stage.ways


class TestGeometryVariants:
    @pytest.mark.parametrize("super_blocks", [2, 4, 16])
    def test_alternate_super_block_sizes_run(self, super_blocks):
        config = make_small_config()
        geometry = dataclasses.replace(config.geometry, super_block_blocks=super_blocks)
        config = dataclasses.replace(config, geometry=geometry)
        ctrl = BaryonController(config, seed=1)
        import random

        rng = random.Random(2)
        for _ in range(1500):
            addr = (rng.randrange(4 * config.layout.fast_capacity) // 64) * 64
            ctrl.access(addr, rng.random() < 0.3)
        assert ctrl.stats.get("accesses") == 1500
