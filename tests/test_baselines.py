"""Baseline designs: Simple, Unison Cache, DICE, Hybrid2."""

import dataclasses
import random

import pytest

from repro.baselines import DiceCache, Hybrid2, SimpleCache, UnisonCache
from repro.common.config import ResilienceConfig
from repro.core.events import AccessCase

from tests.conftest import make_small_config
from tests.test_controller_cases import ScriptedOracle


BLOCK = 2048


class TestSimple:
    def make(self):
        return SimpleCache(make_small_config())

    def test_miss_fills_whole_block(self):
        ctrl = self.make()
        ctrl.access(0, False)
        assert ctrl.devices.slow.stats.get("read_bytes") == BLOCK
        assert ctrl.devices.fast.stats.get("write_bytes") == BLOCK

    def test_whole_block_hits_after_fill(self):
        ctrl = self.make()
        ctrl.access(0, False)
        for line in range(1, 32):
            assert ctrl.access(line * 64, False).case is AccessCase.COMMIT_HIT
        assert ctrl.serve_rate() == pytest.approx(31 / 32)

    def test_dirty_block_written_back_fully(self):
        ctrl = self.make()
        conflict_stride = ctrl.num_sets * BLOCK
        ctrl.access(0, True)
        for i in range(1, ctrl.ways + 1):
            ctrl.access(i * conflict_stride, False)
        assert ctrl.stats.get("dirty_writebacks") == 1
        assert ctrl.devices.slow.stats.get("write_bytes") >= BLOCK


class TestUnison:
    def make(self):
        return UnisonCache(make_small_config())

    def test_first_touch_fetches_default_window(self):
        ctrl = self.make()
        ctrl.access(0, False)
        assert ctrl.stats.get("footprint_fetched_lines") == 4

    def test_footprint_miss_fetches_single_line(self):
        ctrl = self.make()
        ctrl.access(0, False)
        result = ctrl.access(20 * 64, False)  # outside the default window
        assert result.case is AccessCase.STAGE_MISS
        assert ctrl.stats.get("footprint_misses") == 1

    def test_footprint_learned_across_generations(self):
        ctrl = self.make()
        conflict_stride = ctrl.num_sets * BLOCK
        # Touch lines 0 and 20 of page 0, evict it, then re-allocate.
        ctrl.access(0, False)
        ctrl.access(20 * 64, False)
        for i in range(1, ctrl.ways + 1):
            ctrl.access(i * conflict_stride, False)
        ctrl.access(0, False)  # page refill uses learned footprint
        assert ctrl.access(20 * 64, False).case is AccessCase.COMMIT_HIT

    def test_tag_probe_costs_fast_bandwidth(self):
        ctrl = self.make()
        ctrl.access(0, False)
        reads = ctrl.devices.fast.stats.get("read_bytes")
        assert reads >= 64  # in-DRAM tag probe

    def test_dirty_lines_written_back(self):
        ctrl = self.make()
        conflict_stride = ctrl.num_sets * BLOCK
        ctrl.access(0, True)
        for i in range(1, ctrl.ways + 1):
            ctrl.access(i * conflict_stride, False)
        assert ctrl.stats.get("dirty_writebacks") == 1
        # One 64 B line written back (plus the original miss write).
        assert ctrl.devices.slow.stats.get("write_bytes") == 128


class TestDice:
    def make(self, cf=2):
        ctrl = DiceCache(make_small_config(), seed=1)
        ctrl.oracle = ScriptedOracle(cf=cf)
        return ctrl

    def test_compressed_fill_brings_neighbours(self):
        ctrl = self.make(cf=2)
        ctrl.access(0, False)
        assert ctrl.access(64, False).case is AccessCase.COMMIT_HIT

    def test_incompressible_fill_single_line(self):
        ctrl = self.make(cf=1)
        ctrl.access(0, False)
        assert ctrl.access(64, False).case is AccessCase.BLOCK_MISS

    def test_hit_prefetches_co_resident_lines(self):
        ctrl = self.make(cf=4)
        ctrl.access(0, False)
        result = ctrl.access(64, False)
        assert result.case is AccessCase.COMMIT_HIT
        assert len(result.prefetched_lines) == 3

    def test_write_overflow_sheds_lines(self):
        ctrl = self.make(cf=4)
        ctrl.access(0, False)
        ctrl.oracle.overflow_on_write = True
        ctrl.oracle.cf = 1  # writes make the group incompressible
        ctrl.access(0, True)
        assert ctrl.stats.get("write_overflows") == 1

    def test_dirty_writeback_on_eviction(self):
        ctrl = self.make(cf=1)
        ctrl.access(0, True)
        conflict = ctrl.num_sets * 4 * 64  # same set, different group
        ctrl.access(conflict, False)
        assert ctrl.stats.get("dirty_writebacks") == 1


class TestHybrid2:
    def test_configuration_is_paper_shaped(self):
        h = Hybrid2(make_small_config(flat=1.0, fully_associative=True))
        assert h.config.commit.k == 0.0
        assert not h.config.compression_enabled
        assert not h.config.share_physical_blocks
        assert h.config.layout.fully_associative
        assert h.config.layout.flat_fraction == 1.0

    def test_no_compression_ever(self):
        h = Hybrid2(make_small_config(flat=1.0, fully_associative=True))
        rng = random.Random(1)
        total = h.config.layout.fast_capacity * 2
        for _ in range(2000):
            h.access((rng.randrange(total) // 64) * 64, rng.random() < 0.3)
        inner = h._inner
        for set_index in range(inner.stage.num_sets):
            for way in range(inner.stage.ways):
                for slot in inner.stage.entry(set_index, way).slots:
                    assert slot is None or (slot.cf == 1 and not slot.zero)

    def test_duck_type(self):
        h = Hybrid2(make_small_config(flat=1.0, fully_associative=True))
        h.access(0, False)
        assert h.stats.get("accesses") == 1
        assert 0.0 <= h.serve_rate() <= 1.0
        assert h.devices.fast is not None

    def test_deferred_contract_delegates_to_inner(self):
        h = Hybrid2(make_small_config(flat=1.0, fully_associative=True))
        assert h.supports_batching
        assert h.deferred_declines is h._inner.deferred_declines
        assert len(h.make_deferred_server()) == 3

    def test_tracker_reaches_the_inner_controller(self):
        """build_controller forwards the tracker: the Fig. 3 breakdown of
        a Hybrid2 cell is its cache section's, not silently empty."""
        from repro.analysis.experiments import run_cell
        from repro.core.tracking import StagePhaseTracker

        from tests.conftest import make_small_sim_config

        tracker = StagePhaseTracker()
        result, h = run_cell(
            "YCSB-B", "hybrid2", make_small_config(), make_small_sim_config(),
            n_accesses=3000, tracker=tracker,
        )
        assert h._inner.tracker is tracker
        assert h.tracker is tracker
        assert tracker.breakdown
        assert result.path == "deferred"

    @pytest.mark.parametrize("design", ["simple", "unison", "dice"])
    def test_tracker_rejected_without_a_stage_area(self, design):
        from repro.analysis.experiments import build_controller
        from repro.common.errors import ConfigurationError
        from repro.core.tracking import StagePhaseTracker

        with pytest.raises(ConfigurationError, match="stage-phase tracker"):
            build_controller(design, make_small_config(), tracker=StagePhaseTracker())

    def test_fault_injection_keeps_scalar_gate(self):
        """The delegated gate inherits every inner decline condition."""
        config = dataclasses.replace(
            make_small_config(flat=1.0, fully_associative=True),
            resilience=ResilienceConfig(enabled=True, p_read_transient=0.01),
        )
        h = Hybrid2(config)
        assert h._inner.faults is not None
        assert not h.supports_batching
