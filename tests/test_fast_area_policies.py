"""Fast-area eviction policies beyond LRU/FIFO (Sec. III-E options)."""

import dataclasses
import random

import pytest

from repro.common.errors import LayoutError
from repro.common.config import Geometry
from repro.core import BaryonController
from repro.core.fast_area import FastArea, FastBlockState

from tests.conftest import make_small_config
from tests.test_controller_invariants import check_invariants, drive


def filled_area(replacement, ways=3):
    area = FastArea(1, ways, Geometry(), replacement)
    for way in range(ways):
        area.install(0, way, FastBlockState(super_id=way * 8))
    return area


class TestPolicies:
    def test_lfu_evicts_least_frequent(self):
        area = filled_area("lfu")
        for _ in range(3):
            area.touch(0, 0)
        area.touch(0, 2)
        assert area.victim_way(0) == 1

    def test_clock_gives_second_chance(self):
        area = filled_area("clock")
        area.touch(0, 0)  # referenced
        victim = area.victim_way(0)
        assert victim in (1, 2)

    def test_clock_clears_bits_when_all_referenced(self):
        area = filled_area("clock")
        for way in range(3):
            area.touch(0, way)
        victim = area.victim_way(0)
        assert 0 <= victim < 3
        # Bits were cleared by the sweep: the next call has a real victim.
        assert 0 <= area.victim_way(0) < 3

    def test_random_is_seed_deterministic(self):
        a = filled_area("random")
        b = filled_area("random")
        assert [a.victim_way(0) for _ in range(5)] == [
            b.victim_way(0) for _ in range(5)
        ]

    def test_unknown_policy_rejected(self):
        with pytest.raises(LayoutError):
            FastArea(1, 2, Geometry(), "belady")

    def test_free_way_always_preferred(self):
        area = FastArea(1, 2, Geometry(), "random")
        area.install(0, 0, FastBlockState(super_id=0))
        assert area.victim_way(0) == 1


class TestSuperBlockIndex:
    """``ways_of_super`` against a brute-force scan of ``blocks``."""

    @staticmethod
    def _scan(area, super_id):
        row = area.blocks[area.set_of_super(super_id)]
        return [
            (way, state) for way, state in enumerate(row)
            if state is not None and state.super_id == super_id
        ]

    @pytest.mark.parametrize("policy", FastArea.POLICIES)
    @pytest.mark.parametrize("num_sets,ways", [(4, 4), (1, 64)])
    def test_random_install_remove_matches_scan(self, policy, num_sets, ways):
        rng = random.Random(f"{policy}:{num_sets}x{ways}")
        area = FastArea(num_sets, ways, Geometry(), policy)
        supers = range(3 * num_sets + 5)
        for _ in range(600):
            super_id = rng.choice(supers)
            set_index = area.set_of_super(super_id)
            occupied = [
                (s, w) for s, row in enumerate(area.blocks)
                for w, state in enumerate(row) if state is not None
            ]
            if occupied and rng.random() < 0.4:
                area.remove(*rng.choice(occupied))
            else:
                way = area.free_way(set_index)
                if way is None:
                    way = area.victim_way(set_index)
                    area.remove(set_index, way)
                    area.verify_index()
                area.install(set_index, way, FastBlockState(
                    super_id=super_id,
                    committed={off: 1 for off in rng.sample(range(8), 2)},
                ))
                if rng.random() < 0.5:
                    area.touch(set_index, way)
            area.verify_index()
            for probe in supers:
                expected = self._scan(area, probe)
                assert area.lookup_super(probe) == expected
                for blk_off in range(8):
                    first = next(
                        (hit for hit in expected if blk_off in hit[1].committed),
                        None,
                    )
                    assert area.find_block(probe, blk_off) == first

    def test_install_outside_its_set_rejected(self):
        area = FastArea(4, 2, Geometry())
        with pytest.raises(LayoutError):
            area.install(1, 0, FastBlockState(super_id=4))


class TestControllerWithPolicies:
    @pytest.mark.parametrize("policy", ["lfu", "clock", "random"])
    def test_invariants_hold_under_every_policy(self, policy):
        config = dataclasses.replace(make_small_config(), fast_replacement=policy)
        ctrl = BaryonController(config, seed=7)
        assert ctrl.fast_area.replacement == policy
        drive(ctrl, 3000, seed=19, footprint_bytes=4 * config.layout.fast_capacity)
        check_invariants(ctrl)

    def test_auto_picks_paper_defaults(self):
        cache = BaryonController(make_small_config(), seed=1)
        assert cache.fast_area.replacement == "lru"
        fa = BaryonController(
            make_small_config(flat=1.0, fully_associative=True), seed=1
        )
        assert fa.fast_area.replacement == "fifo"
