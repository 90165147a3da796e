"""The parallel matrix runner: plans, trace reuse, shard merging, and
serial/parallel bit-equivalence."""

import numpy as np
import pytest

from repro.analysis import run_matrix, run_matrix_sharded, run_one
from repro.analysis.experiments import run_cell
from repro.common.stats import CounterGroup
from repro.devices.energy import EnergyReport
from repro.parallel import (
    Cell,
    CellExecutor,
    clear_trace_cache,
    fork_available,
    plan_cells,
    resolve_jobs,
    run_plan,
)
from repro.parallel.runner import _cell_trace
from repro.sim.results import SimResult
from repro.workloads import build_workload

from tests.conftest import make_small_config, make_small_sim_config

WORKLOADS = ["YCSB-B", "557.xz_r"]
DESIGNS = ["simple", "dice", "baryon"]
N_ACCESSES = 1200


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


class TestPlan:
    def test_plan_is_deterministic_and_ordered(self):
        a = plan_cells(WORKLOADS, DESIGNS, seed=3)
        b = plan_cells(WORKLOADS, DESIGNS, seed=3)
        assert a == b
        assert [c.index for c in a] == list(range(len(a)))
        # Workload-major: cells sharing a trace are contiguous.
        assert [c.workload for c in a] == ["YCSB-B"] * 3 + ["557.xz_r"] * 3

    def test_single_seed_keys_are_pairs(self):
        for cell in plan_cells(WORKLOADS, DESIGNS, seed=7):
            assert cell.key == (cell.workload, cell.design)
            assert cell.seed == 7

    def test_multi_seed_keys_include_seed(self):
        plan = plan_cells(["YCSB-B"], ["simple"], seeds=[1, 2, 3])
        assert [c.key for c in plan] == [
            ("YCSB-B", "simple", 1),
            ("YCSB-B", "simple", 2),
            ("YCSB-B", "simple", 3),
        ]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            plan_cells(WORKLOADS, DESIGNS, seeds=[])

    def test_trace_key_shared_across_designs(self):
        plan = plan_cells(["YCSB-B"], DESIGNS, seed=5)
        assert len({c.trace_key for c in plan}) == 1


class TestResolveJobs:
    def test_serial_cases(self):
        assert resolve_jobs(1, 10) == 1
        assert resolve_jobs(4, 1) == 1

    def test_clamped_to_cells(self):
        if fork_available():
            assert resolve_jobs(16, 3) == 3


class TestReplayView:
    def test_view_is_immutable_and_identical(self):
        config = make_small_config()
        trace = build_workload(
            "YCSB-B", config.layout.fast_capacity, n_accesses=500, seed=1
        )
        view = trace.replay_view()
        assert np.array_equal(view.addrs, trace.addrs)
        assert np.array_equal(view.writes, trace.writes)
        assert not view.addrs.flags.writeable
        with pytest.raises(ValueError):
            view.addrs[0] = 0
        # The original stays writable and untouched.
        assert trace.addrs.flags.writeable

    def test_per_design_streams_are_identical(self):
        """Every design of one workload replays the exact same stream."""
        config = make_small_config()
        plan = plan_cells(["YCSB-B"], DESIGNS, seed=2)
        streams = []
        for cell in plan:
            view, generated = _cell_trace(cell, config, 400)
            assert generated == (cell is plan[0])
            streams.append(view)
        first = streams[0]
        for other in streams[1:]:
            assert np.array_equal(first.addrs, other.addrs)
            assert np.array_equal(first.writes, other.writes)
            assert np.array_equal(first.igaps, other.igaps)
            assert np.array_equal(first.cores, other.cores)

    def test_injected_trace_matches_generated(self):
        """run_one with a replay view equals run_one regenerating."""
        config, sim = make_small_config(), make_small_sim_config()
        trace = build_workload(
            "YCSB-B", config.layout.fast_capacity, n_accesses=800, seed=1
        )
        injected = run_one(
            "YCSB-B", "baryon", config, sim,
            n_accesses=800, seed=1, trace=trace.replay_view(),
        )
        regenerated = run_one(
            "YCSB-B", "baryon", config, sim, n_accesses=800, seed=1
        )
        assert injected.to_dict() == regenerated.to_dict()


class TestSimResultSerialization:
    def test_round_trip(self):
        result = SimResult(
            name="w", design="d", instructions=10, cycles=5.0,
            memory_accesses=4, served_fast=2,
            case_counts={"hit_fast": 3},
            energy=EnergyReport(1.0, 2.0, 3.0),
            extra={"llc_miss_rate": 0.5},
        )
        clone = SimResult.from_dict(result.to_dict())
        assert clone == result
        assert clone.energy.total_j == result.energy.total_j

    def test_round_trip_without_energy(self):
        result = SimResult(name="w", design="d")
        assert SimResult.from_dict(result.to_dict()) == result


class TestEquivalence:
    def test_serial_matches_legacy_per_cell(self):
        """Trace reuse must not change any result vs. per-cell runs."""
        config, sim = make_small_config(), make_small_sim_config()
        matrix = run_matrix(
            WORKLOADS, DESIGNS, config, sim, n_accesses=N_ACCESSES, jobs=1
        )
        for (workload, design), result in matrix.items():
            legacy = run_one(
                workload, design, config, sim, n_accesses=N_ACCESSES, seed=1
            )
            assert result.to_dict() == legacy.to_dict()

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_parallel_matches_serial_bit_identical(self):
        """The ISSUE's 2-workload x 3-design equivalence check."""
        config, sim = make_small_config(), make_small_sim_config()
        serial = run_matrix(
            WORKLOADS, DESIGNS, config, sim, n_accesses=N_ACCESSES, jobs=1
        )
        clear_trace_cache()
        parallel = run_matrix(
            WORKLOADS, DESIGNS, config, sim, n_accesses=N_ACCESSES, jobs=4
        )
        assert set(serial) == set(parallel)
        for key in serial:
            assert serial[key].to_dict() == parallel[key].to_dict()

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_parallel_merged_counters_match_serial(self):
        config, sim = make_small_config(), make_small_sim_config()
        serial = run_matrix_sharded(
            ["YCSB-B"], ["simple", "baryon"], config, sim,
            n_accesses=N_ACCESSES, jobs=1,
        )
        clear_trace_cache()
        parallel = run_matrix_sharded(
            ["YCSB-B"], ["simple", "baryon"], config, sim,
            n_accesses=N_ACCESSES, jobs=2,
        )
        assert serial.counters.as_dict() == parallel.counters.as_dict()
        assert serial.device_counters.as_dict() == parallel.device_counters.as_dict()
        assert serial.serve.hits == parallel.serve.hits
        assert serial.serve.total == parallel.serve.total


class TestPathSurvivesTransport:
    """Every cell's loop report (``SimResult.path``/``path_gate``) comes
    home with its result, in-process and across the fork pool."""

    EXPECTED = {
        ("YCSB-B", "simple"): ("deferred", None),
        ("YCSB-B", "baryon"): ("deferred", None),
        ("YCSB-B", "unison"): ("batched", "design"),
    }

    def _paths(self, jobs):
        plan = plan_cells(("YCSB-B",), tuple(d for _, d in self.EXPECTED))
        config, sim = make_small_config(), make_small_sim_config()
        with CellExecutor(jobs=jobs) as executor:
            outcome = run_plan(
                plan, config, sim, n_accesses=N_ACCESSES, executor=executor
            )
        return {key: (r.path, r.path_gate) for key, r in outcome.results.items()}

    def test_serial(self):
        assert self._paths(jobs=1) == self.EXPECTED

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_pooled(self):
        assert self._paths(jobs=2) == self.EXPECTED


class TestShardMerging:
    def test_merged_counters_equal_manual_fold(self):
        config, sim = make_small_config(), make_small_sim_config()
        outcome = run_matrix_sharded(
            ["YCSB-B"], ["simple", "baryon"], config, sim,
            n_accesses=N_ACCESSES, jobs=1,
        )
        expected = CounterGroup("expected")
        for design in ["simple", "baryon"]:
            _, controller = run_cell(
                "YCSB-B", design, config, sim,
                n_accesses=N_ACCESSES, seed=1,
            )
            inner = getattr(controller, "_inner", controller)
            expected.merge(inner.stats)
        assert outcome.counters.as_dict() == expected.as_dict()

    def test_serve_ratio_merges_cell_results(self):
        config, sim = make_small_config(), make_small_sim_config()
        outcome = run_matrix_sharded(
            WORKLOADS, ["simple", "baryon"], config, sim,
            n_accesses=N_ACCESSES, jobs=1,
        )
        assert outcome.serve.hits == sum(
            r.served_fast for r in outcome.results.values()
        )
        assert outcome.serve.total == sum(
            r.memory_accesses for r in outcome.results.values()
        )
        assert 0.0 < outcome.serve.rate <= 1.0

    def test_traces_generated_once_per_workload(self):
        config, sim = make_small_config(), make_small_sim_config()
        outcome = run_matrix_sharded(
            WORKLOADS, DESIGNS, config, sim, n_accesses=N_ACCESSES, jobs=1
        )
        assert outcome.cells == len(WORKLOADS) * len(DESIGNS)
        assert outcome.traces_generated == len(WORKLOADS)


class TestMultiSeed:
    def test_seed_axis_keys_and_distinct_streams(self):
        config, sim = make_small_config(), make_small_sim_config()
        matrix = run_matrix(
            ["YCSB-B"], ["baryon"], config, sim,
            n_accesses=800, seeds=[1, 2],
        )
        assert set(matrix) == {("YCSB-B", "baryon", 1), ("YCSB-B", "baryon", 2)}
        # Different seeds must actually produce different streams/results.
        assert (matrix[("YCSB-B", "baryon", 1)].to_dict()
                != matrix[("YCSB-B", "baryon", 2)].to_dict())

    def test_seeded_cell_matches_run_one(self):
        config, sim = make_small_config(), make_small_sim_config()
        matrix = run_matrix(
            ["YCSB-B"], ["baryon"], config, sim, n_accesses=800, seeds=[5]
        )
        direct = run_one("YCSB-B", "baryon", config, sim, n_accesses=800, seed=5)
        assert matrix[("YCSB-B", "baryon", 5)].to_dict() == direct.to_dict()


class TestCellDataclass:
    def test_cell_is_hashable_and_frozen(self):
        cell = Cell("w", "d", 1, 0)
        assert hash(cell) is not None
        with pytest.raises(AttributeError):
            cell.seed = 2


class TestWorkerFailure:
    """A failing cell becomes a tagged error record, never a poisoned fold."""

    @staticmethod
    def _explode_on_dice(monkeypatch):
        import repro.parallel.runner as runner

        original = runner._execute_cell

        def explode(cell, config, sim_config, n_accesses, attempt=1):
            if cell.design == "dice":
                raise ValueError("synthetic mid-cell failure")
            return original(cell, config, sim_config, n_accesses, attempt)

        monkeypatch.setattr(runner, "_execute_cell", explode)

    def test_serial_failure_reported_with_traceback(self, monkeypatch):
        self._explode_on_dice(monkeypatch)
        config, sim = make_small_config(), make_small_sim_config()
        outcome = run_matrix_sharded(
            ["YCSB-B"], ["simple", "dice", "baryon"], config, sim,
            n_accesses=600, jobs=1,
        )
        assert set(outcome.results) == {("YCSB-B", "simple"), ("YCSB-B", "baryon")}
        error = outcome.failed[("YCSB-B", "dice")]
        assert error["type"] == "ValueError"
        assert "synthetic mid-cell failure" in error["message"]
        assert "ValueError" in error["traceback"]
        assert error["attempt"] == 2
        assert outcome.retries == 1  # one bounded requeue before giving up

    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_pool_failure_reported_with_traceback(self, monkeypatch):
        self._explode_on_dice(monkeypatch)
        config, sim = make_small_config(), make_small_sim_config()
        outcome = run_matrix_sharded(
            ["YCSB-B"], ["simple", "dice", "baryon"], config, sim,
            n_accesses=600, jobs=2,
        )
        assert set(outcome.results) == {("YCSB-B", "simple"), ("YCSB-B", "baryon")}
        error = outcome.failed[("YCSB-B", "dice")]
        assert error["type"] == "ValueError"
        assert "ValueError" in error["traceback"]

    def test_run_matrix_raises_cell_execution_error(self, monkeypatch):
        from repro.common.errors import CellExecutionError

        self._explode_on_dice(monkeypatch)
        config, sim = make_small_config(), make_small_sim_config()
        with pytest.raises(CellExecutionError) as excinfo:
            run_matrix(["YCSB-B"], ["dice"], config, sim, n_accesses=600)
        assert excinfo.value.cell == ("YCSB-B", "dice")
        assert "ValueError" in excinfo.value.traceback_text

    def test_transient_failure_recovered_by_retry(self, monkeypatch):
        """A cell failing only on attempt 1 succeeds on the requeue."""
        import repro.parallel.runner as runner

        original = runner._execute_cell

        def flaky(cell, config, sim_config, n_accesses, attempt=1):
            if cell.design == "dice" and attempt == 1:
                raise ValueError("first-attempt-only failure")
            return original(cell, config, sim_config, n_accesses, attempt)

        monkeypatch.setattr(runner, "_execute_cell", flaky)
        config, sim = make_small_config(), make_small_sim_config()
        outcome = run_matrix_sharded(
            ["YCSB-B"], ["simple", "dice"], config, sim,
            n_accesses=600, jobs=1,
        )
        assert not outcome.failed
        assert outcome.retries == 1
        clear_trace_cache()
        clean = run_matrix_sharded(
            ["YCSB-B"], ["simple", "dice"], config, sim,
            n_accesses=600, jobs=1,
        )
        assert {k: v.to_dict() for k, v in outcome.results.items()} == {
            k: v.to_dict() for k, v in clean.results.items()
        }


class TestKilledWorker:
    @pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
    def test_sigkilled_worker_cell_requeued_and_bit_identical(self, monkeypatch):
        """A worker SIGKILLed mid-cell: the pool silently loses the task,
        the deadline detects it, and the requeued attempt reproduces the
        fault-free matrix exactly."""
        import os
        import signal

        import repro.parallel.runner as runner

        config, sim = make_small_config(), make_small_sim_config()
        clean = run_matrix_sharded(
            ["YCSB-B"], ["simple", "dice", "baryon"], config, sim,
            n_accesses=600, jobs=1,
        )

        original = runner._execute_cell

        def die_once(cell, config, sim_config, n_accesses, attempt=1):
            if cell.design == "dice" and attempt == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(cell, config, sim_config, n_accesses, attempt)

        monkeypatch.setattr(runner, "_execute_cell", die_once)
        clear_trace_cache()
        outcome = run_matrix_sharded(
            ["YCSB-B"], ["simple", "dice", "baryon"], config, sim,
            n_accesses=600, jobs=2, cell_timeout_s=5.0, max_attempts=2,
        )
        assert not outcome.failed
        assert outcome.retries >= 1
        assert {k: v.to_dict() for k, v in outcome.results.items()} == {
            k: v.to_dict() for k, v in clean.results.items()
        }
        assert outcome.counters.as_dict() == clean.counters.as_dict()
