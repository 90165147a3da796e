"""The CLI entry point and the error hierarchy."""

import pytest

from repro.common.errors import (
    ConfigurationError,
    LayoutError,
    MetadataError,
    ReproError,
    SimulationError,
)
from repro.__main__ import main


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "cls", [ConfigurationError, MetadataError, LayoutError, SimulationError]
    )
    def test_all_derive_from_repro_error(self, cls):
        assert issubclass(cls, ReproError)
        with pytest.raises(ReproError):
            raise cls("boom")


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "YCSB-A" in out and "baryon" in out

    def test_no_workload_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_workload(self, capsys):
        assert main(["not-a-workload"]) == 2

    def test_small_run(self, capsys):
        code = main(["YCSB-B", "baryon", "--accesses", "1200", "--scale", "512"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve_rate" in out
        assert "case mix" in out
        assert "path: deferred" in out
        assert "deferred-seam declines" in out

    def test_profiled_run_names_its_gate(self, capsys):
        code = main(["YCSB-B", "baryon", "--accesses", "1200", "--scale", "512",
                     "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "path: batched (gate: profiler)" in out
        assert "deferred-seam declines" not in out

    def test_report_prints_both_paths(self, capsys):
        code = main(["report", "YCSB-B", "baryon", "--accesses", "1200",
                     "--scale", "512", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "  path: batched (gate: event-tracer)" in out
        assert "seam rerun path: deferred" in out

    def test_flat_run(self, capsys):
        code = main(
            ["520.omnetpp_r", "hybrid2", "--accesses", "1000", "--scale", "512", "--flat"]
        )
        assert code == 0
        assert "ipc" in capsys.readouterr().out
