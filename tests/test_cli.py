"""Tests for the command-line interface."""

import ctypes

import pytest

from repro.cli import main
from repro.optimize.parallel import bundled_openblas


def _blas_call(library, suffix, name, *args):
    """Call ``scipy_openblas_<name>_num_threads`` of one bundled OpenBLAS."""
    function = getattr(library, f"scipy_openblas_{name}_num_threads{suffix}")
    function.argtypes = [ctypes.c_int] * len(args)
    function.restype = ctypes.c_int if name == "get" else None
    return function(*args)


@pytest.fixture(autouse=True)
def restore_blas_threads():
    """``main`` pins this process to one BLAS thread; undo it per test."""
    libraries = bundled_openblas()
    before = [_blas_call(lib, sfx, "get") for lib, sfx in libraries]
    yield
    for (library, suffix), threads in zip(libraries, before):
        _blas_call(library, suffix, "set", threads)


def test_cli_runs_one_blas_thread(capsys):
    """numpy's and scipy's OpenBLAS each run one thread in a CLI process."""
    libraries = bundled_openblas()
    if not libraries:
        pytest.skip("no bundled OpenBLAS library installed")
    for library, suffix in libraries:
        _blas_call(library, suffix, "set", 2)
    assert main([]) == 2
    assert [_blas_call(lib, sfx, "get") for lib, sfx in libraries] == [1] * len(
        libraries
    )


class TestSimulate:
    def test_straight_2rm(self, capsys):
        code = main(
            ["simulate", "--case", "1", "--grid", "21", "--pressure", "1e4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2RM" in out and "T_max" in out

    def test_4rm_with_map(self, capsys):
        code = main(
            [
                "simulate", "--case", "2", "--grid", "21",
                "--model", "4rm", "--map",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4RM" in out and "K]" in out

    def test_tree_network(self, capsys):
        code = main(
            ["simulate", "--case", "1", "--grid", "21", "--network", "tree"]
        )
        assert code == 0

    def test_bad_case_reports_error(self, capsys):
        code = main(["simulate", "--case", "9", "--grid", "21"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err


class TestOptimizeEvaluateRoundTrip:
    def test_optimize_then_evaluate(self, tmp_path, capsys):
        out_file = tmp_path / "design.txt"
        code = main(
            [
                "optimize", "--case", "1", "--grid", "21", "--problem", "1",
                "--quick", "--directions", "0", "--out", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert "W_pump" in out

        code = main(
            [
                "evaluate", "--case", "1", "--grid", "21",
                "--network-file", str(out_file), "--model", "2rm",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible" in out or "INFEASIBLE" in out


class TestCompareRender:
    def test_compare(self, capsys):
        code = main(
            [
                "compare", "--case", "1", "--grid", "21",
                "--tiles", "2", "4", "--pressures", "1e4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "speed-up" in out

    def test_render(self, tmp_path, capsys):
        from repro.iccad2015 import write_network
        from repro.networks import straight_network

        path = tmp_path / "net.txt"
        write_network(straight_network(21, 21), path)
        code = main(["render", "--network-file", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "=" in out

    def test_no_command_prints_help(self, capsys):
        code = main([])
        assert code == 2
        assert "usage" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_trace_and_run_log_artifacts(self, tmp_path, capsys):
        import json

        from repro.telemetry.report import render_report

        trace = tmp_path / "trace.json"
        run_log = tmp_path / "run.jsonl"
        code = main(
            [
                "optimize", "--case", "1", "--grid", "21", "--problem", "1",
                "--quick", "--directions", "0",
                "--trace-out", str(trace),
                "--run-log", str(run_log),
                "--metrics-interval", "0",
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert "optimize.round" in names
        assert "process_name" in names
        types = {
            json.loads(line)["type"]
            for line in run_log.read_text().splitlines()
        }
        assert {"run.start", "round.end", "run.metrics", "run.end"} <= types
        assert "best-score trajectory" in render_report(run_log)

    def test_metrics_interval_requires_run_log(self, capsys):
        code = main(
            [
                "optimize", "--case", "1", "--grid", "21", "--problem", "1",
                "--quick", "--directions", "0", "--metrics-interval", "5",
            ]
        )
        assert code == 1
        assert "--metrics-interval needs --run-log" in capsys.readouterr().err


class TestOptimizeOptions:
    def test_power_aware_init(self, capsys):
        code = main(
            [
                "optimize", "--case", "1", "--grid", "21", "--problem", "2",
                "--quick", "--directions", "0", "--init", "power_aware",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DeltaT" in out
