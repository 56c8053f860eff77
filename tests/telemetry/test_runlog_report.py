"""Unit tests for the JSONL run log and the offline report analyzer."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro import profiling
from repro.errors import TelemetryError
from repro.telemetry.report import render_report, summarize_run
from repro.telemetry.runlog import (
    RunLog,
    active_run_log,
    emit_event,
    read_run_log,
    set_run_log,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _no_active_log():
    """No global run log leaks into (or out of) any of these tests."""
    set_run_log(None)
    yield
    set_run_log(None)


class TestRunLog:
    def test_emit_and_read_round_trip(self, tmp_path):
        log = RunLog(tmp_path / "run.jsonl")
        log.emit("run.start", problem="problem1", seed=3)
        log.emit("round.end", best_cost=1.5, acceptance_rate=0.25)
        records = read_run_log(tmp_path / "run.jsonl")
        assert [r["type"] for r in records] == ["run.start", "round.end"]
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["problem"] == "problem1"
        assert records[1]["best_cost"] == 1.5
        assert all("t_wall" in r and "t_mono_ns" in r for r in records)

    def test_infinite_scores_round_trip(self, tmp_path):
        log = RunLog(tmp_path / "run.jsonl")
        log.emit("round.end", best_cost=math.inf)
        (record,) = read_run_log(tmp_path / "run.jsonl")
        assert record["best_cost"] == math.inf

    def test_appends_across_generations(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunLog(path).emit("run.start")
        RunLog(path).emit("checkpoint.resume")
        assert [r["type"] for r in read_run_log(path)] == [
            "run.start", "checkpoint.resume",
        ]

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunLog(path).emit("run.start")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "round.end", "best_co')
        records = read_run_log(path)
        assert [r["type"] for r in records] == ["run.start"]

    def test_corruption_before_final_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"type": "run.start", "seq": 0}\n'
            "garbage not json\n"
            '{"type": "run.end", "seq": 2}\n',
            encoding="utf-8",
        )
        with pytest.raises(TelemetryError, match="corrupt"):
            read_run_log(path)

    def test_untyped_record_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"seq": 0}\n', encoding="utf-8")
        with pytest.raises(TelemetryError, match="'type'"):
            read_run_log(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TelemetryError, match="not found"):
            read_run_log(tmp_path / "absent.jsonl")

    def test_metrics_interval_samples_counters(self, tmp_path):
        profiling.reset()
        profiling.increment("cooling.cache_hits", 3)
        profiling.increment("cooling.simulations", 1)
        try:
            log = RunLog(tmp_path / "run.jsonl", metrics_interval=0.0)
            log.emit("round.end", best_cost=2.0)
            records = read_run_log(tmp_path / "run.jsonl")
        finally:
            profiling.reset()
        metrics = [r for r in records if r["type"] == "run.metrics"]
        assert metrics, "expected a run.metrics sample"
        assert metrics[0]["counters"]["cooling.cache_hits"] == 3
        assert metrics[0]["cache_hit_rates"]["cooling"] == pytest.approx(0.75)


class TestGlobalRunLog:
    def test_emit_event_noop_without_active_log(self):
        emit_event("round.end", best_cost=1.0)  # must not raise

    def test_set_run_log_returns_previous(self, tmp_path):
        log = RunLog(tmp_path / "run.jsonl")
        assert set_run_log(log) is None
        assert active_run_log() is log
        emit_event("run.start", problem="problem1")
        assert set_run_log(None) is log
        (record,) = read_run_log(tmp_path / "run.jsonl")
        assert record["type"] == "run.start"


def _write_synthetic_log(path, score=5.0):
    log = RunLog(path)
    log.emit(
        "run.start", problem="problem1", case_number=1, grid_size=21,
        seed=0, directions=[0, 1], stages=["s1"], n_workers=2,
        batch_size=2, fingerprint="abc123",
    )
    log.emit(
        "checkpoint.resume", fingerprint="abc123", completed=[],
        active="staged_sa", round=7,
    )
    for round_i, best in enumerate((9.0, 7.0, score)):
        log.emit("sa.iteration", iteration=round_i, best_cost=best)
        log.emit(
            "round.end", d_index=0, stage="s1", round=round_i,
            best_cost=best, accepted=round_i + 1, proposed=4,
            acceptance_rate=(round_i + 1) / 4.0, iterations=4,
        )
    log.emit("pool.retry", attempt=1, pending=2)
    log.emit(
        "run.end", score=score, feasible=True, direction=0,
        total_simulations=42, seconds=1.5,
        histograms={
            "optimize.candidate": {
                "count": 10, "sum": 0.5, "mean": 0.05, "min": 0.01,
                "max": 0.2, "p50": 0.04, "p90": 0.1, "p99": 0.2,
            },
        },
    )


class TestReport:
    def test_summarize_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_synthetic_log(path)
        summary = summarize_run(read_run_log(path))
        assert summary["start"]["problem"] == "problem1"
        assert summary["end"]["score"] == 5.0
        assert len(summary["rounds"]) == 3
        assert summary["iterations"] == 3
        assert summary["pool_retries"] == 1
        assert len(summary["resumes"]) == 1
        assert summary["histograms"]["optimize.candidate"]["count"] == 10

    def test_render_report_surfaces_key_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_synthetic_log(path)
        text = render_report(path)
        assert "problem=problem1" in text
        assert "resumed:" in text and "round=7" in text
        assert "score=5.0" in text
        assert "75.0%" in text  # final round acceptance
        assert "9 -> 7 -> 5" in text  # best-score trajectory
        assert "optimize.candidate: n=10" in text
        assert "p50=40.00 ms" in text
        assert "1 retries" in text

    def test_render_compare_deltas(self, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        _write_synthetic_log(path_a, score=5.0)
        _write_synthetic_log(path_b, score=4.0)
        text = render_report(path_a, compare=path_b)
        assert "== compare (B - A) ==" in text
        assert "score delta:       -1" in text

    def test_cli_report_smoke(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_synthetic_log(path)
        result = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "report", str(path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert "best-score trajectory" in result.stdout

    def test_cli_report_missing_file_fails(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.telemetry", "report",
                str(tmp_path / "absent.jsonl"),
            ],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
        )
        assert result.returncode == 1
        assert "error:" in result.stderr
