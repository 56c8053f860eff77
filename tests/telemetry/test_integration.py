"""End-to-end telemetry: worker spans, run-log events, resume markers.

Tiny schedules on the 21x21 grid -- the goal is to prove the plumbing
(worker spans crossing the process boundary, run events landing in the
JSONL stream, the resume marker carrying its cursor), not solver quality.
"""

import os

import pytest

from repro import profiling
from repro.errors import RunInterrupted
from repro.iccad2015 import load_case
from repro.optimize.parallel import evaluate_population, shutdown_pools
from repro.optimize.runner import PROBLEM_PUMPING_POWER, run_staged_flow
from repro.optimize.stages import (
    METRIC_FIXED_PRESSURE_GRADIENT,
    METRIC_LOWEST_FEASIBLE_POWER,
    StageConfig,
)
from repro.telemetry.report import render_report
from repro.telemetry.runlog import RunLog, read_run_log, set_run_log

FIXED_STAGE = StageConfig("f", 4, 1, 4, METRIC_FIXED_PRESSURE_GRADIENT, "2rm")
FIXED_PRESSURE = 2e4

TINY = [
    StageConfig("s1", 3, 1, 8, METRIC_FIXED_PRESSURE_GRADIENT, "2rm"),
    StageConfig("s2", 3, 1, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm"),
]


@pytest.fixture(scope="module")
def case():
    return load_case(1, grid_size=21)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Fresh tracer/profiler/run-log state, no warm pools left behind."""
    profiling.set_tracing(False)
    profiling.clear_spans()
    profiling.reset()
    set_run_log(None)
    yield
    shutdown_pools()
    profiling.set_tracing(False)
    profiling.clear_spans()
    profiling.reset()
    set_run_log(None)


class TestWorkerSpans:
    def test_worker_spans_reach_parent(self, case):
        """Spans recorded inside pool workers land in the parent tracer."""
        plan = case.tree_plan()
        shutdown_pools()
        profiling.set_tracing(True)
        batch = [
            plan.clamp_params(plan.params() + delta) for delta in range(6)
        ]
        evaluate_population(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, batch,
            fixed_pressure=FIXED_PRESSURE, n_workers=2,
        )
        spans = profiling.spans()
        parent_pid = os.getpid()
        parent_names = {
            s["name"] for s in spans if s["pid"] == parent_pid
        }
        worker_pids = {s["pid"] for s in spans} - {parent_pid}
        worker_names = {
            s["name"] for s in spans if s["pid"] != parent_pid
        }
        assert "parallel.batch" in parent_names
        assert worker_pids, "expected spans from at least one worker process"
        assert "parallel.candidate" in worker_names
        assert "flow.unit_solve" in worker_names

    def test_flipping_tracing_rebuilds_pool(self, case):
        """TelemetryConfig is part of the pool cache key, so toggling
        tracing re-arms workers instead of reusing stale ones."""
        plan = case.tree_plan()
        shutdown_pools()
        batch = [plan.params()]
        evaluate_population(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, batch,
            fixed_pressure=FIXED_PRESSURE, n_workers=2,
        )
        profiling.set_tracing(True)
        evaluate_population(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, batch,
            fixed_pressure=FIXED_PRESSURE, n_workers=2,
        )
        assert profiling.counter("parallel.pool_starts") == 2


class TestRunEvents:
    def test_staged_flow_emits_typed_events(self, case, tmp_path):
        path = tmp_path / "run.jsonl"
        set_run_log(RunLog(path, fsync=False))
        try:
            result = run_staged_flow(
                case, TINY, PROBLEM_PUMPING_POWER, directions=(0,), seed=0
            )
        finally:
            set_run_log(None)
        records = read_run_log(path)
        types = [r["type"] for r in records]
        assert types[0] == "run.start"
        assert types[-1] == "run.end"
        for expected in (
            "sa.iteration", "round.end", "stage.end", "direction.end",
        ):
            assert expected in types
        end = records[-1]
        assert end["score"] == result.evaluation.score
        assert end["total_simulations"] == result.total_simulations
        assert "optimize.candidate" in end["histograms"]
        rounds = [r for r in records if r["type"] == "round.end"]
        assert all(0.0 <= r["acceptance_rate"] <= 1.0 for r in rounds)
        text = render_report(path)
        assert "best-score trajectory" in text
        assert "optimize.candidate" in text

    def test_resume_emits_cursor_event(self, case, tmp_path):
        path = tmp_path / "run.jsonl"
        calls = [0]

        def interrupt():
            calls[0] += 1
            return calls[0] >= 1

        set_run_log(RunLog(path, fsync=False))
        try:
            with pytest.raises(RunInterrupted):
                run_staged_flow(
                    case, TINY, PROBLEM_PUMPING_POWER, directions=(0,),
                    seed=0, checkpoint_dir=str(tmp_path / "ckpt"),
                    interrupt_check=interrupt,
                )
            run_staged_flow(
                case, TINY, PROBLEM_PUMPING_POWER, directions=(0,),
                seed=0, checkpoint_dir=str(tmp_path / "ckpt"), resume=True,
            )
        finally:
            set_run_log(None)
        records = read_run_log(path)
        resumes = [r for r in records if r["type"] == "checkpoint.resume"]
        assert len(resumes) == 1
        assert "fingerprint" in resumes[0]
        assert resumes[0]["active"] == "staged_sa"
        assert resumes[0]["round"] == 1
        assert "resumed:" in render_report(path)
