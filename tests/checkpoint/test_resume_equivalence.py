"""Resume equivalence: an interrupted-and-resumed run replays *bitwise*.

The core guarantee of round-boundary checkpoints, property-tested: interrupt
a staged SA run at an arbitrary round boundary (hypothesis picks which one),
resume from disk in a fresh profiler state, and the final score, selected
plan, simulation count, and winning direction must equal the uninterrupted
golden run exactly -- the per-round seeds, evaluator memo caches, and
grouped-evaluation state all survive the crash.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import profiling
from repro.errors import CheckpointError, RunInterrupted
from repro.iccad2015 import load_case
from repro.optimize import optimize_problem1, optimize_problem2
from repro.optimize.stages import (
    METRIC_FIXED_PRESSURE_GRADIENT,
    METRIC_LOWEST_FEASIBLE_POWER,
    METRIC_MIN_GRADIENT_CAPPED,
    StageConfig,
)

P1_STAGES = [
    StageConfig("coarse", 5, 2, 8, METRIC_FIXED_PRESSURE_GRADIENT, "2rm"),
    StageConfig("fine", 4, 1, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm"),
]
#: Twelve short rounds: every ``stop_after`` below lands on a boundary.
P1_BATCH_STAGES = [
    StageConfig("coarse", 3, 6, 8, METRIC_FIXED_PRESSURE_GRADIENT, "2rm"),
    StageConfig("fine", 3, 6, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm"),
]
P2_STAGES = [
    StageConfig(
        "gradient", 5, 4, 4, METRIC_MIN_GRADIENT_CAPPED, "2rm", group_size=3
    ),
    StageConfig(
        "refine", 3, 4, 2, METRIC_MIN_GRADIENT_CAPPED, "2rm", group_size=3
    ),
]

SCENARIOS = {
    "p1-serial": lambda case, **kw: optimize_problem1(
        case, stages=P1_STAGES, directions=(0, 1), seed=3, **kw
    ),
    "p1-batch": lambda case, **kw: optimize_problem1(
        case, stages=P1_BATCH_STAGES, directions=(0,), seed=7, batch_size=3,
        **kw
    ),
    "p2-grouped": lambda case, **kw: optimize_problem2(
        case, stages=P2_STAGES, directions=(0,), seed=5, **kw
    ),
}

_golden_cache = {}


@pytest.fixture(scope="module")
def case():
    return load_case(1, grid_size=21)


def golden(name, case):
    """The uninterrupted run of a scenario (computed once per module)."""
    if name not in _golden_cache:
        profiling.reset()
        _golden_cache[name] = summarize(SCENARIOS[name](case))
    return _golden_cache[name]


def summarize(result):
    return {
        "score": result.evaluation.score,
        "simulations": result.total_simulations,
        "params": result.plan.params().tolist(),
        "direction": result.direction,
    }


def interrupt_and_resume(name, case, tmp_path, stop_after):
    """Interrupt at the ``stop_after``-th interrupt poll (one per round
    boundary), then resume."""
    calls = [0]

    def interrupt():
        calls[0] += 1
        return calls[0] >= stop_after

    profiling.reset()
    try:
        result = SCENARIOS[name](
            case,
            checkpoint_dir=str(tmp_path),
            interrupt_check=interrupt,
        )
        return summarize(result), False
    except RunInterrupted:
        pass
    profiling.reset()  # a resumed process starts with fresh counters
    result = SCENARIOS[name](
        case, checkpoint_dir=str(tmp_path), resume=True
    )
    return summarize(result), True


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(stop_after=st.integers(min_value=1, max_value=6))
def test_p1_interrupted_resume_is_bitwise(case, tmp_path_factory, stop_after):
    tmp_path = tmp_path_factory.mktemp("ckpt")
    summary, _ = interrupt_and_resume("p1-serial", case, tmp_path, stop_after)
    assert summary == golden("p1-serial", case)


@pytest.mark.parametrize("stop_after", [2, 5, 11])
def test_batch_mode_resume_is_bitwise(case, tmp_path, stop_after):
    summary, _ = interrupt_and_resume("p1-batch", case, tmp_path, stop_after)
    assert summary == golden("p1-batch", case)


@pytest.mark.parametrize("stop_after", [2, 6])
def test_problem2_grouped_resume_is_bitwise(case, tmp_path, stop_after):
    summary, _ = interrupt_and_resume("p2-grouped", case, tmp_path, stop_after)
    assert summary == golden("p2-grouped", case)


def test_checkpointing_alone_changes_nothing(case, tmp_path):
    profiling.reset()
    result = SCENARIOS["p1-serial"](case, checkpoint_dir=str(tmp_path))
    assert summarize(result) == golden("p1-serial", case)
    counters = profiling.snapshot()["counters"]
    assert counters["checkpoint.saves"] > 0


def test_double_interrupt_then_resume(case, tmp_path):
    """Two successive crashes still converge to the golden result."""
    first, resumed = interrupt_and_resume_twice(case, tmp_path)
    assert resumed
    assert first == golden("p1-serial", case)


def interrupt_and_resume_twice(case, tmp_path):
    for stop_after in (2, 2):
        calls = [0]

        def interrupt():
            calls[0] += 1
            return calls[0] >= stop_after

        profiling.reset()
        try:
            result = SCENARIOS["p1-serial"](
                case,
                checkpoint_dir=str(tmp_path),
                resume=True,
                interrupt_check=interrupt,
            )
            return summarize(result), True
        except RunInterrupted:
            continue
    profiling.reset()
    result = SCENARIOS["p1-serial"](
        case, checkpoint_dir=str(tmp_path), resume=True
    )
    return summarize(result), True


def test_resume_after_completion_returns_same_result(case, tmp_path):
    profiling.reset()
    first = SCENARIOS["p1-serial"](case, checkpoint_dir=str(tmp_path))
    assert profiling.counter("cooling.simulations") > 0
    profiling.reset()
    again = SCENARIOS["p1-serial"](
        case, checkpoint_dir=str(tmp_path), resume=True
    )
    assert summarize(again) == summarize(first)
    # Every direction was already recorded, so no simulation ran again.
    assert profiling.counter("cooling.simulations") == 0


def test_resume_counter_increments(case, tmp_path):
    calls = [0]

    def interrupt():
        calls[0] += 1
        return calls[0] >= 2

    profiling.reset()
    with pytest.raises(RunInterrupted):
        SCENARIOS["p1-serial"](
            case,
            checkpoint_dir=str(tmp_path),
            interrupt_check=interrupt,
        )
    profiling.reset()
    SCENARIOS["p1-serial"](
        case, checkpoint_dir=str(tmp_path), resume=True
    )
    counters = profiling.snapshot()["counters"]
    assert counters["checkpoint.resumes"] == 1
    assert counters["checkpoint.loads"] == 1


def test_mismatched_setup_refuses_to_resume(case, tmp_path):
    calls = [0]

    def interrupt():
        calls[0] += 1
        return calls[0] >= 2

    with pytest.raises(RunInterrupted):
        optimize_problem1(
            case,
            stages=P1_STAGES,
            directions=(0,),
            seed=3,
            checkpoint_dir=str(tmp_path),
            interrupt_check=interrupt,
        )
    # Same directory, different seed: the fingerprint must reject it.
    with pytest.raises(CheckpointError, match="different run setup"):
        optimize_problem1(
            case,
            stages=P1_STAGES,
            directions=(0,),
            seed=4,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
