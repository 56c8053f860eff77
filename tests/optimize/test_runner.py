"""Integration tests for the staged SA design flows.

Tiny schedules on tiny grids: the goal is to exercise every code path
(stage hand-off, re-scoring, grouped evaluation, final 4RM evaluation), not
to reach publication-quality optima -- the benchmark harness does that.
"""

import math

import numpy as np
import pytest

from repro import profiling
from repro.errors import SearchError
from repro.iccad2015 import load_case
from repro.optimize import optimize_problem1, optimize_problem2
from repro.optimize.runner import (
    PROBLEM_PUMPING_POWER,
    _CandidateEvaluator,
    run_staged_flow,
)
from repro.optimize.stages import (
    METRIC_FIXED_PRESSURE_GRADIENT,
    METRIC_LOWEST_FEASIBLE_POWER,
    StageConfig,
)

TINY = [
    StageConfig("s1", 4, 1, 8, METRIC_FIXED_PRESSURE_GRADIENT, "2rm"),
    StageConfig("s2", 4, 1, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm"),
]


@pytest.fixture(scope="module")
def case():
    return load_case(1, grid_size=21)


class TestProblem1Flow:
    @pytest.fixture(scope="class")
    def result(self):
        return optimize_problem1(
            load_case(1, grid_size=21),
            stages=TINY,
            directions=(0,),
            seed=0,
        )

    def test_produces_feasible_design(self, result):
        assert result.evaluation.feasible
        assert math.isfinite(result.evaluation.score)

    def test_constraints_hold(self, result):
        case = load_case(1, grid_size=21)
        assert result.evaluation.delta_t <= case.delta_t_star * 1.02
        assert result.evaluation.t_max <= case.t_max_star * 1.02

    def test_network_is_legal(self, result):
        from repro.geometry import check_design_rules

        assert check_design_rules(result.network).ok

    def test_stage_reports(self, result):
        assert [r.stage for r in result.stage_reports] == ["s1", "s2"]
        assert all(r.simulations > 0 for r in result.stage_reports)

    def test_plan_rebuilds_network(self, result):
        rebuilt = result.plan.build()
        assert (rebuilt.liquid == result.network.liquid).all()


class TestProblem2Flow:
    def test_quick_flow(self, case):
        result = optimize_problem2(case, quick=True, directions=(0,), seed=1)
        assert result.evaluation.feasible
        assert result.evaluation.w_pump <= case.w_pump_star() * 1.01
        assert result.evaluation.t_max <= case.t_max_star


class TestDirections:
    def test_multiple_directions_picks_best(self, case):
        single = run_staged_flow(
            case, TINY, PROBLEM_PUMPING_POWER, directions=(0,), seed=0
        )
        multi = run_staged_flow(
            case, TINY, PROBLEM_PUMPING_POWER, directions=(0, 2), seed=0
        )
        assert multi.evaluation.score <= single.evaluation.score * 1.001
        assert multi.total_simulations > single.total_simulations

    def test_serial_flow_counts_every_scored_candidate(self, case):
        # One neighbour per iteration scores in process, and so does the
        # stage hand-off's rescoring: every memo miss (one ``optimize.candidate``
        # observation) counts into ``parallel.candidates``, as on the pool.
        profiling.reset()
        run_staged_flow(
            case, TINY, PROBLEM_PUMPING_POWER, directions=(0,), seed=0
        )
        scored = profiling.histogram("optimize.candidate").count
        assert scored > 0
        assert profiling.counter("parallel.candidates") == scored

    def test_empty_directions_rejected(self, case):
        with pytest.raises(SearchError, match="direction"):
            run_staged_flow(case, TINY, PROBLEM_PUMPING_POWER, directions=())

    def test_unknown_problem_rejected(self, case):
        with pytest.raises(SearchError, match="unknown problem"):
            run_staged_flow(case, TINY, "problem3", directions=(0,))


class TestCandidateEvaluator:
    def test_caches_by_params(self, case):
        stage = TINY[1]
        plan = case.tree_plan()
        evaluator = _CandidateEvaluator(case, plan, stage, PROBLEM_PUMPING_POWER)
        params = plan.params()
        first = evaluator(params)
        sims = evaluator.simulations
        second = evaluator(params)
        assert first == second
        assert evaluator.simulations == sims

    def test_fixed_pressure_metric_needs_reference(self, case):
        stage = TINY[0]
        plan = case.tree_plan()
        evaluator = _CandidateEvaluator(
            case, plan, stage, PROBLEM_PUMPING_POWER, fixed_pressure=None
        )
        assert math.isinf(evaluator(plan.params()))

    def test_fixed_pressure_metric_scores_gradient(self, case):
        stage = TINY[0]
        plan = case.tree_plan()
        evaluator = _CandidateEvaluator(
            case, plan, stage, PROBLEM_PUMPING_POWER, fixed_pressure=1e4
        )
        cost = evaluator(plan.params())
        assert 0 < cost < 100  # a gradient in kelvin
