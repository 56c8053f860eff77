"""Stage schedules for the two design flows (Table 1 / Section 6).

Problem 1 runs four stages -- rough and quick first, accurate last:

| stage | iterations | rounds | step | cost metric                | model |
|-------|------------|--------|------|----------------------------|-------|
| 1     | 60         | 8      | 8    | DeltaT at fixed P_sys      | 2RM   |
| 2     | 40         | 4      | 8    | lowest feasible W_pump     | 2RM   |
| 3     | 40         | 2      | 4    | lowest feasible W_pump     | 2RM   |
| 4     | 30         | 1      | 2    | lowest feasible W_pump     | 4RM   |

Problem 2 drops the fixed-pressure stage (the grouped-evaluation speed-up of
Section 5 makes full evaluation cheap) and affords 4RM already in its last
stage: 80/20/20 iterations with 8/2/1 rounds.

``quick`` schedules shrink iteration/round counts for laptop-scale runs and
tests; the shape of the flow (metric progression, model switch, step decay)
is preserved.

:func:`evaluate_design` is the problems' one network evaluation of a whole
design: the staged flow's reference pressure and final 4RM score, the
portfolio's 4RM reference, the baselines and ``repro evaluate`` all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cooling.evaluation import (
    EvaluationResult,
    evaluate_problem1,
    evaluate_problem2,
)
from ..cooling.system import CoolingSystem
from ..errors import SearchError
from ..geometry.grid import ChannelGrid
from ..geometry.stack import Stack
from ..iccad2015.cases import Case

#: Problem identifiers.
PROBLEM_PUMPING_POWER = "problem1"
PROBLEM_THERMAL_GRADIENT = "problem2"

#: Cost metric names.
METRIC_FIXED_PRESSURE_GRADIENT = "gradient_at_fixed_p"
METRIC_LOWEST_FEASIBLE_POWER = "lowest_feasible_power"
METRIC_MIN_GRADIENT_CAPPED = "min_gradient_capped"

_METRICS = (
    METRIC_FIXED_PRESSURE_GRADIENT,
    METRIC_LOWEST_FEASIBLE_POWER,
    METRIC_MIN_GRADIENT_CAPPED,
)


@dataclass(frozen=True)
class StageConfig:
    """One stage of the staged SA flow.

    Attributes:
        name: Stage label for reports.
        iterations: SA proposals per round.
        rounds: Independent SA rounds (same settings, different seeds); the
            per-round bests are re-scored with the next stage's metric and
            the winner seeds the next stage.
        step: Move magnitude in columns.
        metric: One of the three cost metrics.
        model: ``"2rm"`` or ``"4rm"``.
        tile_size: 2RM thermal-cell size in basic cells.
        group_size: For Problem 2's grouped evaluation: one full network
            evaluation per this many iterations, the rest re-use its optimal
            pressure (Section 5, adaptation 2).
    """

    name: str
    iterations: int
    rounds: int
    step: int
    metric: str
    model: str
    tile_size: int = 4
    group_size: int = 1

    def __post_init__(self) -> None:
        if self.metric not in _METRICS:
            raise SearchError(
                f"unknown metric {self.metric!r}; known: {_METRICS}"
            )
        if self.model not in ("2rm", "4rm"):
            raise SearchError(f"model must be '2rm' or '4rm', got {self.model}")
        if min(self.iterations, self.rounds, self.step) < 1:
            raise SearchError(
                f"iterations/rounds/step must be >= 1 in stage {self.name!r}"
            )
        if self.group_size < 1:
            raise SearchError(f"group_size must be >= 1, got {self.group_size}")


def problem1_stages(quick: bool = False, tile_size: int = 4) -> List[StageConfig]:
    """The four-stage Problem 1 schedule (paper settings, or a quick variant)."""
    if quick:
        counts = ((12, 2), (8, 2), (6, 1), (4, 1))
    else:
        counts = ((60, 8), (40, 4), (40, 2), (30, 1))
    (i1, r1), (i2, r2), (i3, r3), (i4, r4) = counts
    return [
        StageConfig(
            "stage1-rough", i1, r1, 8, METRIC_FIXED_PRESSURE_GRADIENT, "2rm", tile_size
        ),
        StageConfig(
            "stage2-power", i2, r2, 8, METRIC_LOWEST_FEASIBLE_POWER, "2rm", tile_size
        ),
        StageConfig(
            "stage3-refine", i3, r3, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm", tile_size
        ),
        StageConfig(
            "stage4-accurate", i4, r4, 2, METRIC_LOWEST_FEASIBLE_POWER, "4rm", tile_size
        ),
    ]


def problem2_stages(quick: bool = False, tile_size: int = 4) -> List[StageConfig]:
    """The three-stage Problem 2 schedule with grouped evaluation."""
    if quick:
        counts = ((16, 2), (6, 1), (4, 1))
    else:
        counts = ((80, 8), (20, 2), (20, 1))
    (i1, r1), (i2, r2), (i3, r3) = counts
    return [
        StageConfig(
            "stage1-grouped",
            i1,
            r1,
            8,
            METRIC_MIN_GRADIENT_CAPPED,
            "2rm",
            tile_size,
            group_size=5,
        ),
        StageConfig(
            "stage2-refine",
            i2,
            r2,
            4,
            METRIC_MIN_GRADIENT_CAPPED,
            "2rm",
            tile_size,
            group_size=5,
        ),
        StageConfig(
            "stage3-accurate",
            i3,
            r3,
            2,
            METRIC_MIN_GRADIENT_CAPPED,
            "4rm",
            tile_size,
            group_size=5,
        ),
    ]


def evaluate_design(
    case: Case,
    network: ChannelGrid,
    problem: str,
    model: str = "4rm",
    tile_size: int = 4,
    base_stack: Optional[Stack] = None,
) -> EvaluationResult:
    """The problem's evaluation of ``network`` on ``case``: Algorithm 2 for
    :data:`PROBLEM_PUMPING_POWER`, its Problem-2 variant (pumping-power cap
    ``case.w_pump_star()``) for :data:`PROBLEM_THERMAL_GRADIENT`.

    The network goes into every channel layer of ``base_stack`` (default
    ``case.base_stack()``) and is simulated with ``model`` at the case's
    coolant and inlet temperature.  The result's ``simulations`` are all the
    thermal simulations the evaluation took.
    """
    if problem not in (PROBLEM_PUMPING_POWER, PROBLEM_THERMAL_GRADIENT):
        raise SearchError(f"unknown problem {problem!r}")
    system = CoolingSystem.for_network(
        case.base_stack() if base_stack is None else base_stack,
        network,
        case.coolant,
        model=model,
        tile_size=tile_size,
        inlet_temperature=case.inlet_temperature,
    )
    if problem == PROBLEM_PUMPING_POWER:
        return evaluate_problem1(system, case.delta_t_star, case.t_max_star)
    return evaluate_problem2(system, case.t_max_star, case.w_pump_star())
