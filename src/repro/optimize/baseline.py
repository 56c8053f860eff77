"""Baselines and comparators for Tables 3 and 4.

* :func:`best_straight_baseline` -- "for each test case, straight channels of
  diverse global directions are evaluated by the network evaluation process
  and the best is the baseline" (Section 6).
* :func:`best_manual_design` -- a stand-in for the ICCAD 2015 contest
  winner's hand-crafted networks: the manual styles of the exploration set
  (serpentines, ladders, coils, variable pitch), each evaluated and the best
  kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..cooling.evaluation import EvaluationResult
from ..errors import (
    DesignRuleError,
    FlowError,
    GeometryError,
    SearchError,
    ThermalError,
)
from ..geometry.grid import ChannelGrid
from ..iccad2015.cases import Case
from ..networks.serpentine import (
    coiled_network,
    ladder_network,
    serpentine_network,
    variable_pitch_network,
)
from .stages import (
    PROBLEM_PUMPING_POWER,
    PROBLEM_THERMAL_GRADIENT,
    evaluate_design,
)


@dataclass
class BaselineResult:
    """The best network of a comparator family."""

    name: str
    network: ChannelGrid
    evaluation: EvaluationResult

    @property
    def feasible(self) -> bool:
        """Whether the best network meets every constraint."""
        return self.evaluation.feasible


def best_straight_baseline(
    case: Case,
    problem: str = PROBLEM_PUMPING_POWER,
    directions: Sequence[int] = (0, 1, 2, 3),
    pitches: Sequence[int] = (2,),
    model: str = "4rm",
    tile_size: int = 4,
) -> BaselineResult:
    """Evaluate straight channels over directions/pitches; keep the best.

    Returns an infeasible :class:`BaselineResult` (score ``inf``) when no
    straight network meets the constraints -- the paper's case 5 outcome for
    Problem 1.
    """
    candidates = []
    for pitch in pitches:
        for direction in directions:
            name = f"straight_d{direction}_p{pitch}"
            try:
                grid = case.baseline_network(direction=direction, pitch=pitch)
            except (DesignRuleError, GeometryError):
                continue
            candidates.append((name, grid))
    return _best_of(case, problem, candidates, model, tile_size)


def best_manual_design(
    case: Case,
    problem: str = PROBLEM_PUMPING_POWER,
    model: str = "4rm",
    tile_size: int = 4,
) -> BaselineResult:
    """Evaluate the manual exploration styles; keep the best.

    Stands in for the contest winner row of Table 3 (those networks "rely
    heavily on manual search" and were never published).  Styles with
    restricted-area conflicts are skipped automatically.
    """
    nrows, ncols, w = case.nrows, case.ncols, case.cell_width
    builders = [
        ("serpentine_p4", lambda: serpentine_network(nrows, ncols, 0, 4, w)),
        ("serpentine_p6", lambda: serpentine_network(nrows, ncols, 0, 6, w)),
        ("ladder_p2", lambda: ladder_network(nrows, ncols, 0, 2, w)),
        ("ladder_p4", lambda: ladder_network(nrows, ncols, 0, 4, w)),
        ("ladder_d1", lambda: ladder_network(nrows, ncols, 1, 2, w)),
        ("coiled_p4", lambda: coiled_network(nrows, ncols, 0, 4, w)),
        ("varpitch", lambda: variable_pitch_network(nrows, ncols, 0, 0.5, w)),
    ]
    # The contest winner hand-searched flexible topologies; emulate that with
    # a few uniform tree configurations picked by rule of thumb.
    tree_settings = [
        ("tree_early", ncols // 6, ncols // 3),
        ("tree_mid", ncols // 3, 2 * ncols // 3),
        ("tree_late", ncols // 2, 3 * ncols // 4),
    ]
    for name, b1, b2 in tree_settings:
        for direction in (0, 1):

            def build_tree(b1=b1, b2=b2, direction=direction):
                plan = case.tree_plan(direction=direction)
                params = plan.params()
                params[:, 0] = b1
                params[:, 1] = b2
                return plan.with_params(params).build()

            builders.append((f"{name}_d{direction}", build_tree))
    forbidden = None
    if case.restricted:
        import numpy as np

        forbidden = np.zeros((nrows, ncols), dtype=bool)
        for rect in case.restricted:
            forbidden |= rect.mask(nrows, ncols)
    candidates = []
    for name, builder in builders:
        try:
            grid = builder()
        except (DesignRuleError, GeometryError):
            continue
        if forbidden is not None and bool((grid.liquid & forbidden).any()):
            continue
        candidates.append((name, grid))
    if not candidates:
        # Every free-form style conflicts with the restricted area (case 3);
        # a manual designer would fall back to routing straight channels
        # around the obstacle at various pitches.
        for pitch in (2, 4):
            for direction in (0, 1):
                candidates.append(
                    (
                        f"manual_straight_d{direction}_p{pitch}",
                        case.baseline_network(direction=direction, pitch=pitch),
                    )
                )
    return _best_of(case, problem, candidates, model, tile_size)


def _best_of(
    case: Case,
    problem: str,
    candidates: Sequence,
    model: str,
    tile_size: int,
) -> BaselineResult:
    if problem not in (PROBLEM_PUMPING_POWER, PROBLEM_THERMAL_GRADIENT):
        raise SearchError(f"unknown problem {problem!r}")
    if not candidates:
        raise SearchError("no legal candidate networks to evaluate")
    best: Optional[BaselineResult] = None
    for name, grid in candidates:
        try:
            evaluation = evaluate_design(
                case, grid, problem, model=model, tile_size=tile_size
            )
        except (FlowError, ThermalError, SearchError):
            continue
        result = BaselineResult(name=name, network=grid, evaluation=evaluation)
        if best is None or result.evaluation.score < best.evaluation.score:
            best = result
    if best is None:
        raise SearchError("every candidate network failed to evaluate")
    return best
