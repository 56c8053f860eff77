"""Problem 2: thermal gradient minimization (Section 5).

Decide the cooling network and system pressure drop minimizing ``DeltaT``
subject to ``T_max <= T_max*`` and ``W_pump <= W_pump*`` (Eq. 12).  Same
staged SA skeleton as Problem 1, with three adaptations from the paper:
the objective becomes the smallest achievable gradient under the pressure cap
(Eq. 13, solved directly or by golden-section search), iterations are grouped
so only the first of each group pays a full evaluation (the rest re-use its
optimal pressure), and the fixed-pressure warm-up stage is dropped.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..iccad2015.cases import Case
from .runner import (
    OptimizationResult,
    PROBLEM_THERMAL_GRADIENT,
    run_staged_flow,
)
from .stages import StageConfig, problem2_stages


def optimize_problem2(
    case: Case,
    stages: Optional[Sequence[StageConfig]] = None,
    directions: Sequence[int] = (0, 1),
    seed: int = 0,
    quick: bool = False,
    leaves_per_tree: int = 4,
    n_workers: int = 1,
    batch_size=None,
    initialization: str = "uniform",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    interrupt_check: Optional[Callable[[], bool]] = None,
) -> OptimizationResult:
    """Run the full Problem 2 design flow on one benchmark case.

    Args mirror :func:`~repro.optimize.problem1.optimize_problem1`; the
    pumping power cap is the case's ``w_pump_star()`` (0.1% of die power,
    the Table 4 setting).
    """
    if stages is None:
        stages = problem2_stages(quick=quick)
    return run_staged_flow(
        case,
        stages,
        PROBLEM_THERMAL_GRADIENT,
        directions=directions,
        seed=seed,
        leaves_per_tree=leaves_per_tree,
        n_workers=n_workers,
        batch_size=batch_size,
        initialization=initialization,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        interrupt_check=interrupt_check,
    )
