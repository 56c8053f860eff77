"""Problem 1: pumping power minimization (Section 4 / ICCAD 2015 contest).

Decide the cooling network and system pressure drop minimizing
``W_pump = P_sys^2 / R_sys`` subject to ``T_max <= T_max*`` and
``DeltaT <= DeltaT*`` (Eq. 9).  The network family is the hierarchical tree
structure; the search is the staged SA flow of Algorithm 1 with network
evaluation by lowest feasible pumping power (Algorithm 2).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..iccad2015.cases import Case
from .runner import (
    OptimizationResult,
    PROBLEM_PUMPING_POWER,
    run_staged_flow,
)
from .stages import StageConfig, problem1_stages


def optimize_problem1(
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
    """Run the full Problem 1 design flow on one benchmark case.

    Args:
        case: Benchmark case (see :func:`repro.iccad2015.load_case`).
        stages: Custom stage schedule; defaults to the paper's Table 1
            settings (or the quick variant).
        directions: Global flow directions to attempt; the paper tries all
            eight (``range(8)``).
        seed: Base RNG seed.
        quick: Use the reduced laptop-scale schedule.
        leaves_per_tree: Tree band size.
        checkpoint_dir / resume / interrupt_check: Crash-safe
            checkpointing controls, forwarded to
            :func:`~repro.optimize.runner.run_staged_flow`.

    Returns:
        The best design found, with its final 4RM evaluation.
    """
    if stages is None:
        stages = problem1_stages(quick=quick)
    return run_staged_flow(
        case,
        stages,
        PROBLEM_PUMPING_POWER,
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
