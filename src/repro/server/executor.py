"""Job execution: spec -> deterministic portfolio run -> JSON result.

Where the service's jobs run: :class:`SimulationExecutor` runs the
portfolio **in-process** over the same
:func:`repro.optimize.portfolio.run_portfolio` entry point the CLI uses.

Crash-safety contract: ``execute`` always points the portfolio at the
job's own checkpoint directory with ``resume=True``, so

* a fresh job starts clean (missing checkpoint starts fresh by design),
* a job reclaimed after a worker SIGKILL resumes from the last round
  boundary, and -- because portfolio resume is bitwise -- finishes with a
  result identical to an uninterrupted run,
* a gracefully drained job (``interrupt_check`` fired) leaves a checkpoint
  the next attempt continues from.

Everything in the result dict is plain JSON with full-precision floats
(``float`` round-trips exactly through ``json``), so the chaos suite can
assert bitwise equality across crash/resume runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..cases import generate_case
from ..errors import JobValidationError
from ..iccad2015 import load_case
from ..iccad2015.cases import Case
from ..optimize.portfolio import (
    PROBLEM_PUMPING_POWER,
    PROBLEM_THERMAL_GRADIENT,
    PortfolioConfig,
    run_portfolio,
)

__all__ = ["SimulationExecutor", "case_from_spec", "config_from_spec"]


def case_from_spec(spec: Dict[str, Any]) -> Case:
    """Rebuild the benchmark case a spec describes (deterministic).

    Specs carry either ``case`` (contest case number) or ``case_seed``
    (procedurally generated), plus an optional ``grid`` override --
    exactly the knobs :func:`repro.server.validation.validate_submission`
    admitted.  An inline ``power_maps`` override replaces the case's
    per-die maps; its shape must match the case it overrides
    (:class:`~repro.errors.JobValidationError` otherwise -- submission
    validation calls through here so the mismatch is a 400, not a
    quarantined job).
    """
    if spec.get("case_seed") is not None:
        case = generate_case(int(spec["case_seed"]), grid_size=spec.get("grid"))
    else:
        case = load_case(int(spec["case"]), grid_size=spec.get("grid") or 51)
    if spec.get("power_maps"):
        maps = [np.asarray(die, dtype=float) for die in spec["power_maps"]]
        if len(maps) != case.n_dies:
            raise JobValidationError(
                f"power_maps has {len(maps)} dies but the case stacks "
                f"{case.n_dies}",
                field="power_maps",
            )
        for die, die_map in enumerate(maps):
            if die_map.shape != (case.nrows, case.ncols):
                raise JobValidationError(
                    f"power_maps[{die}] is {die_map.shape[0]}x"
                    f"{die_map.shape[1]} but the case footprint is "
                    f"{case.nrows}x{case.ncols}",
                    field="power_maps",
                )
        case = replace(
            case,
            power_maps=maps,
            die_power=float(sum(die_map.sum() for die_map in maps)),
        )
    return case


def config_from_spec(spec: Dict[str, Any]) -> PortfolioConfig:
    """The portfolio schedule a spec pins down (part of the fingerprint)."""
    problem = (
        PROBLEM_PUMPING_POWER
        if int(spec.get("problem", 1)) == 1
        else PROBLEM_THERMAL_GRADIENT
    )
    return PortfolioConfig(
        problem=problem,
        rounds=int(spec["rounds"]),
        iterations=int(spec["iterations"]),
        batch_size=int(spec["batch_size"]),
        seed=int(spec["seed"]),
        n_workers=int(spec.get("n_workers") or 1),
    )


class SimulationExecutor:
    """In-process execution over the local portfolio (simulation mode)."""

    def execute(
        self,
        spec: Dict[str, Any],
        checkpoint_dir: str,
        interrupt_check: Optional[Callable[[], bool]] = None,
        progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Run ``spec`` to completion; returns the JSON result payload.

        Resumable: when ``checkpoint_dir`` holds state from an interrupted
        attempt, the run continues from it and produces a result
        bitwise-identical to an uninterrupted run.

        ``progress`` (when given) receives ``(event_type, fields)`` for
        the run's round/optimizer milestones -- the worker feeds it into
        the job's event log so ``follow=1`` streams see live progress.

        Raises:
            RunInterrupted: ``interrupt_check`` fired; the checkpoint in
                ``checkpoint_dir`` captures all completed work.
        """
        case = case_from_spec(spec)
        config = config_from_spec(spec)
        result = run_portfolio(
            case,
            tuple(spec["optimizers"]),
            config,
            checkpoint_dir=checkpoint_dir,
            resume=True,
            interrupt_check=interrupt_check,
            progress=progress,
        )
        best = result.best
        evaluation = best.evaluation
        return {
            "case_number": result.case_number,
            "problem": result.problem,
            "winner": best.name,
            "score": evaluation.score,
            "feasible": evaluation.feasible,
            "p_sys": evaluation.p_sys,
            "w_pump": evaluation.w_pump,
            "t_max": evaluation.t_max,
            "delta_t": evaluation.delta_t,
            "optimizers": {
                name: {
                    "score": outcome.score,
                    "feasible": outcome.evaluation.feasible,
                    "low_evals": outcome.low_evals,
                    "high_evals": outcome.high_evals,
                }
                for name, outcome in sorted(result.outcomes.items())
            },
        }
