"""Design optimization: the outer level of Algorithm 1.

Simulated annealing searches the tree-network parameter space (two branch
positions per tree), staged from rough/cheap to fine/accurate (Table 1):
early stages run many short rounds on the fast 2RM simulator with a
fixed-pressure gradient cost, later stages evaluate the true objective
(lowest feasible pumping power, or minimum capped gradient) and the final
stage switches to the 4RM reference model.

* :mod:`~repro.optimize.annealing` -- the SA engine: one batched
  Metropolis loop that every SA caller runs.
* :mod:`~repro.optimize.moves` -- the paper's tree-parameter move.
* :mod:`~repro.optimize.stages` -- stage schedules for both problems and
  their network evaluation of a design.
* :mod:`~repro.optimize.runner` -- the staged flow, and its entries for
  pumping power minimization (Problem 1) and thermal gradient minimization
  (Problem 2).
* :mod:`~repro.optimize.parallel` -- batch scoring, in-process or on the
  shared worker pool.
* :mod:`~repro.optimize.baseline` -- straight-channel baselines and the
  manual-design comparator.
* :mod:`~repro.optimize.registry` / :mod:`~repro.optimize.portfolio` --
  the optimizer registry and the multi-fidelity portfolio (2RM-surrogate
  search with elite 4RM promotion, the pure-4RM comparator and the staged
  flow) raced by :func:`~repro.optimize.portfolio.run_portfolio`.
"""

from .annealing import Chain, SAConfig, SAHistory, anneal
from .baseline import BaselineResult, best_manual_design, best_straight_baseline
from .moves import perturb_tree_params
from .portfolio import (
    MultiFidelityEvaluator,
    OffsetModel,
    OptimizerOutcome,
    PortfolioConfig,
    PortfolioResult,
    run_portfolio,
)
from .registry import (
    DEFAULT_PORTFOLIO,
    OptimizerEntry,
    get_optimizer,
    optimizer_names,
    register_optimizer,
)
from .runner import OptimizationResult, optimize_problem1, optimize_problem2
from .stages import StageConfig, problem1_stages, problem2_stages

__all__ = [
    "BaselineResult",
    "Chain",
    "DEFAULT_PORTFOLIO",
    "MultiFidelityEvaluator",
    "OffsetModel",
    "OptimizationResult",
    "OptimizerEntry",
    "OptimizerOutcome",
    "PortfolioConfig",
    "PortfolioResult",
    "SAConfig",
    "SAHistory",
    "StageConfig",
    "anneal",
    "best_manual_design",
    "best_straight_baseline",
    "get_optimizer",
    "optimize_problem1",
    "optimize_problem2",
    "optimizer_names",
    "perturb_tree_params",
    "problem1_stages",
    "problem2_stages",
    "register_optimizer",
    "run_portfolio",
]
