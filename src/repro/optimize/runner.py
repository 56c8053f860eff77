"""The paper's staged SA design flow (Algorithm 1) as a portfolio optimizer.

Both problems run the same skeleton: per global flow direction, initialize a
uniform tree plan, then per stage run several SA rounds (same settings,
different seeds), re-score the per-round bests with the *next* stage's metric
and carry the winner forward; the final network is evaluated with the 4RM
reference model.  The problems differ only in the cost metric and the final
evaluator.

:class:`StagedSAOptimizer` (registry name ``staged_sa``) runs every
(direction, stage, SA round) of that schedule as one round of
:func:`~repro.optimize.portfolio.run_portfolio`, over a picklable state
dict.  The staged flow therefore shares the portfolio's single checkpoint
(``portfolio.ckpt``), its interrupt points between rounds, and its run
events.  :func:`run_staged_flow` is the front door that returns the flow's
:class:`OptimizationResult`; :func:`optimize_problem1` (pumping power
minimization, Section 4) and :func:`optimize_problem2` (thermal gradient
minimization, Section 5) run it on the paper's schedule of each problem.

Every (direction, stage, round) derives its own ``np.random.SeedSequence``
child via spawn keys (:func:`_round_seed`), so rounds are statistically
independent and a run resumed at any round boundary replays bitwise.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import profiling
from ..cooling.evaluation import (
    EvaluationResult,
    evaluate_problem1,
    evaluate_problem2,
)
from ..cooling.system import CoolingSystem
from ..errors import (
    DesignRuleError,
    FlowError,
    GeometryError,
    SearchError,
    ThermalError,
)
from ..geometry.grid import ChannelGrid
from ..iccad2015.cases import Case
from ..networks.tree import TreePlan, power_aware_initialization
from ..telemetry import runlog
from .annealing import (
    BatchCost,
    Chain,
    SAConfig,
    SAObserver,
    anneal,
    warm_up_first_batch,
    warm_up_first_three,
)
from .moves import perturb_tree_params
from .portfolio import (
    OptimizerContext,
    OptimizerOutcome,
    PortfolioConfig,
    RoundOptimizer,
    run_portfolio,
)
from .registry import register_optimizer
from .stages import (
    METRIC_FIXED_PRESSURE_GRADIENT,
    METRIC_LOWEST_FEASIBLE_POWER,
    METRIC_MIN_GRADIENT_CAPPED,
    PROBLEM_PUMPING_POWER,
    PROBLEM_THERMAL_GRADIENT,
    StageConfig,
    evaluate_design,
    problem1_stages,
    problem2_stages,
)

__all__ = [
    "OptimizationResult",
    "PROBLEM_PUMPING_POWER",
    "PROBLEM_THERMAL_GRADIENT",
    "StageReport",
    "StagedSAOptimizer",
    "optimize_problem1",
    "optimize_problem2",
    "run_staged_flow",
]


@dataclass
class StageReport:
    """What one stage did."""

    stage: str
    round_best_costs: List[float]
    selected_cost: float
    #: Thermal simulations of the stage's SA rounds (candidate evaluations
    #: in batch mode, where the simulations happen in the workers).
    simulations: int
    #: Per-round SA traces (best-so-far cost per iteration).
    histories: List[object] = field(default_factory=list)


@dataclass
class OptimizationResult:
    """Outcome of one staged design flow.

    Attributes:
        plan: The winning tree plan (build() reproduces the network).
        network: The winning cooling network.
        evaluation: Final 4RM evaluation (Algorithm 2 or its P2 variant).
        direction: Winning global flow direction index.
        stage_reports: Per-stage traces for the winning direction.
        total_simulations: Thermal simulations spent across all directions.
    """

    plan: TreePlan
    network: ChannelGrid
    evaluation: EvaluationResult
    direction: int
    stage_reports: List[StageReport]
    total_simulations: int


class _CandidateEvaluator:
    """Builds and scores cooling systems for parameter vectors, with caching."""

    def __init__(
        self,
        case: Case,
        plan: TreePlan,
        stage: StageConfig,
        problem: str,
        fixed_pressure: Optional[float] = None,
    ):
        self.case = case
        self.plan = plan
        self.stage = stage
        self.problem = problem
        self.fixed_pressure = fixed_pressure
        self.simulations = 0
        self._cache: Dict[bytes, float] = {}
        self._group_counter = 0
        self._group_pressure: Optional[float] = None
        self._base_stack = case.base_stack()

    # ------------------------------------------------------------------

    def state_snapshot(self) -> Dict[str, Any]:
        """A checkpointable copy of the memo cache and scoring counters."""
        return {
            "cache": dict(self._cache),
            "simulations": self.simulations,
            "group_counter": self._group_counter,
            "group_pressure": self._group_pressure,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_snapshot`; resumed scoring replays bitwise."""
        self._cache = dict(state["cache"])
        self.simulations = state["simulations"]
        self._group_counter = state["group_counter"]
        self._group_pressure = state["group_pressure"]

    # ------------------------------------------------------------------

    def system_for(self, params: np.ndarray) -> Optional[CoolingSystem]:
        """A cooling system for one candidate, or None when illegal."""
        try:
            grid = self.plan.with_params(params).build()
            return CoolingSystem.for_network(
                self._base_stack,
                grid,
                self.case.coolant,
                model=self.stage.model,
                tile_size=self.stage.tile_size,
                inlet_temperature=self.case.inlet_temperature,
            )
        except (DesignRuleError, FlowError, GeometryError, ThermalError):
            return None

    def batch(self, states: Sequence[np.ndarray]) -> List[float]:
        """The batch cost of :func:`~repro.optimize.annealing.anneal`, one
        candidate at a time, in process.

        The memo misses count into ``parallel.candidates`` and
        ``parallel.infeasible`` (:func:`~repro.optimize.parallel.count_scored`)
        as a pooled batch's do.  Pool workers score through :meth:`__call__`,
        never through this method, so nothing is counted twice.
        """
        from .parallel import count_scored

        costs, fresh = [], []
        for params in states:
            miss = np.asarray(params, dtype=int).tobytes() not in self._cache
            costs.append(self(params))
            if miss:
                fresh.append(costs[-1])
        if fresh:
            count_scored(fresh)
        return costs

    def __call__(self, params: np.ndarray) -> float:
        key = np.asarray(params, dtype=int).tobytes()
        if key in self._cache:
            return self._cache[key]
        # Cache misses only: the histogram measures real scoring work, so a
        # warm cache shows up as fewer observations, not faster ones.
        with profiling.timer("optimize.candidate"):
            cost = self._score(np.asarray(params, dtype=int))
        self._cache[key] = cost
        return cost

    # ------------------------------------------------------------------

    def _score(self, params: np.ndarray) -> float:
        system = self.system_for(params)
        if system is None:
            return math.inf
        try:
            cost = self._score_system(system)
        except (SearchError, ThermalError, FlowError):
            cost = math.inf
        self.simulations += system.n_simulations
        return cost

    def _score_system(self, system: CoolingSystem) -> float:
        metric = self.stage.metric
        if metric == METRIC_FIXED_PRESSURE_GRADIENT:
            if self.fixed_pressure is None:
                raise SearchError(
                    "fixed-pressure stage needs a reference pressure"
                )
            return system.delta_t(self.fixed_pressure)
        if metric == METRIC_LOWEST_FEASIBLE_POWER:
            return evaluate_problem1(
                system, self.case.delta_t_star, self.case.t_max_star
            ).score
        if metric == METRIC_MIN_GRADIENT_CAPPED:
            return self._score_grouped_gradient(system)
        raise SearchError(f"unknown metric {metric!r}")

    def _score_grouped_gradient(self, system: CoolingSystem) -> float:
        """Problem 2's grouped evaluation (Section 5, adaptation 2).

        The first candidate of every group pays the full evaluation and
        donates its optimal pressure; the rest are scored by one simulation
        at that pressure (capped by their own power limit).  Slightly
        pessimistic, but neighboring networks have near-identical optima.
        """
        w_star = self.case.w_pump_star()
        full = (
            self._group_counter % self.stage.group_size == 0
            or self._group_pressure is None
        )
        self._group_counter += 1
        if full:
            evaluation = evaluate_problem2(
                system, self.case.t_max_star, w_star
            )
            if evaluation.feasible:
                self._group_pressure = evaluation.p_sys
            return evaluation.score
        p_cap = system.p_sys_for_power(w_star)
        p_used = min(self._group_pressure, p_cap)
        result = system.evaluate(p_used)
        if result.t_max > self.case.t_max_star:
            return math.inf
        return result.delta_t


def _round_seed(
    seed: int, d_index: int, s_index: int, round_i: int
) -> np.random.SeedSequence:
    """The (direction, stage, round) child seed, via SeedSequence spawning.

    A ``SeedSequence`` constructed with ``spawn_key=(d, s, r)`` is exactly
    the ``r``-th spawn of the ``s``-th spawn of the ``d``-th spawn of
    ``SeedSequence(seed)`` -- nested ``.spawn()`` without the statefulness,
    so a resumed run reconstructs the identical child without replaying the
    parent's spawn counter.  Children are statistically independent streams
    (unlike the additive ``seed + 17 * stage + round`` arithmetic this
    replaced, which could collide across stages and rounds).
    """
    return np.random.SeedSequence(
        seed, spawn_key=(d_index, s_index, round_i)
    )


def _flow(
    config: PortfolioConfig,
) -> Tuple[Tuple[StageConfig, ...], Tuple[int, ...], int]:
    """``(stages, directions, batch size)`` the staged flow runs under
    ``config`` (see the ``staged_sa`` fields of :class:`PortfolioConfig`)."""
    stages = config.stages
    if stages is None:
        schedule = (
            problem1_stages
            if config.problem == PROBLEM_PUMPING_POWER
            else problem2_stages
        )
        stages = tuple(schedule(quick=True, tile_size=config.tile_size))
    directions = (
        config.directions
        if config.directions is not None
        else (config.direction,)
    )
    batch = config.staged_batch
    if batch is None:
        batch = config.n_workers if config.n_workers > 1 else 1
    return stages, directions, batch


def _position(
    stages: Sequence[StageConfig], round_i: int
) -> Tuple[int, int, int]:
    """``(direction index, stage index, SA round)`` of portfolio round
    ``round_i``: directions in order, each running every stage's rounds."""
    d_index, k = divmod(round_i, sum(stage.rounds for stage in stages))
    s_index = 0
    while k >= stages[s_index].rounds:
        k -= stages[s_index].rounds
        s_index += 1
    return d_index, s_index, k


def _reset_stage(flight: Dict[str, Any]) -> None:
    """Clear the per-stage fields of a direction in flight."""
    flight.update(round_bests=[], histories=[], evaluator=None, batch_evals=0)


def _iteration_logger(labels: Dict[str, Any]) -> Optional[SAObserver]:
    """One ``sa.iteration`` run event per SA iteration, when a run log is
    active."""
    log = runlog.active_run_log()
    if log is None:
        return None
    return lambda fields: log.emit("sa.iteration", **labels, **fields)


@register_optimizer(
    "staged_sa",
    "the paper's staged SA flow (Algorithm 1), one round per "
    "(direction, stage, SA round)",
)
class StagedSAOptimizer(RoundOptimizer):
    """Algorithm 1 over the portfolio's round loop.

    The state dict holds the finished directions' results and the direction
    in flight: the stage-1 reference pressure, the parameters entering the
    current stage, the finished stages' reports, and the current stage's
    round bests, serial-evaluator memo and simulation counts.  The last
    round of a stage re-scores and selects; the last round of a direction
    also runs the final 4RM evaluation.
    """

    name = "staged_sa"

    def n_rounds(self, config: PortfolioConfig) -> int:
        stages, directions, _ = _flow(config)
        return len(directions) * sum(stage.rounds for stage in stages)

    def fingerprint(self, config: PortfolioConfig) -> Tuple[Any, ...]:
        return _flow(config) + (config.initialization,)

    @staticmethod
    def _plan(ctx: OptimizerContext, direction: int) -> TreePlan:
        """The initialized tree plan of one global flow direction."""
        plan = ctx.case.tree_plan(
            direction=direction, leaves_per_tree=ctx.config.leaves_per_tree
        )
        if ctx.config.initialization == "power_aware":
            plan = power_aware_initialization(plan, sum(ctx.case.power_maps))
        return plan

    def init_state(self, ctx: OptimizerContext) -> Dict[str, Any]:
        return {"round": 0, "rounds": [], "results": [], "direction": None,
                "high_sims": 0}

    def run_round(
        self, ctx: OptimizerContext, state: Dict[str, Any], round_i: int
    ) -> None:
        case, cfg = ctx.case, ctx.config
        stages, directions, batch = _flow(cfg)
        d_index, s_index, round_s = _position(stages, round_i)
        stage = stages[s_index]
        plan = self._plan(ctx, directions[d_index])
        if state["direction"] is None:
            state["direction"] = self._start_direction(ctx, plan, stages)
        flight = state["direction"]

        evaluator = _CandidateEvaluator(
            case, plan, stage, cfg.problem, flight["fixed_pressure"]
        )
        if flight["evaluator"] is not None:
            evaluator.restore_state(flight["evaluator"])

        def neighbor(
            params: np.ndarray, rng: np.random.Generator
        ) -> np.ndarray:
            return plan.clamp_params(
                perturb_tree_params(params, stage.step, rng)
            )

        config = SAConfig(
            iterations=stage.iterations,
            seed=_round_seed(cfg.seed, d_index, s_index, round_s),
            stall_limit=max(stage.iterations // 2, 8),
        )
        labels = {"d_index": d_index, "stage": stage.name, "round": round_s}
        with profiling.span("optimize.round", **labels):
            # One neighbour per iteration scores in-process on the stage's
            # evaluator; a batch of them goes through the worker pool.
            pooled = (
                _BatchCost(
                    case, plan, stage, cfg.problem, flight["fixed_pressure"],
                    cfg.n_workers,
                )
                if batch > 1
                else None
            )
            cost_fn: BatchCost = evaluator.batch if pooled is None else pooled
            chain = Chain.start(np.asarray(flight["params"]), cost_fn, config)
            history = anneal(
                chain, cost_fn, neighbor, config, batch,
                warm_up=(
                    warm_up_first_three if pooled is None
                    else warm_up_first_batch
                ),
                observer=_iteration_logger(labels),
            )
        if pooled is not None:
            flight["batch_evals"] += pooled.evals
        best, cost = chain.best, chain.best_cost
        flight["round_bests"].append((best, cost))
        flight["histories"].append(history)
        flight["evaluator"] = evaluator.state_snapshot()

        if round_s + 1 == stage.rounds:
            self._end_stage(
                ctx, state, plan, stages, d_index, s_index, evaluator
            )
            if s_index + 1 == len(stages):
                self._end_direction(ctx, state, plan, d_index)

        low, high = self._simulations(state)
        verified = min(
            (result.evaluation.score for result in state["results"]),
            default=math.inf,
        )
        state["rounds"].append(
            {
                "round": round_i,
                "d_index": d_index,
                "stage": stage.name,
                "best_cost": cost,
                "accepted": history.accepted,
                "proposed": history.proposed,
                "acceptance_rate": history.acceptance_rate,
                "iterations": len(history.best_costs),
                "best_low": math.nan,
                "best_corrected": verified,
                "verified": verified,
                "promotions": 0,
                "low_evals": low,
                "high_evals": high,
            }
        )

    def _start_direction(
        self,
        ctx: OptimizerContext,
        plan: TreePlan,
        stages: Sequence[StageConfig],
    ) -> Dict[str, Any]:
        flight: Dict[str, Any] = {
            "fixed_pressure": None,
            "params": plan.params(),
            "reports": [],
            "sims": 0,
        }
        _reset_stage(flight)
        if any(s.metric == METRIC_FIXED_PRESSURE_GRADIENT for s in stages):
            # Fixed-pressure costs run at the initial network's optimum.
            reference = evaluate_design(
                ctx.case, plan.build(), ctx.config.problem,
                model=stages[0].model, tile_size=stages[0].tile_size,
            )
            flight["fixed_pressure"] = reference.p_sys
            flight["sims"] = reference.simulations
        return flight

    def _end_stage(
        self,
        ctx: OptimizerContext,
        state: Dict[str, Any],
        plan: TreePlan,
        stages: Sequence[StageConfig],
        d_index: int,
        s_index: int,
        evaluator: _CandidateEvaluator,
    ) -> None:
        """Re-score the round bests with the next stage's metric when it
        differs, then carry the winner into the next stage."""
        flight = state["direction"]
        stage = stages[s_index]
        next_stage = stages[s_index + 1] if s_index + 1 < len(stages) else stage
        scored = list(flight["round_bests"])
        rescore_sims = 0
        if (next_stage.metric, next_stage.model) != (stage.metric, stage.model):
            rescorer = _CandidateEvaluator(
                ctx.case, plan, next_stage, ctx.config.problem,
                flight["fixed_pressure"],
            )
            with profiling.span(
                "optimize.rescore",
                d_index=d_index,
                stage=stage.name,
                candidates=len(scored),
            ):
                params_list = [params for params, _ in scored]
                scored = list(zip(params_list, rescorer.batch(params_list)))
            rescore_sims = rescorer.simulations
        scored.sort(key=lambda item: item[1])
        stage_sims = evaluator.simulations + flight["batch_evals"]
        flight["reports"].append(
            StageReport(
                stage=stage.name,
                round_best_costs=[cost for _, cost in flight["round_bests"]],
                selected_cost=scored[0][1],
                simulations=stage_sims,
                histories=list(flight["histories"]),
            )
        )
        runlog.emit_event(
            "stage.end",
            d_index=d_index,
            stage=stage.name,
            selected_cost=scored[0][1],
            simulations=stage_sims,
            rescore_sims=rescore_sims,
        )
        flight["sims"] += stage_sims + rescore_sims
        if stage.model == "4rm":
            state["high_sims"] += stage_sims
        flight["params"] = scored[0][0]
        _reset_stage(flight)

    def _end_direction(
        self,
        ctx: OptimizerContext,
        state: Dict[str, Any],
        plan: TreePlan,
        d_index: int,
    ) -> None:
        """The final 4RM evaluation of the direction's design."""
        flight = state["direction"]
        final_plan = plan.with_params(np.asarray(flight["params"]))
        network = final_plan.build()
        with profiling.span("optimize.final_eval", d_index=d_index):
            evaluation = evaluate_design(ctx.case, network, ctx.config.problem)
        result = OptimizationResult(
            plan=final_plan,
            network=network,
            evaluation=evaluation,
            direction=final_plan.direction,
            stage_reports=flight["reports"],
            total_simulations=flight["sims"] + evaluation.simulations,
        )
        runlog.emit_event(
            "direction.end",
            d_index=d_index,
            direction=int(final_plan.direction),
            score=evaluation.score,
            feasible=evaluation.feasible,
            simulations=result.total_simulations,
        )
        state["results"].append(result)
        state["direction"] = None

    @staticmethod
    def _simulations(state: Dict[str, Any]) -> Tuple[int, int]:
        """``(low, high)`` simulations of the finished stages so far: the
        4RM stages' count is high, everything else low."""
        total = sum(result.total_simulations for result in state["results"])
        if state["direction"] is not None:
            total += state["direction"]["sims"]
        return total - state["high_sims"], state["high_sims"]

    def finalize(
        self, ctx: OptimizerContext, state: Dict[str, Any]
    ) -> OptimizerOutcome:
        # min() keeps the earliest direction among equal scores.
        best = min(
            state["results"], key=lambda result: result.evaluation.score
        )
        low, high = self._simulations(state)
        flow = dataclasses.replace(best, total_simulations=low + high)
        return OptimizerOutcome(
            name=self.name,
            params=np.asarray(best.plan.params()),
            score=best.evaluation.score,
            evaluation=best.evaluation,
            low_evals=low,
            high_evals=high,
            rounds=list(state["rounds"]),
            flow=flow,
        )


def run_staged_flow(
    case: Case,
    stages: Sequence[StageConfig],
    problem: str,
    directions: Sequence[int] = (0,),
    seed: int = 0,
    leaves_per_tree: int = 4,
    n_workers: int = 1,
    batch_size: Optional[int] = None,
    initialization: str = "uniform",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    interrupt_check: Optional[Callable[[], bool]] = None,
) -> OptimizationResult:
    """Run the full staged SA flow and return the best design found.

    A ``staged_sa`` run of :func:`~repro.optimize.portfolio.run_portfolio`.

    Args:
        case: Benchmark case.
        stages: Stage schedule (see :mod:`~repro.optimize.stages`).
        problem: :data:`PROBLEM_PUMPING_POWER` or
            :data:`PROBLEM_THERMAL_GRADIENT`.
        directions: Global flow direction indices to attempt (the paper tries
            all eight and keeps the best).
        seed: Base RNG seed; directions, stages and rounds derive
            independent ``SeedSequence`` children (see :func:`_round_seed`).
        leaves_per_tree: Band size of the tree plan.
        n_workers: Worker processes for neighbor evaluation (the paper used
            64); 1 evaluates in-process.
        batch_size: Neighbors proposed and scored per SA iteration; defaults
            to ``n_workers`` when parallel, else 1 (classic single-neighbor
            SA).
        initialization: ``"uniform"`` (the paper's pre-search init) or
            ``"power_aware"`` (branch positions seeded from per-band power;
            see :func:`repro.networks.tree.power_aware_initialization`).
        checkpoint_dir: Directory for the crash-safe ``portfolio.ckpt``,
            written after every SA round; ``None`` disables checkpointing.
        resume: Restore the checkpoint in ``checkpoint_dir`` when one
            exists; a checkpoint from a different setup raises
            :class:`~repro.errors.CheckpointError`.  The resumed run's final
            result is bitwise identical to an uninterrupted run.
        interrupt_check: Polled after every round's checkpoint write;
            returning True stops the run with
            :class:`~repro.errors.RunInterrupted` *after* the state is
            flushed (the CLI supervisor wires its SIGINT/SIGTERM flag in
            here).
    """
    config = PortfolioConfig(
        problem=problem,
        seed=seed,
        leaves_per_tree=leaves_per_tree,
        n_workers=n_workers,
        stages=tuple(stages),
        directions=tuple(int(d) for d in directions),
        initialization=initialization,
        staged_batch=batch_size,
    )
    result = run_portfolio(
        case,
        (StagedSAOptimizer.name,),
        config,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        interrupt_check=interrupt_check,
    )
    return result.outcomes[StagedSAOptimizer.name].flow


def optimize_problem1(
    case: Case,
    stages: Optional[Sequence[StageConfig]] = None,
    directions: Sequence[int] = (0, 1),
    seed: int = 0,
    quick: bool = False,
    **options: Any,
) -> OptimizationResult:
    """Problem 1, pumping power minimization (Eq. 9): the staged flow with
    network evaluation by lowest feasible pumping power (Algorithm 2).

    ``stages`` defaults to the paper's Table 1 schedule, or its ``quick``
    laptop-scale variant; the paper tries all eight ``directions``.  The
    other keywords (``leaves_per_tree``, ``n_workers``, ``batch_size``,
    ``initialization``, ``checkpoint_dir``, ``resume``,
    ``interrupt_check``) are :func:`run_staged_flow`'s.
    """
    if stages is None:
        stages = problem1_stages(quick=quick)
    return run_staged_flow(
        case, stages, PROBLEM_PUMPING_POWER, directions=directions,
        seed=seed, **options,
    )


def optimize_problem2(
    case: Case,
    stages: Optional[Sequence[StageConfig]] = None,
    directions: Sequence[int] = (0, 1),
    seed: int = 0,
    quick: bool = False,
    **options: Any,
) -> OptimizationResult:
    """Problem 2, thermal gradient minimization (Eq. 12) under the case's
    pumping-power cap ``w_pump_star()`` (0.1% of die power, the Table 4
    setting): the staged flow with grouped evaluation and no fixed-pressure
    stage.  Arguments as in :func:`optimize_problem1`.
    """
    if stages is None:
        stages = problem2_stages(quick=quick)
    return run_staged_flow(
        case, stages, PROBLEM_THERMAL_GRADIENT, directions=directions,
        seed=seed, **options,
    )


class _BatchCost:
    """A caching batch evaluator over :func:`evaluate_population`.

    One instance per SA round.  Parallel dispatch goes through the process's
    shared worker pool (:func:`~repro.optimize.parallel.score_batch`):
    every batch of every stage, direction and strategy reuses the same warm
    workers, and each batch ships its stage context under a digest the
    workers unpickle once.
    """

    def __init__(
        self,
        case: Case,
        plan: TreePlan,
        stage: StageConfig,
        problem: str,
        fixed_pressure: Optional[float],
        n_workers: int,
    ):
        self.case = case
        self.plan = plan
        self.stage = stage
        self.problem = problem
        self.fixed_pressure = fixed_pressure
        self.n_workers = n_workers
        self.cache: Dict[bytes, float] = {}
        self.evals = 0

    def __call__(self, states: Sequence[np.ndarray]) -> List[float]:
        from .parallel import evaluate_population

        missing = []
        for state in states:
            key = np.asarray(state, dtype=int).tobytes()
            if key not in self.cache:
                missing.append((key, state))
        profiling.increment(
            "optimize.batch_cache_hits", len(states) - len(missing)
        )
        if missing:
            costs = evaluate_population(
                self.case,
                self.plan,
                self.stage,
                self.problem,
                [state for _, state in missing],
                fixed_pressure=self.fixed_pressure,
                n_workers=self.n_workers,
            )
            for (key, _), cost in zip(missing, costs):
                self.cache[key] = cost
            self.evals += len(missing)
        return [
            self.cache[np.asarray(s, dtype=int).tobytes()] for s in states
        ]
