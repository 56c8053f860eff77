"""Multi-fidelity optimizer portfolio: 2RM-as-surrogate search strategies.

This module races a *portfolio* of strategies over the tree-parameter
search space.  The portfolio-native ones share one idea: search with cheap
2RM surrogate scores (fidelity ``"low"``), promote elite candidates to the
4RM reference (fidelity ``"high"``), and correct the surrogate with a fitted
per-case offset model that recalibrates as promotions accumulate.

Strategies (see :mod:`repro.optimize.registry`):

* ``multi_fidelity`` -- batched SA on 2RM scores; after every round the
  elite candidates of the round's scored batches are promoted to 4RM and
  the offset model refits.
* ``sa_4rm`` -- the pure-4RM comparator: the same annealer as
  ``multi_fidelity`` but every candidate pays a reference evaluation.  The
  ``--bench portfolio`` speedup/quality envelope is measured against it.
* ``staged_sa`` -- the paper's staged flow (Algorithm 1), one round per
  (direction, stage, SA round); see :mod:`repro.optimize.runner`.

All three anneal with the one loop, :func:`~repro.optimize.annealing.anneal`.

Orchestration (:func:`run_portfolio`) is the one search engine of the
package: every optimizer advances one round at a time, emits a comparable
``portfolio.round`` / ``round.end`` event pair, and checkpoints at round
boundaries -- ``resume=True`` restores the exact RNG bit-generator states,
memo caches, and offset-model pairs, so a resumed portfolio run is bitwise
identical to an uninterrupted one.  With ``run_log_dir`` set, each
optimizer writes its own JSONL run log, so two strategies (or two whole
runs) are directly comparable via ``python -m repro.telemetry report
A.jsonl --compare B.jsonl``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from .. import profiling
from ..checkpoint import CheckpointError, fingerprint_of, read_checkpoint, write_checkpoint
from ..cooling.evaluation import EvaluationResult
from ..errors import (
    DesignRuleError,
    FlowError,
    GeometryError,
    RunInterrupted,
    SearchError,
    ThermalError,
)
from ..iccad2015.cases import Case
from ..networks.tree import TreePlan
from ..telemetry import runlog
from .annealing import BatchCost, Chain, SAConfig, anneal, warm_up_first_batch
from .moves import perturb_tree_params
from .parallel import evaluate_population, score_batch, shutdown_degraded_pool
from .registry import DEFAULT_PORTFOLIO, get_optimizer, register_optimizer
from .stages import (
    METRIC_LOWEST_FEASIBLE_POWER,
    METRIC_MIN_GRADIENT_CAPPED,
    PROBLEM_PUMPING_POWER,
    PROBLEM_THERMAL_GRADIENT,
    StageConfig,
    evaluate_design,
)

#: Checkpoint file name inside ``checkpoint_dir``.
PORTFOLIO_CHECKPOINT = "portfolio.ckpt"

#: The annealing chains' move magnitude in columns, their geometric
#: temperature decay per iteration, and the elites ``multi_fidelity``
#: promotes per round.
STEP = 4
COOLING_RATE = 0.92
ELITE = 2


# ---------------------------------------------------------------------------
# Offset model
# ---------------------------------------------------------------------------


@dataclass
class OffsetModel:
    """Fitted correction from 2RM surrogate scores to 4RM reference scores.

    Scores (pumping power for Problem 1, gradient for Problem 2) relate
    *multiplicatively* between the models -- W_pump spans orders of
    magnitude across candidates while the 2RM/4RM ratio stays nearly
    constant per case -- so the model fits an additive offset on
    rise-normalized log scores ``z = ln(score / scale)`` where ``scale`` is
    the case's characteristic score magnitude (``W_pump*`` or ``DeltaT*``).
    The fitted offset is the mean residual ``z_high - z_low`` over every
    (surrogate, reference) pair observed so far; it recalibrates on each
    promotion.  :meth:`tolerance` is the calibrated agreement envelope: two
    sigma of the residual dispersion, floored so an undersampled model never
    claims impossible precision.
    """

    #: Case score scale used to normalize (dimensionless residuals).
    scale: float
    #: Minimum log-space tolerance (also returned before 2 pairs exist).
    #: Calibrated against the generator distribution: per-case held-out
    #: log residuals deviate up to ~0.5 from the fitted offset even when
    #: the training residuals are tight (the 2RM/4RM ratio drifts with the
    #: pressure regime across a candidate pool).
    min_tolerance: float = 0.5
    #: Observed ``(z_low, z_high)`` pairs.
    pairs: List[Tuple[float, float]] = field(default_factory=list)

    def _z(self, score: float) -> float:
        return math.log(max(score, 1e-30 * self.scale) / self.scale)

    def observe(self, low_score: float, high_score: float) -> None:
        """Record one promotion's (surrogate, reference) score pair."""
        if not (math.isfinite(low_score) and math.isfinite(high_score)):
            return
        if low_score <= 0.0 or high_score <= 0.0:
            return
        self.pairs.append((self._z(low_score), self._z(high_score)))

    @property
    def n_pairs(self) -> int:
        """Number of calibration pairs observed."""
        return len(self.pairs)

    @property
    def log_offset(self) -> float:
        """The fitted log-space offset (0 before any pair is observed)."""
        if not self.pairs:
            return 0.0
        return float(np.mean([zh - zl for zl, zh in self.pairs]))

    def correct(self, low_score: float) -> float:
        """The 2RM score corrected toward the 4RM scale."""
        if not math.isfinite(low_score) or low_score <= 0.0:
            return low_score
        return low_score * math.exp(self.log_offset)

    def tolerance(self) -> float:
        """Calibrated agreement envelope on log scores (two sigma, floored)."""
        if len(self.pairs) < 2:
            return max(self.min_tolerance, 0.5)
        residuals = [zh - zl for zl, zh in self.pairs]
        return max(2.0 * float(np.std(residuals)), self.min_tolerance)

    def agrees(self, corrected: float, reference: float) -> bool:
        """Whether a corrected surrogate score matches a reference score
        within the calibrated envelope."""
        if math.isinf(corrected) or math.isinf(reference):
            return math.isinf(corrected) and math.isinf(reference)
        if corrected <= 0.0 or reference <= 0.0:
            return corrected == reference
        return abs(math.log(corrected / reference)) <= self.tolerance()

    def state(self) -> Dict[str, Any]:
        """Checkpointable snapshot."""
        return {
            "scale": self.scale,
            "min_tolerance": self.min_tolerance,
            "pairs": list(self.pairs),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state` snapshot."""
        self.scale = state["scale"]
        self.min_tolerance = state["min_tolerance"]
        self.pairs = list(state["pairs"])


# ---------------------------------------------------------------------------
# Multi-fidelity evaluator
# ---------------------------------------------------------------------------


def _infeasible_high() -> EvaluationResult:
    return EvaluationResult(
        score=math.inf,
        feasible=False,
        p_sys=0.0,
        w_pump=math.inf,
        t_max=math.inf,
        delta_t=math.inf,
        simulations=0,
        fidelity="high",
    )


def _evaluate_high(
    context: "ReferenceContext", base_stack: Any, params: np.ndarray
) -> EvaluationResult:
    """The 4RM reference evaluation of one candidate (illegal or infeasible
    networks score :func:`_infeasible_high`)."""
    try:
        grid = context.plan.with_params(np.asarray(params, dtype=int)).build()
        return evaluate_design(
            context.case, grid, context.problem, base_stack=base_stack
        )
    except (DesignRuleError, FlowError, GeometryError, SearchError,
            ThermalError):
        return _infeasible_high()


class ReferenceContext(NamedTuple):
    """The 4RM reference evaluation of a case's tree plan, as an evaluation
    context the shared worker pool can run
    (:func:`~repro.optimize.parallel.score_on_pool`)."""

    case: Case
    plan: TreePlan
    problem: str

    #: Every candidate is evaluated on its own.
    shares_group_state = False

    def scorer(self) -> Callable[[np.ndarray], EvaluationResult]:
        """Parameter vector -> reference :class:`EvaluationResult`."""
        return functools.partial(_evaluate_high, self, self.case.base_stack())

    @staticmethod
    def infeasible() -> EvaluationResult:
        """The result of a candidate a worker-site fault made infeasible."""
        return _infeasible_high()


class MultiFidelityEvaluator:
    """Fidelity-tagged candidate scoring with memoization and calibration.

    ``low`` scores come from the 2RM surrogate through
    :func:`~repro.optimize.parallel.evaluate_population`; ``high`` scores
    run the full 4RM reference evaluation (:class:`ReferenceContext`).
    Each batch's memo misses are one dispatch
    (:func:`~repro.optimize.parallel.score_batch`): to the process's shared
    worker pool with ``n_workers > 1``, else in-process.  Promotions feed the
    :class:`OffsetModel` so :meth:`corrected` drifts toward the reference
    scale as evidence accumulates.  ``low_evals`` / ``high_evals`` count
    *distinct candidate evaluations* per fidelity (memo hits are free),
    which is what the ``--bench portfolio`` 4RM-evaluation budget compares.
    """

    def __init__(
        self,
        case: Case,
        plan: TreePlan,
        problem: str,
        tile_size: int = 4,
        n_workers: int = 1,
    ):
        if problem not in (PROBLEM_PUMPING_POWER, PROBLEM_THERMAL_GRADIENT):
            raise SearchError(f"unknown problem {problem!r}")
        self.case = case
        self.plan = plan
        self.problem = problem
        self.n_workers = n_workers
        metric = (
            METRIC_LOWEST_FEASIBLE_POWER
            if problem == PROBLEM_PUMPING_POWER
            else METRIC_MIN_GRADIENT_CAPPED
        )
        self.low_stage = StageConfig(
            "portfolio-low", 1, 1, 1, metric, "2rm", tile_size
        )
        self.offset = OffsetModel(scale=self._case_scale(case, problem))
        self.low_evals = 0
        self.high_evals = 0
        self._low_cache: Dict[bytes, float] = {}
        self._high_cache: Dict[bytes, EvaluationResult] = {}
        self._reference = ReferenceContext(case, plan, problem)

    @staticmethod
    def _case_scale(case: Case, problem: str) -> float:
        if problem == PROBLEM_PUMPING_POWER:
            return max(case.w_pump_star(), 1e-12)
        return max(case.delta_t_star, 1e-12)

    @staticmethod
    def _key(params: np.ndarray) -> bytes:
        return np.asarray(params, dtype=int).tobytes()

    @classmethod
    def _misses(
        cls, params_list: Sequence[np.ndarray], cache: Dict[bytes, Any]
    ) -> List[Tuple[bytes, np.ndarray]]:
        """The distinct candidates of a batch ``cache`` lacks, in order."""
        missing: List[Tuple[bytes, np.ndarray]] = []
        seen = set()
        for params in params_list:
            key = cls._key(params)
            if key not in cache and key not in seen:
                seen.add(key)
                missing.append((key, np.asarray(params, dtype=int)))
        return missing

    def _memoized(
        self,
        params_list: Sequence[np.ndarray],
        cache: Dict[bytes, Any],
        score: Callable[[List[np.ndarray]], List[Any]],
        counter: str,
    ) -> List[Any]:
        """A batch's results through ``cache``: the distinct misses are
        scored as one ``score`` batch, memoized, and counted into the
        ``counter`` attribute (``low_evals`` or ``high_evals``) and its
        ``portfolio.*`` profiling counter."""
        missing = self._misses(params_list, cache)
        if missing:
            results = score([params for _, params in missing])
            for (key, _), result in zip(missing, results):
                cache[key] = result
            setattr(self, counter, getattr(self, counter) + len(missing))
            profiling.increment(f"portfolio.{counter}", len(missing))
        return [cache[self._key(p)] for p in params_list]

    # -- low fidelity ---------------------------------------------------

    def low_batch(self, params_list: Sequence[np.ndarray]) -> List[float]:
        """Surrogate scores for a batch (one dispatch for the misses)."""

        def score(batch: List[np.ndarray]) -> List[float]:
            return evaluate_population(
                self.case, self.plan, self.low_stage, self.problem, batch,
                n_workers=self.n_workers,
            )

        return self._memoized(params_list, self._low_cache, score, "low_evals")

    def low(self, params: np.ndarray) -> float:
        """Surrogate score of one candidate."""
        return self.low_batch([params])[0]

    def corrected(self, low_score: float) -> float:
        """The offset-corrected surrogate score (reference scale)."""
        return self.offset.correct(low_score)

    # -- high fidelity --------------------------------------------------

    def high_batch(
        self, params_list: Sequence[np.ndarray]
    ) -> List[EvaluationResult]:
        """Reference (4RM) evaluations of a batch, memoized.

        The memo misses run as one dispatch, in batch order.  Counts toward
        ``high_evals`` but does *not* calibrate the offset model -- this is
        the pure-4RM path (``sa_4rm``) and the scoring half of
        :meth:`promote`.
        """
        return self._memoized(
            params_list,
            self._high_cache,
            functools.partial(
                score_batch, self._reference, n_workers=self.n_workers
            ),
            "high_evals",
        )

    def high_evaluation(self, params: np.ndarray) -> EvaluationResult:
        """The reference (4RM) evaluation of one candidate (see
        :meth:`high_batch`)."""
        return self.high_batch([params])[0]

    def promote(
        self, params_list: Sequence[np.ndarray]
    ) -> List[EvaluationResult]:
        """Verify elite candidates at the reference fidelity, as one batch.

        Candidates without a memoized reference evaluation are scored at
        both fidelities (the 4RM ones as one :meth:`high_batch`); then, in
        batch order, each one's (surrogate, reference) pair feeds the
        offset model and emits a ``portfolio.promotion`` run event.
        Candidates promoted before observe nothing new.
        """
        fresh = [
            params for _, params in self._misses(params_list, self._high_cache)
        ]
        if fresh:
            low_scores = self.low_batch(fresh)
            with profiling.span("portfolio.promote", candidates=len(fresh)):
                evaluations = self.high_batch(fresh)
            for low_score, evaluation in zip(low_scores, evaluations):
                self.offset.observe(low_score, evaluation.score)
                profiling.increment("portfolio.promotions")
                runlog.emit_event(
                    "portfolio.promotion",
                    low_score=low_score,
                    high_score=evaluation.score,
                    corrected=self.corrected(low_score),
                    offset=self.offset.log_offset,
                    pairs=self.offset.n_pairs,
                )
        return [self._high_cache[self._key(p)] for p in params_list]

    # -- checkpointing --------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """Checkpointable snapshot of caches, counters, and calibration."""
        return {
            "low_cache": dict(self._low_cache),
            "high_cache": dict(self._high_cache),
            "low_evals": self.low_evals,
            "high_evals": self.high_evals,
            "offset": self.offset.state(),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state` snapshot (bitwise resume support)."""
        self._low_cache = dict(state["low_cache"])
        self._high_cache = dict(state["high_cache"])
        self.low_evals = state["low_evals"]
        self.high_evals = state["high_evals"]
        self.offset.restore(state["offset"])


# ---------------------------------------------------------------------------
# Portfolio configuration / results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortfolioConfig:
    """Shared knobs of one portfolio run (fingerprinted for checkpoints)."""

    problem: str = PROBLEM_PUMPING_POWER
    rounds: int = 3
    iterations: int = 8
    batch_size: int = 4
    tile_size: int = 4
    leaves_per_tree: int = 4
    direction: int = 0
    seed: int = 0
    n_workers: int = 1
    #: ``staged_sa`` only: the stage schedule (``None``: the quick Table-1
    #: schedule of ``problem`` at ``tile_size``), the global flow
    #: directions tried (``None``: just ``direction``), the tree-parameter
    #: initialization (``"uniform"`` or ``"power_aware"``), and the
    #: neighbours scored per SA iteration (``None``: ``n_workers`` when
    #: parallel, else 1 -- classic single-neighbour SA).
    stages: Optional[Tuple[StageConfig, ...]] = None
    directions: Optional[Tuple[int, ...]] = None
    initialization: str = "uniform"
    staged_batch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.problem not in (PROBLEM_PUMPING_POWER, PROBLEM_THERMAL_GRADIENT):
            raise SearchError(f"unknown problem {self.problem!r}")
        if min(self.rounds, self.iterations, self.batch_size) < 1:
            raise SearchError("portfolio config values must be >= 1")
        if self.stages is not None and not self.stages:
            raise SearchError("need at least one stage")
        if self.directions is not None and not self.directions:
            raise SearchError("need at least one direction")
        if self.initialization not in ("uniform", "power_aware"):
            raise SearchError(
                f"unknown initialization {self.initialization!r}; "
                "use 'uniform' or 'power_aware'"
            )
        if self.staged_batch is not None and self.staged_batch < 1:
            raise SearchError("staged_batch must be >= 1")

    def fingerprint_fields(self) -> Tuple[Any, ...]:
        return (
            self.problem, self.rounds, self.iterations, self.batch_size,
            STEP, COOLING_RATE, ELITE, self.tile_size,
            self.leaves_per_tree, self.direction, self.seed,
        )


@dataclass
class OptimizerOutcome:
    """What one portfolio strategy produced.

    ``low_evals`` / ``high_evals`` are distinct candidate evaluations per
    fidelity (``staged_sa`` counts the thermal simulations of its 2RM and
    4RM work instead, as its :class:`~repro.optimize.runner.StageReport`
    does).  ``envelope`` is the offset model's calibrated log-space
    tolerance at the end of the run (``None`` when the strategy never
    calibrated).  ``flow`` is the staged flow's full
    :class:`~repro.optimize.runner.OptimizationResult` (winning plan,
    direction, stage reports); ``None`` for the other strategies.
    """

    name: str
    params: np.ndarray
    score: float
    evaluation: EvaluationResult
    low_evals: int
    high_evals: int
    rounds: List[Dict[str, Any]]
    envelope: Optional[float] = None
    offset_state: Optional[Dict[str, Any]] = None
    flow: Optional[Any] = None


@dataclass
class PortfolioResult:
    """Outcome of one full portfolio run."""

    case_number: int
    problem: str
    outcomes: Dict[str, OptimizerOutcome]

    @property
    def best(self) -> OptimizerOutcome:
        """The winning strategy (lowest verified score; name breaks ties)."""
        if not self.outcomes:
            raise SearchError("portfolio produced no outcomes")
        return min(
            self.outcomes.values(), key=lambda o: (o.score, o.name)
        )


class OptimizerContext:
    """Per-strategy execution context handed to every round."""

    def __init__(self, case: Case, config: PortfolioConfig, spawn: int):
        self.case = case
        self.config = config
        self.spawn = spawn
        self.plan = case.tree_plan(
            direction=config.direction, leaves_per_tree=config.leaves_per_tree
        )
        self.evaluator = MultiFidelityEvaluator(
            case,
            self.plan,
            config.problem,
            tile_size=config.tile_size,
            n_workers=config.n_workers,
        )

    def seed_seq(self, *key: int) -> np.random.SeedSequence:
        """An independent child stream for this strategy (spawn-keyed)."""
        return np.random.SeedSequence(
            self.config.seed, spawn_key=(self.spawn,) + key
        )

    def neighbor(
        self, params: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The paper's tree move, clamped to the plan's legal range."""
        return self.plan.clamp_params(
            perturb_tree_params(params, STEP, rng)
        )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class RoundOptimizer:
    """Base class: a strategy advanced one resumable round at a time.

    Contract: ``init_state`` builds a fully picklable state dict (including
    RNG bit-generator states and the evaluator snapshot); ``run_round``
    restores the evaluator from the state, advances exactly one round, and
    writes everything back; ``finalize`` turns the state into an
    :class:`OptimizerOutcome`.  Because every round is a pure function of
    the state dict, a checkpointed state resumes bitwise.
    """

    name = "base"

    def n_rounds(self, config: PortfolioConfig) -> int:
        """Rounds this strategy runs under ``config``."""
        return config.rounds

    def fingerprint(self, config: PortfolioConfig) -> Tuple[Any, ...]:
        """Settings beyond :meth:`PortfolioConfig.fingerprint_fields` that
        shape this strategy's trajectory (checkpoint fingerprint)."""
        return ()

    def init_state(self, ctx: OptimizerContext) -> Dict[str, Any]:
        raise NotImplementedError

    def run_round(
        self, ctx: OptimizerContext, state: Dict[str, Any], round_i: int
    ) -> None:
        raise NotImplementedError

    def finalize(
        self, ctx: OptimizerContext, state: Dict[str, Any]
    ) -> OptimizerOutcome:
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------

    def _verify(
        self,
        ctx: OptimizerContext,
        state: Dict[str, Any],
        params_list: Sequence[np.ndarray],
    ) -> None:
        """Promote ``params_list`` as one batch; keep the best verified
        candidate in state (the earliest among equal scores)."""
        evaluations = ctx.evaluator.promote(params_list)
        for params, evaluation in zip(params_list, evaluations):
            verified = state.get("verified")
            if verified is None or evaluation.score < verified[1].score:
                state["verified"] = (np.asarray(params), evaluation)

    def _finalize_verified(
        self, ctx: OptimizerContext, state: Dict[str, Any]
    ) -> OptimizerOutcome:
        ctx.evaluator.restore(state["evaluator"])
        if state.get("verified") is None:
            self._verify(ctx, state, [np.asarray(state["best"])])
            state["evaluator"] = ctx.evaluator.state()
        params, evaluation = state["verified"]
        return OptimizerOutcome(
            name=self.name,
            params=np.asarray(params),
            score=evaluation.score,
            evaluation=evaluation,
            low_evals=ctx.evaluator.low_evals,
            high_evals=ctx.evaluator.high_evals,
            rounds=list(state["rounds"]),
            envelope=ctx.evaluator.offset.tolerance(),
            offset_state=ctx.evaluator.offset.state(),
        )


class _ChainOptimizer(RoundOptimizer):
    """One annealing chain from the plan's parameters, advanced by one
    :func:`~repro.optimize.annealing.anneal` call per round; the state dict
    holds the chain's :meth:`~repro.optimize.annealing.Chain.state` keys."""

    def _cost(self, ctx: OptimizerContext) -> BatchCost:
        """The batch cost the chain anneals on."""
        raise NotImplementedError

    @staticmethod
    def _schedule(ctx: OptimizerContext) -> SAConfig:
        return SAConfig(
            iterations=ctx.config.iterations,
            cooling_rate=COOLING_RATE,
            seed=ctx.seed_seq(0),
        )

    def init_state(self, ctx: OptimizerContext) -> Dict[str, Any]:
        chain = Chain.start(
            ctx.plan.params(), self._cost(ctx), self._schedule(ctx)
        )
        return dict(
            chain.state(),
            round=0,
            verified=None,
            rounds=[],
            evaluator=ctx.evaluator.state(),
        )

    def _anneal(
        self, ctx: OptimizerContext, state: Dict[str, Any], cost: BatchCost
    ) -> None:
        """One round of the one loop over the state's chain."""
        chain = Chain.restore(state)
        anneal(
            chain, cost, ctx.neighbor, self._schedule(ctx),
            ctx.config.batch_size, warm_up=warm_up_first_batch,
        )
        state.update(chain.state())


@register_optimizer(
    "multi_fidelity",
    "batched SA on 2RM scores with per-round elite 4RM promotion",
)
class MultiFidelityOptimizer(_ChainOptimizer):
    """The tentpole strategy: search low, verify high, correct the gap.

    The additive log-offset cannot change the *ranking* of surrogate
    scores, so the annealer runs on raw 2RM costs; the correction matters
    at the fidelity boundary -- picking which elites to promote against the
    verified incumbent, and reporting scores on the reference scale.
    """

    name = "multi_fidelity"

    def _cost(self, ctx: OptimizerContext) -> BatchCost:
        return ctx.evaluator.low_batch

    def run_round(
        self, ctx: OptimizerContext, state: Dict[str, Any], round_i: int
    ) -> None:
        ctx.evaluator.restore(state["evaluator"])
        pool: List[Tuple[np.ndarray, float]] = []

        def scored(batch: List[np.ndarray]) -> List[float]:
            costs = ctx.evaluator.low_batch(batch)
            pool.extend(zip(batch, costs))
            return costs

        self._anneal(ctx, state, scored)
        pool.append((np.asarray(state["best"]), state["best_cost"]))
        elites = _elite_candidates(pool, ELITE)
        self._verify(ctx, state, [params for params, _ in elites])
        state["rounds"].append(
            {
                "round": round_i,
                "best_low": state["best_cost"],
                "best_corrected": ctx.evaluator.corrected(state["best_cost"]),
                "verified": (
                    state["verified"][1].score
                    if state["verified"] is not None
                    else math.inf
                ),
                "promotions": len(elites),
                "low_evals": ctx.evaluator.low_evals,
                "high_evals": ctx.evaluator.high_evals,
            }
        )
        state["evaluator"] = ctx.evaluator.state()

    def finalize(
        self, ctx: OptimizerContext, state: Dict[str, Any]
    ) -> OptimizerOutcome:
        return self._finalize_verified(ctx, state)


@register_optimizer(
    "sa_4rm",
    "pure-4RM batched SA: the reference-budget comparator",
)
class Pure4RMOptimizer(_ChainOptimizer):
    """Identical annealer to ``multi_fidelity`` but every candidate pays a
    4RM reference evaluation -- the baseline that defines the portfolio
    bench's "2x fewer 4RM evaluations" criterion."""

    name = "sa_4rm"

    def _cost(self, ctx: OptimizerContext) -> BatchCost:
        def high_batch(batch: Sequence[np.ndarray]) -> List[float]:
            return [e.score for e in ctx.evaluator.high_batch(batch)]

        return high_batch

    def run_round(
        self, ctx: OptimizerContext, state: Dict[str, Any], round_i: int
    ) -> None:
        ctx.evaluator.restore(state["evaluator"])
        self._anneal(ctx, state, self._cost(ctx))
        state["verified"] = (
            np.asarray(state["best"]),
            ctx.evaluator.high_evaluation(np.asarray(state["best"])),
        )
        state["rounds"].append(
            {
                "round": round_i,
                "best_low": math.nan,
                "best_corrected": state["best_cost"],
                "verified": state["best_cost"],
                "promotions": 0,
                "low_evals": ctx.evaluator.low_evals,
                "high_evals": ctx.evaluator.high_evals,
            }
        )
        state["evaluator"] = ctx.evaluator.state()

    def finalize(
        self, ctx: OptimizerContext, state: Dict[str, Any]
    ) -> OptimizerOutcome:
        outcome = self._finalize_verified(ctx, state)
        outcome.envelope = None
        outcome.offset_state = None
        return outcome


def _elite_candidates(
    pool: Sequence[Tuple[np.ndarray, float]], elite: int
) -> List[Tuple[np.ndarray, float]]:
    """The ``elite`` best distinct finite-cost candidates of one round."""
    seen: Dict[bytes, Tuple[np.ndarray, float]] = {}
    for params, cost in pool:
        if not math.isfinite(cost):
            continue
        key = np.asarray(params, dtype=int).tobytes()
        if key not in seen or cost < seen[key][1]:
            seen[key] = (np.asarray(params), cost)
    ranked = sorted(seen.values(), key=lambda item: (item[1], item[0].tobytes()))
    return ranked[:elite]


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _portfolio_fingerprint(
    case: Case,
    optimizers: Sequence[RoundOptimizer],
    config: PortfolioConfig,
) -> str:
    return fingerprint_of(
        case=(case.number, case.nrows, case.ncols, case.cell_width),
        optimizers=tuple(optimizer.name for optimizer in optimizers),
        config=config.fingerprint_fields(),
        strategies=tuple(
            optimizer.fingerprint(config) for optimizer in optimizers
        ),
    )


def _read_payload(path: Path, fingerprint: str) -> Dict[str, Any]:
    """A validated ``portfolio.ckpt`` payload."""
    payload = read_checkpoint(path, fingerprint)
    if not isinstance(payload, dict) or set(payload) != {
        "completed", "active", "active_state",
    }:
        raise CheckpointError(f"{path}: payload is not a portfolio checkpoint")
    return payload


def run_portfolio(
    case: Case,
    optimizers: Sequence[str] = DEFAULT_PORTFOLIO,
    config: Optional[PortfolioConfig] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    run_log_dir: Optional[str] = None,
    interrupt_check: Optional[Callable[[], bool]] = None,
    progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> PortfolioResult:
    """Race a portfolio of registered optimizers on one case.

    Args:
        case: Benchmark case (Table 2 or :mod:`repro.cases`-generated).
        optimizers: Registry names to run, in order.
        config: Shared :class:`PortfolioConfig`; defaults are test-scale.
        checkpoint_dir: Persist a crash-safe checkpoint at every optimizer
            round boundary; ``None`` disables.
        resume: Restore the checkpoint in ``checkpoint_dir`` (missing file
            starts fresh; a mismatching fingerprint raises
            :class:`~repro.errors.CheckpointError`).  The resumed run's
            outcomes are bitwise identical to an uninterrupted run.
        run_log_dir: Write one JSONL run log per optimizer into this
            directory (``<name>.jsonl``) with standard ``run.start`` /
            ``round.end`` / ``run.end`` records plus the ``portfolio.*``
            event family, so strategies compare directly via
            ``python -m repro.telemetry report A.jsonl --compare B.jsonl``.
        interrupt_check: Polled after every round-boundary checkpoint
            write; once it returns true the run stops with
            :class:`~repro.errors.RunInterrupted` -- *after* the state that
            makes a bitwise resume possible reached disk.  Requires
            ``checkpoint_dir`` (a stop without a checkpoint would discard
            work instead of deferring it).
        progress: Receives ``(event_type, fields)`` at the run's milestone
            events (optimizer start/end, each round, run end) in addition
            to -- and with the same payloads as -- the run-log records.
            The design service points this at the job's event log so live
            ``follow=1`` streams see round/score progress; a separate
            callback (rather than a shared run log) keeps concurrent jobs'
            streams from interleaving.
    """
    config = config or PortfolioConfig()
    if not optimizers:
        raise SearchError("portfolio needs at least one optimizer")
    if interrupt_check is not None and checkpoint_dir is None:
        raise CheckpointError("interrupt_check needs checkpoint_dir")
    strategies = [get_optimizer(name).factory() for name in optimizers]
    fingerprint = _portfolio_fingerprint(case, strategies, config)

    checkpoint_path: Optional[Path] = None
    payload: Dict[str, Any] = {"completed": {}, "active": None,
                               "active_state": None}
    if checkpoint_dir is not None:
        checkpoint_path = Path(checkpoint_dir) / PORTFOLIO_CHECKPOINT
        if resume and checkpoint_path.exists():
            payload = _read_payload(checkpoint_path, fingerprint)
            profiling.increment("checkpoint.resumes")
            active_state = payload["active_state"]
            runlog.emit_event(
                "checkpoint.resume",
                fingerprint=fingerprint,
                completed=sorted(payload["completed"]),
                active=payload["active"],
                round=None if active_state is None else active_state["round"],
            )
    elif resume:
        raise CheckpointError("resume=True needs checkpoint_dir")

    def save() -> None:
        if checkpoint_path is not None:
            with profiling.span("checkpoint.save"):
                write_checkpoint(checkpoint_path, payload, fingerprint)

    def stop_point(where: str) -> None:
        # Only ever called right after save(): the interrupt defers the
        # remaining work to a later --resume, it never discards any.
        if interrupt_check is not None and interrupt_check():
            raise RunInterrupted(
                f"portfolio stopped at {where}; resume from "
                f"{checkpoint_path}",
                checkpoint_path=str(checkpoint_path),
            )

    def report(event_type: str, **fields: Any) -> None:
        """A milestone: one run-log record and one ``progress`` call."""
        runlog.emit_event(event_type, **fields)
        if progress is not None:
            progress(event_type, fields)

    # A pool that degraded to serial during this job is not handed to the
    # next one.
    try:
        outcomes: Dict[str, OptimizerOutcome] = dict(payload["completed"])
        for spawn, optimizer in enumerate(strategies):
            name = optimizer.name
            if name in outcomes:
                continue
            ctx = OptimizerContext(case, config, spawn)
            n_rounds = optimizer.n_rounds(config)
            log = (
                runlog.RunLog(str(Path(run_log_dir) / f"{name}.jsonl"))
                if run_log_dir is not None
                else None
            )
            previous_log = runlog.set_run_log(log) if log is not None else None
            started = runlog.Stopwatch()
            try:
                runlog.emit_event(
                    "run.start",
                    problem=config.problem,
                    case_number=case.number,
                    grid_size=case.nrows,
                    seed=config.seed,
                    n_workers=config.n_workers,
                    batch_size=config.batch_size,
                    optimizer=name,
                    fingerprint=fingerprint,
                )
                report(
                    "portfolio.optimizer.start",
                    optimizer=name,
                    rounds=n_rounds,
                    iterations=config.iterations,
                )
                with profiling.span("portfolio.optimizer", optimizer=name):
                    if (
                        payload["active"] == name
                        and payload["active_state"] is not None
                    ):
                        state = payload["active_state"]
                    else:
                        state = optimizer.init_state(ctx)
                        payload["active"] = name
                        payload["active_state"] = state
                        save()
                    for round_i in range(state["round"], n_rounds):
                        optimizer.run_round(ctx, state, round_i)
                        state["round"] = round_i + 1
                        record = state["rounds"][-1] if state["rounds"] else {}
                        report(
                            "portfolio.round", optimizer=name, **record
                        )
                        round_end: Dict[str, Any] = {
                            "d_index": 0,
                            "stage": name,
                            "best_cost": record.get("verified", math.inf),
                            "accepted": 0,
                            "proposed": record.get("low_evals", 0)
                            + record.get("high_evals", 0),
                            "acceptance_rate": 0.0,
                            "iterations": config.iterations,
                        }
                        # Strategies that track SA acceptance (staged_sa)
                        # report their own values.
                        round_end.update(
                            (key, record[key])
                            for key in round_end
                            if key in record
                        )
                        runlog.emit_event(
                            "round.end", round=round_i, **round_end
                        )
                        save()
                        if round_i + 1 < n_rounds:
                            stop_point(
                                f"{name} round {round_i + 1}/{n_rounds}"
                            )
                    outcome = optimizer.finalize(ctx, state)
                outcomes[name] = outcome
                payload["completed"] = dict(outcomes)
                payload["active"] = None
                payload["active_state"] = None
                save()
                report(
                    "portfolio.optimizer.end",
                    optimizer=name,
                    score=outcome.score,
                    feasible=outcome.evaluation.feasible,
                    low_evals=outcome.low_evals,
                    high_evals=outcome.high_evals,
                )
                runlog.emit_event(
                    "run.end",
                    score=outcome.score,
                    feasible=outcome.evaluation.feasible,
                    total_simulations=outcome.low_evals + outcome.high_evals,
                    seconds=started.elapsed(),
                    histograms=profiling.histogram_summaries(),
                )
                if progress is not None:
                    progress(
                        "run.end",
                        dict(
                            optimizer=name,
                            score=outcome.score,
                            feasible=outcome.evaluation.feasible,
                            total_simulations=outcome.low_evals
                            + outcome.high_evals,
                            seconds=started.elapsed(),
                        ),
                    )
            finally:
                if log is not None:
                    runlog.set_run_log(previous_log)
            if len(outcomes) < len(strategies):
                stop_point(f"completion of {name}")
    finally:
        shutdown_degraded_pool()
    return PortfolioResult(
        case_number=case.number,
        problem=config.problem,
        outcomes=outcomes,
    )
