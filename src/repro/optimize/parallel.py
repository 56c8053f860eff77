"""Parallel candidate evaluation (the paper's 64-way neighbor evaluation).

The paper's server evaluates 64 neighboring network solutions simultaneously
in each SA iteration.  :func:`evaluate_population` reproduces that pattern:
score a batch of tree-parameter vectors, optionally across worker processes.

One worker pool per process serves every stage and both fidelities.
:func:`score_on_pool` dispatches to a single module-level
:class:`PersistentEvaluationPool`, keyed only by its worker count and the
fault plan, telemetry configuration and solver configuration its workers were
armed with; when any of them changes, the old pool is closed and a new one
started.  Workers are stage-agnostic: each batch carries its *evaluation
context* -- a picklable object with ``scorer()`` and ``infeasible()``, such
as :class:`StageContext` (a staged-flow stage metric) or the portfolio's 4RM
:class:`~repro.optimize.portfolio.ReferenceContext` -- pickled once per batch
and named by the sha256 of those bytes.  A worker unpickles a digest it has
not seen once and keeps the built scorer in a small LRU
(:data:`CONTEXT_SLOTS`), so staged-SA stages, directions, portfolio
strategies and whole jobs reuse the same warm workers, and each worker's
:class:`~repro.optimize.runner._CandidateEvaluator` keeps its per-params
cost cache while its context stays in the LRU.

Error discipline (shared by the serial and parallel paths): a
:class:`~repro.errors.ReproError` means the candidate network is illegal or
infeasible and scores ``inf``; any other exception is a genuine bug and
surfaces as :class:`CandidateCrashError` carrying the offending parameters.
The ``parallel.infeasible`` / ``parallel.crashed`` profiling counters keep
the two populations distinguishable.

The grouped Problem-2 metric is inherently sequential (later candidates
re-use the group leader's optimal pressure), so it always evaluates serially;
the Problem-1 metrics parallelize freely.

Resilience (see ``docs/ROBUSTNESS.md``): batches run with a no-progress
timeout, bounded exponential-backoff retries that replace dead or hung
worker processes, and -- after enough consecutive pool failures -- a
degradation to serial in-process evaluation.  A degraded shared pool lasts
only until the job that degraded it ends (:func:`shutdown_degraded_pool`).
Pool-level failures surface as :class:`~repro.errors.PoolError`
subclasses; per-candidate results already collected before a failure are
kept, so retries only redo the missing work.
"""

from __future__ import annotations

import atexit
import functools
import gc
import hashlib
import math
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from .. import faults, profiling
from ..constants import (
    CANDIDATE_TIMEOUT,
    POOL_BACKOFF_BASE,
    POOL_BACKOFF_MAX,
    POOL_DEGRADE_AFTER,
    POOL_MAX_RETRIES,
)
from ..errors import (
    CandidateCrashError,
    PoolError,
    ReproError,
    SearchError,
    WorkerLostError,
    WorkerTimeoutError,
    crash_boundary,
)
from ..faults import SITE_PARALLEL_DISPATCH, SITE_PARALLEL_WORKER
from ..iccad2015.cases import Case
from ..linalg import LinalgConfig
from ..networks.tree import TreePlan
from ..profiling import SIZE_BUCKET_BOUNDS, TelemetryConfig
from ..telemetry import runlog
from .stages import METRIC_MIN_GRADIENT_CAPPED, StageConfig

__all__ = [
    "CandidateCrashError",
    "PersistentEvaluationPool",
    "PoolError",
    "StageContext",
    "WorkerLostError",
    "WorkerTimeoutError",
    "count_scored",
    "evaluate_population",
    "score_on_pool",
    "shutdown_degraded_pool",
    "shutdown_pools",
]


# ---------------------------------------------------------------------------
# Evaluation contexts
# ---------------------------------------------------------------------------


def _score_candidate(evaluator, params: np.ndarray) -> float:
    """Score one candidate with the shared error discipline.

    Library errors (illegal geometry, infeasible constraints, stalled
    searches) mean "this candidate is bad" and return ``inf``; anything else
    is a programming error and is re-raised with the candidate parameters in
    the message so a crashing point is reproducible.
    """
    params = np.asarray(params, dtype=int)
    try:
        with crash_boundary(f"candidate params {params.tolist()}"):
            return float(evaluator(params))
    except ReproError:
        return math.inf


class StageContext(NamedTuple):
    """A staged-flow metric: what :func:`evaluate_population` scores.

    Fields as in the staged flow (:mod:`repro.optimize.runner`).
    """

    case: Case
    plan: TreePlan
    stage: StageConfig
    problem: str
    fixed_pressure: Optional[float] = None

    def scorer(self) -> Callable[[np.ndarray], float]:
        """A cost function over parameter vectors (``inf``: infeasible)."""
        from .runner import _CandidateEvaluator

        return functools.partial(
            _score_candidate, _CandidateEvaluator(*self)
        )

    @staticmethod
    def infeasible() -> float:
        """The cost of a candidate a worker-site fault made infeasible."""
        return math.inf


def _result_score(result: Any) -> float:
    """The score of one context result: a cost, or an evaluation's score."""
    return result if isinstance(result, float) else result.score


def count_scored(results: Sequence[Any]) -> None:
    """Count a scored batch into ``parallel.candidates`` and
    ``parallel.infeasible``.

    Every scoring path calls this once per batch -- the pool, the
    in-process 2RM path and the in-process 4RM path -- so the counts do not
    depend on the worker count.
    """
    profiling.increment("parallel.candidates", len(results))
    profiling.increment(
        "parallel.infeasible",
        sum(1 for r in results if math.isinf(_result_score(r))),
    )


#: Evaluation contexts a process keeps built, by digest.  Two cover a
#: multi-fidelity round (its 2RM and 4RM contexts); the rest let a staged
#: flow's consecutive stages come back warm.
CONTEXT_SLOTS = 4

#: ``digest -> (context, scorer)`` of this process, least recent first.
#: Pool workers fill it; the parent only when a pool degraded to serial.
_contexts: "OrderedDict[bytes, Tuple[Any, Callable[[np.ndarray], Any]]]" = (
    OrderedDict()
)


def _context_scorer(
    digest: bytes, blob: bytes
) -> Tuple[Any, Callable[[np.ndarray], Any]]:
    """``(context, scorer)`` of a pickled context; unpickled and built once
    per digest while the digest stays in :data:`_contexts`."""
    entry = _contexts.get(digest)
    if entry is not None:
        _contexts.move_to_end(digest)
        return entry
    context = pickle.loads(blob)
    entry = (context, context.scorer())
    profiling.increment("parallel.context_loads")
    _contexts[digest] = entry
    while len(_contexts) > CONTEXT_SLOTS:
        _contexts.popitem(last=False)
    return entry


# ---------------------------------------------------------------------------
# Worker-side machinery
# ---------------------------------------------------------------------------


def _init_worker(
    fault_plan=None, telemetry_config=None, linalg_config=None
) -> None:
    """Pool initializer: arm this worker like the parent.

    Re-arms the ambient fault plan, the parent's telemetry configuration
    (tracing on/off, span capacity), and the parent's solver configuration
    (pressure-shift settings), so respawned workers behave identically to
    the ones they replaced.  Evaluation contexts arrive with the tasks.
    """
    if fault_plan is not None:
        faults.set_active_plan(fault_plan)
    if telemetry_config is not None:
        telemetry_config.apply()
    # Under the fork start method this process inherits the spawning
    # thread's lane (the service worker thread's); drop it so exported
    # spans group as a distinct pool-worker row, not the parent's.
    profiling.set_thread_lane(None)
    if linalg_config is not None:
        linalg_config.apply()


def _score_in_worker(digest: bytes, blob: bytes, params: np.ndarray):
    """Worker entry point: score one candidate under a pickled context.

    Returns ``(result, delta)``: the worker's recorder is reset before the
    candidate and drained after it, so ``delta`` holds exactly this
    candidate's counters, histograms and (while tracing) spans, which the
    parent folds into its own recorder with :func:`repro.profiling.merge`.

    The ``parallel.worker`` injection site lives here -- and only here, so
    worker-death faults can never fire in the parent's serial-degradation
    path.  An injected :class:`~repro.errors.ReproError` scores the
    context's ``infeasible()`` result like any infeasible candidate; an
    injected untyped crash is translated by
    :func:`~repro.errors.crash_boundary` and propagates.
    """
    profiling.reset()
    context, scorer = _context_scorer(digest, blob)
    try:
        with crash_boundary(f"fault injection at {SITE_PARALLEL_WORKER}"):
            faults.inject(SITE_PARALLEL_WORKER)
    except ReproError:
        result = context.infeasible()
    else:
        params = np.asarray(params, dtype=int)
        with profiling.span("parallel.candidate"):
            with crash_boundary(f"candidate params {params.tolist()}"):
                result = scorer(params)
    return result, profiling.drain()


# ---------------------------------------------------------------------------
# Persistent pool
# ---------------------------------------------------------------------------


class PersistentEvaluationPool:
    """A reusable, stage-agnostic worker pool.

    Args:
        case / plan / stage / problem / fixed_pressure: Optional default
            context, as in the staged flow (:mod:`repro.optimize.runner`):
            :meth:`evaluate` scores under this :class:`StageContext` when it
            is given no other.  Omit them for a pool that only scores
            explicit contexts.
        n_workers: Worker process count (>= 1).
        timeout: No-progress timeout per batch in seconds: the batch fails
            with :class:`~repro.errors.WorkerTimeoutError` when no candidate
            completes for this long (each completion resets the clock).
        max_retries: Batch retries (after the first attempt) before a pool
            failure propagates to the caller.
        backoff_base: First retry backoff in seconds; doubles per retry up
            to :data:`~repro.constants.POOL_BACKOFF_MAX`.
        degrade_after: Consecutive failed batches after which the pool
            permanently falls back to serial in-process evaluation.
        fault_plan: Optional :class:`~repro.faults.FaultPlan` shipped to
            every worker (chaos testing); workers re-arm it on (re)spawn.

    Use as a context manager or call :meth:`close` explicitly; the shared
    pool of :func:`score_on_pool` is closed when replaced and at exit.
    """

    def __init__(
        self,
        case: Optional[Case] = None,
        plan: Optional[TreePlan] = None,
        stage: Optional[StageConfig] = None,
        problem: Optional[str] = None,
        fixed_pressure: Optional[float] = None,
        n_workers: int = 2,
        timeout: float = CANDIDATE_TIMEOUT,
        max_retries: int = POOL_MAX_RETRIES,
        backoff_base: float = POOL_BACKOFF_BASE,
        degrade_after: int = POOL_DEGRADE_AFTER,
        fault_plan=None,
    ):
        if n_workers < 1:
            raise SearchError(f"n_workers must be >= 1, got {n_workers}")
        if timeout <= 0:
            raise SearchError(f"timeout must be > 0, got {timeout}")
        if max_retries < 0:
            raise SearchError(f"max_retries must be >= 0, got {max_retries}")
        if degrade_after < 1:
            raise SearchError(
                f"degrade_after must be >= 1, got {degrade_after}"
            )
        self.context: Optional[StageContext] = None
        if case is not None:
            if plan is None or stage is None or problem is None:
                raise SearchError(
                    "a default context needs case, plan, stage and problem"
                )
            self.context = StageContext(
                case, plan, stage, problem, fixed_pressure
            )
        self.fault_plan = fault_plan
        #: Captured once at construction and shipped to every worker
        #: (including respawns), like the fault plan.  Flipping tracing in
        #: the parent therefore requires a new pool -- which
        #: :func:`score_on_pool` starts.
        self.telemetry_config = TelemetryConfig.current()
        #: Solver configuration, captured and shipped the same way so worker
        #: evaluations use the parent's pressure-shift settings.
        self.linalg_config = LinalgConfig.current()
        self.n_workers = int(n_workers)
        self.timeout = float(timeout)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.degrade_after = int(degrade_after)
        self._consecutive_failures = 0
        self._degraded = False
        self._spawn_executor()
        self._closed = False
        profiling.increment("parallel.pool_starts")

    def _spawn_executor(self) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_init_worker,
            initargs=(
                self.fault_plan, self.telemetry_config, self.linalg_config
            ),
        )

    def serves(self, n_workers: int, fault_plan) -> bool:
        """Whether this open pool matches ``n_workers``, ``fault_plan`` and
        the process's live telemetry and solver configurations."""
        return (
            not self._closed
            and self.n_workers == n_workers
            and self.fault_plan is fault_plan
            and self.telemetry_config == TelemetryConfig.current()
            and self.linalg_config == LinalgConfig.current()
        )

    def evaluate(
        self, params_list: Sequence[np.ndarray], context: Any = None
    ) -> List[Any]:
        """Score a batch of candidates; one result per candidate, in order.

        ``context`` is the evaluation context (default: the pool's own
        :class:`StageContext`); results are whatever its scorer returns --
        costs for a :class:`StageContext`.

        Pool-level failures (hang, worker death) are retried with backoff
        and worker replacement; after ``degrade_after`` consecutive failures
        the batch -- and every later one -- completes serially in-process.
        A :class:`~repro.errors.PoolError` escapes only when retries are
        exhausted before degradation kicks in.
        """
        if self._closed:
            raise SearchError("persistent evaluation pool is closed")
        context = self.context if context is None else context
        if context is None:
            raise SearchError("pool has no default evaluation context")
        payloads = [np.asarray(p, dtype=int) for p in params_list]
        if not payloads:
            return []
        faults.inject(SITE_PARALLEL_DISPATCH)
        profiling.observe(
            "parallel.batch_size", len(payloads), bounds=SIZE_BUCKET_BOUNDS
        )
        blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        task = (hashlib.sha256(blob).digest(), blob)
        with profiling.timer("parallel.batch", candidates=len(payloads)):
            results = self._evaluate_resilient(task, payloads)
        profiling.increment("parallel.batches")
        count_scored(results)
        return results

    # -- resilience ----------------------------------------------------

    def _evaluate_resilient(
        self, task: Tuple[bytes, bytes], payloads: List[np.ndarray]
    ) -> List[Any]:
        results: Dict[int, Any] = {}
        retries = 0
        while len(results) < len(payloads):
            pending = [i for i in range(len(payloads)) if i not in results]
            if self._degraded:
                self._evaluate_serial(task, payloads, pending, results)
                continue
            try:
                self._collect_parallel(task, payloads, pending, results)
                self._consecutive_failures = 0
            except PoolError:
                self._consecutive_failures += 1
                profiling.increment("parallel.pool_failures")
                if self._consecutive_failures >= self.degrade_after:
                    self._degrade()
                elif retries >= self.max_retries:
                    # Leave the pool usable for the next batch: replace the
                    # (dead or hung) workers before propagating.
                    self._restart_executor()
                    raise
                else:
                    profiling.increment("parallel.retries")
                    profiling.instant(
                        "parallel.retry",
                        attempt=retries + 1,
                        pending=len(payloads) - len(results),
                    )
                    runlog.emit_event(
                        "pool.retry",
                        attempt=retries + 1,
                        pending=len(payloads) - len(results),
                        consecutive_failures=self._consecutive_failures,
                    )
                    time.sleep(
                        min(
                            self.backoff_base * (2.0 ** retries),
                            POOL_BACKOFF_MAX,
                        )
                    )
                    retries += 1
                    self._restart_executor()
        return [results[i] for i in range(len(payloads))]

    def _collect_parallel(
        self,
        task: Tuple[bytes, bytes],
        payloads: List[np.ndarray],
        pending: List[int],
        results: Dict[int, Any],
    ) -> None:
        """One parallel attempt at the ``pending`` candidates.

        Completed candidates land in ``results`` even when the attempt
        fails part-way, so a retry only redoes the missing ones.
        """
        futures: Dict[Future, int] = {}
        index: Optional[int] = None
        try:
            for i in pending:
                future = self._executor.submit(
                    _score_in_worker, *task, payloads[i]
                )
                futures[future] = i
            remaining = set(futures)
            while remaining:
                done, _ = wait(
                    remaining,
                    timeout=self.timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    profiling.increment("parallel.timeouts")
                    profiling.instant(
                        "parallel.timeout", pending=len(remaining)
                    )
                    raise WorkerTimeoutError(
                        f"no candidate completed within {self.timeout:g} s "
                        f"({len(remaining)} of {len(futures)} still pending)"
                    )
                for future in done:
                    remaining.discard(future)
                    index = futures[future]
                    results[index], delta = future.result()
                    profiling.merge(delta)
        except BrokenProcessPool as exc:
            # From a result, or from ``submit`` when a worker died before the
            # whole batch was handed out (then ``index`` is None).
            profiling.increment("parallel.worker_lost")
            profiling.instant("parallel.worker_lost", candidate=index)
            raise WorkerLostError(
                f"worker process died (last candidate {index})"
            ) from exc
        except CandidateCrashError:
            profiling.increment("parallel.crashed")
            # The executor stays in service: drop the batch's leftovers.
            # Every other failure replaces the executor, whose manager
            # thread then fails the leftovers itself; cancelling them here
            # would race its ``set_exception`` (``InvalidStateError``).
            for future in futures:
                future.cancel()
            raise

    def _evaluate_serial(
        self,
        task: Tuple[bytes, bytes],
        payloads: List[np.ndarray],
        pending: List[int],
        results: Dict[int, Any],
    ) -> None:
        """Degraded path: score the pending candidates in-process."""
        _, scorer = _context_scorer(*task)
        for index in pending:
            params = payloads[index]
            with crash_boundary(f"candidate params {params.tolist()}"):
                results[index] = scorer(params)
            profiling.increment("parallel.serial_fallback")

    def _degrade(self) -> None:
        """Permanently switch to serial evaluation (correctness first)."""
        if self._degraded:
            return
        self._degraded = True
        profiling.increment("parallel.degraded")
        profiling.instant(
            "parallel.degraded",
            consecutive_failures=self._consecutive_failures,
        )
        runlog.emit_event(
            "pool.degraded",
            consecutive_failures=self._consecutive_failures,
            n_workers=self.n_workers,
        )
        self._terminate_workers()
        self._executor.shutdown(wait=False)

    def _restart_executor(self) -> None:
        """Replace every worker process with a fresh one."""
        self._terminate_workers()
        self._executor.shutdown(wait=False)
        self._spawn_executor()
        profiling.increment("parallel.worker_replacements")

    def _terminate_workers(self) -> None:
        """Forcibly kill worker processes (hung workers ignore shutdown)."""
        processes = getattr(self._executor, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()

    @property
    def degraded(self) -> bool:
        """Whether the pool has fallen back to serial evaluation."""
        return self._degraded

    def close(self) -> None:
        """Shut the worker processes down (idempotent).

        Workers are terminated, not joined: a hung worker must not be able
        to stall interpreter exit.
        """
        if not self._closed:
            self._closed = True
            self._terminate_workers()
            self._executor.shutdown(wait=False)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        return self._closed

    def __enter__(self) -> "PersistentEvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The process's shared pool
# ---------------------------------------------------------------------------

#: The pool :func:`score_on_pool` dispatches to; ``None`` until the first
#: pooled batch, and after :func:`shutdown_pools`.
_shared_pool: Optional[PersistentEvaluationPool] = None

#: Pooled batches of concurrent threads (design-service workers) run one at
#: a time, so no thread replaces or degrades the pool under another's batch.
_shared_lock = threading.RLock()


def _configure_shared_pool(n_workers: int) -> PersistentEvaluationPool:
    """The shared pool, replaced when it does not serve ``n_workers`` under
    the ambient fault plan and the live telemetry and solver configurations
    (the old workers are closed).  Call with :data:`_shared_lock` held."""
    global _shared_pool
    fault_plan = faults.active_plan()
    pool = _shared_pool
    if pool is None or not pool.serves(n_workers, fault_plan):
        if pool is not None:
            pool.close()
        pool = PersistentEvaluationPool(
            n_workers=n_workers, fault_plan=fault_plan
        )
        _shared_pool = pool
    return pool


def score_on_pool(
    context: Any, params_list: Sequence[np.ndarray], n_workers: int
) -> List[Any]:
    """Score a batch under ``context`` on this process's shared pool.

    ``context`` is any picklable evaluation context (``scorer()`` and
    ``infeasible()``); one result per candidate, in order.
    """
    with _shared_lock:
        return _configure_shared_pool(n_workers).evaluate(params_list, context)


def shutdown_degraded_pool() -> None:
    """Close the shared pool if it degraded to serial evaluation.

    Called when a design job ends, so a degradation lasts for the job that
    caused it only: the next job starts a fresh parallel pool instead of
    inheriting a long-lived worker process's serial fallback.
    """
    global _shared_pool
    with _shared_lock:
        if _shared_pool is not None and _shared_pool.degraded:
            _shared_pool.close()
            _shared_pool = None


def shutdown_pools() -> None:
    """Close the shared worker pool (also registered at interpreter exit).

    Does not wait for a batch in flight (a daemon thread may hold one at
    exit); that batch fails on the closed pool.
    """
    global _shared_pool
    pool, _shared_pool = _shared_pool, None
    if pool is not None:
        pool.close()


atexit.register(shutdown_pools)

# A forked worker inherits the parent's unreachable objects.  When its cyclic
# collector freed one whose finalizer takes a lock another parent thread held
# at the fork -- a shut-down executor's ``shutdown_lock``, which its manager
# thread holds while it joins workers -- the worker hung for good.  Frozen
# objects are never collected, so the heap is frozen across every fork: the
# worker keeps the inherited objects frozen, the parent thaws them at once.
os.register_at_fork(before=gc.freeze, after_in_parent=gc.unfreeze)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def evaluate_population(
    case: Case,
    plan: TreePlan,
    stage: StageConfig,
    problem: str,
    params_list: Sequence[np.ndarray],
    fixed_pressure: Optional[float] = None,
    n_workers: int = 1,
    pool: Optional[PersistentEvaluationPool] = None,
) -> List[float]:
    """Score a batch of candidate parameter vectors.

    Args:
        case / plan / stage / problem / fixed_pressure: As in the staged
            flow (:mod:`repro.optimize.runner`).
        params_list: Candidate (n_trees, 2) arrays.
        n_workers: Worker processes; 1 evaluates serially in-process.
        pool: An explicit :class:`PersistentEvaluationPool` to dispatch to;
            by default the process's shared pool (:func:`score_on_pool`).

    Returns:
        One cost per candidate (``inf`` for illegal/infeasible networks).
        Unexpected worker exceptions propagate as
        :class:`CandidateCrashError` -- they are bugs, not infeasibility.
    """
    if n_workers < 1:
        raise SearchError(f"n_workers must be >= 1, got {n_workers}")
    if not params_list:
        return []
    context = StageContext(case, plan, stage, problem, fixed_pressure)
    # The grouped metric is stateful across candidates and must stay serial
    # no matter what was requested; otherwise go parallel when a pool was
    # handed in or more than one worker was asked for.
    if stage.metric == METRIC_MIN_GRADIENT_CAPPED or (
        pool is None and n_workers == 1
    ):
        scorer = context.scorer()
        costs = [scorer(params) for params in params_list]
        count_scored(costs)
        return costs
    if pool is not None:
        return pool.evaluate(params_list, context)
    return score_on_pool(context, params_list, n_workers)
