"""Parallel candidate evaluation (the paper's 64-way neighbor evaluation).

The paper's server evaluates 64 neighboring network solutions simultaneously
in each SA iteration.  :func:`evaluate_population` reproduces that pattern:
score a batch of tree-parameter vectors, optionally across worker processes
(the grouped Problem-2 metric, inherently sequential, always runs serially).

One worker pool per process serves every stage and both fidelities:
:func:`score_on_pool` dispatches to a single module-level
:class:`PersistentEvaluationPool`, replaced when its worker count, fault
plan, telemetry or solver configuration no longer match.  The pool owns
its workers -- forked processes on one duplex pipe each -- and keeps one
candidate in flight per worker, waiting on pipes and process sentinels
together, so it runs no thread.  A worker loops on ``(digest, context
bytes, params)`` -> ``(result, recorder delta)`` and exits when the parent's
end of its pipe closes, even after a SIGKILL of the parent.

Workers are stage-agnostic: each batch carries its *evaluation context* --
a picklable object with ``scorer()`` and ``infeasible()``, such as
:class:`StageContext` or the portfolio's 4RM
:class:`~repro.optimize.portfolio.ReferenceContext` -- named by the sha256
of its pickle.  A process builds a digest's scorer once and keeps it in a
small LRU (:data:`CONTEXT_SLOTS`), so stages, directions, strategies and
whole jobs reuse the same warm scorers and their per-params cost caches.
Every process holds one such LRU, whatever the worker count: each pool
worker its own, and the parent for its serial batches (``n_workers=1``,
and a pool degraded to serial).  The LRU is emptied when the fault plan or
the solver configuration changes, so a memo never outlives the settings
that made its scores.  Only the grouped Problem-2 metric, whose candidates
share group state, builds a fresh scorer for each batch.

Error discipline (shared by the serial and parallel paths): a
:class:`~repro.errors.ReproError` means the candidate network is illegal or
infeasible and scores ``inf``; any other exception is a genuine bug and
surfaces as :class:`CandidateCrashError` carrying the offending parameters.
The ``parallel.infeasible`` / ``parallel.crashed`` profiling counters keep
the two populations distinguishable.

Resilience (see ``docs/ROBUSTNESS.md``): batches run with a no-progress
timeout, bounded exponential-backoff retries, and -- after enough
consecutive pool failures -- a degradation to serial in-process
evaluation; a worker that died or hung is killed and replaced.  A degraded
shared pool lasts only until the job that degraded it ends
(:func:`shutdown_degraded_pool`).  Pool-level failures surface as
:class:`~repro.errors.PoolError` subclasses; per-candidate results already
collected before a failure are kept, so retries only redo the missing work.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import gc
import hashlib
import math
import multiprocessing
import os
import pickle
import threading
import time
from collections import OrderedDict, deque
from multiprocessing.connection import Connection, wait
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
#: Every in-process scoring path fills it -- a pool worker's, the serial
#: :func:`evaluate_population` and a pool degraded to serial -- so a
#: process keeps one scorer, and its per-params cost memo, per context.
_contexts: "OrderedDict[bytes, Tuple[Any, Callable[[np.ndarray], Any]]]" = (
    OrderedDict()
)

#: The score-changing settings every scorer in :data:`_contexts` was built
#: under: the armed fault plan (by identity) and the solver configuration,
#: what the shared pool is keyed by.  A change empties the LRU.
_contexts_settings: Tuple[Any, Optional[LinalgConfig]] = (None, None)

#: Service job threads score in-process at once.
_contexts_lock = threading.Lock()


def _reset_contexts_lock() -> None:
    """Give a forked child a new LRU lock: another thread of the parent
    may have held the old one at the fork, and no child thread frees it."""
    global _contexts_lock
    _contexts_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_contexts_lock)


def _context_task(context: Any) -> Tuple[bytes, bytes]:
    """``(digest, blob)``: a context's pickle and the sha256 naming it."""
    blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).digest(), blob


def _clear_stale_contexts(fault_plan: Any, config: LinalgConfig) -> None:
    """Empty :data:`_contexts` unless its scorers were built under
    ``fault_plan`` and ``config``.  Call with :data:`_contexts_lock` held."""
    global _contexts_settings
    built_plan, built_config = _contexts_settings
    if fault_plan is not built_plan or config != built_config:
        _contexts.clear()
        _contexts_settings = (fault_plan, config)


def _context_scorer(
    digest: bytes, blob: bytes
) -> Tuple[Any, Callable[[np.ndarray], Any]]:
    """``(context, scorer)`` of a pickled context; unpickled and built once
    per digest while the digest stays in :data:`_contexts` and the fault
    plan and solver configuration stay as they were."""
    with _contexts_lock:
        _clear_stale_contexts(faults.active_plan(), LinalgConfig.current())
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


def _init_worker(fault_plan, telemetry_config, linalg_config) -> None:
    """Arm a new pool worker like the parent: its fault plan, telemetry
    configuration (tracing, span capacity) and solver configuration
    (pressure-shift settings), so a respawned worker behaves like the one
    it replaced.  Evaluation contexts arrive with the tasks."""
    if fault_plan is not None:
        faults.set_active_plan(fault_plan)
    telemetry_config.apply()
    linalg_config.apply()
    # Its own scorers, memos and counters: none inherited from the parent.
    _contexts.clear()
    # A forked worker inherits the forking thread's lane (a service worker
    # thread's); drop it so its spans export as a pool-worker row.
    profiling.set_thread_lane(None)


def _score_in_worker(digest: bytes, blob: bytes, params: np.ndarray):
    """Score one candidate under a pickled context, in a pool worker.

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


def _worker_main(
    conn: Connection, parent_ends: List[Connection], *config: Any
) -> None:
    """A pool worker's life: close the inherited ``parent_ends``,
    :func:`_init_worker` once, then answer each ``(digest, blob, params)``
    from ``conn`` with :func:`_score_in_worker`'s reply or typed error,
    until the parent's end of the pipe closes."""
    for end in parent_ends:
        end.close()
    _init_worker(*config)
    try:
        while True:
            task = conn.recv()
            try:
                with crash_boundary("pool worker"):
                    reply = _score_in_worker(*task)
            except (ReproError, CandidateCrashError) as exc:
                reply = exc
            conn.send(reply)
    except (EOFError, BrokenPipeError):
        return  # the parent is gone


#: Workers are forked: one starts in milliseconds, and as a child of this
#: process its peak memory counts in this process's resource usage.
_FORK = multiprocessing.get_context("fork")


class _Worker(NamedTuple):
    """One owned worker process and the parent's end of its pipe."""

    process: multiprocessing.process.BaseProcess
    conn: Connection


# ---------------------------------------------------------------------------
# Persistent pool
# ---------------------------------------------------------------------------


class PersistentEvaluationPool:
    """A reusable, stage-agnostic pool of owned worker processes.

    Args:
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
        fault_plan: Optional :class:`~repro.faults.FaultPlan` armed in
            every worker (chaos testing), respawned ones included.

    Use as a context manager or call :meth:`close` explicitly; the shared
    pool of :func:`score_on_pool` is closed when replaced and at exit.
    """

    def __init__(
        self,
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
        self.fault_plan = fault_plan
        #: Captured once and armed in every worker (respawns too), like the
        #: fault plan: flipping tracing in the parent needs a new pool,
        #: which :func:`score_on_pool` starts.
        self.telemetry_config = TelemetryConfig.current()
        #: Solver configuration, captured and armed the same way so worker
        #: evaluations use the parent's pressure-shift settings.
        self.linalg_config = LinalgConfig.current()
        self.n_workers = int(n_workers)
        self.timeout = float(timeout)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.degrade_after = int(degrade_after)
        self._consecutive_failures = 0
        self._degraded = False
        self._closed = False
        self._workers: List[_Worker] = []
        for _ in range(self.n_workers):
            self._workers.append(self._spawn())
        profiling.increment("parallel.pool_starts")

    def _spawn(self) -> _Worker:
        """Fork one armed worker on a new pipe."""
        conn, child_end = _FORK.Pipe()
        # The worker closes its copies of this pool's parent ends, its own
        # included, so this process's death ends its pipe (of two workers,
        # only the later-forked can hold the other's end: exits cascade).
        ends = [conn] + [worker.conn for worker in self._workers]
        config = (self.fault_plan, self.telemetry_config, self.linalg_config)
        process = _FORK.Process(
            target=_worker_main, args=(child_end, ends, *config), daemon=True
        )
        process.start()
        child_end.close()
        return _Worker(process, conn)

    @staticmethod
    def _kill(workers: Sequence[_Worker]) -> None:
        """Kill (a hung worker ignores less), join and unpipe ``workers``."""
        for worker in workers:
            worker.process.kill()
            worker.process.join()
            worker.conn.close()

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
        self, params_list: Sequence[np.ndarray], context: Any
    ) -> List[Any]:
        """Score a batch under the evaluation ``context``: one result per
        candidate (a cost, for a :class:`StageContext`), in order.

        Pool failures (hang, worker death) are retried with backoff and
        worker replacement; after ``degrade_after`` consecutive failures the
        batch and every later one complete serially in-process.  A
        :class:`~repro.errors.PoolError` escapes when retries run out first.
        """
        if self._closed:
            raise SearchError("persistent evaluation pool is closed")
        payloads = [np.asarray(p, dtype=int) for p in params_list]
        if not payloads:
            return []
        faults.inject(SITE_PARALLEL_DISPATCH)
        profiling.observe(
            "parallel.batch_size", len(payloads), bounds=SIZE_BUCKET_BOUNDS
        )
        with profiling.timer("parallel.batch", candidates=len(payloads)):
            results = self._evaluate_resilient(
                _context_task(context), payloads
            )
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
                    raise
                else:
                    retries += 1
                    left = len(payloads) - len(results)
                    profiling.increment("parallel.retries")
                    profiling.instant(
                        "parallel.retry", attempt=retries, pending=left
                    )
                    runlog.emit_event(
                        "pool.retry",
                        attempt=retries,
                        pending=left,
                        consecutive_failures=self._consecutive_failures,
                    )
                    backoff = self.backoff_base * 2.0 ** (retries - 1)
                    time.sleep(min(backoff, POOL_BACKOFF_MAX))
        return [results[i] for i in range(len(payloads))]

    def _collect_parallel(
        self,
        task: Tuple[bytes, bytes],
        payloads: List[np.ndarray],
        pending: List[int],
        results: Dict[int, Any],
    ) -> None:
        """One parallel attempt at the ``pending`` candidates, one in flight
        per worker.  Completed candidates land in ``results`` even when the
        attempt fails part-way, so a retry only redoes the missing ones."""
        if self._closed:
            raise SearchError("persistent evaluation pool is closed")
        queue, idle = deque(pending), deque(self._workers)
        busy: Dict[_Worker, int] = {}
        try:
            while queue or busy:
                while queue and idle:
                    worker = idle.popleft()
                    index = busy[worker] = queue.popleft()
                    # A worker that died idle refuses its candidate; its
                    # sentinel reports it below.
                    with contextlib.suppress(BrokenPipeError):
                        worker.conn.send((*task, payloads[index]))
                ready = wait(
                    [w.conn for w in busy] + [w.process.sentinel for w in busy],
                    timeout=self.timeout,
                )
                if not ready:
                    left = len(busy) + len(queue)
                    profiling.increment("parallel.timeouts")
                    profiling.instant("parallel.timeout", pending=left)
                    raise WorkerTimeoutError(
                        f"no candidate completed within {self.timeout:g} s "
                        f"({left} of {len(pending)} still pending)"
                    )
                lost: Optional[int] = None
                for worker in list(busy):
                    if worker.conn in ready or worker.process.sentinel in ready:
                        try:  # a dead worker's pipe polls ready at its end
                            reply = worker.conn.poll() and worker.conn.recv()
                        except (EOFError, OSError):
                            reply = None
                        if not reply:
                            lost = busy[worker]
                            continue
                        if isinstance(reply, CandidateCrashError):
                            profiling.increment("parallel.crashed")
                        if isinstance(reply, BaseException):
                            raise reply
                        results[busy.pop(worker)], delta = reply
                        profiling.merge(delta)
                        idle.append(worker)
                if lost is not None:
                    profiling.increment("parallel.worker_lost")
                    profiling.instant("parallel.worker_lost", candidate=lost)
                    raise WorkerLostError(
                        f"worker process died (last candidate {lost})"
                    )
        finally:  # each busy worker died, hangs or holds a stale candidate
            self._kill(list(busy))
            if not self._closed:
                for worker in busy:
                    slot = self._workers.index(worker)
                    self._workers[slot] = self._spawn()
                    profiling.increment("parallel.worker_replacements")

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
        workers, self._workers = self._workers, []
        self._kill(workers)

    @property
    def degraded(self) -> bool:
        """Whether the pool has fallen back to serial evaluation."""
        return self._degraded

    def close(self) -> None:
        """Kill and join the worker processes (idempotent)."""
        if not self._closed:
            self._closed = True
            workers, self._workers = self._workers, []
            self._kill(workers)

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

# A forked worker inherits the parent's unreachable objects.  If its cyclic
# collector freed one whose finalizer takes a lock another parent thread held
# at the fork, the worker would hang for good.  Frozen objects are never
# collected, so the heap is frozen across every fork: the worker keeps the
# inherited objects frozen, the parent thaws them at once.
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
) -> List[float]:
    """Score a batch of candidate parameter vectors.

    Args:
        case / plan / stage / problem / fixed_pressure: As in the staged
            flow (:mod:`repro.optimize.runner`).
        params_list: Candidate (n_trees, 2) arrays.
        n_workers: Worker processes; 1 evaluates serially in-process on
            the process's scorer for this context (its cost memo kept
            across batches, as a pool worker keeps it), more dispatch to
            the process's shared pool (:func:`score_on_pool`).  The grouped
            metric scores serially on a fresh scorer per batch.

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
    # The grouped metric carries group state from candidate to candidate: a
    # fresh scorer per batch, serial however many workers were asked for.
    if stage.metric == METRIC_MIN_GRADIENT_CAPPED:
        scorer = context.scorer()
    elif n_workers == 1:
        _, scorer = _context_scorer(*_context_task(context))
    else:
        return score_on_pool(context, params_list, n_workers)
    costs = [scorer(params) for params in params_list]
    count_scored(costs)
    return costs
