"""Workers and restart-time recovery.

A :class:`Worker` claims the oldest claimable job --
:meth:`JobStore.claim` flips its record to ``running`` under the store's
lock, and that atomic record write is the claim -- and executes the spec
through a :class:`~repro.server.executor.SimulationExecutor`.  Idle, it
sleeps on the store's change notifier; the one timed wait is for the
earliest retry backoff to end.

One object owns a store root (:class:`JobStore` holds an exclusive lock
on it), so a ``running`` record found when the store opens was left by a
process that died -- SIGKILL, OOM, power loss.  :func:`recover_running`
settles each one before the workers start.  A job whose result file
exists is committed, not re-run: its worker died between writing the
result and flipping the record.  Any other job is charged one attempt and
requeued with backoff; the next worker's executor resumes from the job's
checkpoint directory and finishes with a bitwise-identical result.  At
``max_attempts`` the job is quarantined instead, so a job that kills the
process on every attempt is not restarted forever.  The same accounting
settles a job whose worker thread raised unexpectedly after the claim.

Failure discipline (R4): the executor call is wrapped in
:func:`~repro.errors.crash_boundary`; everything reaching the retry logic
is a typed ``ReproError`` or ``CandidateCrashError``.

Scheduling is wall-clock (backoff), which the nondeterminism source guard
allows in ``repro.server``; the work itself stays seeded by the job spec.
"""

from __future__ import annotations

import queue
import sys
import time
import uuid
from typing import Any, Callable, Dict, List, Optional

from .. import profiling
from ..errors import (
    CandidateCrashError,
    ReproError,
    RunInterrupted,
    crash_boundary,
)
from ..faults import SITE_SERVER_WORKER, inject
from ..optimize.portfolio import PORTFOLIO_CHECKPOINT
from ..profiling import TelemetryConfig
from .executor import SimulationExecutor
from .jobstore import JobStore
from .records import (
    JobRecord,
    STATE_COMPLETED,
    STATE_PENDING,
    STATE_QUARANTINED,
    STATE_RUNNING,
)

__all__ = ["Worker", "recover_running"]

#: First retry delay [unit: s]; doubles per attempt (exponential backoff).
RETRY_BACKOFF_BASE = 2.0

#: The global tracer is process-wide state, so at most one job per process
#: is traced at a time: the slot holds the traced job's id.  A worker that
#: finds it taken runs its job untraced rather than interleaving two jobs'
#: spans into one export.
_TRACE_SLOT: "queue.Queue[str]" = queue.Queue(maxsize=1)


def _worker_id(prefix: str) -> str:
    return f"{prefix}-{uuid.uuid4().hex[:8]}"


def _backoff(attempts: int, base: float) -> float:
    """Retry delay after ``attempts`` failures [unit: s]."""
    return base * (2.0 ** max(attempts - 1, 0))


def _charge_attempt(
    store: JobStore, record: JobRecord, error: str, backoff_base: float
) -> JobRecord:
    """Charge one failed attempt to a ``running`` job; the written record.

    The job is requeued with exponential backoff, or quarantined once it
    has used ``max_attempts``.  The caller logs the outcome.
    """
    attempts = record.attempts + 1
    if attempts >= record.max_attempts:
        return store.update(
            record.with_state(STATE_QUARANTINED, attempts=attempts, error=error)
        )
    return store.update(
        record.with_state(
            STATE_PENDING,
            attempts=attempts,
            error=error,
            worker=None,
            not_before=time.time() + _backoff(attempts, backoff_base),
        )
    )


def recover_running(
    store: JobStore, retry_backoff: float = RETRY_BACKOFF_BASE
) -> List[str]:
    """Settle every ``running`` job of a freshly opened store; their ids.

    Call it before any worker of ``store`` starts: the store's lock then
    proves each such record's owner is dead.  A job with a result file is
    committed; any other is charged one attempt and requeued, or
    quarantined at ``max_attempts``.  Each logs one ``job.recovered``
    event and counts ``server.jobs_recovered``.
    """
    recovered: List[str] = []
    for record in store.list_jobs():
        if record.state != STATE_RUNNING:
            continue
        job_id = record.job_id
        dead = record.worker or "<unknown>"
        if store.result_path(job_id).exists():
            settled = store.update(
                record.with_state(STATE_COMPLETED, error=None)
            )
        else:
            settled = _charge_attempt(
                store,
                record,
                f"worker {dead} died mid-job (attempt {record.attempts + 1})",
                retry_backoff,
            )
        store.log_event(
            job_id,
            "job.recovered",
            dead_worker=dead,
            state=settled.state,
            attempts=settled.attempts,
        )
        if settled.state == STATE_COMPLETED:
            store.log_event(job_id, "job.completed", dead_worker=dead)
            profiling.increment("server.jobs_completed")
        elif settled.state == STATE_QUARANTINED:
            store.log_event(
                job_id,
                "job.quarantined",
                dead_worker=dead,
                attempts=settled.attempts,
                error=settled.error,
            )
            profiling.increment("server.jobs_quarantined")
        profiling.increment("server.jobs_recovered")
        recovered.append(job_id)
    return recovered


class Worker:
    """One job-executing worker bound to a store.

    Args:
        store: The durable queue.
        worker_id: Stable identity in records and events (generated if
            absent).
        retry_backoff: Base retry delay [unit: s].
        trace_jobs: Arm span tracing per claimed job (the record's
            ``trace_id`` stitches API/worker/pool rows) and export the
            stitched Chrome trace next to the job's result.
    """

    def __init__(
        self,
        store: JobStore,
        worker_id: Optional[str] = None,
        retry_backoff: float = RETRY_BACKOFF_BASE,
        trace_jobs: bool = False,
    ):
        self.store = store
        self.executor = SimulationExecutor()
        self.worker_id = worker_id or _worker_id("worker")
        self.retry_backoff = float(retry_backoff)
        self.trace_jobs = bool(trace_jobs)

    # -- claim loop ----------------------------------------------------

    def run_forever(self, stop_check: Callable[[], bool]) -> None:
        """Claim and execute jobs until ``stop_check`` returns true.

        Idle, the worker sleeps until a record of its store changes
        (submit, requeue, completion, or :meth:`JobStore.wake`) or the
        earliest retry backoff ends.  Event appends do not wake it:
        per-round progress never changes what is claimable.
        """
        while True:
            # Read before the stop check and the scan, so a submit or wake
            # that lands after them cuts the wait short.
            seen = self.store.generation(records_only=True)
            if stop_check():
                return
            if self.claim_once(stop_check) is None:
                self.store.wait_for_change(
                    seen, self.store.next_claim_in(), records_only=True
                )

    def claim_once(
        self, stop_check: Optional[Callable[[], bool]] = None
    ) -> Optional[str]:
        """Claim and fully process one eligible job; its id, or ``None``.

        ``None`` means the queue held nothing claimable -- empty, or every
        pending job backoff-gated.  An unexpected exception after the
        claim charges the job one attempt before it propagates, so the
        job never stays ``running`` without a worker.
        """
        record = self.store.claim(self.worker_id)
        if record is None:
            return None
        done = False
        try:
            self._run_job(record, stop_check)
            done = True
        finally:
            if not done:  # an unexpected exception is propagating
                self._settle_unexpected(record, sys.exc_info()[1])
        return record.job_id

    def _settle_unexpected(
        self, record: JobRecord, exc: Optional[BaseException]
    ) -> None:
        """Charge an attempt if ``exc`` left the job ``running``."""
        try:
            current = self.store.get(record.job_id)
            if current.state == STATE_RUNNING:
                self._record_failure(current, exc)
        except (ReproError, OSError):
            pass  # left running: the next start's recovery settles it

    # -- execution -----------------------------------------------------

    def _run_job(
        self, record: JobRecord, stop_check: Optional[Callable[[], bool]]
    ) -> None:
        store = self.store
        job_id = record.job_id
        started = time.perf_counter()
        # Lane is thread state; restore the caller's on every exit so a
        # direct claim_once() on a borrowed thread leaves no residue.
        prior_lane = profiling.current_lane()
        profiling.set_thread_lane(self.worker_id)
        tracing = self._arm_tracing(record)
        try:
            resumed = (
                store.checkpoint_dir(job_id) / PORTFOLIO_CHECKPOINT
            ).exists()
            store.log_event(
                job_id,
                "job.resumed" if resumed else "job.claimed",
                worker=self.worker_id,
                attempt=record.attempts + 1,
            )

            def progress(event_type: str, fields: Dict[str, Any]) -> None:
                # Live per-round events for follow=1 streams; the durable
                # result is what matters, so a full event disk is not a
                # reason to fail the job.
                try:
                    store.log_event(job_id, event_type, **fields)
                except OSError:
                    pass

            try:
                try:
                    with crash_boundary(f"job {job_id}"):
                        inject(SITE_SERVER_WORKER)  # chaos: die/raise mid-job
                        with profiling.span(
                            "server.job",
                            job_id=job_id,
                            worker=self.worker_id,
                            attempt=record.attempts + 1,
                        ):
                            result = self.executor.execute(
                                record.spec,
                                str(store.checkpoint_dir(job_id)),
                                interrupt_check=stop_check,
                                progress=progress,
                            )
                finally:
                    # Export before any commit/requeue flips the record:
                    # a follow=1 client sees the terminal event and GETs
                    # /trace immediately -- the file must already exist.
                    if tracing:
                        self._finish_tracing(record)
                        tracing = False
            except RunInterrupted:
                self._requeue_drained(record)
                return
            except (ReproError, CandidateCrashError) as exc:
                self._record_failure(record, exc)
                return
            self._commit(record, result, started)
        finally:
            if tracing:
                self._finish_tracing(record)
            profiling.set_thread_lane(prior_lane)

    # -- per-job tracing -----------------------------------------------

    def _arm_tracing(self, record: JobRecord) -> bool:
        """Arm the global tracer for this job; ``True`` when armed."""
        if not self.trace_jobs or record.trace_id is None:
            return False
        try:
            _TRACE_SLOT.put_nowait(record.job_id)
        except queue.Full:
            return False  # another job is being traced in this process
        profiling.clear_spans()
        TelemetryConfig(trace=True, trace_id=record.trace_id).apply()
        return True

    def _finish_tracing(self, record: JobRecord) -> None:
        """Export the stitched trace and disarm (pairs with _arm_tracing)."""
        try:
            self.store.write_trace(
                record.job_id, profiling.to_chrome_trace()
            )
        except (ReproError, OSError):
            pass  # the trace export is best-effort diagnostics
        finally:
            TelemetryConfig().apply()
            profiling.clear_spans()
            _TRACE_SLOT.get_nowait()

    # -- settling ------------------------------------------------------

    def _commit(
        self, record: JobRecord, result: Dict[str, Any], started: float
    ) -> None:
        """Persist result, then record, then event -- in that order, so a
        crash in between leaves a result that recovery commits."""
        store = self.store
        store.write_result(record.job_id, result)
        store.update(record.with_state(STATE_COMPLETED, error=None))
        store.log_event(
            record.job_id,
            "job.completed",
            worker=self.worker_id,
            score=result.get("score"),
        )
        profiling.increment("server.jobs_completed")
        profiling.observe(
            "server.job_duration", time.perf_counter() - started
        )

    def _requeue_drained(self, record: JobRecord) -> None:
        """Graceful interrupt: back to pending, attempt NOT charged."""
        store = self.store
        # Event before record flip: a drain-time follower closes its
        # stream the moment the record leaves ``running``, so the final
        # ``job.interrupted`` line must already be on disk by then.
        store.log_event(
            record.job_id, "job.interrupted", worker=self.worker_id
        )
        store.update(record.with_state(STATE_PENDING, worker=None))

    def _record_failure(
        self, record: JobRecord, exc: Optional[BaseException]
    ) -> None:
        """Charge the failed attempt: requeue with backoff, or quarantine."""
        error = f"{type(exc).__name__}: {exc}"
        settled = _charge_attempt(self.store, record, error, self.retry_backoff)
        if settled.state == STATE_QUARANTINED:
            self.store.log_event(
                record.job_id,
                "job.quarantined",
                worker=self.worker_id,
                attempts=settled.attempts,
                error=error,
            )
            profiling.increment("server.jobs_quarantined")
        else:
            self.store.log_event(
                record.job_id,
                "job.failed",
                worker=self.worker_id,
                attempts=settled.attempts,
                error=error,
            )
            profiling.increment("server.jobs_failed")
