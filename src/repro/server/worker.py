"""Workers and the reaper: lease-based scheduling with crash recovery.

A :class:`Worker` loops over the store's claimable jobs, acquires each
job's lease (``O_EXCL`` -- exactly one claimer wins), and executes the
spec through its :class:`~repro.server.executor.Executor`.  A heartbeat
thread renews the lease at ``ttl / 3``; losing the lease (the reaper
reclaimed it, so the rest of the system already presumes this worker dead)
flips the executor's ``interrupt_check``, stopping the run at the next
round boundary without committing anything.

The :class:`Reaper` is the recovery half: any *running* job whose lease
has expired belongs to a worker that stopped heartbeating -- SIGKILL, OOM,
power loss.  The reaper steals the expired lease (rename protocol, at most
one winner), charges the crash as one attempt, and requeues the job; the
next worker's executor resumes from the job's checkpoint directory and
finishes with a bitwise-identical result.  A job that crashed
``max_attempts`` times is poison and is quarantined instead of looping
forever.  The reaper also finishes half-committed completions: a result
file written by a worker that died before flipping its record to
``completed`` is committed, not re-run.  And it unwedges *pending* jobs
left behind an expired lease by a claimer that died before the record
flip -- cleared without charging an attempt, since no work started.

Failure discipline (R4): the executor call is wrapped in
:func:`~repro.errors.crash_boundary`; everything reaching the retry logic
is a typed ``ReproError`` or ``CandidateCrashError``.

``repro-lint-scope: determinism-boundary`` -- scheduling is wall-clock
(leases, backoff); the work itself stays seeded by the job spec.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional

from .. import profiling
from ..errors import (
    CandidateCrashError,
    JobNotFoundError,
    JobRecordError,
    LeaseError,
    LeaseLostError,
    ReproError,
    RunInterrupted,
    crash_boundary,
)
from ..faults import SITE_SERVER_WORKER, inject
from ..optimize.portfolio import PORTFOLIO_CHECKPOINT
from ..profiling import TelemetryConfig
from .executor import Executor, SimulationExecutor
from .jobstore import JobStore
from .records import (
    JobRecord,
    STATE_COMPLETED,
    STATE_PENDING,
    STATE_QUARANTINED,
    STATE_RUNNING,
)

__all__ = ["Reaper", "Worker"]

#: First retry delay [unit: s]; doubles per attempt (exponential backoff).
RETRY_BACKOFF_BASE = 2.0

#: Longest idle wait between claim scans [unit: s].  A record write through
#: the worker's own store wakes it at once; this poll is the fallback for
#: jobs submitted by other processes and for backoff ``not_before`` expiry.
POLL_INTERVAL = 0.2

#: The global tracer is process-wide state, so at most one job per process
#: is traced at a time; workers that lose this lock run their job untraced
#: rather than interleaving two jobs' spans into one export.
_TRACE_LOCK = threading.Lock()


def _worker_id(prefix: str) -> str:
    return f"{prefix}-{uuid.uuid4().hex[:8]}"


def _backoff(attempts: int, base: float) -> float:
    """Retry delay after ``attempts`` failures [unit: s]."""
    return base * (2.0 ** max(attempts - 1, 0))


class _Heartbeat:
    """Background lease renewal; flags the owner when the lease is lost."""

    def __init__(self, lease_file, lease, interval: float):
        self._lease_file = lease_file
        self.lease = lease
        self._interval = interval
        self._stop = threading.Event()
        self._lost = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval * 4 + 1.0)

    @property
    def lost(self) -> bool:
        """True once a renewal found the lease stolen or unrenewable."""
        return self._lost.is_set()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self.lease = self._lease_file.renew(self.lease)
            except (LeaseLostError, LeaseError):
                # Renewal failure (injected or real) means the lease will
                # expire and the reaper will requeue the job: this worker
                # must stand down, not race the next owner.
                self._lost.set()
                return


class Worker:
    """One job-executing worker bound to a store.

    Args:
        store: The durable queue.
        executor: Execution backend; defaults to in-process simulation.
        worker_id: Stable identity in leases/records (generated if absent).
        retry_backoff: Base retry delay [unit: s].
        trace_jobs: Arm span tracing per claimed job (the record's
            ``trace_id`` stitches API/worker/pool rows) and export the
            stitched Chrome trace next to the job's result.
    """

    def __init__(
        self,
        store: JobStore,
        executor: Optional[Executor] = None,
        worker_id: Optional[str] = None,
        retry_backoff: float = RETRY_BACKOFF_BASE,
        trace_jobs: bool = False,
    ):
        self.store = store
        self.executor = executor or SimulationExecutor()
        self.worker_id = worker_id or _worker_id("worker")
        self.retry_backoff = float(retry_backoff)
        self.trace_jobs = bool(trace_jobs)

    # -- claim loop ----------------------------------------------------

    def run_forever(
        self,
        stop_check: Callable[[], bool],
        poll_interval: float = POLL_INTERVAL,
    ) -> None:
        """Claim and execute jobs until ``stop_check`` returns true.

        Idle, the worker sleeps until a record of its store changes
        (submit, requeue, completion, or :meth:`JobStore.wake`) or
        ``poll_interval`` passes.  Event appends do not wake it: per-round
        progress never changes what is claimable.
        """
        while True:
            # Read before the stop check and the scan, so a submit or wake
            # that lands after them cuts the wait short.
            seen = self.store.generation(records_only=True)
            if stop_check():
                return
            if self.claim_once(stop_check) is None:
                self.store.wait_for_change(
                    seen, poll_interval, records_only=True
                )

    def claim_once(
        self, stop_check: Optional[Callable[[], bool]] = None
    ) -> Optional[str]:
        """Claim and fully process one eligible job; its id, or ``None``.

        ``None`` means the queue held nothing this worker could claim --
        empty, all backoff-gated, or every race lost.
        """
        for candidate in self.store.claimable():
            lease_file = self.store.lease(candidate.job_id)
            lease = lease_file.try_acquire(self.worker_id)
            if lease is None:
                continue  # lost the race; try the next job
            try:
                try:
                    record = self.store.get(candidate.job_id)
                except (JobNotFoundError, JobRecordError):
                    continue
                if (
                    record.state != STATE_PENDING
                    or record.not_before > time.time()
                ):
                    # The queue moved between scan and acquire (another
                    # worker finished it, the reaper requeued it with
                    # backoff, ...).
                    continue
                self._run_job(record, lease_file, lease, stop_check)
                return record.job_id
            finally:
                # Idempotent (token-guarded): the paths inside _run_job
                # have already released or deliberately ceded the lease.
                # This catches every other exit -- an unexpected exception
                # between acquisition and the heartbeat start would
                # otherwise strand a pending job behind an orphaned lease.
                lease_file.release(lease)
        return None

    # -- execution -----------------------------------------------------

    def _run_job(
        self,
        record: JobRecord,
        lease_file,
        lease,
        stop_check: Optional[Callable[[], bool]],
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
            # From when the job last became claimable: its submit or
            # requeue, or the end of its retry backoff.
            claimable_since = max(record.updated_at, record.not_before)
            profiling.observe(
                "server.queue_wait", max(time.time() - claimable_since, 0.0)
            )
            record = store.update(
                record.with_state(STATE_RUNNING, worker=self.worker_id)
            )
            store.log_event(
                job_id,
                "job.resumed" if resumed else "job.claimed",
                worker=self.worker_id,
                attempt=record.attempts + 1,
            )
            heartbeat = _Heartbeat(lease_file, lease, store.lease_ttl / 3.0)
            heartbeat.start()

            def interrupted() -> bool:
                if heartbeat.lost:
                    return True
                return bool(stop_check and stop_check())

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
                                interrupt_check=interrupted,
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
                heartbeat.stop()
                if heartbeat.lost:
                    return  # the reaper owns recovery now; touch nothing
                self._requeue_drained(record, lease_file, heartbeat.lease)
                return
            except LeaseLostError:
                heartbeat.stop()
                return
            except (ReproError, CandidateCrashError) as exc:
                heartbeat.stop()
                if not heartbeat.lost:
                    self._record_failure(
                        record, lease_file, heartbeat.lease, exc
                    )
                return
            heartbeat.stop()
            if heartbeat.lost:
                return
            self._commit(record, lease_file, heartbeat.lease, result, started)
        finally:
            if tracing:
                self._finish_tracing(record)
            profiling.set_thread_lane(prior_lane)

    # -- per-job tracing -----------------------------------------------

    def _arm_tracing(self, record: JobRecord) -> bool:
        """Arm the global tracer for this job; ``True`` when armed."""
        if not self.trace_jobs or record.trace_id is None:
            return False
        if not _TRACE_LOCK.acquire(blocking=False):
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
            _TRACE_LOCK.release()

    def _commit(self, record, lease_file, lease, result, started) -> None:
        """Persist result then record -- in that order (see Reaper)."""
        store = self.store
        store.write_result(record.job_id, result)
        try:
            lease_file.verify(lease)
        except LeaseLostError:
            return  # stale result file is harmless; the new owner rewrites
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
        lease_file.release(lease)

    def _requeue_drained(self, record, lease_file, lease) -> None:
        """Graceful interrupt: back to pending, attempt NOT charged."""
        store = self.store
        try:
            lease_file.verify(lease)
        except LeaseLostError:
            return
        # Event before record flip: a drain-time follower closes its
        # stream the moment the record leaves ``running``, so the final
        # ``job.interrupted`` line must already be on disk by then.
        store.log_event(
            record.job_id, "job.interrupted", worker=self.worker_id
        )
        store.update(record.with_state(STATE_PENDING, worker=None))
        lease_file.release(lease)

    def _record_failure(self, record, lease_file, lease, exc) -> None:
        store = self.store
        try:
            lease_file.verify(lease)
        except LeaseLostError:
            return
        attempts = record.attempts + 1
        message = f"{type(exc).__name__}: {exc}"
        if attempts >= record.max_attempts:
            store.update(
                record.with_state(
                    STATE_QUARANTINED, attempts=attempts, error=message
                )
            )
            store.log_event(
                record.job_id,
                "job.quarantined",
                worker=self.worker_id,
                attempts=attempts,
                error=message,
            )
            profiling.increment("server.jobs_quarantined")
        else:
            store.update(
                record.with_state(
                    STATE_PENDING,
                    attempts=attempts,
                    error=message,
                    worker=None,
                    not_before=time.time()
                    + _backoff(attempts, self.retry_backoff),
                )
            )
            store.log_event(
                record.job_id,
                "job.failed",
                worker=self.worker_id,
                attempts=attempts,
                error=message,
            )
            profiling.increment("server.jobs_failed")
        lease_file.release(lease)


class Reaper:
    """Reclaims jobs whose workers stopped heartbeating.

    Args:
        store: The durable queue.
        reaper_id: Identity used when stealing leases.
        retry_backoff: Base requeue delay [unit: s].
    """

    def __init__(
        self,
        store: JobStore,
        reaper_id: Optional[str] = None,
        retry_backoff: float = RETRY_BACKOFF_BASE,
    ):
        self.store = store
        self.reaper_id = reaper_id or _worker_id("reaper")
        self.retry_backoff = float(retry_backoff)

    def run_forever(
        self,
        stop: threading.Event,
        interval: Optional[float] = None,
    ) -> None:
        """Sweep every ``interval`` until ``stop`` is set (returns at once
        when it is, not at the end of the current interval)."""
        interval = (
            self.store.lease_ttl / 2.0 if interval is None else interval
        )
        while not stop.is_set():
            self.sweep()
            stop.wait(interval)

    def sweep(self) -> List[str]:
        """One recovery pass over the store; returns the reclaimed job ids.

        Two shapes of orphan are handled: a *running* job whose lease
        expired (the worker stopped heartbeating mid-job) is requeued with
        the crash charged as one attempt, and a *pending* job wedged
        behind an expired lease (the claimer died between lease
        acquisition and the record flip to running) has the orphaned
        lease cleared with no attempt charged -- the work never started.
        """
        reclaimed: List[str] = []
        for record in self.store.list_jobs():
            if record.state == STATE_RUNNING:
                if self._reclaim(record):
                    reclaimed.append(record.job_id)
            elif record.state == STATE_PENDING:
                if self._clear_orphaned_lease(record):
                    reclaimed.append(record.job_id)
        return reclaimed

    def _clear_orphaned_lease(self, record: JobRecord) -> bool:
        """Unwedge a pending job whose claimer died holding the lease.

        ``try_acquire`` refuses existing leases even when expired (expiry
        is reclaimed explicitly, never stolen implicitly on claim), so a
        worker SIGKILLed inside the claim window -- lease on disk, record
        still ``pending`` -- would block the job forever without this
        sweep.  Clearing is free: no attempt is charged because no work
        started, and the job becomes claimable again immediately.
        """
        store = self.store
        lease_file = store.lease(record.job_id)
        current = lease_file.read()
        if current is None or not current.expired:
            return False  # unleased (normal pending) or a live claimer
        lease = lease_file.steal_expired(self.reaper_id)
        if lease is None:
            return False  # a racing reaper won, or the view went stale
        try:
            fresh = store.get(record.job_id)
        except (JobNotFoundError, JobRecordError):
            lease_file.release(lease)
            return False
        if fresh.state != STATE_PENDING:
            # The claimer was alive after all and flipped the record; it
            # will lose its lease at the next heartbeat and the running
            # sweep owns recovery from there.
            lease_file.release(lease)
            return False
        store.log_event(
            record.job_id,
            "job.orphaned_lease_cleared",
            reaper=self.reaper_id,
            dead_claimer=current.owner,
        )
        profiling.increment("server.orphaned_leases_cleared")
        lease_file.release(lease)
        return True

    def _reclaim(self, record: JobRecord) -> bool:
        store = self.store
        lease_file = store.lease(record.job_id)
        current = lease_file.read()
        if current is not None and not current.expired:
            return False  # the worker is alive and heartbeating
        if current is None:
            # Running record with no lease at all: the owner died in the
            # narrow window around release.  Claim it directly.
            lease = lease_file.try_acquire(self.reaper_id)
        else:
            lease = lease_file.steal_expired(self.reaper_id)
        if lease is None:
            return False  # a racing reaper (or revived worker) won
        try:
            record = store.get(record.job_id)
        except (JobNotFoundError, JobRecordError):
            lease_file.release(lease)
            return False
        if record.state != STATE_RUNNING:
            lease_file.release(lease)
            return False
        if store.result_path(record.job_id).exists():
            # The worker finished the work and died before the final
            # record write: commit, don't re-run.
            store.update(record.with_state(STATE_COMPLETED, error=None))
            store.log_event(
                record.job_id, "job.completed", worker=self.reaper_id
            )
            profiling.increment("server.jobs_completed")
            lease_file.release(lease)
            return True
        attempts = record.attempts + 1
        dead = record.worker or "<unknown>"
        if attempts >= record.max_attempts:
            store.update(
                record.with_state(
                    STATE_QUARANTINED,
                    attempts=attempts,
                    error=f"worker {dead} lost its lease mid-job "
                    f"(crash presumed), attempt {attempts}",
                )
            )
            store.log_event(
                record.job_id,
                "job.quarantined",
                reaper=self.reaper_id,
                dead_worker=dead,
                attempts=attempts,
            )
            profiling.increment("server.jobs_quarantined")
        else:
            store.update(
                record.with_state(
                    STATE_PENDING,
                    attempts=attempts,
                    worker=None,
                    error=f"reclaimed from {dead} (lease expired)",
                    not_before=time.time()
                    + _backoff(attempts, self.retry_backoff),
                )
            )
            store.log_event(
                record.job_id,
                "job.lease_reclaimed",
                reaper=self.reaper_id,
                dead_worker=dead,
                attempts=attempts,
            )
        lease_file.release(lease)
        return True
