"""The durable job store: one directory per job, everything crash-safe.

Layout under the store root::

    store.lock          # flock'd by the one JobStore object that owns the root
    jobs/
      j<ts>-<id>/
        record.json     # queue state (records.py header+CRC format)
        checkpoint/     # the job's portfolio checkpoint dir (resume here)
        result.json     # written once, atomically, on completion
        events.jsonl    # per-job lifecycle event log (append-only)

The store is the only component that touches this layout; workers,
restart-time recovery, and the HTTP API all go through it.  Every record
write is atomic (:func:`repro.server.records.write_record`), so a crash at
any instant leaves each job either absent or fully valid -- a
half-submitted job cannot exist.  Corrupt records (injected torn writes,
disk faults) are surfaced explicitly by :meth:`JobStore.scan` instead of
being silently skipped.

One object owns a root: the constructor takes an exclusive, non-blocking
``flock`` on ``store.lock`` and :meth:`JobStore.close` drops it, so a
second opener -- in this process or another -- gets
:class:`~repro.errors.JobStoreLockedError`.  Holding the lock proves every
``running`` record on disk was left by a dead owner
(:func:`repro.server.worker.recover_running`).  The kernel drops the lock
when the owning process dies, however it dies; a forked child closes its
inherited copy at once, so a pool worker that outlives a killed server
cannot keep the root locked.  ``flock`` is not reliable on network
filesystems: keep the root on a local disk.

Per-tenant admission control lives here too: a tenant may hold at most
``tenant_cap`` non-terminal jobs; past that, :meth:`submit` raises
:class:`~repro.errors.JobQueueFullError` (the API maps it to 429 with a
``Retry-After``).  Admission and claims share one in-process lock, which
makes the cap exact and gives every pending job exactly one claimer.

Change notification is in-process too: every record write and event
append bumps a generation counter under one condition variable, and
:meth:`JobStore.wait_for_change` blocks until it moves.  Since every
writer is a thread of the owning process, idle workers and ``follow=1``
streams wake the moment a job changes, with no polling.

The store stamps wall-clock queue times and draws job ids, which the
nondeterminism source guard allows in ``repro.server``; the work each job
runs stays seeded by its spec.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import threading
import time
import uuid
import weakref
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import profiling
from ..checkpoint.atomic import append_jsonl, atomic_write_json
from ..errors import (
    JobNotFoundError,
    JobQueueFullError,
    JobRecordError,
    JobStateError,
    JobStoreLockedError,
)
from ..telemetry.names import check_name
from ..telemetry.promexpo import gauge
from ..telemetry.runlog import read_run_log
from .records import (
    JobRecord,
    STATE_COMPLETED,
    STATE_PENDING,
    STATE_RUNNING,
    TERMINAL_STATES,
    new_job_id,
    read_record,
    write_record,
)

__all__ = ["JobStore"]

#: The lock file at the store root; its ``flock`` marks the owning object.
LOCK_FILENAME = "store.lock"

#: ``Retry-After`` of a tenant-cap rejection [unit: s].
TENANT_CAP_RETRY_AFTER = 15.0

#: File names inside one job directory.
RECORD_FILENAME = "record.json"
RESULT_FILENAME = "result.json"
EVENTS_FILENAME = "events.jsonl"
TRACE_FILENAME = "trace.json"
CHECKPOINT_DIRNAME = "checkpoint"

#: The shape :func:`repro.server.records.new_job_id` produces.  Job ids
#: arrive from the network as URL path segments; anything else -- ``..``,
#: separators, absolute paths -- must never reach a filesystem join.
_JOB_ID_RE = re.compile(r"j[0-9a-f]{16,}-[0-9a-f]{10}")

#: Every store that holds its root's lock in this process.
_OPEN_STORES: "weakref.WeakSet[JobStore]" = weakref.WeakSet()


def _close_inherited_locks() -> None:
    """In a forked child: close the inherited lock files.

    A plain ``close``, never ``LOCK_UN``: the lock belongs to the open
    file the parent shares, and unlocking it here would free the parent's
    root.  Closing only drops the child's reference, so the lock lives
    exactly as long as the parent holds it.
    """
    for store in list(_OPEN_STORES):
        store._lock_file.close()
    _OPEN_STORES.clear()


os.register_at_fork(after_in_child=_close_inherited_locks)


class JobStore:
    """Filesystem-backed durable job queue; the one owner of its root.

    Args:
        root: Store root directory (created on first use).
        tenant_cap: Max non-terminal jobs one tenant may hold; exceeding
            submissions are rejected with
            :class:`~repro.errors.JobQueueFullError`.

    Raises:
        JobStoreLockedError: Another object owns ``root``; it stays owned
            until that object's :meth:`close` or its process's death.
    """

    def __init__(self, root: Union[str, Path], tenant_cap: int = 8):
        if tenant_cap < 1:
            raise JobStateError(f"tenant_cap must be >= 1, got {tenant_cap}")
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.tenant_cap = int(tenant_cap)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock_file = open(self.root / LOCK_FILENAME, "ab")
        try:
            fcntl.flock(self._lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            self._lock_file.close()
            raise JobStoreLockedError(
                f"job store {self.root} is owned by another JobStore "
                f"(another server on this root?); one process owns a store"
            ) from None
        _OPEN_STORES.add(self)
        self._lock = threading.Lock()
        self._changed = threading.Condition()
        self._record_changes = 0
        self._event_changes = 0

    # -- ownership -----------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` gave up the root."""
        return self._lock_file.closed

    def close(self) -> None:
        """Give up the root (idempotent); a new store may open it now.

        Reads keep working on a closed store; record writes raise
        :class:`~repro.errors.JobStateError`, since the root may have a
        new owner.
        """
        _OPEN_STORES.discard(self)
        self._lock_file.close()  # closing the last descriptor unlocks

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_owned(self) -> None:
        if self.closed:
            raise JobStateError(
                f"job store {self.root} is closed; it no longer owns the root"
            )

    # -- change notification -------------------------------------------

    def generation(self, records_only: bool = False) -> int:
        """How many times this store object has changed so far.

        Counts record writes (:meth:`submit`, :meth:`update`) and, unless
        ``records_only``, event appends (:meth:`log_event`) too.  Read it
        *before* looking at the store, then hand it to
        :meth:`wait_for_change`, so a change that lands in between is not
        slept through.
        """
        with self._changed:
            return self._count(records_only)

    def wait_for_change(
        self, seen: int, timeout: Optional[float], records_only: bool = False
    ) -> int:
        """Block until :meth:`generation` moves past ``seen``, or
        ``timeout`` [unit: s] passes; returns the generation then.

        ``timeout=None`` waits for a change however long it takes.  Every
        writer goes through this object, so no change is missed.
        """
        with self._changed:
            self._changed.wait_for(
                lambda: self._count(records_only) != seen, timeout
            )
            return self._count(records_only)

    def wake(self) -> None:
        """Wake every waiter as if a record changed (shutdown uses this so
        idle loops see their stop flag at once)."""
        self._bump(records=True)

    def _count(self, records_only: bool) -> int:
        if records_only:
            return self._record_changes
        return self._record_changes + self._event_changes

    def _bump(self, records: bool) -> None:
        with self._changed:
            if records:
                self._record_changes += 1
            else:
                self._event_changes += 1
            self._changed.notify_all()

    # -- paths ---------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        """The directory of job ``job_id`` (not required to exist).

        Raises:
            JobNotFoundError: ``job_id`` does not have the shape
                :func:`~repro.server.records.new_job_id` mints.  Ids come
                off the wire as path segments; a malformed one (``..``,
                separators) can never name a job and must never be joined
                onto the store root.
        """
        if not _JOB_ID_RE.fullmatch(job_id):
            raise JobNotFoundError(f"no job {job_id!r}")
        return self.jobs_dir / job_id

    def record_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / RECORD_FILENAME

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / RESULT_FILENAME

    def events_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / EVENTS_FILENAME

    def trace_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / TRACE_FILENAME

    def checkpoint_dir(self, job_id: str) -> Path:
        """The job's portfolio checkpoint dir (crash-resume state)."""
        return self.job_dir(job_id) / CHECKPOINT_DIRNAME

    # -- admission -----------------------------------------------------

    def submit(self, spec: Dict[str, Any], tenant: str = "default") -> JobRecord:
        """Admit a validated spec as a new pending job.

        Raises:
            JobQueueFullError: ``tenant`` already holds ``tenant_cap``
                non-terminal jobs.
        """
        with self._lock:
            self._check_owned()
            active = self.active_count(tenant)
            if active >= self.tenant_cap:
                raise JobQueueFullError(
                    f"tenant {tenant!r} has {active} active jobs "
                    f"(cap {self.tenant_cap}); retry after one completes",
                    retry_after=TENANT_CAP_RETRY_AFTER,
                )
            now = time.time()
            record = JobRecord(
                job_id=new_job_id(),
                tenant=tenant,
                state=STATE_PENDING,
                spec=dict(spec),
                attempts=0,
                max_attempts=int(spec.get("max_attempts", 3)),
                submitted_at=now,
                updated_at=now,
                trace_id=uuid.uuid4().hex,
            )
            directory = self.job_dir(record.job_id)
            directory.mkdir(parents=True, exist_ok=False)
            write_record(self.record_path(record.job_id), record)
        self._bump(records=True)
        self.log_event(record.job_id, "job.submitted", tenant=tenant)
        profiling.increment("server.jobs_submitted")
        return record

    # -- reading -------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        """The current record of ``job_id``.

        Raises:
            JobNotFoundError: No such job directory or record file.
            JobRecordError: The record exists but fails validation.
        """
        path = self.record_path(job_id)
        if not path.exists():
            raise JobNotFoundError(f"no job {job_id!r}")
        return read_record(path)

    def scan(self) -> Tuple[List[JobRecord], List[str]]:
        """Every job in the store: ``(valid_records, invalid_job_ids)``.

        Valid records come back sorted by ``(submitted_at, job_id)``.
        Invalid ids name directories whose record is missing or fails
        validation (a crash between ``mkdir`` and the first record write,
        or injected corruption) -- surfaced, never silently dropped.
        """
        records: List[JobRecord] = []
        invalid: List[str] = []
        if not self.jobs_dir.exists():
            return records, invalid
        for entry in sorted(self.jobs_dir.iterdir()):
            if not entry.is_dir():
                continue
            try:
                records.append(read_record(entry / RECORD_FILENAME))
            except (JobNotFoundError, JobRecordError, OSError):
                invalid.append(entry.name)
        records.sort(key=lambda r: (r.submitted_at, r.job_id))
        return records, invalid

    def list_jobs(self) -> List[JobRecord]:
        """All valid records, oldest submission first."""
        return self.scan()[0]

    def claimable(self, now: Optional[float] = None) -> List[JobRecord]:
        """Pending jobs eligible to run (``not_before`` elapsed), FIFO."""
        now = time.time() if now is None else now
        return [
            record
            for record in self.list_jobs()
            if record.state == STATE_PENDING and record.not_before <= now
        ]

    def next_claim_in(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the earliest backoff-gated pending job becomes
        claimable [unit: s]; ``None`` when no pending job is gated."""
        now = time.time() if now is None else now
        gates = [
            record.not_before - now
            for record in self.list_jobs()
            if record.state == STATE_PENDING and record.not_before > now
        ]
        return min(gates) if gates else None

    def active_count(self, tenant: str) -> int:
        """Non-terminal jobs currently held by ``tenant``."""
        return sum(
            1
            for record in self.list_jobs()
            if record.tenant == tenant
            and record.state not in TERMINAL_STATES
        )

    def queue_depth(self) -> Dict[str, int]:
        """Job count per state (plus ``"invalid"``) -- readiness input."""
        records, invalid = self.scan()
        depth: Dict[str, int] = {"invalid": len(invalid)}
        for record in records:
            depth[record.state] = depth.get(record.state, 0) + 1
        return depth

    # -- writing -------------------------------------------------------

    def claim(self, worker: str) -> Optional[JobRecord]:
        """Flip the oldest claimable job to ``running`` for ``worker``.

        Returns the running record, or ``None`` when nothing is claimable.
        The atomic record write is the claim; the store's lock makes it
        the only one.  Observes ``server.queue_wait`` from when the job
        last became claimable: its submit or requeue, or the end of its
        retry backoff.
        """
        with self._lock:
            for record in self.claimable():
                running = self.update(
                    record.with_state(STATE_RUNNING, worker=worker)
                )
                claimable_since = max(record.updated_at, record.not_before)
                profiling.observe(
                    "server.queue_wait",
                    max(running.updated_at - claimable_since, 0.0),
                )
                return running
        return None

    def update(self, record: JobRecord) -> JobRecord:
        """Atomically persist ``record`` over the previous version.

        Raises:
            JobNotFoundError: The job was never submitted here.
            JobStateError: The store is closed.
        """
        self._check_owned()
        if not self.job_dir(record.job_id).is_dir():
            raise JobNotFoundError(f"no job {record.job_id!r}")
        write_record(self.record_path(record.job_id), record)
        self._bump(records=True)
        return record

    def write_result(self, job_id: str, result: Dict[str, Any]) -> Path:
        """Atomically persist the completed job's result payload."""
        return atomic_write_json(self.result_path(job_id), result)

    def read_result(self, job_id: str) -> Dict[str, Any]:
        """The result payload of a completed job.

        Raises:
            JobNotFoundError: No such job.
            JobStateError: The job exists but has not completed.
        """
        record = self.get(job_id)
        path = self.result_path(job_id)
        if record.state != STATE_COMPLETED or not path.exists():
            raise JobStateError(
                f"job {job_id} is {record.state}, not completed; "
                f"no result available"
            )
        return json.loads(path.read_text("utf-8"))

    # -- per-job trace export ------------------------------------------

    def write_trace(self, job_id: str, trace: Dict[str, Any]) -> Path:
        """Atomically persist the job's Chrome trace-event export."""
        return atomic_write_json(self.trace_path(job_id), trace)

    def read_trace(self, job_id: str) -> Dict[str, Any]:
        """The job's stitched Chrome trace export.

        Raises:
            JobNotFoundError: No such job.
            JobStateError: The job exists but no trace was exported (the
                service ran without ``--trace-jobs``, or the job has not
                finished an attempt yet).
        """
        self.get(job_id)  # surfaces JobNotFoundError / JobRecordError
        path = self.trace_path(job_id)
        if not path.exists():
            raise JobStateError(
                f"job {job_id} has no trace export; run the service with "
                f"job tracing enabled and let the job complete an attempt"
            )
        return json.loads(path.read_text("utf-8"))

    # -- gauges ---------------------------------------------------------

    def collect_gauges(self, now: Optional[float] = None) -> List[dict]:
        """Point-in-time gauge samples for ``/metrics`` and ``/readyz``.

        One scan of the store yields queue depth by state, the age of the
        oldest pending job, and per-tenant active-job counts.
        """
        now = time.time() if now is None else now
        records, invalid = self.scan()
        depth: Dict[str, int] = {}
        tenants: Dict[str, int] = {}
        oldest_pending: Optional[float] = None
        for record in records:
            depth[record.state] = depth.get(record.state, 0) + 1
            if record.state not in TERMINAL_STATES:
                tenants[record.tenant] = tenants.get(record.tenant, 0) + 1
            if record.state == STATE_PENDING:
                if oldest_pending is None or record.submitted_at < oldest_pending:
                    oldest_pending = record.submitted_at
        samples = [
            gauge("server.queue_depth", count, state=state)
            for state, count in sorted(depth.items())
        ]
        samples.append(
            gauge("server.queue_depth", len(invalid), state="invalid")
        )
        samples.append(
            gauge(
                "server.oldest_pending_age_s",
                0.0 if oldest_pending is None else max(now - oldest_pending, 0.0),
            )
        )
        samples.extend(
            gauge("server.tenant_active_jobs", count, tenant=tenant)
            for tenant, count in sorted(tenants.items())
        )
        return samples

    # -- per-job event log ---------------------------------------------

    def log_event(self, job_id: str, event_type: str, **fields: Any) -> None:
        """Append one lifecycle event to the job's durable event log.

        Raises:
            TelemetryError: ``event_type`` is not a registered name.
        """
        check_name(event_type)
        record = {"type": event_type, "t_wall": time.time(), **fields}
        append_jsonl(self.events_path(job_id), record, fsync=False)
        self._bump(records=False)

    def events(
        self, job_id: str, offset: int = 0, limit: Optional[int] = None
    ) -> List[dict]:
        """The job's lifecycle events from ``offset`` on (may be empty).

        Args:
            offset: Events to skip from the start of the log.
            limit: Cap on returned events (``None`` means all).

        Raises:
            JobNotFoundError: No such job.
        """
        if not self.job_dir(job_id).is_dir():
            raise JobNotFoundError(f"no job {job_id!r}")
        path = self.events_path(job_id)
        if not path.exists():
            return []
        events = read_run_log(path)[offset:]
        return events if limit is None else events[:limit]
