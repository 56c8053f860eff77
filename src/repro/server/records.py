"""The durable job record: header + CRC-validated JSON body, one per job.

A job record file uses the :mod:`repro.checkpoint` framing
(:func:`~repro.checkpoint.format.pack_armored`) -- one ASCII JSON header
line followed by the payload, here a UTF-8 JSON document instead of a
pickle::

    {"body_bytes": ..., "crc32": ..., "magic": "repro-job", "version": 1}\\n
    { ...the JobRecord fields, indented JSON... }

The header rejects a file before a single body byte is interpreted: bad
magic (not a job record at all), schema version skew (a newer/older build's
layout), byte-length mismatch (partial write), CRC mismatch (corruption).
Every rejection raises a typed :class:`~repro.errors.JobRecordError`; the
store never half-parses a record.

Writes serialize fully in memory, pass the bytes through the
``server.jobstore.record`` fault hook (the ``torn-write`` chaos kind
truncates them here), and land via
:func:`repro.checkpoint.atomic.atomic_write_bytes` -- so outside injected
corruption, a reader sees either the previous complete record or the new
one, never a tear.

Job ids draw entropy and records carry wall-clock submission/update
timestamps -- queue state, not algorithm state; ``repro.server`` is one of
the packages the nondeterminism source guard
(``tests/test_source_guards.py``) lets read clocks and entropy.  The
*work* a record describes stays deterministic: the spec seeds every RNG.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import JobRecordError
from ..checkpoint.atomic import atomic_write_bytes
from ..checkpoint.format import pack_armored, unpack_armored
from ..faults import SITE_SERVER_RECORD, corrupt

__all__ = [
    "JOB_RECORD_MAGIC",
    "JOB_RECORD_VERSION",
    "JOB_STATES",
    "JobRecord",
    "STATE_COMPLETED",
    "STATE_PENDING",
    "STATE_QUARANTINED",
    "STATE_RUNNING",
    "TERMINAL_STATES",
    "new_job_id",
    "read_record",
    "write_record",
]

#: File-type marker of the header line.
JOB_RECORD_MAGIC = "repro-job"

#: Schema version of the JSON body (bump on any layout change).
JOB_RECORD_VERSION = 1

#: Waiting for a worker (fresh submission, retry backoff, or recovered).
STATE_PENDING = "pending"
#: Claimed by a worker of the process that owns the store; found at
#: start-up, it was left by a dead process and is recovered.
STATE_RUNNING = "running"
#: Finished; ``result.json`` holds the outcome.
STATE_COMPLETED = "completed"
#: Poisoned: failed ``max_attempts`` times and will not be retried.
STATE_QUARANTINED = "quarantined"

#: Every legal record state.
JOB_STATES = frozenset(
    {STATE_PENDING, STATE_RUNNING, STATE_COMPLETED, STATE_QUARANTINED}
)

#: States a job never leaves.
TERMINAL_STATES = frozenset({STATE_COMPLETED, STATE_QUARANTINED})


def new_job_id() -> str:
    """A fresh collision-free job id, sortable by submission time."""
    return f"j{time.time_ns():016x}-{uuid.uuid4().hex[:10]}"


@dataclass(frozen=True)
class JobRecord:
    """One job's durable queue state (everything but the result payload).

    Attributes:
        job_id: Store-unique id (:func:`new_job_id`).
        tenant: Submitting tenant (per-tenant queue caps key off this).
        state: One of :data:`JOB_STATES`.
        spec: The validated submission payload
            (:func:`repro.server.validation.validate_submission`); fully
            determines the deterministic work the job runs.
        attempts: Completed execution attempts that failed or were
            reclaimed after a crash (graceful interrupts do not count).
        max_attempts: Quarantine threshold.
        submitted_at: Wall-clock submission time [unit: s].
        updated_at: Wall-clock time of the last record write [unit: s].
        not_before: Earliest wall-clock time a worker may claim the job
            [unit: s] (retry backoff; 0 means immediately).
        worker: Id of the worker holding/last holding the job.
        error: Last failure message (quarantine diagnosis).
        trace_id: Correlation id minted at submission; every span the job
            produces (API, worker, pool workers) is stitched under it in
            the per-job Chrome trace export.  Optional so records written
            by older builds still parse under the same schema version.
    """

    job_id: str
    tenant: str
    state: str
    spec: Dict[str, Any]
    attempts: int = 0
    max_attempts: int = 3
    submitted_at: float = 0.0
    updated_at: float = 0.0
    not_before: float = 0.0
    worker: Optional[str] = None
    error: Optional[str] = None
    trace_id: Optional[str] = None

    def with_state(self, state: str, **changes: Any) -> "JobRecord":
        """A copy in ``state`` with ``updated_at`` restamped."""
        if state not in JOB_STATES:
            raise JobRecordError(f"unknown job state {state!r}")
        return replace(self, state=state, updated_at=time.time(), **changes)

    @property
    def terminal(self) -> bool:
        """Whether the job can never run again."""
        return self.state in TERMINAL_STATES


def write_record(path: Union[str, Path], record: JobRecord) -> Path:
    """Serialize ``record`` and atomically persist it; returns the path."""
    if record.state not in JOB_STATES:
        raise JobRecordError(
            f"refusing to persist record {record.job_id} with unknown "
            f"state {record.state!r}"
        )
    body = json.dumps(asdict(record), indent=2, sort_keys=True).encode("utf-8")
    data = pack_armored(
        JOB_RECORD_MAGIC, JOB_RECORD_VERSION, body, "body_bytes"
    )
    return atomic_write_bytes(path, corrupt(SITE_SERVER_RECORD, data))


def read_record(path: Union[str, Path]) -> JobRecord:
    """Validate and deserialize a record written by :func:`write_record`.

    Raises:
        JobRecordError: missing/unreadable file, bad magic, schema version
            skew, body length mismatch (torn write), CRC mismatch
            (corruption), or a body that is not a well-formed record.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise JobRecordError(f"cannot read job record {path}: {exc}") from exc
    _, body = unpack_armored(
        path,
        raw,
        kind="job record",
        magic=JOB_RECORD_MAGIC,
        version=JOB_RECORD_VERSION,
        length_key="body_bytes",
        error=JobRecordError,
    )
    try:
        fields = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JobRecordError(
            f"{path}: body passed CRC but is not valid JSON: {exc}"
        ) from exc
    if not isinstance(fields, dict):
        raise JobRecordError(f"{path}: record body must be a JSON object")
    try:
        record = JobRecord(**fields)
    except TypeError as exc:
        raise JobRecordError(
            f"{path}: record body has wrong fields: {exc}"
        ) from exc
    if record.state not in JOB_STATES:
        raise JobRecordError(
            f"{path}: record carries unknown state {record.state!r}"
        )
    return record
