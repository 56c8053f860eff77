"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still letting
programming errors (``TypeError`` etc.) propagate.

This module is also the one sanctioned *crash-translation boundary*
(``repro-lint-scope: error-boundary``): :func:`crash_boundary` is the only
place allowed to catch ``Exception``, converting anything that is not a
:class:`ReproError` into a :class:`CandidateCrashError` so batch evaluators
can tell "this candidate is infeasible" apart from "this code is broken"
without ever swallowing a genuine bug.  Everywhere else, the R4 lint rule
forbids broad excepts and builtin raises.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GeometryError(ReproError):
    """Invalid stack or grid geometry (bad dimensions, overlapping layers...)."""


class DesignRuleError(ReproError):
    """A cooling network violates one of the design rules of Section 3."""

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        #: Individual violation descriptions, one string each.
        self.violations: list = list(violations) if violations else []


class FlowError(ReproError):
    """The flow network is ill-posed (no inlet, no outlet, disconnected...)."""


class ThermalError(ReproError):
    """The thermal system cannot be assembled or solved."""


class LinalgError(ReproError):
    """Raised by :mod:`repro.linalg`: non-sparse or non-square input, or a
    singular or otherwise failed factorization.  Callers translate it into
    their own domain error (:class:`FlowError` / :class:`ThermalError`)."""


class SearchError(ReproError):
    """A pressure search or optimization loop failed to make progress."""


class InfeasibleError(ReproError):
    """No feasible operating point exists for the given constraints."""

    def __init__(self, message: str, best_value: float | None = None):
        super().__init__(message)
        #: Best (infeasible) value encountered, useful for diagnostics.
        self.best_value = best_value


class BenchmarkError(ReproError):
    """A benchmark case definition or file is invalid."""


class LintError(ReproError):
    """The static-analysis pass was misconfigured or hit unparsable input."""


class PoolError(ReproError):
    """A parallel evaluation pool failed as a whole (not one candidate)."""


class WorkerTimeoutError(PoolError):
    """A worker batch made no progress within the configured timeout."""


class WorkerLostError(PoolError):
    """A worker process died (crash, kill, OOM) mid-batch."""


class CheckpointError(ReproError):
    """A checkpoint file cannot be trusted for resume.

    Raised by :mod:`repro.checkpoint` whenever a file is not a checkpoint at
    all, was written by a different schema version, carries a payload whose
    CRC does not match (truncated/corrupted write), or fingerprints a
    different run setup (other case, stage list, seed...).  The contract is
    strict: a resume either restores the exact recorded state or fails with
    this error -- never a silent wrong-state resume.
    """


class RunInterrupted(ReproError):
    """A supervised run stopped on request after flushing a checkpoint.

    Raised by :func:`repro.optimize.portfolio.run_portfolio` at a round
    boundary when the run supervisor (SIGINT / SIGTERM handler in
    :mod:`repro.cli`, a service drain, or any ``interrupt_check`` callback)
    asked the run to stop; that round's checkpoint has already been written
    when this propagates, so the run can be resumed later.

    Attributes:
        checkpoint_path: Where the final checkpoint was flushed.
    """

    def __init__(self, message: str, checkpoint_path: "str | None" = None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


class FaultConfigError(ReproError):
    """A fault-injection plan references an unknown site/kind or bad knobs."""


class TelemetryError(ReproError):
    """A telemetry artifact or configuration cannot be trusted.

    Raised by :mod:`repro.profiling` / :mod:`repro.telemetry` on histogram
    bucket-bound mismatches, malformed run-log files (corruption anywhere
    other than a torn final line), or invalid report/export requests.
    """


class JobError(ReproError):
    """Base class for the design-as-a-service job layer (:mod:`repro.server`).

    Every rejection path in the job store, scheduler, and HTTP API raises
    a :class:`JobError` subclass, so the API layer can map library
    failures onto typed HTTP responses (and so no queue-layer failure is
    ever a bare builtin exception).
    """


class JobValidationError(JobError):
    """A job submission payload is invalid (HTTP 400).

    Attributes:
        field: The offending payload field, when one can be named.
    """

    def __init__(self, message: str, field: "str | None" = None):
        super().__init__(message)
        self.field = field


class JobNotFoundError(JobError):
    """No job with the requested id exists in the store (HTTP 404)."""


class JobStateError(JobError):
    """The job exists but is in the wrong state for the request (HTTP 409),
    e.g. fetching the result of a job that has not completed."""


class JobRecordError(JobError):
    """A persisted job record cannot be trusted (bad magic, schema version
    skew, CRC mismatch, truncated write).  The store treats such records
    like checkpoints: reject loudly, never half-parse."""


class JobQueueFullError(JobError):
    """A tenant's active-job cap is exhausted (HTTP 429).

    Attributes:
        retry_after: Suggested client backoff in seconds.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class JobStoreLockedError(JobError):
    """Another :class:`~repro.server.jobstore.JobStore` object -- in this
    process or another -- already owns the store root.

    One object owns a root at a time (an exclusive lock on
    ``<root>/store.lock``), which is what lets restart-time recovery treat
    every ``running`` record it finds as orphaned by a dead process.
    """


class ServerBindError(JobError):
    """The service cannot listen on its address (already in use, or not
    allowed); ``repro serve`` exits 1 with this message."""


class InjectedFaultError(ReproError):
    """A deliberate fault raised by :mod:`repro.faults` as a *library* error.

    Being a :class:`ReproError`, evaluation loops treat it exactly like a
    genuinely infeasible candidate -- which is the point: chaos tests use it
    to prove the infeasible path, not the crash path.
    """


class CandidateCrashError(RuntimeError):
    """An unexpected (non-:class:`ReproError`) exception while scoring a
    candidate.  Deliberately *not* a ``ReproError``: optimization loops must
    not swallow it as just another infeasible network."""


@contextmanager
def crash_boundary(context: str) -> Iterator[None]:
    """The sanctioned translation boundary around untrusted evaluation.

    Lets :class:`ReproError` (infeasible/illegal inputs) and
    :class:`CandidateCrashError` (already translated) propagate untouched;
    any other exception is a programming error and is re-raised as
    :class:`CandidateCrashError` with ``context`` in the message so the
    crashing point stays reproducible across process boundaries.
    """
    try:
        yield
    except (ReproError, CandidateCrashError):
        raise
    except Exception as exc:
        raise CandidateCrashError(
            f"{context} crashed: {type(exc).__name__}: {exc}"
        ) from exc
