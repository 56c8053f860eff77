"""The documented registry of telemetry names (spans, metrics, run events).

Every span, counter, histogram, run-event type and gauge used anywhere in
the repo is declared here, once, as a dot-namespaced string.  A
``profiling.timer`` name is both a histogram and (while tracing) a span, so
it is declared in both sets.  Every sink where a name enters telemetry
-- the ``profiling.increment`` / ``observe`` / ``timer`` / ``span`` /
``instant`` helpers, ``runlog.emit_event`` and ``RunLog.emit``,
``JobStore.log_event`` and ``promexpo.gauge`` -- passes it through
:func:`check_name`, so a typo'd or undocumented name raises
:class:`~repro.errors.TelemetryError` the first time it is recorded instead
of silently forking the metric namespace.  ``docs/OBSERVABILITY.md``
renders the same registry as prose tables.

Naming convention: ``<subsystem>.<noun_or_verb>[.<qualifier>]`` --
lowercase, underscores inside segments, dots between them, at least two
segments.  Dynamic suffixes (per-kind fault counters) are declared as
wildcard prefixes (``faults.injected.*``): any name that continues past
the wildcard's dot is registered, ``faults.injectedx`` is not.

This module is imported by :mod:`repro.profiling` and so depends only on
:mod:`repro.errors`; keep it pure data plus the one check.
"""

from __future__ import annotations

from typing import FrozenSet

from ..errors import TelemetryError

#: Span names: ``profiling.span`` / ``instant``, and every
#: ``profiling.timer`` (recorded while tracing).
SPAN_NAMES: FrozenSet[str] = frozenset(
    {
        "checkpoint.save",
        "cooling.evaluate_problem1",
        "cooling.evaluate_problem2",
        "flow.unit_solve",
        "linalg.factorize",
        "linalg.incremental_solve",
        "optimize.candidate",
        "optimize.final_eval",
        "optimize.rescore",
        "optimize.round",
        "portfolio.optimizer",
        "portfolio.promote",
        "server.http",
        "server.job",
        "parallel.batch",
        "parallel.candidate",
        "parallel.degraded",
        "parallel.retry",
        "parallel.timeout",
        "parallel.worker_lost",
        "thermal.factorize",
        "thermal.rc2.solve",
        "thermal.rc4.solve",
        "thermal.solve",
    }
)

#: Counter and histogram names on :mod:`repro.profiling` (a timer's
#: histogram carries the timer's name).
METRIC_NAMES: FrozenSet[str] = frozenset(
    {
        "checkpoint.loads",
        "checkpoint.resumes",
        "checkpoint.saves",
        "cooling.cache_hits",
        "cooling.simulations",
        "faults.injected",
        "cooling.exact_recomputes",
        "flow.unit_cache_hits",
        "flow.unit_solve",
        "flow.unit_solves",
        "linalg.factorizations",
        "linalg.factorize",
        "linalg.incremental_fallbacks",
        "linalg.incremental_solve",
        "linalg.incremental_solves",
        "linalg.shift_bases",
        "linalg.shift_rank",
        "optimize.batch_cache_hits",
        "optimize.candidate",
        "parallel.batch",
        "parallel.batch_size",
        "parallel.batches",
        "parallel.candidates",
        "parallel.context_loads",
        "parallel.crashed",
        "parallel.degraded",
        "parallel.infeasible",
        "parallel.pool_failures",
        "parallel.pool_starts",
        "parallel.retries",
        "parallel.serial_fallback",
        "parallel.timeouts",
        "parallel.worker_lost",
        "parallel.worker_replacements",
        "portfolio.high_evals",
        "portfolio.low_evals",
        "portfolio.promotions",
        "search.probes",
        "server.http_requests",
        "server.http_rejects",
        "server.job_duration",
        "server.jobs_completed",
        "server.jobs_failed",
        "server.jobs_quarantined",
        "server.jobs_recovered",
        "server.jobs_submitted",
        "server.queue_wait",
        "thermal.factorizations",
        "thermal.factorize",
        "thermal.field_expansions",
        "thermal.solve",
        "thermal.solves",
    }
)

#: Typed run-event records emitted into the JSONL run log.
EVENT_TYPES: FrozenSet[str] = frozenset(
    {
        "checkpoint.resume",
        "direction.end",
        "job.claimed",
        "job.completed",
        "job.failed",
        "job.interrupted",
        "job.quarantined",
        "job.recovered",
        "job.resumed",
        "job.submitted",
        "pool.degraded",
        "pool.retry",
        "portfolio.optimizer.end",
        "portfolio.optimizer.start",
        "portfolio.promotion",
        "portfolio.round",
        "round.end",
        "run.end",
        "run.metrics",
        "run.start",
        "sa.iteration",
        "server.drain",
        "stage.end",
        "stream.end",
    }
)

#: Point-in-time gauge samples exposed at ``GET /metrics`` (built with
#: :func:`repro.telemetry.promexpo.gauge`; the server's
#: ``JobStore.collect_gauges`` is the one collection point).
GAUGE_NAMES: FrozenSet[str] = frozenset(
    {
        "server.oldest_pending_age_s",
        "server.queue_depth",
        "server.tenant_active_jobs",
    }
)

#: Dynamic name families: a name starting ``"<prefix>."`` is registered by
#: a ``"<prefix>.*"`` entry.
WILDCARD_PREFIXES: FrozenSet[str] = frozenset({"faults.injected.*"})

#: Every registered literal name.
REGISTERED_NAMES: FrozenSet[str] = (
    SPAN_NAMES | METRIC_NAMES | EVENT_TYPES | GAUGE_NAMES
)


def is_registered(name: str) -> bool:
    """Whether ``name`` is declared here (exactly or under a wildcard)."""
    return name in REGISTERED_NAMES or any(
        name.startswith(pattern[:-1]) for pattern in WILDCARD_PREFIXES
    )


def check_name(name: str) -> None:
    """Raise :class:`TelemetryError` unless ``name`` is registered."""
    if not is_registered(name):
        raise TelemetryError(
            f"telemetry name {name!r} is not declared in "
            f"repro.telemetry.names"
        )
