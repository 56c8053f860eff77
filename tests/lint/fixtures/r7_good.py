"""Fixture: R7-clean telemetry -- registered dot-namespaced literals."""

from repro import profiling
from repro.profiling import span
from repro.telemetry import runlog


def emit_registered_metrics(seconds, kind):
    profiling.increment("thermal.solves")
    with profiling.timer("parallel.batch", candidates=4):
        pass
    profiling.observe("optimize.candidate", seconds)
    # Wildcard family: literal prefix ends exactly at the boundary.
    profiling.increment(f"faults.injected.{kind}")


def emit_registered_spans(n):
    with profiling.span("thermal.rc2.solve", cells=n):
        profiling.instant("parallel.retry", attempt=1)
    with span("checkpoint.save"):
        pass


def emit_registered_event(score):
    runlog.emit_event("round.end", best_cost=score)


def untracked_receivers(log, name):
    # Receivers outside the tracked set are someone else's API.
    log.emit(name, value=1)
