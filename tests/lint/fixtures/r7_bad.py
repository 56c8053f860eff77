"""Fixture: unregistered / dynamic telemetry names (R7 violations)."""

from repro import profiling
from repro.profiling import span
from repro.telemetry import runlog


def emit_typo_counter():
    # Not declared in repro.telemetry.names.
    profiling.increment("thermal.sovles")


def emit_flat_name():
    # Not dot-namespaced.
    profiling.timer("solve")


def emit_dynamic_name(kind):
    # Dynamic expression instead of a literal.
    profiling.instant("parallel." + kind)


def emit_variable_name(name):
    with profiling.span(name):
        pass


def emit_bad_fstring(kind):
    # Literal prefix does not end at a registered wildcard boundary.
    profiling.increment(f"thermal.{kind}.solves")


def emit_unregistered_event():
    runlog.emit_event("round.started", best_cost=1.0)


def emit_nameless():
    with span():
        pass
