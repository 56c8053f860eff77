"""Deterministic, seed-driven fault injection for chaos testing.

The production question this package answers: when a candidate network makes
the coupled flow/thermal system ill-posed -- or a worker process hangs, dies,
or slows down -- does the stack degrade gracefully, or does one bad solve
stall an entire SA run?  ``repro.faults`` makes those failures *injectable*
at named sites inside the real solvers, with no monkeypatching, so the
``tests/faults`` chaos suite can prove every fault ends in recovery or a
typed :class:`~repro.errors.ReproError`.

Usage::

    from repro.faults import FaultInjector, FaultPlan, FaultSpec

    plan = FaultPlan(
        [FaultSpec(site="parallel.worker", kind="worker-death", rate=0.3)],
        seed=42,
    )
    with FaultInjector(plan):
        ...  # every solver hook below sees the plan

Hooks (:func:`inject` for action-only sites, :func:`corrupt` for sites that
carry a value through) are zero-cost no-ops when no plan is active: a single
module-global ``None`` check.  Plans are deterministic -- per-spec
``random.Random`` streams derived from ``(seed, spec index, site, kind)`` --
and pickle across process boundaries by shipping only specs + seed, so every
respawned worker re-arms the same schedule.

See ``docs/ROBUSTNESS.md`` for the fault taxonomy and the retry/degradation
policy the injected faults exercise.
"""

from __future__ import annotations

from .injector import (
    FaultInjector,
    active_plan,
    clear_active_plan,
    corrupt,
    inject,
    set_active_plan,
)
from .plan import (
    ACTION_KINDS,
    KIND_DISCONNECT,
    KIND_HANG,
    KIND_INF,
    KIND_NAN,
    KIND_NEGATIVE,
    KIND_RAISE_CRASH,
    KIND_RAISE_INFEASIBLE,
    KIND_SINGULAR,
    KIND_SLOW,
    KIND_TORN_WRITE,
    KIND_WORKER_DEATH,
    KNOWN_KINDS,
    KNOWN_SITES,
    SITE_COOLING_PROBLEM1,
    SITE_COOLING_PROBLEM2,
    SITE_FLOW_MATRIX,
    SITE_FLOW_PRESSURES,
    SITE_IO_POWER_MAP,
    SITE_LINALG_UPDATE,
    SITE_PARALLEL_DISPATCH,
    SITE_PARALLEL_WORKER,
    SITE_SERVER_RECORD,
    SITE_SERVER_WORKER,
    SITE_THERMAL_RC2,
    SITE_THERMAL_RC4,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "ACTION_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "KIND_DISCONNECT",
    "KIND_HANG",
    "KIND_INF",
    "KIND_NAN",
    "KIND_NEGATIVE",
    "KIND_RAISE_CRASH",
    "KIND_RAISE_INFEASIBLE",
    "KIND_SINGULAR",
    "KIND_SLOW",
    "KIND_TORN_WRITE",
    "KIND_WORKER_DEATH",
    "KNOWN_KINDS",
    "KNOWN_SITES",
    "SITE_COOLING_PROBLEM1",
    "SITE_COOLING_PROBLEM2",
    "SITE_FLOW_MATRIX",
    "SITE_FLOW_PRESSURES",
    "SITE_IO_POWER_MAP",
    "SITE_LINALG_UPDATE",
    "SITE_PARALLEL_DISPATCH",
    "SITE_PARALLEL_WORKER",
    "SITE_SERVER_RECORD",
    "SITE_SERVER_WORKER",
    "SITE_THERMAL_RC2",
    "SITE_THERMAL_RC4",
    "active_plan",
    "clear_active_plan",
    "corrupt",
    "inject",
    "set_active_plan",
]
