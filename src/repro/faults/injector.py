"""The process-wide active fault plan and the solver-side hooks.

Solvers call :func:`inject` (action-only sites) or :func:`corrupt`
(value-carrying sites) at their named injection points.  With no active
plan -- the production default -- both are a single ``None`` check and
return immediately; the hooks cost nothing measurable next to a sparse
factorization.

The active plan is deliberately *process-local* module state, following the
same discipline as the worker evaluator of ``repro.optimize.parallel``: it
is installed either by :class:`FaultInjector` in the driving process or by
the pool's ``_init_worker`` inside each worker as it starts (plans pickle
by specs + seed and re-arm on arrival).
"""

from __future__ import annotations

from typing import Any, Optional, Type, TypeVar

from .plan import FaultPlan

_T = TypeVar("_T")

#: The plan consulted by every hook in this process; ``None`` disables all
#: injection (the production state).
_ACTIVE: Optional[FaultPlan] = None


def set_active_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as this process's active plan; returns the previous
    one (``None`` uninstalls, same as :func:`clear_active_plan`)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def clear_active_plan() -> Optional[FaultPlan]:
    """Deactivate injection; returns the plan that was active, if any."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def active_plan() -> Optional[FaultPlan]:
    """The currently active plan, or ``None`` when injection is off."""
    return _ACTIVE


def inject(site: str) -> None:
    """Action-only hook: fire any due raise/sleep/exit faults at ``site``."""
    if _ACTIVE is None:
        return
    _ACTIVE.fire(site)


def corrupt(site: str, value: _T) -> _T:
    """Value hook: pass ``value`` through any due faults at ``site``.

    Returns ``value`` untouched when no plan is active; otherwise a
    possibly-damaged copy (action faults may raise or sleep instead).
    """
    if _ACTIVE is None:
        return value
    return _ACTIVE.transform(site, value)


class FaultInjector:
    """Context manager scoping a plan as this process's active plan.

    Nests correctly: the previous plan (or ``None``) is restored on exit,
    even when the body raises.

    ::

        with FaultInjector(plan):
            run_chaos_experiment()
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        self._previous = set_active_plan(self.plan)
        return self.plan

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Any,
    ) -> None:
        set_active_plan(self._previous)
        self._previous = None
