"""Cooling-system evaluation: the inner level of the design flow.

A *cooling system* is a cooling network plus a system pressure drop
(Section 2.1).  This package evaluates candidate networks:

* :mod:`~repro.cooling.system` caches thermal simulations of one network
  across pressures and exposes ``f(P_sys) = DeltaT`` and
  ``h(P_sys) = T_max``;
* :mod:`~repro.cooling.pressure_search` implements Algorithm 3 (the
  three-point probe that minimizes ``P_sys`` subject to
  ``f(P_sys) <= DeltaT*``), the golden-section search used by Problem 2 and
  the crossing search on the monotone ``h``; once a crossing is bracketed,
  Illinois steps in ``log P_sys`` on the probe values already held close
  the bracket;
* :mod:`~repro.cooling.evaluation` implements Algorithm 2 (network
  evaluation by lowest feasible pumping power) and its thermal-gradient
  counterpart.
"""

from .system import CoolingSystem
from .pressure_search import (
    PressureSearchResult,
    golden_section_minimize,
    min_pressure_for_peak,
    minimize_pressure_for_gradient,
)
from .evaluation import (
    EvaluationResult,
    evaluate_problem1,
    evaluate_problem2,
)

__all__ = [
    "CoolingSystem",
    "EvaluationResult",
    "PressureSearchResult",
    "evaluate_problem1",
    "evaluate_problem2",
    "golden_section_minimize",
    "min_pressure_for_peak",
    "minimize_pressure_for_gradient",
]
