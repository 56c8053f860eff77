"""Network evaluation (Algorithm 2 and its Problem-2 counterpart).

Problem 1 scores a candidate network by its *lowest feasible pumping power*:
the smallest ``P_sys`` meeting both the gradient constraint (via Algorithm 3)
and the peak-temperature constraint (via a crossing search on the monotone
``h``), converted to power through ``W_pump = P_sys^2 / R_sys`` (Eq. 10).
Infeasible networks score ``+inf``.

Problem 2 scores a network by the *smallest achievable thermal gradient*
under a pumping-power cap: the cap converts to a pressure cap
``P* = sqrt(W* R_sys)``; if the gradient curve is still falling at ``P*``
that point is optimal, otherwise a golden-section search finds the interior
minimum (Section 5).  The peak search below the cap starts from the
bracket ``[P_min, P*]``, since ``T_max(P*) <= T_max*`` is checked first.

Both peak searches place their probes by interpolating
``log(T_max - T_in)``: where advection dominates, ``T_max - T_in`` scales
with ``1 / P_sys``, so that curve is nearly straight in ``log P_sys``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..constants import PRESSURE_MIN, PRESSURE_SEARCH_RTOL
from .. import profiling
from ..faults import SITE_COOLING_PROBLEM1, SITE_COOLING_PROBLEM2, inject
from .pressure_search import (
    golden_section_minimize,
    min_pressure_for_peak,
    minimize_pressure_for_gradient,
)
from .system import CoolingSystem


@dataclass
class EvaluationResult:
    """Score of one candidate network.

    Attributes:
        score: The problem objective: ``W_pump`` (W) for Problem 1, ``DeltaT``
            (K) for Problem 2; ``inf`` when the network is infeasible.
        feasible: Whether all constraints can be met.
        p_sys: Operating pressure chosen (best found even when infeasible).
        w_pump / t_max / delta_t: Metrics at ``p_sys``.
        simulations: Distinct thermal simulations spent on this network.
        fidelity: Model fidelity the score came from: ``"low"`` (2RM
            surrogate) or ``"high"`` (4RM reference).  The multi-fidelity
            portfolio uses this tag to keep surrogate and verified scores
            apart.
    """

    score: float
    feasible: bool
    p_sys: float
    w_pump: float
    t_max: float
    delta_t: float
    simulations: int
    fidelity: str = ""

    def raise_if_infeasible(self, what: str = "network") -> "EvaluationResult":
        """Raise :class:`~repro.errors.InfeasibleError` unless feasible.

        Returns ``self`` so calls can be chained fluently::

            score = evaluate_problem1(...).raise_if_infeasible().score
        """
        if not self.feasible:
            from ..errors import InfeasibleError

            raise InfeasibleError(
                f"{what} cannot meet the constraints "
                f"(best point: P_sys={self.p_sys / 1e3:.2f} kPa, "
                f"T_max={self.t_max:.2f} K, DeltaT={self.delta_t:.2f} K)",
                best_value=self.delta_t,
            )
        return self


def evaluate_problem1(
    system: CoolingSystem,
    delta_t_star: float,
    t_max_star: float,
) -> EvaluationResult:
    """Algorithm 2: the lowest feasible pumping power of one network.

    Step 1 solves the gradient-constrained pressure minimization (Eq. 11,
    Algorithm 3).  If no pressure meets ``DeltaT*``, the network is
    infeasible (score ``+inf``).  Step 2 raises the pressure further when the
    peak-temperature constraint is still violated (``h`` is monotone, so one
    crossing is bracketed and closed), and re-checks both constraints at the
    new point.  The searches run with their defaults, the
    :mod:`repro.constants` values (``PRESSURE_INIT``,
    ``PRESSURE_INIT_STEP_RATIO``, ``PRESSURE_SEARCH_RTOL``,
    ``PRESSURE_MAX``).

    Args:
        system: The cooling network under evaluation.
        delta_t_star: Thermal-gradient constraint ``DeltaT*``.  [unit: K]
        t_max_star: Peak-temperature constraint ``T_max*``.  [unit: K]
    """
    inject(SITE_COOLING_PROBLEM1)
    with profiling.span("cooling.evaluate_problem1"):
        before = system.n_simulations
        slack = 1.0 + PRESSURE_SEARCH_RTOL
        search = minimize_pressure_for_gradient(system.delta_t, delta_t_star)
        p_sys = search.p_sys
        if system.delta_t(p_sys) > delta_t_star * slack:
            return _result(system, p_sys, math.inf, False, before)

        if system.t_max(p_sys) > t_max_star:
            peak = min_pressure_for_peak(
                system.t_max,
                t_max_star,
                p_sys,
                t_in=system.simulator.inlet_temperature,
            )
            p_sys = peak.p_sys
            # Raising the pressure may have crossed the gradient minimum onto
            # the rising side; both constraints must hold at the final point.
            if (
                system.delta_t(p_sys) > delta_t_star * slack
                or system.t_max(p_sys) > t_max_star * slack
            ):
                return _result(system, p_sys, math.inf, False, before)

        return _result(system, p_sys, system.w_pump(p_sys), True, before)


def evaluate_problem2(
    system: CoolingSystem,
    t_max_star: float,
    w_pump_star: float,
) -> EvaluationResult:
    """Problem-2 network evaluation: smallest gradient under a power cap.

    The cap ``W_pump*`` maps to ``P* = sqrt(W* R_sys)`` (Eq. 13).  If
    ``T_max(P*) > T_max*`` the network is infeasible (no higher pressure is
    allowed and lower pressures only get hotter).  Otherwise the admissible
    pressure window is ``[P_peak, P*]`` where ``P_peak`` is the smallest
    pressure meeting ``T_max*``; the gradient is minimized there -- directly
    at ``P*`` when ``f`` is still falling, else by golden-section search.
    The window starts at ``PRESSURE_MIN`` and the searches stop at their
    default ``PRESSURE_SEARCH_RTOL`` (:mod:`repro.constants`).

    Args:
        system: The cooling network under evaluation.
        t_max_star: Peak-temperature constraint ``T_max*``.  [unit: K]
        w_pump_star: Pumping-power cap ``W_pump*``.  [unit: W]
    """
    inject(SITE_COOLING_PROBLEM2)
    with profiling.span("cooling.evaluate_problem2"):
        before = system.n_simulations
        p_cap = system.p_sys_for_power(w_pump_star)
        if p_cap <= PRESSURE_MIN:
            return _result(system, PRESSURE_MIN, math.inf, False, before)
        if system.t_max(p_cap) > t_max_star:
            return _result(system, p_cap, math.inf, False, before)

        peak = min_pressure_for_peak(
            system.t_max,
            t_max_star,
            PRESSURE_MIN,
            p_max=p_cap,
            t_in=system.simulator.inlet_temperature,
            max_feasible=True,
        )
        p_lo = min(peak.p_sys, p_cap) if peak.feasible else p_cap

        # Probe whether f is still falling at the cap.
        p_probe = max(p_lo, p_cap * (1.0 - 4.0 * PRESSURE_SEARCH_RTOL))
        falling = (
            p_probe >= p_cap
            or system.delta_t(p_cap) <= system.delta_t(p_probe)
        )
        if falling:
            p_best = p_cap
        else:
            search = golden_section_minimize(
                system.delta_t, max(p_lo, PRESSURE_MIN), p_cap
            )
            p_best = search.p_sys
            # Never exceed the cap; never go below the peak-feasible floor.
            p_best = min(max(p_best, p_lo), p_cap)
        return _result(system, p_best, None, True, before)


def _result(
    system: CoolingSystem,
    p_sys: float,
    score: Optional[float],
    feasible: bool,
    sims_before: int,
) -> EvaluationResult:
    # Finalize with an exact solve: search probes may come from the
    # incremental solver, but reported metrics (and Problem-2 scores, where
    # ``score is None`` requests the exact gradient) never do.
    result = system.evaluate(p_sys, exact=True)
    return EvaluationResult(
        score=result.delta_t if score is None else score,
        feasible=feasible,
        p_sys=p_sys,
        w_pump=system.w_pump(p_sys),
        t_max=result.t_max,
        delta_t=result.delta_t,
        simulations=system.n_simulations - sims_before,
        fidelity=system.fidelity,
    )
