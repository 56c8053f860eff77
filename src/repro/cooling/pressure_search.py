"""Pressure searches over the thermal curves (Section 4.1 / Algorithm 3).

As ``P_sys`` grows, every node temperature decreases monotonically toward an
asymptote, each with its own *turning point* (upstream regions turn earlier).
Consequently ``h(P_sys) = T_max`` is monotonically decreasing while
``f(P_sys) = DeltaT`` is either uni-modal (a minimum exists) or monotonically
decreasing (Fig. 6).  Three searches exploit those shapes:

* :func:`minimize_pressure_for_gradient` -- Algorithm 3: the smallest
  ``P_sys`` with ``f(P_sys) <= DeltaT*``, or the minimizer of ``f`` when no
  feasible pressure exists (which certifies infeasibility);
* :func:`golden_section_minimize` -- the minimum of uni-modal ``f`` on an
  interval, in ``log P_sys`` (the Problem 2 inner search);
* :func:`min_pressure_for_peak` -- the smallest ``P_sys`` with
  ``T_max <= T_max*`` on the monotone ``h``.

Once a crossing is bracketed, both crossing searches close the bracket with
Illinois steps in ``log P_sys`` (:func:`_close_bracket`): regula falsi on
the probe values already held, which the smooth, monotone curves reward
with far fewer probes than bisection.  Every feasibility decision is still
a comparison of a probed value with the constraint.  Interpolated probes are
snapped to a fixed lattice in ``log P_sys``, so where a probe lands does not
depend on the last bits of the values: an incremental (pressure-shift) solve
and an exact one choose the same probes.

Every search memoizes probes, so the expensive simulator is called once per
distinct pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .. import profiling
from ..constants import (
    PRESSURE_INIT,
    PRESSURE_INIT_STEP_RATIO,
    PRESSURE_MAX,
    PRESSURE_MIN,
    PRESSURE_SEARCH_RTOL,
    quantize_key,
)
from ..errors import SearchError

#: Consecutive flat right-moves before Algorithm 3 declares a plateau.
_PLATEAU_MOVES = 3  #: [unit: 1]

#: Golden ratio section constant.
_INV_PHI = 0.6180339887498949  #: [unit: 1]

#: Spacing of the probe lattice in ``log P_sys``, as a fraction of ``rtol``.
_LATTICE_PER_RTOL = 0.25  #: [unit: 1]

#: Least distance in ``log P_sys`` of an interpolated probe from either end
#: of its bracket, as a fraction of ``rtol``: a crossing that sits that
#: close to an end closes the bracket with the next probe.
_MARGIN_PER_RTOL = 0.5  #: [unit: 1]


@dataclass
class PressureSearchResult:
    """Outcome of a pressure search.

    Attributes:
        p_sys: The returned pressure drop, Pa.
        value: Objective value at ``p_sys`` (``f`` or ``h``).
        feasible: Whether the constraint is met at ``p_sys``.
        at_minimum: True when the search returned the curve's minimizer
            because no pressure satisfies the constraint.
        evaluations: Number of distinct simulator probes spent.
    """

    p_sys: float
    value: float
    feasible: bool
    at_minimum: bool
    evaluations: int


class _Memo:
    """Counting, budgeted memoizer around the probe function.

    Pressures are quantized (1e-6 Pa) before keying, matching the result
    cache of :class:`~repro.cooling.system.CoolingSystem`: two probes that
    differ by floating-point noise are one simulation, not two.
    """

    def __init__(
        self, fn: Callable[[float], float], max_evaluations: int, what: str
    ):
        self._fn = fn
        self._cache: Dict[float, float] = {}
        self._max_evaluations = max_evaluations
        self._what = what

    def __call__(self, p: float) -> float:
        key = quantize_key(p)
        if key not in self._cache:
            profiling.increment("search.probes")
            self._cache[key] = float(self._fn(key))
        return self._cache[key]

    def held(self, p: float) -> Optional[float]:
        """The value at ``p`` if it was probed already, else None."""
        return self._cache.get(quantize_key(p))

    def check_budget(self) -> None:
        """Raise :class:`~repro.errors.SearchError` once over budget."""
        if self.evaluations > self._max_evaluations:
            raise SearchError(
                f"{self._what} exceeded {self._max_evaluations} "
                "probe evaluations"
            )

    def result(
        self, p: float, feasible: bool, at_minimum: bool
    ) -> PressureSearchResult:
        """The search's answer at the (probed) pressure ``p``."""
        return PressureSearchResult(
            p_sys=p,
            value=self(p),
            feasible=feasible,
            at_minimum=at_minimum,
            evaluations=self.evaluations,
        )

    @property
    def evaluations(self) -> int:
        return len(self._cache)

    def items(self):
        """All (pressure, value) probes made so far."""
        return self._cache.items()


def _interior_probe(
    lo: float,
    hi: float,
    y_lo: Optional[float],
    y_hi: Optional[float],
    rtol: float,
) -> float:
    """The next probe strictly inside ``(lo, hi)``.

    The root of the line through ``(log lo, y_lo)`` and ``(log hi, y_hi)``
    (the midpoint in ``log P_sys`` while an end value is missing or the two
    do not straddle zero), kept ``_MARGIN_PER_RTOL * rtol`` inside the ends
    and snapped to the lattice of spacing ``_LATTICE_PER_RTOL * rtol`` in
    ``log P_sys``; the midpoint when snapping leaves the open bracket.
    """
    a, b = math.log(lo), math.log(hi)
    u = 0.5 * (a + b)
    if y_lo is not None and y_hi is not None and y_lo > y_hi:
        secant = a + (b - a) * (y_lo / (y_lo - y_hi))
        if math.isfinite(secant):
            u = secant
    margin = _MARGIN_PER_RTOL * rtol
    u = min(max(u, a + margin), b - margin)
    spacing = _LATTICE_PER_RTOL * rtol
    u = round(u / spacing) * spacing
    if not a < u < b:
        u = 0.5 * (a + b)
    return math.exp(u)


def _close_bracket(
    probe: _Memo,
    lo: float,
    hi: float,
    target: float,
    rtol: float,
    shape: Callable[[float], float] = float,
) -> float:
    """Illinois steps in ``log P_sys`` onto the crossing of ``target``.

    ``[lo, hi]`` brackets the crossing of a decreasing curve: ``lo`` is
    infeasible (``value > target``) and ``hi`` feasible.  Each probe
    replaces the end on its side of ``target``; the next probe is the
    secant root of ``shape(value) - shape(target)`` over the two ends, with
    the value of an end kept twice in a row halved (the Illinois rule, so
    one-sided convergence cannot stall).  Ends not probed yet count as
    unknown and the step falls back to the midpoint.

    Returns the feasible end once ``|1 - lo/hi| <= rtol``.
    """
    base = shape(target)

    def offset(p: float) -> Optional[float]:
        value = probe.held(p)
        return None if value is None else shape(value) - base

    y_lo, y_hi = offset(lo), offset(hi)
    kept = None  # the end kept by the last step: "lo" or "hi"
    while abs(1.0 - lo / hi) > rtol:
        probe.check_budget()
        p = _interior_probe(lo, hi, y_lo, y_hi, rtol)
        value = probe(p)
        y = shape(value) - base
        if value > target:
            lo, y_lo = p, y
            if kept == "hi" and y_hi is not None:
                y_hi *= 0.5
            kept = "hi"
        else:
            hi, y_hi = p, y
            if kept == "lo" and y_lo is not None:
                y_lo *= 0.5
            kept = "lo"
    return hi


def minimize_pressure_for_gradient(
    f: Callable[[float], float],
    target: float,
    p_init: float = PRESSURE_INIT,
    r_init: float = PRESSURE_INIT_STEP_RATIO,
    rtol: float = PRESSURE_SEARCH_RTOL,
    p_min: float = PRESSURE_MIN,
    p_max: float = PRESSURE_MAX,
    max_evaluations: int = 200,
) -> PressureSearchResult:
    """Algorithm 3: minimize ``P_sys`` subject to ``f(P_sys) <= target``.

    Moves three probing points to find either the smaller crossing of
    ``f(P_sys) = target`` or, when the constraint is unachievable, the
    pressure minimizing ``f`` (whose value then certifies infeasibility).

    Args:
        f: The gradient curve ``DeltaT(P_sys)``; uni-modal or monotonically
            decreasing per Section 4.1.
        target: The gradient constraint ``DeltaT*``.  [unit: K]
        p_init: First probed pressure (``P_init`` in the paper).  [unit: Pa]
        r_init: Initial step ratio (``r_init``).  [unit: 1]
        rtol: Relative convergence tolerance on pressures.  [unit: 1]
        p_min: Lower physical pressure bound.  [unit: Pa]
        p_max: Upper physical pressure bound.  [unit: Pa]
        max_evaluations: Probe budget; exceeding it raises
            :class:`~repro.errors.SearchError`.
    """
    probe = _Memo(f, max_evaluations, "Algorithm 3")

    # Lines 1-4: place P0 on the high-gradient left side with f decreasing.
    p0 = float(p_init)
    while True:
        while probe(p0) < target:
            probe.check_budget()
            p0 /= 2.0
            if p0 < p_min:
                # Feasible all the way down: the smallest physical pressure
                # already satisfies the constraint.
                return probe.result(p_min, probe(p_min) <= target, False)
        step = p0 * r_init
        p1 = p0 + step
        probe.check_budget()
        if probe(p0) < probe(p1):
            # Rising already: the minimum sits at or left of P0; back off.
            p0 /= 2.0
            if p0 < p_min:
                return probe.result(p_min, probe(p_min) <= target, True)
            continue
        break

    # Lines 5-11: expand right looking for f <= target, shrinking onto the
    # minimum whenever the curve turns upward.
    flat_moves = 0
    while probe(p1) > target:
        probe.check_budget()
        step *= 2.0
        p2 = p1 + step
        if p2 > p_max:
            # The next step would pass the cap: the crossing, if any, lies
            # in (P1, p_max], which the cap's own probe decides.
            if probe(p_max) > target:
                return probe.result(p1, False, False)
            break
        while probe(p1) < probe(p2):
            probe.check_budget()
            if (
                abs(1.0 - p0 / p1) < rtol
                and abs(1.0 - p2 / p1) < rtol
            ):
                return probe.result(p1, probe(p1) <= target, True)
            p2 = p1
            p1 = 0.5 * (p0 + p2)
            step = p2 - p1
        rel_change = abs(1.0 - probe(p0) / probe(p1)) if probe(p1) else 0.0
        p0, p1 = p1, p2
        if rel_change < rtol:
            flat_moves += 1
            if flat_moves >= _PLATEAU_MOVES:
                return probe.result(p1, probe(p1) <= target, True)
        else:
            flat_moves = 0

    # Lines 12-13: close the bracket on the crossing.  The paper brackets
    # with [P0, P1], but the shrink-right phase can move P0 past the *left*
    # crossing onto feasible ground (a gap in the pseudocode, found by
    # property-based testing); bracketing from all memoized probes -- the
    # smallest feasible pressure and the largest infeasible pressure below
    # it -- restores minimality at no extra simulation cost.
    feasible_probes = [p for p, v in probe.items() if v <= target]
    hi = min(feasible_probes)
    infeasible_below = [
        p for p, v in probe.items() if v > target and p < hi
    ]
    lo = max(infeasible_below) if infeasible_below else max(hi / 2.0, p_min)
    hi = _close_bracket(probe, lo, hi, target, rtol)
    return probe.result(hi, True, False)


def golden_section_minimize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rtol: float = PRESSURE_SEARCH_RTOL,
    max_evaluations: int = 200,
) -> PressureSearchResult:
    """Golden-section search in ``log P_sys`` for the minimum of uni-modal
    ``f`` on [lo, hi].

    Used by the Problem 2 network evaluation when the pressure cap lands on
    the rising side of the gradient curve (Section 5).  Sections are taken
    in ``log P_sys``, matching the relative stop rule, and the answer is the
    better of the two interior probes last compared.

    ``DeltaT`` is not always uni-modal on real candidates (docs/PHYSICS.md
    section 4 has one with two minima); the search then returns whichever
    local minimum its sections bracket.

    Args:
        f: The curve to minimize (gradient vs. pressure).
        lo: Lower bracket pressure.  [unit: Pa]
        hi: Upper bracket pressure.  [unit: Pa]
        rtol: Relative convergence tolerance on pressures.  [unit: 1]
        max_evaluations: Probe budget.
    """
    if not 0 < lo < hi:
        raise SearchError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    probe = _Memo(f, max_evaluations, "golden-section search")
    a, b = math.log(lo), math.log(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    best = 0.5 * (a + b)
    while abs(1.0 - math.exp(a - b)) > rtol:
        probe.check_budget()
        if probe(math.exp(c)) < probe(math.exp(d)):
            best = c
            b, d = d, c
            c = b - _INV_PHI * (b - a)
        else:
            best = d
            a, c = c, d
            d = a + _INV_PHI * (b - a)
    return probe.result(math.exp(best), True, True)


def min_pressure_for_peak(
    h: Callable[[float], float],
    t_max_star: float,
    p_lo: float,
    rtol: float = PRESSURE_SEARCH_RTOL,
    p_max: float = PRESSURE_MAX,
    max_evaluations: int = 200,
    t_in: float = 0.0,
    max_feasible: bool = False,
) -> PressureSearchResult:
    """The smallest ``P_sys`` on monotone ``h(P_sys) = T_max`` meeting
    ``T_max*`` (Algorithm 2, line 4).

    Finds the smallest pressure in ``[p_lo, p_max]`` whose peak temperature
    satisfies ``T_max <= T_max*``: doubling up from ``p_lo`` brackets the
    crossing (or the caller's ``max_feasible`` does), and
    :func:`_close_bracket` closes it.  Because ``h`` decreases monotonically
    and saturates, infeasibility is declared when even ``p_max`` stays hot.

    Args:
        h: The peak-temperature curve ``T_max(P_sys)``.
        t_max_star: Peak-temperature constraint ``T_max*``.  [unit: K]
        p_lo: Starting (lower-bound) pressure.  [unit: Pa]
        rtol: Relative convergence tolerance on pressures.  [unit: 1]
        p_max: Upper physical pressure bound.  [unit: Pa]
        max_evaluations: Probe budget.
        t_in: Coolant inlet temperature, a floor of ``h``.  Probes are
            placed by interpolating ``log(T_max - T_in)``, which advection
            makes nearly linear in ``log P_sys``; decisions still compare
            ``T_max`` with ``T_max*``.  [unit: K]
        max_feasible: The caller has already found ``h(p_max) <= T_max*``;
            the search brackets ``[p_lo, p_max]`` instead of doubling.
    """
    probe = _Memo(h, max_evaluations, "peak-temperature search")
    if probe(p_lo) <= t_max_star:
        return probe.result(p_lo, True, False)
    lo = p_lo
    hi = p_max if max_feasible else max(2.0 * p_lo, 2.0 * PRESSURE_MIN)
    while hi < p_max and probe(hi) > t_max_star:
        probe.check_budget()
        lo = hi
        hi *= 2.0
    if hi >= p_max:
        # The doubling reached the cap: the crossing, if any, lies in
        # (lo, p_max].
        hi = p_max
        if probe(p_max) > t_max_star:
            return probe.result(p_max, False, False)

    def shape(t: float) -> float:
        return math.log(t - t_in) if t > t_in else -math.inf

    hi = _close_bracket(probe, lo, hi, t_max_star, rtol, shape)
    return probe.result(hi, True, False)
