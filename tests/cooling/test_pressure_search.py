"""Unit tests for Algorithm 3 and the auxiliary searches.

Synthetic curves with the Section 4.1 shapes (uni-modal or monotone
decreasing) make the searches cheap to exercise exhaustively; integration
with real simulations is covered in tests/cooling/test_evaluation.py.
"""

import math

import numpy as np
import pytest

from repro.cooling import (
    golden_section_minimize,
    min_pressure_for_peak,
    minimize_pressure_for_gradient,
)
from repro.errors import SearchError


def unimodal(p_opt=2e4, f_min=4.0, width=1.0):
    """A uni-modal gradient curve with minimum f_min at p_opt (Fig. 6a)."""

    def f(p):
        return f_min + width * math.log(p / p_opt) ** 2

    return f


def decreasing(scale=1e4, f_inf=3.0):
    """A monotone decreasing curve saturating at f_inf (Fig. 6b)."""

    def f(p):
        return f_inf + scale / p

    return f


class TestAlgorithm3Feasible:
    def test_unimodal_crossing_found(self):
        f = unimodal(p_opt=2e4, f_min=4.0)
        result = minimize_pressure_for_gradient(f, target=6.0, p_init=1e3)
        assert result.feasible
        # Analytic crossing: p = p_opt * exp(-sqrt(2)).
        expected = 2e4 * math.exp(-math.sqrt(2.0))
        assert result.p_sys == pytest.approx(expected, rel=5e-3)
        # We must find the *smaller* of the two crossings.
        assert result.p_sys < 2e4

    def test_decreasing_crossing_found(self):
        f = decreasing(scale=1e4, f_inf=3.0)
        result = minimize_pressure_for_gradient(f, target=5.0, p_init=1e3)
        assert result.feasible
        # f(p) = 3 + 1e4/p = 5  =>  p = 5e3.
        assert result.p_sys == pytest.approx(5e3, rel=5e-3)

    def test_feasible_at_initial_probe(self):
        f = decreasing(scale=1e2, f_inf=0.0)
        result = minimize_pressure_for_gradient(f, target=50.0, p_init=1e4)
        assert result.feasible
        assert f(result.p_sys) <= 50.0 * (1 + 1e-6)

    def test_returned_pressure_is_minimal(self):
        """No pressure meaningfully below the answer satisfies the target."""
        f = unimodal(p_opt=5e4, f_min=2.0)
        target = 4.0
        result = minimize_pressure_for_gradient(f, target=target, p_init=1e3)
        assert f(result.p_sys) <= target * (1 + 1e-3)
        assert f(result.p_sys * 0.98) > target

    def test_crossing_between_last_step_and_cap_is_searched(self):
        # The expansion's next step would pass p_max, but the crossing at
        # 170 kPa lies below it: the cap's probe closes the bracket.
        f = decreasing(scale=1e5, f_inf=1.0)
        result = minimize_pressure_for_gradient(f, target=f(170000.0))
        assert result.feasible
        assert result.p_sys == pytest.approx(170000.0, rel=2e-3)
        assert result.p_sys <= 2e5


class TestAlgorithm3Infeasible:
    def test_unimodal_unreachable_returns_minimum(self):
        f = unimodal(p_opt=3e4, f_min=8.0)
        result = minimize_pressure_for_gradient(f, target=5.0, p_init=1e3)
        assert not result.feasible
        assert result.at_minimum
        # The returned point certifies infeasibility: it is (near) the min.
        assert result.value == pytest.approx(8.0, abs=0.2)
        assert result.p_sys == pytest.approx(3e4, rel=0.3)

    def test_decreasing_asymptote_above_target(self):
        f = decreasing(scale=1e4, f_inf=6.0)
        result = minimize_pressure_for_gradient(
            f, target=5.0, p_init=1e3, p_max=1e7
        )
        assert not result.feasible
        assert result.value < 6.5  # ran far enough right to certify

    def test_pressure_cap_respected(self):
        f = decreasing(scale=1e8, f_inf=0.0)
        result = minimize_pressure_for_gradient(
            f, target=1.0, p_init=1e3, p_max=1e5
        )
        # Crossing would be at 1e8 Pa; the cap forbids it.
        assert not result.feasible
        assert result.p_sys <= 1e5

    def test_budget_enforced(self):
        calls = []

        def pathological(p):
            calls.append(p)
            return 10.0 + math.sin(math.log(p)) * 0.0 + 1e4 / p

        with pytest.raises(SearchError, match="exceeded"):
            minimize_pressure_for_gradient(
                pathological, target=9.0, p_init=1e3, max_evaluations=3
            )


class TestGoldenSection:
    def test_finds_minimum(self):
        f = unimodal(p_opt=2e4, f_min=4.0)
        result = golden_section_minimize(f, 1e3, 1e6, rtol=1e-4)
        assert result.p_sys == pytest.approx(2e4, rel=1e-2)
        assert result.value == pytest.approx(4.0, abs=1e-3)

    def test_minimum_at_edge(self):
        f = decreasing()
        result = golden_section_minimize(f, 1e3, 1e5, rtol=1e-4)
        # Monotone decreasing: the minimum sits at the right edge.
        assert result.p_sys == pytest.approx(1e5, rel=1e-2)

    def test_bad_interval(self):
        with pytest.raises(SearchError, match="lo < hi"):
            golden_section_minimize(unimodal(), 1e4, 1e3)

    def test_evaluation_budget(self):
        with pytest.raises(SearchError, match="exceeded"):
            golden_section_minimize(
                unimodal(), 1.0, 1e12, rtol=1e-12, max_evaluations=5
            )


class TestPeakSearch:
    def _h(self, t_inf=310.0, scale=1e6):
        return lambda p: t_inf + scale / p

    def test_finds_crossing(self):
        h = self._h()
        result = min_pressure_for_peak(h, t_max_star=320.0, p_lo=1e2)
        # h(p) = 310 + 1e6/p = 320  =>  p = 1e5 (inside the pressure cap).
        assert result.feasible
        assert result.p_sys == pytest.approx(1e5, rel=5e-3)

    def test_already_feasible(self):
        h = self._h()
        result = min_pressure_for_peak(h, t_max_star=400.0, p_lo=5e5)
        assert result.feasible
        assert result.p_sys == pytest.approx(5e5)

    def test_infeasible_saturating_curve(self):
        h = self._h(t_inf=350.0)
        result = min_pressure_for_peak(
            h, t_max_star=340.0, p_lo=1e3, p_max=1e8
        )
        assert not result.feasible

    def test_crossing_below_cap_after_doubling_overshoot(self):
        # Doubling from 5 Pa passes p_max (200 kPa) after 163,840 Pa; the
        # crossing at 180 kPa is searched, not replaced by p_max.
        h = self._h(t_inf=1.0, scale=1e5)
        result = min_pressure_for_peak(h, t_max_star=h(180000.0), p_lo=5.0)
        assert result.feasible
        assert result.p_sys == pytest.approx(180000.0, rel=2e-3)
        assert h(result.p_sys) <= h(180000.0)

    def test_evaluations_counted(self):
        h = self._h()
        result = min_pressure_for_peak(h, t_max_star=320.0, p_lo=1e2)
        assert result.evaluations > 2


class TestErrorPaths:
    """Violated shape assumptions surface as typed SearchError, never hangs.

    The searches assume the Section 4.1 curve shapes (uni-modal gradient,
    monotone decreasing peak).  When a caller hands them something else --
    a degenerate bracket, a curve that rises with pressure -- the contract
    is a :class:`~repro.errors.SearchError` or an honest infeasible result
    within the probe budget, never an unbounded loop or a bare exception.
    """

    @pytest.mark.parametrize(
        "lo,hi",
        [(0.0, 1e4), (-1e3, 1e4), (1e4, 1e4), (1e5, 1e3)],
        ids=["zero-lo", "negative-lo", "empty", "inverted"],
    )
    def test_golden_section_rejects_degenerate_bracket(self, lo, hi):
        with pytest.raises(SearchError, match="lo < hi"):
            golden_section_minimize(unimodal(), lo, hi)

    def test_peak_search_monotonicity_violation_hits_budget(self):
        # h *rises* with pressure, violating the monotone-decreasing
        # assumption: the doubling phase can never bracket a crossing and
        # must die on the probe budget instead of doubling forever.
        def rising(p):
            return 300.0 + p / 1e3

        with pytest.raises(SearchError, match="peak-temperature"):
            min_pressure_for_peak(
                rising,
                t_max_star=250.0,
                p_lo=1e3,
                p_max=1e12,
                max_evaluations=10,
            )

    def test_algorithm3_nonmonotone_curve_never_lies(self):
        # An oscillating gradient curve breaks uni-modality outright.  The
        # search may spend its budget (typed error) or conclude the target
        # is unreachable -- but it must never hang or report feasibility
        # the curve does not support.
        def oscillating(p):
            return 9.0 + math.sin(math.log(p) * 7.0)

        try:
            result = minimize_pressure_for_gradient(
                oscillating, target=7.0, p_init=1e3, max_evaluations=50
            )
        except SearchError:
            return
        assert not result.feasible
