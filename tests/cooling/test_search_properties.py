"""Property-based tests of the pressure searches on random curves.

Hypothesis draws random curves with the Section 4.1 shapes (uni-modal or
monotone decreasing) and checks Algorithm 3's contract on each: when a
feasible pressure exists it returns (approximately) the smallest one; when
none exists it returns a certificate near the curve's minimum.  Further
checks: the probes do not move when the values are perturbed in their last
bits, hard monotone curves still close their brackets, and real candidates
pay a pinned number of simulations.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cooling import (
    golden_section_minimize,
    min_pressure_for_peak,
    minimize_pressure_for_gradient,
)


@st.composite
def unimodal_curves(draw):
    """Uni-modal f with a known minimum inside the search range."""
    p_opt = draw(st.floats(2e3, 8e4))
    f_min = draw(st.floats(1.0, 20.0))
    width = draw(st.floats(0.5, 4.0))

    def f(p):
        return f_min + width * math.log(p / p_opt) ** 2

    return f, p_opt, f_min, width


@st.composite
def decreasing_curves(draw):
    """Monotone decreasing f saturating at f_inf."""
    scale = draw(st.floats(1e3, 1e6))
    f_inf = draw(st.floats(0.5, 20.0))

    def f(p):
        return f_inf + scale / p

    return f, scale, f_inf


class TestAlgorithm3Properties:
    @given(unimodal_curves(), st.floats(0.2, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_unimodal_contract(self, curve, margin):
        f, p_opt, f_min, width = curve
        target = f_min + margin
        result = minimize_pressure_for_gradient(
            f, target, p_init=5e3, p_max=1e7
        )
        # Analytic crossing below the optimum.
        expected = p_opt * math.exp(-math.sqrt(margin / width))
        assume(expected > 1.0)  # keep away from the p_min floor
        assert result.feasible
        assert f(result.p_sys) <= target * (1 + 2e-3)
        assert result.p_sys == pytest.approx(expected, rel=2e-2)

    @given(unimodal_curves(), st.floats(0.05, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_unimodal_infeasible_certificate(self, curve, gap):
        f, p_opt, f_min, width = curve
        target = f_min - gap  # below the minimum: unreachable
        result = minimize_pressure_for_gradient(
            f, target, p_init=5e3, p_max=1e7
        )
        assert not result.feasible
        assert result.at_minimum
        # The certificate value is close to the true minimum.
        assert result.value <= f_min + 0.25 * (gap + width)

    @given(decreasing_curves(), st.floats(0.3, 15.0))
    @settings(max_examples=60, deadline=None)
    def test_decreasing_contract(self, curve, margin):
        f, scale, f_inf = curve
        target = f_inf + margin
        expected = scale / margin
        assume(1.0 < expected < 1e6)
        result = minimize_pressure_for_gradient(
            f, target, p_init=5e3, p_max=1e7
        )
        assert result.feasible
        assert result.p_sys == pytest.approx(expected, rel=2e-2)


class TestGoldenSectionProperties:
    @given(unimodal_curves())
    @settings(max_examples=40, deadline=None)
    def test_finds_interior_minimum(self, curve):
        f, p_opt, f_min, _ = curve
        lo, hi = p_opt / 50.0, p_opt * 50.0
        result = golden_section_minimize(f, lo, hi, rtol=1e-4)
        assert result.value == pytest.approx(f_min, abs=1e-2)
        assert result.p_sys == pytest.approx(p_opt, rel=3e-2)


class TestPeakSearchProperties:
    @given(decreasing_curves(), st.floats(0.3, 15.0))
    @settings(max_examples=60, deadline=None)
    def test_minimal_feasible_pressure(self, curve, margin):
        h, scale, t_inf = curve
        t_star = t_inf + margin
        expected = scale / margin
        assume(10.0 < expected < 1e5)
        result = min_pressure_for_peak(h, t_star, p_lo=5.0, p_max=1e7)
        assert result.feasible
        assert h(result.p_sys) <= t_star * (1 + 1e-9)
        # Minimality: a slightly lower pressure violates the constraint.
        assert h(result.p_sys * 0.98) > t_star


# ---------------------------------------------------------------------------
# Probe placement: invariant to the last bits of the values
# ---------------------------------------------------------------------------


def recorded(curve, eps=0.0):
    """``curve`` scaled by ``1 + eps * s(p)`` for a deterministic ``s`` in
    [-1, 1], and the list of pressures it is probed at."""
    probes = []

    def g(p):
        probes.append(p)
        return curve(p) * (1.0 + eps * math.sin(1e3 * math.log(p)))

    return g, probes


def same_search(run, curve, eps=1e-13):
    """``run`` returns the same bits and probes on ``curve`` and on
    ``curve`` perturbed by ``eps`` relative noise."""
    exact, exact_probes = recorded(curve)
    noisy, noisy_probes = recorded(curve, eps)
    a, b = run(exact), run(noisy)
    assert a.p_sys.hex() == b.p_sys.hex()
    assert exact_probes == noisy_probes
    assert a.feasible == b.feasible


class TestProbeLattice:
    """An incremental (pressure-shift) solve and an exact one differ in the
    last bits of a value; where the searches probe next must not."""

    @given(unimodal_curves(), st.floats(0.2, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_algorithm3_probes_ignore_value_noise(self, curve, margin):
        f, _, f_min, _ = curve
        same_search(
            lambda g: minimize_pressure_for_gradient(
                g, f_min + margin, p_init=5e3, p_max=1e7
            ),
            f,
        )

    @given(decreasing_curves(), st.floats(0.3, 15.0))
    @settings(max_examples=40, deadline=None)
    def test_peak_search_probes_ignore_value_noise(self, curve, margin):
        h, _, t_inf = curve
        same_search(
            lambda g: min_pressure_for_peak(
                g, t_inf + margin, p_lo=5.0, p_max=1e7, t_in=0.5 * t_inf
            ),
            h,
        )

    @given(unimodal_curves())
    @settings(max_examples=40, deadline=None)
    def test_golden_section_probes_ignore_value_noise(self, curve):
        f, p_opt, _, _ = curve
        # A bracket symmetric about p_opt in log p would compare mirror
        # points of equal value, where any noise decides; keep it lopsided.
        same_search(
            lambda g: golden_section_minimize(g, p_opt / 37.0, p_opt * 53.0),
            f,
        )


# ---------------------------------------------------------------------------
# Hard monotone curves: the interpolating steps still close the bracket
# ---------------------------------------------------------------------------


@st.composite
def hard_decreasing_curves(draw):
    """Monotone decreasing curves a secant step reads badly: a near-step
    ``tanh`` on a ``1/p`` slope, a saturating exponential, and ``1/p**2``
    falling onto a plateau."""
    kind = draw(st.sampled_from(["step", "exponential", "plateau"]))
    p_mid = draw(st.floats(1e3, 5e4))
    if kind == "step":

        def f(p):
            step = math.tanh(math.log(p / p_mid) / 0.02)
            return 2.0 + 1e3 / p + 2.5 * (1.0 - step)

    elif kind == "exponential":

        def f(p):
            return 1.0 + 9.0 * math.exp(-p / p_mid)

    else:

        def f(p):
            return 1.0 + (p_mid / p) ** 2

    return f, p_mid


#: Probe budget of the hard-curve tests: about twice what doubling from
#: 5 Pa and bisecting to ``rtol`` spend on the widest bracket.
HARD_BUDGET = 60


class TestHardMonotoneCurves:
    @given(hard_decreasing_curves(), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_peak_search_minimal_and_feasible(self, curve, level):
        h, p_mid = curve
        t_star = h(p_mid * math.exp(4.0 * (level - 0.5)))
        result = min_pressure_for_peak(
            h,
            t_star,
            p_lo=5.0,
            p_max=1e7,
            max_evaluations=HARD_BUDGET,
            t_in=0.5,
        )
        assert result.feasible
        assert h(result.p_sys) <= t_star
        assert h(result.p_sys * 0.98) > t_star

    @given(hard_decreasing_curves(), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_algorithm3_minimal_and_feasible(self, curve, level):
        f, p_mid = curve
        target = f(p_mid * math.exp(4.0 * (level - 0.5)))
        result = minimize_pressure_for_gradient(
            f, target, p_init=5e3, p_max=1e7, max_evaluations=HARD_BUDGET
        )
        assert result.feasible
        assert f(result.p_sys) <= target
        assert f(result.p_sys * 0.98) > target


# ---------------------------------------------------------------------------
# Probe counts on real candidates
# ---------------------------------------------------------------------------


def test_problem1_simulations_per_candidate():
    """Stage-3 candidates of contest case 1 at grid 21 (2RM): a random walk
    of SA moves from the tree plan.  Bisecting the brackets took 18.3
    simulations per candidate on this set; interpolated probes take 11.8."""
    from repro.iccad2015 import load_case
    from repro.optimize import perturb_tree_params, problem1_stages
    from repro.optimize.stages import evaluate_design

    case = load_case(1, grid_size=21)
    plan = case.tree_plan()
    stage = problem1_stages()[2]
    rng = np.random.default_rng(0)
    params = plan.params()
    simulations = []
    for _ in range(20):
        params = plan.clamp_params(
            perturb_tree_params(params, stage.step, rng)
        )
        result = evaluate_design(
            case,
            plan.with_params(params).build(),
            "problem1",
            model=stage.model,
            tile_size=stage.tile_size,
        )
        simulations.append(result.simulations)
    assert np.mean(simulations) < 15.0


def test_problem2_simulations_per_candidate():
    """The tree networks of eight generated grid-9 cases (2RM): 34.0
    simulations per candidate with bisection and a peak search doubling up
    from 1 Pa; 22.75 with interpolated probes bracketed by the cap."""
    from repro.cases import generate_case
    from repro.optimize.stages import evaluate_design

    simulations = []
    for seed in range(8):
        case = generate_case(seed, grid_size=9)
        result = evaluate_design(
            case,
            case.tree_plan().build(),
            "problem2",
            model="2rm",
            tile_size=4,
        )
        simulations.append(result.simulations)
    assert np.mean(simulations) < 28.0
