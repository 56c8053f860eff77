"""Tests for run-time pressure control (the paper's future-work loop)."""

import numpy as np
import pytest

from repro.constants import CELL_WIDTH, INLET_TEMPERATURE
from repro.errors import ThermalError
from repro.geometry import build_contest_stack
from repro.materials import WATER
from repro.networks import straight_network
from repro.thermal import (
    HysteresisController,
    PIController,
    RC2Simulator,
    TransientSimulator,
    run_controlled,
)


@pytest.fixture(scope="module")
def steady():
    n = 15
    power = np.full((n, n), 1.5 / (n * n))
    grid = straight_network(n, n)
    stack = build_contest_stack(
        2, 200e-6, [power, power], lambda d: grid.copy(), n, n, CELL_WIDTH
    )
    return RC2Simulator(stack, WATER, tile_size=3)


class TestHysteresisController:
    def test_switching_logic(self):
        ctl = HysteresisController(1e3, 1e4, t_low=305.0, t_high=315.0)
        assert ctl(300.0, 1e3) == 1e3      # cool: stay low
        assert ctl(316.0, 1e3) == 1e4      # hot: boost
        assert ctl(310.0, 1e4) == 1e4      # inside band: hold boost
        assert ctl(304.0, 1e4) == 1e3      # cooled down: relax

    def test_validation(self):
        with pytest.raises(ThermalError):
            HysteresisController(1e4, 1e3, 305.0, 315.0)
        with pytest.raises(ThermalError):
            HysteresisController(1e3, 1e4, 315.0, 305.0)

    def test_closed_loop_limits_peak(self, steady):
        """The boost level must cap T_max near the threshold."""
        ctl = HysteresisController(8e2, 2e4, t_low=317.5, t_high=318.5)
        trace = run_controlled(
            steady,
            ctl,
            duration=4.0,
            control_period=0.1,
            dt=0.02,
            p_initial=8e2,
        )
        # Without control, the low level alone would settle much hotter.
        uncontrolled = steady.solve(8e2).t_max
        assert trace.peak < uncontrolled
        assert max(trace.pressures) == 2e4
        assert min(trace.pressures[1:]) == 8e2


class TestPIController:
    def test_tracks_setpoint(self, steady):
        # The achievable floor is ~316 K (film resistance); pick a setpoint
        # inside the controllable range (328.7 K at 0.3 kPa .. 316.1 K).
        setpoint = 320.0
        # Gains sized to the plant: dT_max/dP ~ -0.013 K/Pa near the knee.
        ctl = PIController(
            setpoint=setpoint,
            kp=30.0,
            ki=15.0,
            p_min=3e2,
            p_max=1e5,
            period=0.1,
        )
        trace = run_controlled(
            steady,
            ctl,
            duration=6.0,
            control_period=0.1,
            dt=0.02,
            p_initial=1e3,
        )
        # Settled T_max close to the setpoint.
        assert trace.t_max[-1] == pytest.approx(setpoint, abs=0.5)

    def test_saves_power_vs_worst_case(self, steady):
        """Adaptive flow under variable power: cheaper than pumping for the
        worst case all the time, cooler than never reacting."""
        setpoint = 334.0  # achievable even during the 2x power boost
        boost = lambda t: 2.0 if (t % 2.0) > 1.0 else 1.0

        # Floor the pump at the nominal provisioning level so quiet-phase
        # relaxation cannot leave the loop flat-footed at a boost onset.
        ctl = PIController(setpoint, 60.0, 30.0, 1e3, 1e5, 0.1)
        controlled = run_controlled(
            steady, ctl, duration=6.0, control_period=0.1, dt=0.02,
            p_initial=1e3, power_profile=boost,
        )
        # Constant worst-case pressure (what a designer without runtime
        # control must provision).
        p_worst = max(controlled.pressures)
        constant = run_controlled(
            steady, lambda t, p: p_worst, duration=6.0, control_period=0.1,
            dt=0.02, p_initial=p_worst, power_profile=boost,
        )
        # Never reacting at all (stuck at the low nominal pressure).
        passive = run_controlled(
            steady, lambda t, p: 1e3, duration=6.0, control_period=0.1,
            dt=0.02, p_initial=1e3, power_profile=boost,
        )
        assert controlled.mean_pumping_power < constant.mean_pumping_power
        # Compare peaks after the cold-start transient (the controller
        # needs a few periods to wind up from the 300 K initial state).
        def late_peak(trace):
            return max(
                t for time, t in zip(trace.times, trace.t_max) if time > 3.0
            )

        assert late_peak(controlled) < late_peak(passive)

    def test_validation(self):
        with pytest.raises(ThermalError):
            PIController(307.0, 1.0, 1.0, p_min=1e4, p_max=1e3, period=0.1)
        with pytest.raises(ThermalError):
            PIController(307.0, 1.0, 1.0, p_min=1e2, p_max=1e3, period=0.0)


class TestRunControlled:
    def test_trace_shapes(self, steady):
        trace = run_controlled(
            steady,
            lambda t_max, p: 5e3,
            duration=1.0,
            control_period=0.25,
            dt=0.05,
            p_initial=5e3,
            store_results=True,
        )
        assert len(trace.times) == 5
        assert len(trace.results) == 5
        assert trace.times[-1] == pytest.approx(1.0)
        assert trace.mean_pumping_power > 0

    def test_time_above(self, steady):
        trace = run_controlled(
            steady, lambda t, p: 5e3, duration=1.0, control_period=0.25,
            dt=0.05, p_initial=5e3,
        )
        assert trace.time_above(0.0) == pytest.approx(1.0)
        assert trace.time_above(1e6) == 0.0

    def test_dt_must_divide_period(self, steady):
        with pytest.raises(ThermalError, match="divide"):
            run_controlled(
                steady, lambda t, p: 5e3, duration=1.0,
                control_period=0.25, dt=0.06, p_initial=5e3,
            )

    def test_nonpositive_command_rejected(self, steady):
        with pytest.raises(ThermalError, match="non-positive"):
            run_controlled(
                steady, lambda t, p: 0.0, duration=0.5,
                control_period=0.25, dt=0.05, p_initial=5e3,
            )

    @pytest.mark.parametrize("controller", ["constant", "pi"])
    def test_non_finite_state_raises_divergence(self, steady, controller):
        """A state gone non-finite stops the run at the step it appeared,
        as a fixed-pressure run does, instead of returning NaN peaks or
        commanding a NaN pressure.  Steps are numbered over the whole run:
        the controlled clock (``time += dt``) first passes 0.3 s at step 7,
        in the second period; the fixed run's ``6 * dt`` already does."""

        def power(t):
            return float("nan") if t > 0.3 else 1.0

        with pytest.raises(ThermalError, match="transient diverged at step 6$"):
            TransientSimulator(steady, 5e3).run(
                duration=1.0, dt=0.05, power_scale=power
            )
        ctl = (
            (lambda t_max, p: 5e3)
            if controller == "constant"
            else PIController(310.0, 60.0, 30.0, 1e3, 1e5, period=0.25)
        )
        with pytest.raises(ThermalError, match="transient diverged at step 7$"):
            run_controlled(
                steady, ctl, duration=1.0, control_period=0.25, dt=0.05,
                p_initial=5e3, power_profile=power,
            )
