"""Tests for the backward-Euler transient extension."""

import numpy as np
import pytest

from repro.constants import CELL_WIDTH, INLET_TEMPERATURE
from repro.errors import ThermalError
from repro.geometry import build_contest_stack
from repro.materials import WATER
from repro.networks import straight_network
from repro.thermal import (
    RC2Simulator,
    RC4Simulator,
    TransientSimulator,
    run_controlled,
)


def _sim(model="2rm", n=15, power_watts=1.0):
    power = np.full((n, n), power_watts / (n * n))
    grid = straight_network(n, n)
    stack = build_contest_stack(
        2, 200e-6, [power, power], lambda d: grid.copy(), n, n, CELL_WIDTH
    )
    if model == "2rm":
        return RC2Simulator(stack, WATER, tile_size=3)
    return RC4Simulator(stack, WATER)


class TestConvergence:
    @pytest.mark.parametrize("model", ["2rm", "4rm"])
    def test_converges_to_steady_state(self, model):
        steady = _sim(model)
        transient = TransientSimulator(steady, p_sys=1e4)
        target = transient.steady_state()
        trace = transient.run(duration=2.0, dt=0.01, store_every=50)
        final = trace.final()
        assert final.t_max == pytest.approx(target.t_max, abs=0.05)
        assert final.delta_t == pytest.approx(target.delta_t, abs=0.05)

    def test_monotone_heating_from_cold_start(self):
        transient = TransientSimulator(_sim(), p_sys=1e4)
        trace = transient.run(duration=0.5, dt=0.01, store_every=5)
        t_max = trace.t_max_series
        assert np.all(np.diff(t_max) >= -1e-9)
        assert t_max[0] == pytest.approx(INLET_TEMPERATURE)

    def test_time_axis(self):
        transient = TransientSimulator(_sim(), p_sys=1e4)
        trace = transient.run(duration=0.1, dt=0.01, store_every=2)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(0.1)
        assert len(trace.times) == len(trace.results)


class TestPowerSteps:
    def test_power_step_raises_temperature(self):
        """A DVFS-style power step mid-run shifts the trajectory upward."""
        transient = TransientSimulator(_sim(), p_sys=1e4)
        flat = transient.run(duration=1.0, dt=0.02)
        stepped = transient.run(
            duration=1.0,
            dt=0.02,
            power_scale=lambda t: 2.0 if t > 0.5 else 1.0,
        )
        assert stepped.final().t_max > flat.final().t_max

    def test_zero_power_stays_at_inlet(self):
        transient = TransientSimulator(_sim(), p_sys=1e4)
        trace = transient.run(duration=0.2, dt=0.02, power_scale=lambda t: 0.0)
        assert trace.final().t_max == pytest.approx(INLET_TEMPERATURE, abs=1e-6)


class TestOneIntegrator:
    @pytest.mark.parametrize("model", ["2rm", "4rm"])
    def test_fixed_pressure_run_matches_constant_control(self, model):
        """Without a power profile, a fixed-pressure run and a controlled run
        holding that pressure take the same steps, bit for bit."""
        steady = _sim(model)
        p_sys = 1e4
        fixed = TransientSimulator(steady, p_sys).run(
            duration=0.6, dt=0.05, store_every=4
        )
        controlled = run_controlled(
            steady,
            lambda t_max, p: p_sys,
            duration=0.6,
            control_period=0.2,
            dt=0.05,
            p_initial=p_sys,
            store_results=True,
        )
        assert len(fixed.results) == len(controlled.results) == 4
        assert fixed.times == pytest.approx(controlled.times)
        for a, b in zip(fixed.results, controlled.results):
            assert a.t_max == b.t_max
            assert a.delta_t == b.delta_t
            assert a.coolant_heat_removed == b.coolant_heat_removed
            for field_a, field_b in zip(a.layer_fields, b.layer_fields):
                assert np.array_equal(field_a, field_b)
        assert controlled.t_max == [r.t_max for r in fixed.results]


class TestValidation:
    def test_rejects_nonpositive_pressure(self):
        with pytest.raises(ThermalError, match="positive"):
            TransientSimulator(_sim(), p_sys=0.0)

    def test_rejects_bad_duration(self):
        transient = TransientSimulator(_sim(), p_sys=1e4)
        with pytest.raises(ThermalError):
            transient.run(duration=0.0, dt=0.01)
        with pytest.raises(ThermalError):
            transient.run(duration=1.0, dt=-0.1)

    def test_rejects_bad_initial_shape(self):
        transient = TransientSimulator(_sim(), p_sys=1e4)
        with pytest.raises(ThermalError, match="initial state"):
            transient.run(duration=0.1, dt=0.01, initial=np.zeros(3))

    def test_initial_state_default(self):
        transient = TransientSimulator(_sim(), p_sys=1e4)
        state = transient.initial_state()
        assert np.allclose(state, INLET_TEMPERATURE)

    def test_empty_trace_final_raises(self):
        from repro.thermal.transient import TransientTrace

        with pytest.raises(ThermalError, match="empty"):
            TransientTrace(times=[], results=[]).final()
