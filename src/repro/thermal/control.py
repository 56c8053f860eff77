"""Run-time thermal management: pressure control under dynamic power.

The paper's future work proposes "combining cooling networks with run-time
thermal management techniques (e.g., DVFS and adjustable flow rates) to
handle dynamic die power".  This module implements that loop on top of the
transient extension: a controller observes the peak temperature at a control
period and adjusts the pump pressure; between control decisions the plant
steps with the transient extension's backward-Euler integrator (LU
factorizations are memoized per commanded pressure, so revisited pump levels
never re-factorize).

Two standard controllers are provided: a hysteresis (bang-bang) controller
switching between two pump levels, and a clamped proportional-integral
controller tracking a peak-temperature setpoint.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat
from typing import Any, Callable, List, Optional

import numpy as np

from ..constants import quantize_key
from ..errors import ThermalError
from .common import package_result
from .result import ThermalResult
from .transient import backward_euler_lu, backward_euler_steps

#: Backward-Euler LU factorizations kept per controlled run.  A bang-bang
#: controller alternates between two pressures and a PI controller converges
#: onto a few, so a handful of slots makes re-commanded pressures free.
_CONTROL_LU_SLOTS = 8  #: [unit: 1]


class HysteresisController:
    """Bang-bang pump control with hysteresis.

    Runs the pump at ``p_low`` until the peak temperature exceeds
    ``t_high``, then at ``p_high`` until it drops below ``t_low``.
    """

    def __init__(
        self, p_low: float, p_high: float, t_low: float, t_high: float
    ) -> None:
        if not 0 < p_low <= p_high:
            raise ThermalError(
                f"need 0 < p_low <= p_high, got ({p_low}, {p_high})"
            )
        if not t_low < t_high:
            raise ThermalError(f"need t_low < t_high, got ({t_low}, {t_high})")
        self.p_low = float(p_low)
        self.p_high = float(p_high)
        self.t_low = float(t_low)
        self.t_high = float(t_high)
        self._boosted = False

    def __call__(self, t_max: float, p_current: float) -> float:
        if self._boosted:
            if t_max < self.t_low:
                self._boosted = False
        elif t_max > self.t_high:
            self._boosted = True
        return self.p_high if self._boosted else self.p_low


class PIController:
    """Clamped proportional-integral control of the pump pressure.

    Tracks ``T_max -> setpoint`` with gains in Pa/K; the output is clamped
    to ``[p_min, p_max]`` with integral anti-windup.
    """

    def __init__(
        self,
        setpoint: float,
        kp: float,
        ki: float,
        p_min: float,
        p_max: float,
        period: float,
    ) -> None:
        if not 0 < p_min < p_max:
            raise ThermalError(f"need 0 < p_min < p_max, got ({p_min}, {p_max})")
        if period <= 0:
            raise ThermalError(f"control period must be positive, got {period}")
        self.setpoint = float(setpoint)
        self.kp = float(kp)
        self.ki = float(ki)
        self.p_min = float(p_min)
        self.p_max = float(p_max)
        self.period = float(period)
        self._integral = 0.0

    def __call__(self, t_max: float, p_current: float) -> float:
        error = t_max - self.setpoint  # hotter than setpoint -> pump harder
        candidate = (
            p_current + self.kp * error + self.ki * self._integral
        )
        clamped = min(max(candidate, self.p_min), self.p_max)
        if clamped == candidate:  # anti-windup: integrate only unclamped
            self._integral += error * self.period
        return clamped


@dataclass
class ControlTrace:
    """Time series of a controlled transient run."""

    times: List[float]
    t_max: List[float]
    delta_t: List[float]
    pressures: List[float]
    #: Average pumping power over the run, W.
    mean_pumping_power: float
    #: Snapshots at the control instants.
    results: List[ThermalResult] = field(default_factory=list)

    @property
    def peak(self) -> float:
        """Highest peak temperature over the whole run."""
        return max(self.t_max)

    def time_above(self, threshold: float) -> float:
        """Total simulated time spent with ``T_max`` above ``threshold``."""
        total = 0.0
        for (t0, t1), value in zip(
            zip(self.times, self.times[1:]), self.t_max[1:]
        ):
            if value > threshold:
                total += t1 - t0
        return total


def run_controlled(
    steady,
    controller: Callable[[float, float], float],
    duration: float,
    control_period: float,
    dt: float,
    p_initial: float,
    power_profile: Optional[Callable[[float], float]] = None,
    store_results: bool = False,
) -> ControlTrace:
    """Closed-loop transient simulation with pump-pressure control.

    Args:
        steady: An :class:`~repro.thermal.rc2.RC2Simulator` or
            :class:`~repro.thermal.rc4.RC4Simulator` (its assembled matrices
            are reused; the flow/advection scales with the commanded
            pressure).
        controller: Called once per control period with
            ``(t_max, p_current)``; returns the commanded pressure in Pa.
        duration: Total simulated time.  [unit: s]
        control_period: Time between controller invocations.  [unit: s]
        dt: Backward-Euler step (must divide the control period).
            [unit: s]
        p_initial: Pump pressure before the first control decision.
            [unit: Pa]
        power_profile: Optional multiplier on the die power over time
            (models DVFS-driven dynamic power).
        store_results: Keep full thermal snapshots at control instants.

    Returns:
        A :class:`ControlTrace`.
    """
    if control_period <= 0 or dt <= 0 or duration <= 0:
        raise ThermalError("duration, control_period and dt must be positive")
    steps_per_period = int(round(control_period / dt))
    if steps_per_period < 1 or abs(steps_per_period * dt - control_period) > 1e-9:
        raise ThermalError(
            f"dt={dt} must divide the control period {control_period}"
        )
    n_periods = int(round(duration / control_period))
    if n_periods < 1:
        raise ThermalError("duration shorter than one control period")

    c_over_dt = steady.node_capacitances() / dt
    state = np.full(steady.system.n_nodes, steady.inlet_temperature)
    q_unit = sum(f.q_sys(1.0) for f in steady.flow_fields)
    clock = accumulate(repeat(dt))  # ``time += dt`` per step

    lu_cache: "OrderedDict[float, object]" = OrderedDict()

    def lu_for(pressure: float) -> Any:
        key = quantize_key(pressure)
        lu = lu_cache.get(key)
        if lu is None:
            lu = lu_cache[key] = backward_euler_lu(steady, c_over_dt, pressure)
            while len(lu_cache) > _CONTROL_LU_SLOTS:
                lu_cache.popitem(last=False)
        else:
            lu_cache.move_to_end(key)
        return lu

    trace = ControlTrace([], [], [], [], mean_pumping_power=0.0)

    def record(time: float, pressure: float, snapshot: ThermalResult) -> None:
        trace.times.append(time)
        trace.t_max.append(snapshot.t_max)
        trace.delta_t.append(snapshot.delta_t)
        trace.pressures.append(pressure)
        if store_results:
            trace.results.append(snapshot)

    p_current = float(p_initial)
    record(0.0, p_current, package_result(steady, max(p_current, 1e-9), state))
    energy_pump = 0.0
    for period in range(n_periods):
        commanded = float(controller(trace.t_max[-1], p_current))
        if commanded <= 0:
            raise ThermalError(
                f"controller commanded non-positive pressure {commanded}"
            )
        p_current = commanded
        for time, state in backward_euler_steps(
            steady,
            lu_for(p_current),
            p_current,
            c_over_dt,
            state,
            islice(clock, steps_per_period),
            power_profile,
            first_step=period * steps_per_period + 1,
        ):
            pass
        # Pumping power P^2 / R integrated over the period.
        energy_pump += p_current * p_current * q_unit * control_period
        record(time, p_current, package_result(steady, p_current, state))

    trace.mean_pumping_power = energy_pump / (n_periods * control_period)
    return trace
