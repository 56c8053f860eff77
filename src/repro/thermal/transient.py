"""Transient thermal analysis (the extension Section 2.3 mentions).

Wraps a steady simulator (4RM or 2RM) and integrates::

    C dT/dt = -(K + P A) T + b(P)

with backward Euler: ``(C/dt + K + P A) T_{n+1} = (C/dt) T_n + b``.  The
implicit step is unconditionally stable, which matters because channel-layer
liquid nodes have tiny capacitances compared with bulk silicon tiles.  One
integrator serves :meth:`TransientSimulator.run` and ``run_controlled``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np
from scipy.sparse import diags

from .. import linalg
from ..errors import LinalgError, ThermalError
from .common import package_result
from .result import ThermalResult


def backward_euler_lu(steady: Any, c_over_dt: np.ndarray, p_sys: float) -> Any:
    """LU of a steady simulator's backward-Euler operator ``K + P A + C/dt``.

    Args:
        p_sys: System pressure drop ``P``.  [unit: Pa]
    """
    try:
        return linalg.factorize(
            steady.system.system_matrix(p_sys) + diags(c_over_dt)
        )
    except LinalgError as exc:
        raise ThermalError(
            f"backward-Euler operator could not be factorized at pressure "
            f"{p_sys}"
        ) from exc


def backward_euler_steps(
    steady: Any,
    lu: Any,
    p_sys: float,
    c_over_dt: np.ndarray,
    state: np.ndarray,
    times: Iterable[float],
    power_scale: Optional[Callable[[float], float]],
    first_step: int = 1,
) -> Iterator[Tuple[float, np.ndarray]]:
    """Step ``state`` to each of ``times`` on :func:`backward_euler_lu`'s
    ``lu``; yields ``(time, state)``.  ``power_scale(time)`` scales the
    power map, never the inlet term.  A non-finite state raises
    :class:`~repro.errors.ThermalError` naming its step, counted from
    ``first_step``.

    Args:
        p_sys: System pressure drop ``P``.  [unit: Pa]
    """
    rhs_power = steady.system.rhs_static
    rhs_adv = p_sys * steady.system.rhs_advection
    for step, time in enumerate(times, start=first_step):
        scale = 1.0 if power_scale is None else float(power_scale(time))
        state = lu.solve(c_over_dt * state + scale * rhs_power + rhs_adv)
        if not np.all(np.isfinite(state)):
            raise ThermalError(f"transient diverged at step {step}")
        yield time, state


@dataclass
class TransientTrace:
    """Time series produced by a transient run.

    Attributes:
        times: Simulation times in seconds, one per stored step.
        results: Full :class:`ThermalResult` snapshots aligned with ``times``.
    """

    times: List[float]
    results: List[ThermalResult]

    @property
    def t_max_series(self) -> np.ndarray:
        """Peak temperature per stored step."""
        return np.array([r.t_max for r in self.results])

    def final(self) -> ThermalResult:
        """The last stored snapshot."""
        if not self.results:
            raise ThermalError("transient trace is empty")
        return self.results[-1]


class TransientSimulator:
    """Backward-Euler transient integrator over a steady simulator.

    Args:
        steady: An :class:`~repro.thermal.rc4.RC4Simulator` or
            :class:`~repro.thermal.rc2.RC2Simulator` instance.  Its assembled
            matrices are reused; nothing is rebuilt.
        p_sys: System pressure drop during the transient, Pa (fixed; runtime
            flow-rate control is listed as future work in the paper).
    """

    def __init__(self, steady, p_sys: float) -> None:
        if p_sys <= 0:
            raise ThermalError(f"system pressure must be positive, got {p_sys}")
        self.steady = steady
        self.p_sys = float(p_sys)
        self.capacitances = steady.node_capacitances()
        if (self.capacitances <= 0).any():
            raise ThermalError("every thermal node needs positive capacitance")
        self.n_nodes = steady.system.n_nodes

    def initial_state(self, temperature: Optional[float] = None) -> np.ndarray:
        """A uniform initial temperature vector (defaults to the inlet)."""
        if temperature is None:
            temperature = self.steady.inlet_temperature
        return np.full(self.n_nodes, float(temperature))

    def run(
        self,
        duration: float,
        dt: float,
        initial: Optional[np.ndarray] = None,
        store_every: int = 1,
        power_scale: Optional[Callable[[float], float]] = None,
    ) -> TransientTrace:
        """Integrate for ``duration`` seconds with step ``dt``.

        Args:
            duration: Total simulated time, s.
            dt: Backward-Euler step, s.
            initial: Starting temperature vector; defaults to uniform inlet
                temperature.
            store_every: Keep every n-th step in the trace (step 0 and the
                final step are always kept).
            power_scale: Optional function of time returning a multiplier on
                the heat sources (models DVFS-style power steps).  The
                advection/inlet terms are never scaled.

        Returns:
            A :class:`TransientTrace` with snapshots.
        """
        if dt <= 0 or duration <= 0:
            raise ThermalError(
                f"duration and dt must be positive, got {duration}, {dt}"
            )
        n_steps = int(round(duration / dt))
        if n_steps < 1:
            raise ThermalError("duration shorter than one step")
        state = (
            self.initial_state() if initial is None else np.asarray(initial, float)
        )
        if state.shape != (self.n_nodes,):
            raise ThermalError(
                f"initial state has shape {state.shape}, expected "
                f"({self.n_nodes},)"
            )
        c_over_dt = self.capacitances / dt
        times = [0.0]
        results = [package_result(self.steady, self.p_sys, state.copy())]
        steps = backward_euler_steps(
            self.steady,
            backward_euler_lu(self.steady, c_over_dt, self.p_sys),
            self.p_sys,
            c_over_dt,
            state,
            (step * dt for step in range(1, n_steps + 1)),
            power_scale,
        )
        for step, (time, state) in enumerate(steps, start=1):
            if step % store_every == 0 or step == n_steps:
                times.append(time)
                results.append(package_result(self.steady, self.p_sys, state))
        return TransientTrace(times=times, results=results)

    def steady_state(self) -> ThermalResult:
        """The steady solution this transient converges to."""
        return self.steady.solve(self.p_sys)
