"""Pressure and flow-rate solution of a cooling network.

The solver exploits linearity: pressures and flow rates scale proportionally
with the system pressure drop ``P_sys`` (all conductances are constants).  A
:class:`FlowField` therefore solves the network once at unit pressure and
produces the :class:`FlowSolution` for any ``P_sys`` by scaling -- this makes
the repeated pressure probes of the optimization loops (Algorithms 2/3)
essentially free on the flow side.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.sparse import csc_matrix

from .. import linalg, profiling
from ..constants import EDGE_CONDUCTANCE_FACTOR
from ..errors import FlowError, LinalgError
from ..faults import SITE_FLOW_MATRIX, SITE_FLOW_PRESSURES, corrupt
from ..geometry.grid import ChannelGrid, PortKind
from ..materials import Coolant
from .conductance import cell_conductance, edge_conductance


@dataclass
class FlowSolution:
    """Flow state of a network at one system pressure drop.

    All arrays are indexed by the dense liquid-cell index of
    ``grid.liquid_index_map()``.

    Attributes:
        p_sys: System pressure drop in Pa (outlet pressure is 0).
        pressures: Pressure at every liquid cell, shape (n,).
        edge_cells: Index pairs (i, j) of adjacent liquid cells, shape (e, 2).
        edge_flows: Signed flow from cell i to cell j on each edge, m^3/s.
        inlet_flows: Flow entering each cell from attached inlets (>= 0).
        outlet_flows: Flow leaving each cell through attached outlets (>= 0).
        q_sys: Total system flow rate, m^3/s.
    """

    p_sys: float
    pressures: np.ndarray
    edge_cells: np.ndarray
    edge_flows: np.ndarray
    inlet_flows: np.ndarray
    outlet_flows: np.ndarray
    q_sys: float

    @property
    def n_cells(self) -> int:
        """Number of liquid cells in the solution."""
        return self.pressures.shape[0]

    @property
    def r_sys(self) -> float:
        """System fluid resistance ``P_sys / Q_sys`` in Pa s / m^3."""
        if self.q_sys <= 0:
            raise FlowError("system flow rate is zero; no resistance defined")
        return self.p_sys / self.q_sys

    @property
    def w_pump(self) -> float:
        """Pumping power ``P_sys * Q_sys`` in watts (efficiency term dropped)."""
        return self.p_sys * self.q_sys

    def conservation_residual(self) -> np.ndarray:
        """Net volume flux into each cell; ~0 everywhere at a valid solution."""
        residual = self.inlet_flows - self.outlet_flows
        np.subtract.at(residual, self.edge_cells[:, 0], self.edge_flows)
        np.add.at(residual, self.edge_cells[:, 1], self.edge_flows)
        return residual


#: Fields of a solved unit-pressure system shared through the topology cache.
_UNIT_FIELDS = (
    "edge_cells",
    "inlet_idx",
    "outlet_idx",
    "g_cell",
    "g_edge",
    "_unit_pressures",
    "_unit_edge_flows",
    "_unit_inlet_flows",
    "_unit_outlet_flows",
    "_unit_q_sys",
)

_unit_cache_lock = threading.Lock()
_unit_cache: "OrderedDict[tuple, dict]" = OrderedDict()
#: Unit solutions kept, least recently used evicted first.  [unit: 1]
UNIT_CACHE_SIZE = 64


def _reset_unit_cache_lock() -> None:
    """Give a forked child a new cache lock: another thread of the parent
    may have held the old one at the fork, and no child thread frees it."""
    global _unit_cache_lock
    _unit_cache_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_unit_cache_lock)


def clear_unit_cache() -> None:
    """Drop every cached unit solution (mainly for tests and benchmarks)."""
    with _unit_cache_lock:
        _unit_cache.clear()


class FlowField:
    """Pressure/flow solver for one channel grid, reusable across pressures.

    The assembled sparse system and its unit-pressure solution are memoized
    in a module-level cache keyed by the network *topology* (liquid mask,
    ports, geometry, coolant, edge factor): building a second ``FlowField``
    for an identical network -- e.g. the matched-ports convention replicating
    one grid across every channel layer, or the SA loop revisiting a
    candidate -- skips assembly and factorization entirely.  Cached arrays
    are marked read-only because they are shared between instances.

    Args:
        grid: The cooling network.
        channel_height: ``h_c`` in meters.
        coolant: Working fluid.
        edge_factor: Scale of the inlet/outlet conductance relative to a
            cell-to-cell conductance.
    """

    def __init__(
        self,
        grid: ChannelGrid,
        channel_height: float,
        coolant: Coolant,
        edge_factor: float = EDGE_CONDUCTANCE_FACTOR,
    ) -> None:
        if channel_height <= 0:
            raise FlowError(
                f"channel height must be positive, got {channel_height}"
            )
        self.grid = grid
        self.channel_height = float(channel_height)
        self.coolant = coolant
        self.edge_factor = float(edge_factor)
        self.index_of = grid.liquid_index_map()
        self.n = len(self.index_of)
        if self.n == 0:
            raise FlowError("network has no liquid cells")
        if not grid.inlets():
            raise FlowError("network has no inlet; pressure problem is singular")
        if not grid.outlets():
            raise FlowError("network has no outlet; pressure problem is singular")
        key = self._topology_key()
        with _unit_cache_lock:
            cached = _unit_cache.get(key)
            if cached is not None:
                _unit_cache.move_to_end(key)
        if cached is not None:
            profiling.increment("flow.unit_cache_hits")
            for name in _UNIT_FIELDS:
                setattr(self, name, cached[name])
            return
        with profiling.timer("flow.unit_solve", cells=self.n):
            self._assemble()
            self._solve_unit()
        profiling.increment("flow.unit_solves")
        entry = {name: getattr(self, name) for name in _UNIT_FIELDS}
        for value in entry.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        with _unit_cache_lock:
            _unit_cache[key] = entry
            while len(_unit_cache) > UNIT_CACHE_SIZE:
                _unit_cache.popitem(last=False)

    def _topology_key(self) -> tuple:
        """Everything the unit solution depends on, hashable."""
        grid = self.grid
        return (
            grid.nrows,
            grid.ncols,
            grid.cell_width,
            self.channel_height,
            self.edge_factor,
            self.coolant,
            grid.liquid.tobytes(),
            tuple(sorted((p.kind.value, p.side.value, p.index) for p in grid.ports)),
        )

    # ------------------------------------------------------------------

    def _assemble(self) -> None:
        grid = self.grid
        w = grid.cell_width
        g_cell = cell_conductance(w, self.channel_height, w, self.coolant)
        g_edge = edge_conductance(
            w, self.channel_height, w, self.coolant, self.edge_factor
        )
        # Guard the assembly inputs: a degenerate channel geometry or broken
        # coolant viscosity surfaces here as a named FlowError instead of an
        # opaque singular-factorization failure downstream.
        for label, g in (("cell", g_cell), ("inlet/outlet edge", g_edge)):
            if not np.isfinite(g) or g <= 0.0:
                raise FlowError(
                    f"non-finite or non-positive {label} conductance {g!r} "
                    f"for channel (cell_width={w}, "
                    f"channel_height={self.channel_height}, "
                    f"coolant={self.coolant.name!r})"
                )
        self.g_cell = g_cell
        self.g_edge = g_edge

        pairs = [
            (self.index_of[a], self.index_of[b])
            for a, b in grid.liquid_adjacent_pairs()
        ]
        self.edge_cells = (
            np.asarray(pairs, dtype=np.int64)
            if pairs
            else np.zeros((0, 2), dtype=np.int64)
        )

        # Vectorized assembly: all off-diagonal couplings carry the same
        # -g_cell, and every diagonal entry accumulates identical g_cell
        # increments, so the scatter-add ordering cannot change the floats.
        i_idx = self.edge_cells[:, 0]
        j_idx = self.edge_cells[:, 1]
        diag = np.zeros(self.n)
        np.add.at(diag, i_idx, g_cell)
        np.add.at(diag, j_idx, g_cell)

        # Ports add a Dirichlet coupling: inlet cells see pressure P_sys,
        # outlet cells see pressure 0, both through g_edge.
        inlet_idx = [
            self.index_of[cell] for cell in grid.port_cells(PortKind.INLET)
        ]
        outlet_idx = [
            self.index_of[cell] for cell in grid.port_cells(PortKind.OUTLET)
        ]
        self.inlet_idx = np.asarray(inlet_idx, dtype=np.int64)
        self.outlet_idx = np.asarray(outlet_idx, dtype=np.int64)
        np.add.at(diag, self.inlet_idx, g_edge)
        np.add.at(diag, self.outlet_idx, g_edge)

        all_idx = np.arange(self.n, dtype=np.int64)
        off_diag = np.full(i_idx.size, -g_cell)
        rows = np.concatenate([i_idx, j_idx, all_idx])
        cols = np.concatenate([j_idx, i_idx, all_idx])
        vals = np.concatenate([off_diag, off_diag, diag])
        self._matrix = csc_matrix(
            (vals, (rows, cols)), shape=(self.n, self.n)
        )

    def _solve_unit(self) -> None:
        rhs = np.zeros(self.n)
        np.add.at(rhs, self.inlet_idx, self.g_edge)  # P_in = 1 Pa
        matrix = corrupt(SITE_FLOW_MATRIX, self._matrix)
        # repro.linalg promotes every SuperLU failure shape -- singular
        # RuntimeError, near-singular MatrixRankWarning -- to a typed
        # LinalgError, translated here to the domain FlowError.
        try:
            factor = linalg.factorize(matrix)
            pressures = factor.solve(rhs)
        except LinalgError as exc:
            raise FlowError(
                "pressure system is singular or could not be factorized; "
                "the network likely contains liquid regions not connected "
                "to any port"
            ) from exc
        pressures = corrupt(SITE_FLOW_PRESSURES, pressures)
        if not np.all(np.isfinite(pressures)):
            raise FlowError("pressure solve produced non-finite values")
        self._unit_pressures = pressures
        i_idx = self.edge_cells[:, 0]
        j_idx = self.edge_cells[:, 1]
        self._unit_edge_flows = self.g_cell * (
            pressures[i_idx] - pressures[j_idx]
        )
        unit_inflow = np.zeros(self.n)
        np.add.at(
            unit_inflow,
            self.inlet_idx,
            self.g_edge * (1.0 - pressures[self.inlet_idx]),
        )
        unit_outflow = np.zeros(self.n)
        np.add.at(
            unit_outflow, self.outlet_idx, self.g_edge * pressures[self.outlet_idx]
        )
        self._unit_inlet_flows = unit_inflow
        self._unit_outlet_flows = unit_outflow
        self._unit_q_sys = float(unit_inflow.sum())
        if self._unit_q_sys <= 0:
            raise FlowError(
                "system flow rate is non-positive; inlets and outlets may be "
                "swapped or disconnected"
            )

    # ------------------------------------------------------------------

    @property
    def r_sys(self) -> float:
        """System fluid resistance, independent of ``P_sys``."""
        return 1.0 / self._unit_q_sys

    def q_sys(self, p_sys: float) -> float:
        """System flow rate at pressure drop ``p_sys``."""
        return self._unit_q_sys * p_sys

    def w_pump(self, p_sys: float) -> float:
        """Pumping power ``P_sys^2 / R_sys`` at pressure drop ``p_sys``."""
        return p_sys * p_sys * self._unit_q_sys

    def p_sys_for_power(self, w_pump: float) -> float:
        """Pressure drop that spends exactly ``w_pump`` (Eq. 10 inverted)."""
        if w_pump < 0:
            raise FlowError(f"pumping power must be non-negative, got {w_pump}")
        return float(np.sqrt(w_pump / self._unit_q_sys))

    def at_pressure(self, p_sys: float) -> FlowSolution:
        """Full flow solution at pressure drop ``p_sys`` (by linear scaling)."""
        if p_sys < 0:
            raise FlowError(f"system pressure must be non-negative, got {p_sys}")
        return FlowSolution(
            p_sys=float(p_sys),
            pressures=self._unit_pressures * p_sys,
            edge_cells=self.edge_cells,
            edge_flows=self._unit_edge_flows * p_sys,
            inlet_flows=self._unit_inlet_flows * p_sys,
            outlet_flows=self._unit_outlet_flows * p_sys,
            q_sys=self._unit_q_sys * p_sys,
        )


def solve_flow(
    grid: ChannelGrid,
    channel_height: float,
    coolant: Coolant,
    p_sys: float,
    edge_factor: float = EDGE_CONDUCTANCE_FACTOR,
) -> FlowSolution:
    """One-shot convenience wrapper: build a :class:`FlowField` and scale.

    Args:
        grid: Channel placement to solve.
        channel_height: Channel height ``h_c``.  [unit: m]
        coolant: The working fluid.
        p_sys: System pressure drop.  [unit: Pa]
        edge_factor: Dimensionless inlet/outlet conductance scale.  [unit: 1]
    """
    return FlowField(grid, channel_height, coolant, edge_factor).at_pressure(p_sys)
