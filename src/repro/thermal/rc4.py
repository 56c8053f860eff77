"""4-register-model (4RM) thermal simulator (Section 2.2 of the paper).

The reference model: thermal cells conform to the microchannel geometry, so
every basic cell of every layer is one thermal node.  Three kinds of heat
transfer are modeled:

* solid-solid conduction (Eq. 4), horizontally within layers and vertically
  across layer interfaces;
* solid-liquid convection (Eq. 5): channel walls exchange heat with the
  coolant through ``g_sl* = Nu k_liquid A / D_h`` in series with the half-cell
  solid conduction -- vertically through channel floors/ceilings and
  horizontally through the side walls;
* liquid-liquid advection (Eq. 6) along the local flow field, discretized
  with the central differencing scheme.

Accuracy matches 3D-ICE-style models; speed is what the 2RM model then buys.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..constants import (
    EDGE_CONDUCTANCE_FACTOR,
    INLET_TEMPERATURE,
    NUSSELT_NUMBER,
)
from ..faults import SITE_THERMAL_RC4
from ..flow.network import FlowField
from ..geometry.layers import ChannelLayer, SolidLayer, SourceLayer
from ..geometry.stack import Stack
from ..materials import Coolant
from .common import (
    ADVECTION_SCHEME_DEFAULT,
    AdvectionSpec,
    ConductanceBuilder,
    check_stack,
    h_conv,
    linear_system,
    series_conductance,
    slab_half_conductance,
    solve_steady,
)
from .result import ThermalResult


class RC4Simulator:
    """Steady-state 4RM simulator for one stack.

    Everything independent of the system pressure drop (conductance matrix,
    unit flow fields, unit advection operator) is precomputed at construction;
    :meth:`solve` only assembles ``K + P A`` and factorizes.

    Args:
        stack: The 3D IC stack to simulate.
        coolant: Working fluid shared by all channel layers.
        edge_factor: Inlet/outlet hydraulic conductance scale.
        inlet_temperature: Coolant temperature at every inlet, K.
        nusselt: Nusselt number of the laminar channel flow.
        liquid_conduction: Also model conduction between adjacent liquid
            cells (off in the paper's models; advection dominates).
        top_bc: Optional ``(h, T_amb)`` convective boundary on the top layer;
            ``None`` keeps every outer surface adiabatic (contest setting).
        tsv_material: When given (typically copper), TSV-reserved cells in
            channel layers conduct vertically with this material instead of
            the channel wall -- the co-optimization hook the paper's future
            work points to.  ``None`` treats TSV cells as plain wall.
        advection_scheme: ``"upwind"`` (monotone, default) or ``"central"``
            (the paper's Eq. 6); see
            :func:`~repro.thermal.common.assemble_advection`.
    """

    model_name = "4RM"

    def __init__(
        self,
        stack: Stack,
        coolant: Coolant,
        edge_factor: float = EDGE_CONDUCTANCE_FACTOR,
        inlet_temperature: float = INLET_TEMPERATURE,
        nusselt: float = NUSSELT_NUMBER,
        liquid_conduction: bool = False,
        top_bc: Optional[Tuple[float, float]] = None,
        tsv_material=None,
        advection_scheme: str = ADVECTION_SCHEME_DEFAULT,
    ) -> None:
        self.stack = stack
        self.coolant = coolant
        self.edge_factor = float(edge_factor)
        self.inlet_temperature = float(inlet_temperature)
        self.nusselt = float(nusselt)
        self.liquid_conduction = bool(liquid_conduction)
        self.top_bc = top_bc
        self.tsv_material = tsv_material
        self.advection_scheme = str(advection_scheme)
        check_stack(stack, top_bc)
        self.nrows, self.ncols = stack.nrows, stack.ncols
        self._cells_per_layer = self.nrows * self.ncols
        self.n_nodes = stack.n_layers * self._cells_per_layer
        self._layer_starts = np.arange(stack.n_layers) * self._cells_per_layer
        self._layer_names = [layer.name for layer in stack.layers]
        self._source_layer_indices = stack.source_layer_indices()
        self._total_power = stack.total_power
        self.flow_fields: List[FlowField] = [
            FlowField(
                layer.grid, layer.channel_height, coolant, self.edge_factor
            )
            for layer in stack.channel_layers()
        ]
        self._build_system()

    # ------------------------------------------------------------------

    def _node_ids(self, layer_index: int) -> np.ndarray:
        """Global node ids of one layer, shape (nrows, ncols)."""
        base = layer_index * self._cells_per_layer
        return base + np.arange(self._cells_per_layer).reshape(
            self.nrows, self.ncols
        )

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _build_system(self) -> None:
        stack = self.stack
        w = stack.cell_width
        builder = ConductanceBuilder(self.n_nodes)
        rhs_static = np.zeros(self.n_nodes)

        for k, layer in enumerate(stack.layers):
            self._add_horizontal(builder, k, layer)
            if isinstance(layer, SourceLayer):
                ids = self._node_ids(k)
                rhs_static[ids.ravel()] += layer.power_map.ravel()

        for k in range(stack.n_layers - 1):
            self._add_vertical(builder, k)

        if self.top_bc is not None:
            h_amb, t_amb = self.top_bc
            top_ids = self._node_ids(stack.n_layers - 1).ravel()
            g = np.full(top_ids.shape, h_amb * w * w)
            builder.add_grounded(top_ids, g)
            rhs_static[top_ids] += g * t_amb

        self._specs = self._advection_specs()
        self.system = linear_system(self, builder, rhs_static)

    def _add_horizontal(self, builder: ConductanceBuilder, k: int, layer) -> None:
        w = self.stack.cell_width
        ids = self._node_ids(k)
        if isinstance(layer, ChannelLayer):
            liq = layer.grid.liquid
            k_wall = layer.wall_material.thermal_conductivity
            h_c = layer.channel_height
            g_ss = k_wall * h_c  # k * (w h_c) / w
            g_conv = (
                h_conv(self.coolant, w, h_c, self.nusselt) * w * h_c
            )
            g_half = 2.0 * k_wall * h_c  # k * (w h_c) / (w / 2)
            g_sl = series_conductance(g_conv, g_half)
            g_ll = (
                self.coolant.thermal_conductivity * h_c
                if self.liquid_conduction
                else 0.0
            )
            for a, b, liq_a, liq_b in _pair_slices(ids, liq):
                both_solid = ~liq_a & ~liq_b
                both_liquid = liq_a & liq_b
                mixed = ~both_solid & ~both_liquid
                g = np.where(
                    both_solid, g_ss, np.where(mixed, g_sl, g_ll)
                )
                builder.add_pairs(a.ravel(), b.ravel(), g.ravel())
        else:
            assert isinstance(layer, SolidLayer)
            g = layer.material.thermal_conductivity * layer.thickness
            a = ids[:, :-1].ravel()
            b = ids[:, 1:].ravel()
            builder.add_pairs(a, b, np.full(a.shape, g))
            a = ids[:-1, :].ravel()
            b = ids[1:, :].ravel()
            builder.add_pairs(a, b, np.full(a.shape, g))

    def _add_vertical(self, builder: ConductanceBuilder, k: int) -> None:
        stack = self.stack
        w = stack.cell_width
        area = w * w
        below = stack.layers[k]
        above = stack.layers[k + 1]
        ids_below = self._node_ids(k).ravel()
        ids_above = self._node_ids(k + 1).ravel()

        def solid_half(layer) -> float:
            material = (
                layer.wall_material
                if isinstance(layer, ChannelLayer)
                else layer.material
            )
            return slab_half_conductance(
                material.thermal_conductivity, area, layer.thickness
            )

        g_solid = series_conductance(solid_half(below), solid_half(above))

        liquid_mask = None
        if isinstance(below, ChannelLayer):
            liquid_mask = below.grid.liquid.ravel()
            channel = below
            solid_side = above
        elif isinstance(above, ChannelLayer):
            liquid_mask = above.grid.liquid.ravel()
            channel = above
            solid_side = below
        if liquid_mask is None:
            g = np.full(ids_below.shape, g_solid)
        else:
            g_conv = (
                h_conv(self.coolant, w, channel.channel_height, self.nusselt)
                * area
            )
            g_liquid = series_conductance(g_conv, solid_half(solid_side))
            g = np.where(liquid_mask, g_liquid, g_solid)
            if self.tsv_material is not None:
                g_tsv = series_conductance(
                    slab_half_conductance(
                        self.tsv_material.thermal_conductivity,
                        area,
                        channel.thickness,
                    ),
                    solid_half(solid_side),
                )
                tsv_mask = channel.grid.tsv_mask.ravel() & ~liquid_mask
                g = np.where(tsv_mask, g_tsv, g)
        builder.add_pairs(ids_below, ids_above, g)

    def _advection_specs(self) -> List[AdvectionSpec]:
        specs = []
        channel_indices = self.stack.channel_layer_indices()
        for layer_index, field in zip(channel_indices, self.flow_fields):
            ids = self._node_ids(layer_index)
            node_ids = ids[self.stack.layers[layer_index].grid.liquid]
            unit = field.at_pressure(1.0)
            pair_nodes = node_ids[unit.edge_cells]
            specs.append(
                AdvectionSpec(
                    pair_nodes=pair_nodes,
                    pair_flows=unit.edge_flows,
                    node_ids=node_ids,
                    inlet_flows=unit.inlet_flows,
                    outlet_flows=unit.outlet_flows,
                )
            )
        return specs

    # ------------------------------------------------------------------
    # Solve
    # ------------------------------------------------------------------

    def solve(self, p_sys: float, exact: bool = False) -> ThermalResult:
        """Steady temperatures at ``p_sys`` (Pa); see
        :func:`~repro.thermal.common.solve_steady`."""
        return solve_steady(
            self, "thermal.rc4.solve", SITE_THERMAL_RC4, p_sys, exact
        )

    def node_capacitances(self) -> np.ndarray:
        """Heat capacity of every thermal node in J/K (transient extension)."""
        w = self.stack.cell_width
        area = w * w
        caps = np.zeros(self.n_nodes)
        for k, layer in enumerate(self.stack.layers):
            ids = self._node_ids(k).ravel()
            if isinstance(layer, ChannelLayer):
                volume = area * layer.channel_height
                per_cell = np.where(
                    layer.grid.liquid.ravel(),
                    volume * self.coolant.volumetric_heat_capacity,
                    volume * layer.wall_material.volumetric_heat_capacity,
                )
            else:
                per_cell = np.full(
                    ids.shape,
                    area
                    * layer.thickness
                    * layer.material.volumetric_heat_capacity,
                )
            caps[ids] = per_cell
        return caps

    def _expand_fields(
        self, temperatures: np.ndarray
    ) -> Tuple[List[np.ndarray], Dict[int, np.ndarray]]:
        """Cell-resolution layer and coolant maps of a node temperature
        vector: a layer's map is a view of its slice of ``temperatures``."""
        shape = (self.stack.n_layers, self.nrows, self.ncols)
        fields = list(temperatures.reshape(shape))
        return fields, {
            k: np.where(layer.grid.liquid, fields[k], np.nan)
            for k, layer in enumerate(self.stack.layers)
            if isinstance(layer, ChannelLayer)
        }


def _pair_slices(
    ids: np.ndarray, liq: np.ndarray
) -> "Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]":
    """Yield (ids_a, ids_b, liq_a, liq_b) for east and south neighbor pairs."""
    yield ids[:, :-1], ids[:, 1:], liq[:, :-1], liq[:, 1:]
    yield ids[:-1, :], ids[1:, :], liq[:-1, :], liq[1:, :]
