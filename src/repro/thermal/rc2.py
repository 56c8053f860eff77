"""2-register-model (2RM) porous-medium thermal simulator (Section 2.3).

The fast model the paper contributes: the horizontal discretization is
coarsened to ``m x m``-cell tiles.  In channel layers each tile becomes *two*
thermal nodes -- one solid, one liquid -- because of their diverse properties;
in plain solid layers each tile is one node.  The conductances are:

* tile-to-tile solid conduction through **complete conducting paths** only:
  a row (column) of basic cells counts towards the effective conductance
  between a channel-layer solid node and the tile interface only if it is
  solid the whole way from the node's half-tile to the interface; the two
  half-tile conductances combine in series (Eq. 7);
* solid-liquid transfer in the **vertical direction only**: the side-wall
  area is folded into the top/bottom wall convection,
  ``g*_sl,top/bottom = h_conv (A_top/bottom + A_side / 2)`` (Eq. 8), in series
  with the half-slab conduction of the adjacent layer (Eq. 5);
* liquid-liquid advection driven by the **net** flow rate across each tile
  interface, with the same Eq. 6 discretization as the 4RM model.

An ``m x m`` coarsening shrinks the linear system by about ``m^2`` and
accelerates simulation by more than ``m^2`` (Fig. 9), which is what makes the
paper's inner-loop network evaluation affordable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..constants import (
    EDGE_CONDUCTANCE_FACTOR,
    INLET_TEMPERATURE,
    NUSSELT_NUMBER,
)
from ..errors import ThermalError
from ..faults import SITE_THERMAL_RC2
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
    slab_half_conductance,
    solve_steady,
)
from .mesh import Tiling
from .result import ThermalResult


class RC2Simulator:
    """Steady-state 2RM simulator for one stack.

    Args:
        stack: The 3D IC stack to simulate.
        coolant: Working fluid shared by all channel layers.
        tile_size: Thermal-cell edge in basic cells (``m``); the paper adopts
            ``m = 4`` (400 um tiles on the 100 um contest grid) as the
            accuracy/runtime sweet spot.
        edge_factor / inlet_temperature / nusselt / top_bc /
            tsv_material: As in :class:`~repro.thermal.rc4.RC4Simulator`
            (TSV cells contribute area-weighted vertical conduction per
            tile when ``tsv_material`` is set).
        advection_scheme: ``"upwind"`` (monotone, default) or ``"central"``
            (the paper's Eq. 6); see
            :func:`~repro.thermal.common.assemble_advection`.
    """

    model_name = "2RM"

    def __init__(
        self,
        stack: Stack,
        coolant: Coolant,
        tile_size: int = 4,
        edge_factor: float = EDGE_CONDUCTANCE_FACTOR,
        inlet_temperature: float = INLET_TEMPERATURE,
        nusselt: float = NUSSELT_NUMBER,
        top_bc: Optional[Tuple[float, float]] = None,
        tsv_material=None,
        advection_scheme: str = ADVECTION_SCHEME_DEFAULT,
    ) -> None:
        if tile_size < 1:
            raise ThermalError(f"tile size must be >= 1, got {tile_size}")
        self.stack = stack
        self.coolant = coolant
        self.tile_size = int(tile_size)
        self.edge_factor = float(edge_factor)
        self.inlet_temperature = float(inlet_temperature)
        self.nusselt = float(nusselt)
        self.top_bc = top_bc
        self.tsv_material = tsv_material
        self.advection_scheme = str(advection_scheme)
        check_stack(stack, top_bc)
        self.nrows, self.ncols = stack.nrows, stack.ncols
        self.tiling = Tiling(self.nrows, self.ncols, self.tile_size)
        self.flow_fields: List[FlowField] = [
            FlowField(layer.grid, layer.channel_height, coolant, self.edge_factor)
            for layer in stack.channel_layers()
        ]
        self._layer_names = [layer.name for layer in stack.layers]
        self._source_layer_indices = stack.source_layer_indices()
        self._total_power = stack.total_power
        self._allocate_nodes()
        self._build_system()

    # ------------------------------------------------------------------

    def _allocate_nodes(self) -> None:
        """Assign global node ids per layer.

        Solid layers get one node per tile.  Channel layers get a solid node
        for every tile containing at least one solid cell and a liquid node
        for every tile containing at least one liquid cell (-1 marks absent
        nodes).
        """
        shape = self.tiling.shape
        counter = 0
        #: First node id of each layer (a layer's node ids are contiguous).
        self._layer_starts: List[int] = []
        self._solid_ids: List[np.ndarray] = []
        self._liquid_ids: List[Optional[np.ndarray]] = []
        self._solid_counts: List[Optional[np.ndarray]] = []
        self._liquid_counts: List[Optional[np.ndarray]] = []
        for layer in self.stack.layers:
            self._layer_starts.append(counter)
            if isinstance(layer, ChannelLayer):
                liquid_count = self.tiling.aggregate_count(layer.grid.liquid)
                solid_count = self.tiling.aggregate_count(~layer.grid.liquid)
                solid = np.full(shape, -1, dtype=np.int64)
                n_solid = int((solid_count > 0).sum())
                solid[solid_count > 0] = counter + np.arange(n_solid)
                counter += n_solid
                liquid = np.full(shape, -1, dtype=np.int64)
                n_liquid = int((liquid_count > 0).sum())
                liquid[liquid_count > 0] = counter + np.arange(n_liquid)
                counter += n_liquid
                self._solid_ids.append(solid)
                self._liquid_ids.append(liquid)
                self._solid_counts.append(solid_count)
                self._liquid_counts.append(liquid_count)
            else:
                ids = counter + np.arange(self.tiling.n_tiles, dtype=np.int64)
                counter += self.tiling.n_tiles
                self._solid_ids.append(ids.reshape(shape))
                self._liquid_ids.append(None)
                self._solid_counts.append(None)
                self._liquid_counts.append(None)
        self.n_nodes = counter

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _build_system(self) -> None:
        builder = ConductanceBuilder(self.n_nodes)
        rhs_static = np.zeros(self.n_nodes)

        for k, layer in enumerate(self.stack.layers):
            if isinstance(layer, ChannelLayer):
                self._add_channel_horizontal(builder, k, layer)
            else:
                self._add_solid_horizontal(builder, k, layer)
                if isinstance(layer, SourceLayer):
                    tile_power = self.tiling.aggregate_sum(layer.power_map)
                    rhs_static[self._solid_ids[k].ravel()] += tile_power.ravel()

        for k in range(self.stack.n_layers - 1):
            self._add_vertical(builder, k)

        if self.top_bc is not None:
            self._add_top_bc(builder, rhs_static)

        self._specs = self._advection_specs()
        self.system = linear_system(self, builder, rhs_static)

    # -- horizontal conduction -------------------------------------------

    def _half_tile_lengths(self) -> Tuple[np.ndarray, np.ndarray]:
        """Center-to-face distances: east-west (1, Cn) and north-south (Rn, 1)."""
        w = self.stack.cell_width
        widths = self.tiling.tile_widths().astype(float)
        heights = self.tiling.tile_heights().astype(float)
        return widths[None, :] * w / 2.0, heights[:, None] * w / 2.0

    def _add_solid_horizontal(
        self, builder: ConductanceBuilder, k: int, layer: SolidLayer
    ) -> None:
        t = self.tiling
        w = self.stack.cell_width
        k_mat = layer.material.thermal_conductivity
        half_ew, half_ns = self._half_tile_lengths()
        # Interface areas: a tile row's height (column's width) x thickness.
        ew = k_mat * (t.tile_heights()[:, None] * w * layer.thickness) / half_ew
        ns = k_mat * (t.tile_widths()[None, :] * w * layer.thickness) / half_ns
        _add_interfaces(builder, self._solid_ids[k], ew, ew, ns, ns)

    def _add_channel_horizontal(
        self, builder: ConductanceBuilder, k: int, layer: ChannelLayer
    ) -> None:
        """Solid conduction through complete conducting paths only (Eq. 7)."""
        w = self.stack.cell_width
        h_c = layer.channel_height
        k_wall = layer.wall_material.thermal_conductivity
        solid = ~layer.grid.liquid
        east, west = _complete_paths(solid, self.tiling, axis=1)
        south, north = _complete_paths(solid, self.tiling, axis=0)
        half_ew, half_ns = self._half_tile_lengths()
        _add_interfaces(
            builder,
            self._solid_ids[k],
            east * k_wall * (w * h_c) / half_ew,
            west * k_wall * (w * h_c) / half_ew,
            south * k_wall * (w * h_c) / half_ns,
            north * k_wall * (w * h_c) / half_ns,
        )

    # -- vertical conduction ---------------------------------------------

    def _add_vertical(self, builder: ConductanceBuilder, k: int) -> None:
        w = self.stack.cell_width
        below, above = self.stack.layers[k], self.stack.layers[k + 1]
        if isinstance(below, ChannelLayer):
            channel, channel_k, other, other_k = below, k, above, k + 1
        elif isinstance(above, ChannelLayer):
            channel, channel_k, other, other_k = above, k + 1, below, k
        else:
            # Plain solid-solid interface: full tile area, series halves.
            assert isinstance(below, SolidLayer) and isinstance(above, SolidLayer)
            g_a = slab_half_conductance(
                below.material.thermal_conductivity, 1.0, below.thickness
            )
            g_b = slab_half_conductance(
                above.material.thermal_conductivity, 1.0, above.thickness
            )
            areas = self._tile_areas()
            g = _series_arr(g_a * areas, g_b * areas)
            builder.add_pairs(
                self._solid_ids[k].ravel(), self._solid_ids[k + 1].ravel(), g.ravel()
            )
            return
        # Channel layers are never adjacent, so ``other`` is a solid layer.
        assert isinstance(other, SolidLayer)
        solid_counts = self._solid_counts[channel_k].astype(float)
        liquid_counts = self._liquid_counts[channel_k].astype(float)
        g_other = slab_half_conductance(
            other.material.thermal_conductivity, 1.0, other.thickness
        )
        g_wall = slab_half_conductance(
            channel.wall_material.thermal_conductivity, 1.0, channel.thickness
        )
        b = self._solid_ids[other_k].ravel()

        # Channel solid node <-> other layer node through the solid footprint.
        solid_area = solid_counts * w * w
        if self.tsv_material is not None:
            tsv_counts = self.tiling.aggregate_count(
                channel.grid.tsv_mask & ~channel.grid.liquid
            ).astype(float)
            g_tsv = slab_half_conductance(
                self.tsv_material.thermal_conductivity, 1.0, channel.thickness
            )
            g_chan = (
                g_wall * (solid_counts - tsv_counts) * w * w
                + g_tsv * tsv_counts * w * w
            )
        else:
            g_chan = np.where(solid_area > 0, g_wall * solid_area, 0.0)
        g = _series_arr(g_chan, g_other * solid_area)
        a = self._solid_ids[channel_k].ravel()
        valid = a >= 0
        builder.add_pairs(a[valid], b[valid], g.ravel()[valid])

        # Channel liquid node <-> other layer node: Eq. 8 folded side walls.
        liquid_area = liquid_counts * w * w
        side_area = (
            _side_walls(channel.grid.liquid, self.tiling) * w * channel.channel_height
        )
        h = h_conv(self.coolant, w, channel.channel_height, self.nusselt)
        g = _series_arr(h * (liquid_area + side_area / 2.0), g_other * liquid_area)
        a = self._liquid_ids[channel_k].ravel()
        valid = a >= 0
        builder.add_pairs(a[valid], b[valid], g.ravel()[valid])

    def _tile_areas(self) -> np.ndarray:
        """Footprint area of every tile, (n_tile_rows, n_tile_cols)."""
        t = self.tiling
        w = self.stack.cell_width
        cells = t.tile_heights()[:, None] * t.tile_widths()[None, :]
        return cells.astype(float) * w * w

    def _add_top_bc(
        self, builder: ConductanceBuilder, rhs_static: np.ndarray
    ) -> None:
        h_amb, t_amb = self.top_bc
        w = self.stack.cell_width
        top_k = self.stack.n_layers - 1
        ids = self._solid_ids[top_k].ravel()
        if isinstance(self.stack.layers[top_k], ChannelLayer):
            # Expose only the solid footprint of the channel layer to ambient.
            solid_area = self._solid_counts[top_k].astype(float) * w * w
            g = (h_amb * solid_area).ravel()
            valid = ids >= 0
            builder.add_grounded(ids[valid], g[valid])
            rhs_static[ids[valid]] += g[valid] * t_amb
        else:
            g = (h_amb * self._tile_areas()).ravel()
            builder.add_grounded(ids, g)
            rhs_static[ids] += g * t_amb

    # -- advection ---------------------------------------------------------

    def _advection_specs(self) -> List[AdvectionSpec]:
        """Unit-pressure advection terms of every channel layer.

        ``np.add.at`` sums edge and cell flows onto tile liquid nodes in
        edge (cell) order, the floats of a sequential loop.  Node pairs keep
        their first-appearance order, flow signed from lower id to higher.
        """
        specs = []
        t = self.tiling
        channel_indices = self.stack.channel_layer_indices()
        for layer_index, field in zip(channel_indices, self.flow_fields):
            rows, cols = np.nonzero(self.stack.layers[layer_index].grid.liquid)
            cell_node = self._liquid_ids[layer_index][
                t.row_of_cell[rows], t.col_of_cell[cols]
            ]
            unit = field.at_pressure(1.0)

            # Net flow between distinct tile liquid nodes.
            node_a = cell_node[unit.edge_cells[:, 0]]
            node_b = cell_node[unit.edge_cells[:, 1]]
            crossing = node_a != node_b
            node_a, node_b = node_a[crossing], node_b[crossing]
            flows = unit.edge_flows[crossing]
            low = np.minimum(node_a, node_b)
            high = np.maximum(node_a, node_b)
            _, first, pair_of_edge = np.unique(
                low * self.n_nodes + high, return_index=True, return_inverse=True
            )
            net = np.zeros(first.size)
            np.add.at(net, pair_of_edge, np.where(node_a < node_b, flows, -flows))
            order = np.argsort(first)  # pairs by first appearance
            pair_flows = net[order]
            pair_nodes = np.stack([low[first[order]], high[first[order]]], axis=1)

            # Aggregate inlet/outlet flows onto tile liquid nodes.
            node_list, node_of_cell = np.unique(cell_node, return_inverse=True)
            inlet = np.zeros(node_list.size)
            outlet = np.zeros(node_list.size)
            np.add.at(inlet, node_of_cell, unit.inlet_flows)
            np.add.at(outlet, node_of_cell, unit.outlet_flows)
            specs.append(
                AdvectionSpec(
                    pair_nodes=pair_nodes,
                    pair_flows=pair_flows,
                    node_ids=node_list,
                    inlet_flows=inlet,
                    outlet_flows=outlet,
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
            self, "thermal.rc2.solve", SITE_THERMAL_RC2, p_sys, exact
        )

    def node_capacitances(self) -> np.ndarray:
        """Heat capacity of every thermal node in J/K (transient extension)."""
        w = self.stack.cell_width
        cell_area = w * w
        caps = np.zeros(self.n_nodes)
        for k, layer in enumerate(self.stack.layers):
            if isinstance(layer, ChannelLayer):
                volume = cell_area * layer.channel_height
                solid_ids = self._solid_ids[k]
                mask = solid_ids >= 0
                caps[solid_ids[mask]] = (
                    self._solid_counts[k][mask]
                    * volume
                    * layer.wall_material.volumetric_heat_capacity
                )
                liquid_ids = self._liquid_ids[k]
                mask = liquid_ids >= 0
                caps[liquid_ids[mask]] = (
                    self._liquid_counts[k][mask]
                    * volume
                    * self.coolant.volumetric_heat_capacity
                )
            else:
                t = self.tiling
                tile_cells = (
                    t.tile_heights()[:, None] * t.tile_widths()[None, :]
                ).astype(float)
                caps[self._solid_ids[k].ravel()] = (
                    tile_cells.ravel()
                    * cell_area
                    * layer.thickness
                    * layer.material.volumetric_heat_capacity
                )
        return caps

    def _expand_fields(
        self, temperatures: np.ndarray
    ) -> Tuple[List[np.ndarray], Dict[int, np.ndarray]]:
        """Cell-resolution layer and coolant maps of a node temperature vector."""
        fields = []
        liquid_fields = {}
        for k, layer in enumerate(self.stack.layers):
            cell_nodes = self.tiling.expand(self._solid_ids[k])
            if isinstance(layer, ChannelLayer):
                liquid = layer.grid.liquid
                cell_nodes[liquid] = self.tiling.expand(self._liquid_ids[k])[liquid]
                liquid_fields[k] = np.where(liquid, temperatures[cell_nodes], np.nan)
            fields.append(temperatures[cell_nodes])
        return fields, liquid_fields


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _series_arr(g_a: np.ndarray, g_b: np.ndarray) -> np.ndarray:
    """Element-wise series combination; zero where either side is blocked."""
    g_a = np.asarray(g_a, dtype=float)
    g_b = np.asarray(g_b, dtype=float)
    total = g_a + g_b
    return np.divide(
        g_a * g_b, total, out=np.zeros(total.shape), where=total > 0
    )


def _add_interfaces(
    builder: ConductanceBuilder, ids: np.ndarray, east: np.ndarray,
    west: np.ndarray, south: np.ndarray, north: np.ndarray,
) -> None:
    """Couple neighboring tile nodes of one layer through each interface.

    ``east[R, C]`` is the conductance from tile (R, C)'s node to its east
    face, and so on; the two facing halves combine in series.  Pairs with
    an absent (-1) node are skipped.
    """
    for near, far, lo, hi in (
        (east, west, np.s_[:, :-1], np.s_[:, 1:]),
        (south, north, np.s_[:-1, :], np.s_[1:, :]),
    ):
        g = _series_arr(near[lo], far[hi])
        a = ids[lo].ravel()
        b = ids[hi].ravel()
        valid = (a >= 0) & (b >= 0)
        builder.add_pairs(a[valid], b[valid], g.ravel()[valid])


def _side_walls(liquid: np.ndarray, tiling: Tiling) -> np.ndarray:
    """Count interior solid-liquid walls per tile.

    Each solid-liquid 4-adjacency on the basic-cell grid is one side wall;
    it is attributed to the tile of the *liquid* cell (halved between top
    and bottom transfer by the caller, per Eq. 8).
    """
    counts = np.zeros(liquid.shape, dtype=np.int64)
    counts[:, :-1] += liquid[:, :-1] & ~liquid[:, 1:]
    counts[:, 1:] += liquid[:, 1:] & ~liquid[:, :-1]
    counts[:-1, :] += liquid[:-1, :] & ~liquid[1:, :]
    counts[1:, :] += liquid[1:, :] & ~liquid[:-1, :]
    return tiling.aggregate_sum(counts.astype(float))


def _complete_paths(
    solid: np.ndarray, tiling: Tiling, axis: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Count complete conducting paths per tile toward each interface.

    For ``axis == 1`` (east-west conduction) returns ``(east, west)`` arrays
    of shape (n_tile_rows, n_tile_cols): ``east[R, C]`` counts the rows of
    tile (R, C) that are solid across the entire half of the tile nearest its
    east interface, and ``west`` likewise for the west half.  ``axis == 0``
    returns ``(south, north)`` counting columns toward the south/north
    interfaces.
    """
    if axis == 0:
        solid = solid.T
        along, across = tiling.row_starts, tiling.col_starts
    else:
        along, across = tiling.col_starts, tiling.row_starts
    starts, ends = along[:-1], along[1:]
    half = (ends - starts + 1) // 2  # near half includes the center cell
    # blocked[r, c]: non-solid cells of line r before cell c along the axis.
    blocked = np.zeros((solid.shape[0], solid.shape[1] + 1), dtype=np.int64)
    np.cumsum(~solid, axis=1, out=blocked[:, 1:])
    near_end = blocked[:, ends] == blocked[:, ends - half]
    near_start = blocked[:, starts + half] == blocked[:, starts]
    east = np.add.reduceat(near_end.astype(np.int64), across[:-1])
    west = np.add.reduceat(near_start.astype(np.int64), across[:-1])
    return (east.T, west.T) if axis == 0 else (east, west)
