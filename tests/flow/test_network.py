"""Unit tests for the pressure/flow solver (Eqs. 1-3)."""

import numpy as np
import pytest

from repro.errors import FlowError
from repro.flow import FlowField, network, solve_flow
from repro.flow.conductance import cell_conductance, edge_conductance
from repro.geometry import ChannelGrid, PortKind, Side
from repro.materials import WATER
from repro.networks import ladder_network, straight_network

from ..conftest import fork_while_busy

H_C = 200e-6


def _single_channel(n=9):
    grid = ChannelGrid(3, n, tsv_mask=None)
    grid.carve_horizontal(1, 0, n - 1)
    grid.add_port(PortKind.INLET, Side.WEST, 1)
    grid.add_port(PortKind.OUTLET, Side.EAST, 1)
    return grid


class TestSingleChannel:
    def test_matches_series_resistance(self):
        """A straight channel is a series chain: Q = P / R_total."""
        n = 9
        grid = _single_channel(n)
        field = FlowField(grid, H_C, WATER)
        w = grid.cell_width
        g_cell = cell_conductance(w, H_C, w, WATER)
        g_edge = edge_conductance(w, H_C, w, WATER)
        # n-1 internal links plus two edge links.
        r_total = (n - 1) / g_cell + 2.0 / g_edge
        assert field.r_sys == pytest.approx(r_total, rel=1e-9)

    def test_pressure_decreases_downstream(self):
        grid = _single_channel()
        sol = FlowField(grid, H_C, WATER).at_pressure(1e4)
        pressures = sol.pressures
        assert np.all(np.diff(pressures) < 0)

    def test_uniform_flow_along_channel(self):
        grid = _single_channel()
        sol = FlowField(grid, H_C, WATER).at_pressure(1e4)
        assert np.allclose(sol.edge_flows, sol.edge_flows[0])
        assert sol.q_sys == pytest.approx(sol.edge_flows[0])

    def test_volume_conservation(self):
        grid = _single_channel()
        sol = FlowField(grid, H_C, WATER).at_pressure(1e4)
        residual = sol.conservation_residual()
        assert np.abs(residual).max() < 1e-12 * sol.q_sys + 1e-30


class TestLinearity:
    def test_scaling_with_pressure(self):
        grid = _single_channel()
        field = FlowField(grid, H_C, WATER)
        s1 = field.at_pressure(1e3)
        s2 = field.at_pressure(2e3)
        assert np.allclose(2 * s1.pressures, s2.pressures)
        assert np.allclose(2 * s1.edge_flows, s2.edge_flows)
        assert s2.q_sys == pytest.approx(2 * s1.q_sys)

    def test_w_pump_quadratic(self):
        grid = _single_channel()
        field = FlowField(grid, H_C, WATER)
        assert field.w_pump(2e3) == pytest.approx(4 * field.w_pump(1e3))

    def test_p_sys_for_power_inverts(self):
        grid = _single_channel()
        field = FlowField(grid, H_C, WATER)
        p = field.p_sys_for_power(field.w_pump(7.5e3))
        assert p == pytest.approx(7.5e3)

    def test_r_sys_independent_of_pressure(self):
        grid = _single_channel()
        field = FlowField(grid, H_C, WATER)
        assert field.at_pressure(1e3).r_sys == pytest.approx(
            field.at_pressure(8e4).r_sys
        )


class TestParallelChannels:
    def test_two_channels_halve_resistance(self):
        one = _single_channel()
        two = ChannelGrid(5, 9, tsv_mask=None)
        for row in (1, 3):
            two.carve_horizontal(row, 0, 8)
            two.add_port(PortKind.INLET, Side.WEST, row)
            two.add_port(PortKind.OUTLET, Side.EAST, row)
        r_one = FlowField(one, H_C, WATER).r_sys
        r_two = FlowField(two, H_C, WATER).r_sys
        assert r_two == pytest.approx(r_one / 2.0, rel=1e-9)

    def test_straight_network_flow_split_evenly(self):
        grid = straight_network(21, 21)
        sol = FlowField(grid, H_C, WATER).at_pressure(1e4)
        inflows = sol.inlet_flows[sol.inlet_flows > 0]
        assert inflows.size == len(grid.inlets())
        assert np.allclose(inflows, inflows[0])


class TestTopologyEffects:
    def test_ladder_has_lower_resistance_than_straight(self):
        """Manifolds add parallel paths, lowering fluid resistance."""
        straight = straight_network(21, 21)
        ladder = ladder_network(21, 21)
        r_straight = FlowField(straight, H_C, WATER).r_sys
        r_ladder = FlowField(ladder, H_C, WATER).r_sys
        assert r_ladder < r_straight

    def test_taller_channels_flow_more(self):
        grid = straight_network(21, 21)
        r_short = FlowField(grid, 200e-6, WATER).r_sys
        r_tall = FlowField(grid, 400e-6, WATER).r_sys
        assert r_tall < r_short

    def test_edge_factor_changes_resistance(self):
        grid = _single_channel()
        r_default = FlowField(grid, H_C, WATER, edge_factor=0.5).r_sys
        r_open = FlowField(grid, H_C, WATER, edge_factor=2.0).r_sys
        assert r_open < r_default


class TestErrors:
    def test_no_liquid(self):
        grid = ChannelGrid(3, 3, tsv_mask=None)
        with pytest.raises(FlowError, match="no liquid"):
            FlowField(grid, H_C, WATER)

    def test_no_inlet(self):
        grid = ChannelGrid(3, 3, tsv_mask=None)
        grid.carve_horizontal(1, 0, 2)
        grid.add_port(PortKind.OUTLET, Side.EAST, 1)
        with pytest.raises(FlowError, match="no inlet"):
            FlowField(grid, H_C, WATER)

    def test_no_outlet(self):
        grid = ChannelGrid(3, 3, tsv_mask=None)
        grid.carve_horizontal(1, 0, 2)
        grid.add_port(PortKind.INLET, Side.WEST, 1)
        with pytest.raises(FlowError, match="no outlet"):
            FlowField(grid, H_C, WATER)

    def test_negative_pressure_rejected(self):
        field = FlowField(_single_channel(), H_C, WATER)
        with pytest.raises(FlowError, match="non-negative"):
            field.at_pressure(-1.0)

    def test_nonpositive_height_rejected(self):
        with pytest.raises(FlowError, match="channel height"):
            FlowField(_single_channel(), 0.0, WATER)


class TestConvenienceWrapper:
    def test_solve_flow(self):
        sol = solve_flow(_single_channel(), H_C, WATER, 1e4)
        assert sol.p_sys == pytest.approx(1e4)
        assert sol.q_sys > 0
        assert sol.w_pump == pytest.approx(sol.p_sys * sol.q_sys)
        assert sol.r_sys == pytest.approx(sol.p_sys / sol.q_sys)

    def test_zero_flow_r_sys_raises(self):
        sol = solve_flow(_single_channel(), H_C, WATER, 0.0)
        with pytest.raises(FlowError, match="zero"):
            _ = sol.r_sys


class TestForkSafety:
    # Python 3.12 warns about every fork of a multi-threaded process; such
    # a fork is the subject of this test.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_child_forked_mid_clear_can_build_a_flow_field(self):
        """A child forked while another thread holds the unit-cache lock
        (a pool worker forked beside a service job thread) must not inherit
        it held: its first ``FlowField`` would wait forever."""
        grid = straight_network(9, 9)

        def child():
            FlowField(grid, H_C, WATER)

        assert fork_while_busy(network.clear_unit_cache, child) == []
