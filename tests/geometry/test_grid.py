"""Unit tests for the basic-cell channel grid."""

import numpy as np
import pytest

from repro.errors import DesignRuleError, GeometryError
from repro.geometry import ChannelGrid, Port, PortKind, Rect, Side
from repro.geometry.grid import alternating_tsv_mask
from repro.networks import plan_tree_bands


class TestConstruction:
    def test_default_alternating_tsvs(self):
        grid = ChannelGrid(5, 5)
        assert grid.tsv_mask[1, 1] and grid.tsv_mask[3, 3]
        assert not grid.tsv_mask[0, 0] and not grid.tsv_mask[1, 2]
        assert grid.tsv_mask.sum() == 4  # (1,1),(1,3),(3,1),(3,3)

    def test_no_tsv_mask(self):
        grid = ChannelGrid(5, 5, tsv_mask=None)
        assert not grid.tsv_mask.any()

    def test_explicit_tsv_mask(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        grid = ChannelGrid(3, 3, tsv_mask=mask)
        assert grid.tsv_mask[0, 0]

    def test_wrong_shape_tsv_mask(self):
        with pytest.raises(GeometryError, match="shape"):
            ChannelGrid(3, 3, tsv_mask=np.zeros((2, 2), dtype=bool))

    def test_unknown_pattern(self):
        with pytest.raises(GeometryError, match="unknown TSV pattern"):
            ChannelGrid(3, 3, tsv_mask="checkerboard")

    def test_invalid_dims(self):
        with pytest.raises(GeometryError):
            ChannelGrid(0, 5)
        with pytest.raises(GeometryError):
            ChannelGrid(5, 5, cell_width=0.0)

    def test_physical_extent(self):
        grid = ChannelGrid(10, 20, cell_width=100e-6)
        assert grid.height == pytest.approx(1e-3)
        assert grid.width == pytest.approx(2e-3)

    def test_restricted_mask(self):
        grid = ChannelGrid(9, 9, restricted=[Rect(2, 2, 4, 4)])
        assert grid.restricted_mask[2, 2]
        assert not grid.restricted_mask[4, 4]


class TestCarving:
    def test_carve_horizontal(self):
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(0, 0, 4)
        assert grid.liquid[0].all()
        assert grid.liquid_count == 5

    def test_carve_vertical(self):
        grid = ChannelGrid(5, 5)
        grid.carve_vertical(0, 0, 4)
        assert grid.liquid[:, 0].all()

    def test_carve_over_tsv_raises(self):
        grid = ChannelGrid(5, 5)
        with pytest.raises(DesignRuleError, match="TSV"):
            grid.carve_horizontal(1, 0, 4)

    def test_carve_over_tsv_force(self):
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(1, 0, 4, force=True)
        assert grid.liquid[1, 1]

    def test_carve_in_restricted_raises(self):
        grid = ChannelGrid(9, 9, restricted=[Rect(2, 2, 4, 4)])
        with pytest.raises(DesignRuleError, match="restricted"):
            grid.carve_horizontal(2, 0, 8)

    def test_carve_out_of_bounds(self):
        grid = ChannelGrid(5, 5)
        with pytest.raises(GeometryError, match="outside"):
            grid.carve_horizontal(0, 0, 7)

    def test_carve_rect(self):
        grid = ChannelGrid(5, 5, tsv_mask=None)
        grid.carve_rect(Rect(1, 1, 3, 3))
        assert grid.liquid_count == 4

    def test_fill_solid(self):
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(0, 0, 4)
        grid.fill_solid()
        assert grid.liquid_count == 0

    def test_fill_solid_rect(self):
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(0, 0, 4)
        grid.fill_solid(Rect(0, 0, 1, 2))
        assert grid.liquid_count == 3

    def test_reversed_args_sorted(self):
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(0, 4, 0)
        assert grid.liquid[0].all()


class TestPorts:
    def test_add_port_to_liquid_cell(self):
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(0, 0, 4)
        port = grid.add_port(PortKind.INLET, Side.WEST, 0)
        assert port.cell(5, 5) == (0, 0)
        assert grid.inlets() == [port]

    def test_port_on_solid_rejected(self):
        grid = ChannelGrid(5, 5)
        with pytest.raises(DesignRuleError, match="solid cell"):
            grid.add_port(PortKind.INLET, Side.WEST, 0)

    def test_port_cells_by_side(self):
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(0, 0, 4)
        grid.carve_vertical(0, 0, 4)
        assert grid.boundary_cell(Side.EAST, 0) == (0, 4)
        assert grid.boundary_cell(Side.NORTH, 2) == (0, 2)
        assert grid.boundary_cell(Side.SOUTH, 0) == (4, 0)

    def test_same_cell_both_kinds_rejected(self):
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(0, 0, 4)
        grid.add_port(PortKind.INLET, Side.WEST, 0)
        with pytest.raises(DesignRuleError, match="cannot be both"):
            grid.add_port(PortKind.OUTLET, Side.WEST, 0)

    def test_duplicate_port_idempotent(self):
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(0, 0, 4)
        grid.add_port(PortKind.INLET, Side.WEST, 0)
        grid.add_port(PortKind.INLET, Side.WEST, 0)
        assert len(grid.ports) == 1

    def test_port_span_skips_solid(self):
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(0, 0, 4)
        grid.carve_horizontal(2, 0, 4)
        ports = grid.add_port_span(PortKind.INLET, Side.WEST, 0, 5)
        assert [p.index for p in ports] == [0, 2]

    def test_port_span_all_solid_rejected(self):
        grid = ChannelGrid(5, 5)
        with pytest.raises(DesignRuleError, match="no liquid"):
            grid.add_port_span(PortKind.INLET, Side.WEST, 0, 5)

    def test_index_out_of_range(self):
        grid = ChannelGrid(5, 5)
        with pytest.raises(GeometryError, match="outside side"):
            grid.boundary_cell(Side.WEST, 5)

    def test_clear_ports(self):
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(0, 0, 4)
        grid.add_port(PortKind.INLET, Side.WEST, 0)
        grid.clear_ports()
        assert not grid.ports


def _port_rows(grid):
    return [(p.kind.name[0], p.side.name, p.index) for p in grid.ports]


#: Ports of ``plan_tree_bands(21, 21).build()``, in attachment order.
TREE_PORTS = [("I", "WEST", 2), ("I", "WEST", 10), ("I", "WEST", 18)] + [
    ("O", "EAST", i) for i in range(0, 21, 2)
]


class TestPortLookup:
    """Ports are looked up per cell, not by a search of the list; the list
    keeps its order through builds, copies, transforms and assignment."""

    @staticmethod
    def _row_grid():
        grid = ChannelGrid(5, 5)
        grid.carve_horizontal(0, 0, 4)
        return grid

    def test_tree_network_port_order(self):
        grid = plan_tree_bands(21, 21).build()
        assert _port_rows(grid) == TREE_PORTS
        assert _port_rows(grid.copy()) == TREE_PORTS
        assert _port_rows(grid.transformed(1, flip=True)) == [
            (kind, {"WEST": "NORTH", "EAST": "SOUTH"}[side], index)
            for kind, side, index in TREE_PORTS
        ]

    def test_error_messages(self):
        grid = self._row_grid()
        with pytest.raises(
            DesignRuleError,
            match=r"^inlet at west\[1\] touches a solid cell \(1, 0\); "
            "ports must attach to liquid cells$",
        ):
            grid.add_port(PortKind.INLET, Side.WEST, 1)
        grid.add_port(PortKind.INLET, Side.WEST, 0)
        with pytest.raises(
            DesignRuleError,
            match=r"^cell west\[0\] already has a inlet; "
            "a surface cannot be both$",
        ):
            grid.add_port(PortKind.OUTLET, Side.WEST, 0)
        assert _port_rows(grid) == [("I", "WEST", 0)]

    def test_lookup_follows_assignment_clear_and_copy(self):
        grid = self._row_grid()
        grid.add_port(PortKind.INLET, Side.WEST, 0)
        grid.add_port(PortKind.OUTLET, Side.EAST, 0)
        copy = grid.copy()
        grid.ports = [p for p in grid.ports if p.kind is PortKind.OUTLET]
        grid.add_port(PortKind.OUTLET, Side.WEST, 0)  # the inlet is gone
        with pytest.raises(DesignRuleError, match="cannot be both"):
            copy.add_port(PortKind.OUTLET, Side.WEST, 0)
        copy.clear_ports()
        copy.add_port(PortKind.OUTLET, Side.WEST, 0)
        assert _port_rows(grid) == [("O", "EAST", 0), ("O", "WEST", 0)]
        assert _port_rows(copy) == [("O", "WEST", 0)]


class TestIteration:
    def test_liquid_cells_row_major(self):
        grid = ChannelGrid(3, 3, tsv_mask=None)
        grid.set_liquid(0, 1)
        grid.set_liquid(2, 0)
        assert list(grid.liquid_cells()) == [(0, 1), (2, 0)]

    def test_liquid_index_map(self):
        grid = ChannelGrid(3, 3, tsv_mask=None)
        grid.carve_horizontal(0, 0, 2)
        index = grid.liquid_index_map()
        assert index[(0, 0)] == 0 and index[(0, 2)] == 2

    def test_adjacent_pairs_straight_channel(self):
        grid = ChannelGrid(3, 5, tsv_mask=None)
        grid.carve_horizontal(1, 0, 4)
        pairs = list(grid.liquid_adjacent_pairs())
        assert len(pairs) == 4
        assert ((1, 0), (1, 1)) in pairs

    def test_adjacent_pairs_cross(self):
        grid = ChannelGrid(3, 3, tsv_mask=None)
        grid.carve_horizontal(1, 0, 2)
        grid.carve_vertical(1, 0, 2)
        pairs = list(grid.liquid_adjacent_pairs())
        # Horizontal: (1,0)-(1,1), (1,1)-(1,2); vertical: (0,1)-(1,1), (1,1)-(2,1).
        assert len(pairs) == 4


class TestTransforms:
    def _base(self):
        grid = ChannelGrid(5, 7)
        grid.carve_horizontal(0, 0, 6)
        grid.add_port(PortKind.INLET, Side.WEST, 0)
        grid.add_port(PortKind.OUTLET, Side.EAST, 0)
        return grid

    def test_identity(self):
        grid = self._base()
        same = grid.transformed(0, False)
        assert np.array_equal(same.liquid, grid.liquid)
        assert same.ports == grid.ports

    def test_rotation_changes_shape(self):
        grid = self._base()
        rot = grid.transformed(1, False)
        assert rot.shape == (7, 5)
        assert rot.liquid_count == grid.liquid_count

    def test_rotation_preserves_port_attachment(self):
        grid = self._base()
        for rotations in range(4):
            for flip in (False, True):
                out = grid.transformed(rotations, flip)
                for port in out.ports:
                    r, c = port.cell(out.nrows, out.ncols)
                    assert out.liquid[r, c], (rotations, flip, port)

    def test_four_rotations_identity(self):
        grid = self._base()
        out = grid.transformed(1).transformed(1).transformed(1).transformed(1)
        assert np.array_equal(out.liquid, grid.liquid)
        assert set(out.ports) == set(grid.ports)

    def test_flip_twice_identity(self):
        grid = self._base()
        out = grid.transformed(0, True).transformed(0, True)
        assert np.array_equal(out.liquid, grid.liquid)
        assert set(out.ports) == set(grid.ports)

    def test_tsv_mask_transformed(self):
        grid = ChannelGrid(5, 5)
        rot = grid.transformed(1)
        # The alternating pattern is D4-symmetric on odd-sized grids.
        assert np.array_equal(rot.tsv_mask, grid.tsv_mask)

    def test_copy_independent(self):
        grid = self._base()
        dup = grid.copy()
        dup.set_liquid(2, 2)
        assert not grid.liquid[2, 2]


class TestAlternatingMask:
    def test_quarter_density(self):
        mask = alternating_tsv_mask(101, 101)
        assert mask.sum() == 50 * 50

    def test_even_rows_clear(self):
        mask = alternating_tsv_mask(11, 11)
        assert not mask[::2, :].any()
        assert not mask[:, ::2].any()
