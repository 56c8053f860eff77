"""Basic-cell grid of one channel layer.

The channel layer is divided into a 2D rectangular grid of *basic cells*
(Fig. 2 of the paper).  Each basic cell is either solid silicon or liquid
(part of a microchannel).  Some cells are reserved for TSVs and can never be
liquid; the paper's design rules place TSVs at alternating basic cells in both
dimensions.  Inlets and outlets are surfaces on the grid boundary through
which coolant enters or leaves the adjacent liquid cell.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..constants import CELL_WIDTH
from ..errors import DesignRuleError, GeometryError
from .region import Rect


class Side(enum.Enum):
    """One of the four boundary sides of the channel layer."""

    WEST = "west"
    EAST = "east"
    NORTH = "north"
    SOUTH = "south"

    @property
    def is_vertical(self) -> bool:
        """True for WEST/EAST (the side runs along rows)."""
        return self in (Side.WEST, Side.EAST)

    @property
    def outward(self) -> Tuple[int, int]:
        """Outward-pointing unit vector ``(d_row, d_col)`` of this side."""
        return _OUTWARD[self]


_OUTWARD = {
    Side.WEST: (0, -1),
    Side.EAST: (0, 1),
    Side.NORTH: (-1, 0),
    Side.SOUTH: (1, 0),
}


class PortKind(enum.Enum):
    """Whether a boundary surface injects (inlet) or drains (outlet) coolant."""

    INLET = "inlet"
    OUTLET = "outlet"


class CellKind(enum.IntEnum):
    """Material of a basic cell."""

    SOLID = 0
    LIQUID = 1


@dataclass(frozen=True)
class Port:
    """A single inlet or outlet surface.

    ``index`` identifies the boundary cell along the side: the row for
    WEST/EAST ports, the column for NORTH/SOUTH ports.
    """

    kind: PortKind
    side: Side
    index: int

    def cell(self, nrows: int, ncols: int) -> Tuple[int, int]:
        """The (row, col) of the liquid cell this port is attached to."""
        if self.side is Side.WEST:
            return (self.index, 0)
        if self.side is Side.EAST:
            return (self.index, ncols - 1)
        if self.side is Side.NORTH:
            return (0, self.index)
        return (nrows - 1, self.index)


class ChannelGrid:
    """Solid/liquid assignment and ports of one channel layer.

    Args:
        nrows: Number of basic-cell rows.
        ncols: Number of basic-cell columns.
        cell_width: Edge length of a basic cell in meters.
        tsv_mask: Boolean array of reserved cells, the string ``"alternating"``
            for the paper's default pattern (TSVs at odd rows and odd
            columns), or ``None`` for no reservations.
        restricted: Rectangles where liquid cells are forbidden (benchmark
            case 3).
    """

    def __init__(
        self,
        nrows: int,
        ncols: int,
        cell_width: float = CELL_WIDTH,
        tsv_mask: "np.ndarray | str | None" = "alternating",
        restricted: Sequence[Rect] = (),
    ):
        if nrows < 1 or ncols < 1:
            raise GeometryError(f"grid must be at least 1x1, got {nrows}x{ncols}")
        if cell_width <= 0:
            raise GeometryError(f"cell width must be positive, got {cell_width}")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.cell_width = float(cell_width)
        self.liquid = np.zeros((self.nrows, self.ncols), dtype=bool)
        if tsv_mask is None:
            self.tsv_mask = np.zeros((self.nrows, self.ncols), dtype=bool)
        elif isinstance(tsv_mask, str):
            if tsv_mask != "alternating":
                raise GeometryError(f"unknown TSV pattern {tsv_mask!r}")
            self.tsv_mask = alternating_tsv_mask(self.nrows, self.ncols)
        else:
            mask = np.asarray(tsv_mask, dtype=bool)
            if mask.shape != (self.nrows, self.ncols):
                raise GeometryError(
                    f"TSV mask shape {mask.shape} does not match grid "
                    f"({self.nrows}, {self.ncols})"
                )
            self.tsv_mask = mask.copy()
        self.restricted = tuple(restricted)
        self._restricted_mask = np.zeros((self.nrows, self.ncols), dtype=bool)
        for rect in self.restricted:
            self._restricted_mask |= rect.mask(self.nrows, self.ncols)
        self.ports = []

    @property
    def ports(self) -> List[Port]:
        """Attached ports, in the order they were added.

        Change them through :meth:`add_port`, :meth:`clear_ports` or by
        assigning a new sequence, which keep the per-cell port lookup
        current; do not mutate the returned list in place.
        """
        return self._ports

    @ports.setter
    def ports(self, ports: Iterable[Port]) -> None:
        self._ports = list(ports)
        #: ``(side, index) -> kind`` of every attached port: the O(1)
        #: lookup :meth:`add_port` checks, insertion-ordered as the list.
        self._port_kinds: Dict[Tuple[Side, int], PortKind] = {
            (port.side, port.index): port.kind for port in self._ports
        }

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        """(rows, cols) of the basic-cell grid."""
        return (self.nrows, self.ncols)

    @property
    def width(self) -> float:
        """Physical extent along columns, in meters."""
        return self.ncols * self.cell_width

    @property
    def height(self) -> float:
        """Physical extent along rows, in meters."""
        return self.nrows * self.cell_width

    @property
    def restricted_mask(self) -> np.ndarray:
        """Boolean mask of cells inside restricted rectangles."""
        return self._restricted_mask

    @property
    def liquid_count(self) -> int:
        """Number of liquid basic cells."""
        return int(self.liquid.sum())

    def in_bounds(self, row: int, col: int) -> bool:
        """Whether (row, col) lies inside the grid."""
        return 0 <= row < self.nrows and 0 <= col < self.ncols

    def side_length(self, side: Side) -> int:
        """Number of boundary cells along a side."""
        return self.nrows if side.is_vertical else self.ncols

    def inlets(self) -> list:
        """All inlet ports."""
        return [p for p in self.ports if p.kind is PortKind.INLET]

    def outlets(self) -> list:
        """All outlet ports."""
        return [p for p in self.ports if p.kind is PortKind.OUTLET]

    # ------------------------------------------------------------------
    # Mutation: carving channels
    # ------------------------------------------------------------------

    def _check_carvable(self, rows: np.ndarray, cols: np.ndarray, force: bool) -> None:
        if force:
            return
        bad_tsv = self.tsv_mask[rows, cols]
        if bad_tsv.any():
            where = int(np.argmax(bad_tsv))
            raise DesignRuleError(
                f"cannot carve liquid over TSV cell "
                f"({int(rows[where])}, {int(cols[where])})"
            )
        bad_res = self._restricted_mask[rows, cols]
        if bad_res.any():
            where = int(np.argmax(bad_res))
            raise DesignRuleError(
                f"cannot carve liquid inside restricted area at "
                f"({int(rows[where])}, {int(cols[where])})"
            )

    def set_liquid(self, row: int, col: int, force: bool = False) -> None:
        """Make one basic cell liquid."""
        if not self.in_bounds(row, col):
            raise GeometryError(f"cell ({row}, {col}) outside {self.shape} grid")
        self._check_carvable(np.array([row]), np.array([col]), force)
        self.liquid[row, col] = True

    def carve_horizontal(
        self, row: int, col0: int, col1: int, force: bool = False
    ) -> None:
        """Carve a horizontal channel segment on ``row``, cols ``[col0, col1]``."""
        lo, hi = sorted((col0, col1))
        if not (self.in_bounds(row, lo) and self.in_bounds(row, hi)):
            raise GeometryError(
                f"segment row={row} cols=[{lo}, {hi}] outside {self.shape} grid"
            )
        cols = np.arange(lo, hi + 1)
        rows = np.full_like(cols, row)
        self._check_carvable(rows, cols, force)
        self.liquid[row, lo : hi + 1] = True

    def carve_vertical(
        self, col: int, row0: int, row1: int, force: bool = False
    ) -> None:
        """Carve a vertical channel segment on ``col``, rows ``[row0, row1]``."""
        lo, hi = sorted((row0, row1))
        if not (self.in_bounds(lo, col) and self.in_bounds(hi, col)):
            raise GeometryError(
                f"segment col={col} rows=[{lo}, {hi}] outside {self.shape} grid"
            )
        rows = np.arange(lo, hi + 1)
        cols = np.full_like(rows, col)
        self._check_carvable(rows, cols, force)
        self.liquid[lo : hi + 1, col] = True

    def carve_rect(self, rect: Rect, force: bool = False) -> None:
        """Carve every cell of a rectangle to liquid."""
        clip = rect.clipped(self.nrows, self.ncols)
        mask = clip.mask(self.nrows, self.ncols)
        rows, cols = np.nonzero(mask)
        self._check_carvable(rows, cols, force)
        self.liquid |= mask

    def fill_solid(self, rect: Optional[Rect] = None) -> None:
        """Reset cells to solid (whole grid, or just one rectangle)."""
        if rect is None:
            self.liquid[:, :] = False
        else:
            clip = rect.clipped(self.nrows, self.ncols)
            self.liquid[clip.row0 : clip.row1, clip.col0 : clip.col1] = False

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------

    def boundary_cell(self, side: Side, index: int) -> Tuple[int, int]:
        """The (row, col) of the boundary cell at ``index`` along ``side``."""
        if not 0 <= index < self.side_length(side):
            raise GeometryError(
                f"index {index} outside side {side.value} of length "
                f"{self.side_length(side)}"
            )
        return Port(PortKind.INLET, side, index).cell(self.nrows, self.ncols)

    def add_port(self, kind: PortKind, side: Side, index: int) -> Port:
        """Attach a single inlet/outlet surface to a liquid boundary cell."""
        row, col = self.boundary_cell(side, index)
        if not self.liquid[row, col]:
            raise DesignRuleError(
                f"{kind.value} at {side.value}[{index}] touches a solid cell "
                f"({row}, {col}); ports must attach to liquid cells"
            )
        port = Port(kind, side, index)
        attached = self._port_kinds.get((side, index))
        if attached is kind:
            return port
        if attached is not None:
            raise DesignRuleError(
                f"cell {side.value}[{index}] already has a "
                f"{attached.value}; a surface cannot be both"
            )
        self._ports.append(port)
        self._port_kinds[(side, index)] = kind
        return port

    def add_port_span(
        self, kind: PortKind, side: Side, start: int, stop: int
    ) -> list:
        """Attach ports to every *liquid* boundary cell in ``[start, stop)``.

        Solid cells inside the span are skipped: the physical package opening
        is continuous, but coolant only passes where the boundary cell is
        liquid.  Returns the ports added.
        """
        if stop <= start:
            raise GeometryError(f"empty port span [{start}, {stop})")
        added = []
        for index in range(start, stop):
            row, col = self.boundary_cell(side, index)
            if self.liquid[row, col]:
                added.append(self.add_port(kind, side, index))
        if not added:
            raise DesignRuleError(
                f"{kind.value} span {side.value}[{start}:{stop}] touches no "
                "liquid cells"
            )
        return added

    def clear_ports(self) -> None:
        """Remove every attached port."""
        self.ports = []

    def port_cells(self, kind: Optional[PortKind] = None) -> list:
        """(row, col) cells with an attached port, optionally filtered by kind."""
        return [
            p.cell(self.nrows, self.ncols)
            for p in self.ports
            if kind is None or p.kind is kind
        ]

    # ------------------------------------------------------------------
    # Iteration helpers used by the flow / thermal solvers
    # ------------------------------------------------------------------

    def liquid_cells(self) -> Iterator[Tuple[int, int]]:
        """Yield (row, col) of every liquid cell in row-major order."""
        rows, cols = np.nonzero(self.liquid)
        return zip(rows.tolist(), cols.tolist())

    def liquid_index_map(self) -> dict:
        """Map (row, col) -> dense index for every liquid cell."""
        return {cell: i for i, cell in enumerate(self.liquid_cells())}

    def liquid_adjacent_pairs(self) -> Iterator[Tuple[Tuple[int, int], Tuple[int, int]]]:
        """Yield each pair of edge-adjacent liquid cells exactly once.

        Pairs are emitted as ((r, c), (r, c+1)) and ((r, c), (r+1, c)).
        """
        liq = self.liquid
        horis = liq[:, :-1] & liq[:, 1:]
        for r, c in zip(*np.nonzero(horis)):
            yield (int(r), int(c)), (int(r), int(c) + 1)
        verts = liq[:-1, :] & liq[1:, :]
        for r, c in zip(*np.nonzero(verts)):
            yield (int(r), int(c)), (int(r) + 1, int(c))

    # ------------------------------------------------------------------
    # Copies and symmetry transforms
    # ------------------------------------------------------------------

    def copy(self) -> "ChannelGrid":
        """A deep copy (pattern, masks and ports)."""
        out = ChannelGrid(
            self.nrows,
            self.ncols,
            self.cell_width,
            tsv_mask=self.tsv_mask,
            restricted=self.restricted,
        )
        out.liquid = self.liquid.copy()
        out.ports = self.ports
        return out

    def transformed(self, rotations: int = 0, flip: bool = False) -> "ChannelGrid":
        """Return a copy rotated by ``rotations * 90`` degrees CCW, then
        optionally flipped upside down.

        The eight (rotations, flip) combinations realize the eight global
        flow directions of Fig. 8(a) when applied to a canonical west-to-east
        design.
        """
        rotations %= 4

        def xform_arr(a: np.ndarray) -> np.ndarray:
            out = np.rot90(a, rotations)
            if flip:
                out = np.flipud(out)
            return out

        new_liquid = xform_arr(self.liquid)
        nrows, ncols = new_liquid.shape
        out = ChannelGrid(
            nrows,
            ncols,
            self.cell_width,
            tsv_mask=xform_arr(self.tsv_mask),
            restricted=(),  # restricted rects re-derived below
        )
        out._restricted_mask = xform_arr(self._restricted_mask)
        out.restricted = ()
        out.liquid = new_liquid.copy()
        ports = []
        for port in self.ports:
            cell = port.cell(self.nrows, self.ncols)
            direction = port.side.outward
            new_cell, new_dir = _transform_cell(
                cell, direction, self.nrows, self.ncols, rotations, flip
            )
            ports.append(
                Port(port.kind, _side_from_outward(new_dir), _side_index(new_cell, new_dir))
            )
        out.ports = ports
        return out

    def __repr__(self) -> str:
        return (
            f"ChannelGrid({self.nrows}x{self.ncols}, "
            f"{self.liquid_count} liquid, {len(self.inlets())} inlets, "
            f"{len(self.outlets())} outlets)"
        )


def alternating_tsv_mask(nrows: int, ncols: int) -> np.ndarray:
    """TSVs at alternating basic cells in both dimensions (odd row, odd col)."""
    mask = np.zeros((nrows, ncols), dtype=bool)
    mask[1::2, 1::2] = True
    return mask


def _transform_cell(
    cell: Tuple[int, int],
    direction: Tuple[int, int],
    nrows: int,
    ncols: int,
    rotations: int,
    flip: bool,
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Apply the same map as numpy rot90/flipud to a cell and a direction."""
    r, c = cell
    dr, dc = direction
    nr, nc = nrows, ncols
    for _ in range(rotations):
        # np.rot90 CCW: new[r', c'] = old[c', nc - 1 - r']  =>
        # old (r, c) -> new (nc - 1 - c, r)
        r, c = nc - 1 - c, r
        dr, dc = -dc, dr
        nr, nc = nc, nr
    if flip:
        r = nr - 1 - r
        dr = -dr
    return (r, c), (dr, dc)


def _side_from_outward(direction: Tuple[int, int]) -> Side:
    for side, vec in _OUTWARD.items():
        if vec == direction:
            return side
    raise GeometryError(f"no side with outward vector {direction}")


def _side_index(cell: Tuple[int, int], direction: Tuple[int, int]) -> int:
    row, col = cell
    return row if direction[0] == 0 else col
