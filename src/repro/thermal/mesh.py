"""Coarse tilings of the basic-cell grid for the 2RM model.

A :class:`Tiling` partitions the ``nrows x ncols`` basic-cell grid into
``tile_size x tile_size`` tiles (the "thermal cells" of Section 2.3; the last
row/column of tiles may be smaller when the grid size is not a multiple, as
with the contest's 101 x 101 grids).  It provides the aggregation and
expansion operators both the 2RM mesh builder and the model-comparison
analysis need.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ThermalError
from ..geometry.region import Rect


class Tiling:
    """A ragged-edge square tiling of a 2D cell grid."""

    def __init__(self, nrows: int, ncols: int, tile_size: int) -> None:
        if tile_size < 1:
            raise ThermalError(f"tile size must be >= 1, got {tile_size}")
        if nrows < 1 or ncols < 1:
            raise ThermalError(f"grid must be at least 1x1, got {nrows}x{ncols}")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.tile_size = int(tile_size)
        self.row_starts = np.arange(0, nrows + tile_size, tile_size)
        self.row_starts[-1] = min(self.row_starts[-1], nrows)
        self.row_starts = np.unique(self.row_starts)
        self.col_starts = np.arange(0, ncols + tile_size, tile_size)
        self.col_starts[-1] = min(self.col_starts[-1], ncols)
        self.col_starts = np.unique(self.col_starts)
        self.n_tile_rows = len(self.row_starts) - 1
        self.n_tile_cols = len(self.col_starts) - 1
        #: Tile-row index of each cell row.
        self.row_of_cell = np.repeat(
            np.arange(self.n_tile_rows), np.diff(self.row_starts)
        )
        #: Tile-column index of each cell column.
        self.col_of_cell = np.repeat(
            np.arange(self.n_tile_cols), np.diff(self.col_starts)
        )

    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        """(tile rows, tile columns)."""
        return (self.n_tile_rows, self.n_tile_cols)

    @property
    def n_tiles(self) -> int:
        """Total tile count."""
        return self.n_tile_rows * self.n_tile_cols

    def tile_rect(self, tile_row: int, tile_col: int) -> Rect:
        """Cell rectangle covered by one tile."""
        return Rect(
            int(self.row_starts[tile_row]),
            int(self.col_starts[tile_col]),
            int(self.row_starts[tile_row + 1]),
            int(self.col_starts[tile_col + 1]),
        )

    def tile_heights(self) -> np.ndarray:
        """Cell counts of every tile row, shape (n_tile_rows,)."""
        return np.diff(self.row_starts)

    def tile_widths(self) -> np.ndarray:
        """Cell counts of every tile column, shape (n_tile_cols,)."""
        return np.diff(self.col_starts)

    # ------------------------------------------------------------------
    # Aggregation / expansion
    # ------------------------------------------------------------------

    def aggregate_sum(self, cell_values: np.ndarray) -> np.ndarray:
        """Sum a cell-resolution array over every tile."""
        arr = np.asarray(cell_values, dtype=float)
        if arr.shape != (self.nrows, self.ncols):
            raise ThermalError(
                f"array shape {arr.shape} does not match grid "
                f"({self.nrows}, {self.ncols})"
            )
        by_rows = np.add.reduceat(arr, self.row_starts[:-1], axis=0)
        return np.add.reduceat(by_rows, self.col_starts[:-1], axis=1)

    def aggregate_count(self, cell_mask: np.ndarray) -> np.ndarray:
        """Count True cells per tile (integer array)."""
        return self.aggregate_sum(cell_mask.astype(float)).astype(int)

    def aggregate_mean(
        self, cell_values: np.ndarray, where: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Per-tile mean, optionally over a cell mask; NaN for empty tiles."""
        if where is None:
            total = self.aggregate_sum(cell_values)
            count = self.aggregate_count(np.ones((self.nrows, self.ncols), bool))
        else:
            total = self.aggregate_sum(np.where(where, cell_values, 0.0))
            count = self.aggregate_count(where)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(count > 0, total / np.maximum(count, 1), np.nan)

    def expand(self, tile_values: np.ndarray) -> np.ndarray:
        """Broadcast a tile-resolution array back to cell resolution."""
        arr = np.asarray(tile_values)
        if arr.shape != self.shape:
            raise ThermalError(
                f"array shape {arr.shape} does not match tiling {self.shape}"
            )
        return arr[np.ix_(self.row_of_cell, self.col_of_cell)]
