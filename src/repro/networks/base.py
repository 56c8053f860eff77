"""Shared building blocks for network generators.

With the paper's TSV reservation (TSVs at odd rows and odd columns), the
routable area of the channel layer is the union of the even rows and even
columns: horizontal channels run on even rows ("tracks"), vertical connectors
on even columns.  Generators in this package carve on that track graph and
route around restricted areas with a breadth-first search when needed.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

from ..constants import CELL_WIDTH
from ..errors import DesignRuleError, GeometryError
from ..geometry.grid import ChannelGrid
from ..geometry.region import Rect

#: The eight global flow directions of Fig. 8(a), realized as the D4 symmetry
#: transforms (rotations x flip) of a canonical west-to-east design.
GLOBAL_DIRECTIONS: Tuple[Tuple[int, bool], ...] = (
    (0, False),
    (1, False),
    (2, False),
    (3, False),
    (0, True),
    (1, True),
    (2, True),
    (3, True),
)


def empty_grid(
    nrows: int,
    ncols: int,
    cell_width: float = CELL_WIDTH,
    restricted: Sequence[Rect] = (),
) -> ChannelGrid:
    """An all-solid grid with the paper's alternating TSV reservation."""
    return ChannelGrid(
        nrows,
        ncols,
        cell_width=cell_width,
        tsv_mask="alternating",
        restricted=restricted,
    )


def channel_tracks(nrows: int) -> List[int]:
    """Row indices usable as full horizontal channels (the even rows)."""
    return list(range(0, nrows, 2))


def connector_columns(ncols: int) -> List[int]:
    """Column indices usable as vertical connectors (the even columns)."""
    return list(range(0, ncols, 2))


def apply_direction(grid: ChannelGrid, direction: int) -> ChannelGrid:
    """Reorient a canonical west-to-east network to one of the eight
    global flow directions (index into :data:`GLOBAL_DIRECTIONS`)."""
    if not 0 <= direction < len(GLOBAL_DIRECTIONS):
        raise GeometryError(
            f"direction must be in [0, {len(GLOBAL_DIRECTIONS)}), got {direction}"
        )
    rotations, flip = GLOBAL_DIRECTIONS[direction]
    if rotations == 0 and not flip:
        return grid.copy()
    return grid.transformed(rotations, flip)


def canonical_dims(nrows: int, ncols: int, direction: int) -> Tuple[int, int]:
    """Grid dims a canonical design must use so the final frame is
    ``nrows x ncols`` after :func:`apply_direction`."""
    rotations, _ = GLOBAL_DIRECTIONS[direction]
    return (ncols, nrows) if rotations % 2 else (nrows, ncols)


def canonical_cell(
    cell: Tuple[int, int], nrows: int, ncols: int, direction: int
) -> Tuple[int, int]:
    """Map a cell given in the *final* frame back to the canonical frame.

    ``nrows``/``ncols`` are the final-frame dimensions.  Inverse of the
    transform :func:`apply_direction` applies.
    """
    rotations, flip = GLOBAL_DIRECTIONS[direction]
    r, c = cell
    nr, nc = nrows, ncols
    if flip:
        r = nr - 1 - r
    for _ in range(rotations):
        # Invert one CCW rotation step: forward maps (r, c) in (h, w) to
        # (w - 1 - c, r) in (w, h); the inverse is (a, b) -> (b, nr - 1 - a).
        r, c = c, nr - 1 - r
        nr, nc = nc, nr
    return (r, c)


def canonical_rects(
    rects: Sequence[Rect], nrows: int, ncols: int, direction: int
) -> Tuple[Rect, ...]:
    """Map final-frame restriction rectangles into the canonical frame.

    Designs are carved west-to-east and then reoriented; restricted areas are
    specified in the final (chip) frame, so the carver must avoid their
    *pre-image* under the direction transform.
    """
    out = []
    for rect in rects:
        corner_a = canonical_cell((rect.row0, rect.col0), nrows, ncols, direction)
        corner_b = canonical_cell(
            (rect.row1 - 1, rect.col1 - 1), nrows, ncols, direction
        )
        r0 = min(corner_a[0], corner_b[0])
        r1 = max(corner_a[0], corner_b[0]) + 1
        c0 = min(corner_a[1], corner_b[1])
        c1 = max(corner_a[1], corner_b[1]) + 1
        out.append(Rect(r0, c0, r1, c1))
    return tuple(out)


def carve_path(
    grid: ChannelGrid,
    start: Tuple[int, int],
    goal: Tuple[int, int],
) -> List[Tuple[int, int]]:
    """Carve a shortest legal channel path from ``start`` to ``goal``.

    Cells are traversable when they are neither TSV-reserved nor restricted.
    The path is found by BFS with a preference for continuing in the current
    direction, which keeps routes straight where possible.  The carved cells
    are returned; raises :class:`~repro.errors.DesignRuleError` when no route
    exists.
    """
    nrows, ncols = grid.nrows, grid.ncols
    blocked = grid.tsv_mask | grid.restricted_mask
    for point in (start, goal):
        if not grid.in_bounds(*point):
            raise GeometryError(f"path endpoint {point} outside grid")
        if blocked[point]:
            raise DesignRuleError(f"path endpoint {point} is not carvable")
    # BFS over (cell) with parent tracking; neighbor order biases straightness.
    parents = {start: None}
    queue = deque([start])
    found = start == goal
    while queue and not found:
        current = queue.popleft()
        prev = parents[current]
        steps = [(0, 1), (0, -1), (1, 0), (-1, 0)]
        if prev is not None:
            heading = (current[0] - prev[0], current[1] - prev[1])
            steps.sort(key=lambda s: s != heading)
        for dr, dc in steps:
            nxt = (current[0] + dr, current[1] + dc)
            if not (0 <= nxt[0] < nrows and 0 <= nxt[1] < ncols):
                continue
            if blocked[nxt] or nxt in parents:
                continue
            parents[nxt] = current
            if nxt == goal:
                found = True
                break
            queue.append(nxt)
    if not found:
        raise DesignRuleError(f"no carvable route from {start} to {goal}")
    path = [goal]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    for row, col in path:
        grid.set_liquid(row, col)
    return path


def carve_ring_around(grid: ChannelGrid, rect: Rect) -> None:
    """Surround a restricted rectangle with a liquid ring on legal tracks.

    The ring follows the nearest even row above/below and the nearest even
    column left/right of the rectangle, so interrupted straight channels can
    reconnect around the obstacle (how the paper handles case 3's forbidden
    region in both baselines and tree designs).
    """
    top = _nearest_even_at_most(rect.row0 - 1)
    bottom = _nearest_even_at_least(rect.row1)
    left = _nearest_even_at_most(rect.col0 - 1)
    right = _nearest_even_at_least(rect.col1)
    if top is None or left is None:
        raise DesignRuleError(
            f"restricted rect {rect} touches the north/west boundary; "
            "no room for a ring"
        )
    if bottom >= grid.nrows or right >= grid.ncols:
        raise DesignRuleError(
            f"restricted rect {rect} touches the south/east boundary; "
            "no room for a ring"
        )
    grid.carve_horizontal(top, left, right)
    grid.carve_horizontal(bottom, left, right)
    grid.carve_vertical(left, top, bottom)
    grid.carve_vertical(right, top, bottom)


def _nearest_even_at_most(index: int) -> Optional[int]:
    if index < 0:
        return None
    return index if index % 2 == 0 else index - 1


def _nearest_even_at_least(index: int) -> int:
    return index if index % 2 == 0 else index + 1


def row_is_clear(grid: ChannelGrid, row: int, col0: int, col1: int) -> bool:
    """Whether ``row`` is carvable across columns ``[col0, col1]``."""
    lo, hi = sorted((col0, col1))
    segment = (
        grid.tsv_mask[row, lo : hi + 1] | grid.restricted_mask[row, lo : hi + 1]
    )
    return not segment.any()
