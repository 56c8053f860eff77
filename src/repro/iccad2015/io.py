"""Text file formats for stack descriptions, floorplans and networks.

Algorithm 1 takes "stack description and floorplan files" as input; optimized
networks are the output artifact.  These plain-text formats make the flow
file-driven and round-trippable:

* **stack description** -- key/value lines (die count, channel height, grid,
  constraints, restricted rectangles);
* **floorplan** -- per-die power maps as whitespace-separated grids;
* **network** -- character art (``.`` solid, ``O`` liquid, ``#`` TSV) plus
  explicit port lines.

Every writer goes through :func:`repro.checkpoint.atomic_write_text`, so a
crash mid-write leaves the previous file or the new one, never a torn one.
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

from ..checkpoint.atomic import atomic_write_text
from ..errors import BenchmarkError
from ..faults import SITE_IO_POWER_MAP, corrupt
from ..geometry.grid import ChannelGrid, Port, PortKind, Side
from ..geometry.region import Rect
from .cases import Case

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Stack description
# ---------------------------------------------------------------------------


def write_stack_description(case: Case, path: PathLike) -> None:
    """Write a case's stack description file."""
    lines = [
        "# repro stack description",
        f"case {case.number}",
        f"dies {case.n_dies}",
        f"grid {case.nrows} {case.ncols}",
        f"cell_width {case.cell_width:.9g}",
        f"channel_height {case.channel_height:.9g}",
        f"die_power {case.die_power:.9g}",
        f"delta_t_star {case.delta_t_star:.9g}",
        f"t_max_star {case.t_max_star:.9g}",
        f"matched_ports {int(case.matched_ports)}",
    ]
    for rect in case.restricted:
        lines.append(
            f"restricted {rect.row0} {rect.col0} {rect.row1} {rect.col1}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_stack_description(path: PathLike) -> dict:
    """Parse a stack description file into a dict of fields."""
    fields: dict = {"restricted": []}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *values = line.split()
        if key == "restricted":
            if len(values) != 4:
                raise BenchmarkError(f"bad restricted line: {line!r}")
            fields["restricted"].append(Rect(*(int(v) for v in values)))
        elif key == "grid":
            if len(values) != 2:
                raise BenchmarkError(f"bad grid line: {line!r}")
            fields["nrows"], fields["ncols"] = int(values[0]), int(values[1])
        elif key in ("case", "dies", "matched_ports"):
            fields[key] = int(values[0])
        elif key in (
            "cell_width",
            "channel_height",
            "die_power",
            "delta_t_star",
            "t_max_star",
        ):
            fields[key] = float(values[0])
        else:
            raise BenchmarkError(f"unknown stack description key {key!r}")
    missing = {
        "case",
        "dies",
        "nrows",
        "ncols",
        "cell_width",
        "channel_height",
        "die_power",
        "delta_t_star",
        "t_max_star",
    } - set(fields)
    if missing:
        raise BenchmarkError(
            f"stack description missing fields: {sorted(missing)}"
        )
    fields["matched_ports"] = bool(fields.get("matched_ports", 0))
    fields["restricted"] = tuple(fields["restricted"])
    return fields


# ---------------------------------------------------------------------------
# Floorplan (power maps)
# ---------------------------------------------------------------------------


def write_floorplan(power_maps: Sequence[np.ndarray], path: PathLike) -> None:
    """Write per-die power maps, bottom die first."""
    buf = _io.StringIO()
    buf.write("# repro floorplan: per-die power maps in watts per cell\n")
    for die, power in enumerate(power_maps):
        arr = np.asarray(power, dtype=float)
        buf.write(f"die {die} rows {arr.shape[0]} cols {arr.shape[1]}\n")
        for row in arr:
            buf.write(" ".join(f"{v:.9g}" for v in row))
            buf.write("\n")
    atomic_write_text(path, buf.getvalue())


def _validate_power_map(arr: np.ndarray, die: str, path: PathLike) -> None:
    """Reject power densities no thermal solve can make sense of.

    This is the load boundary: a NaN/Inf/negative cell power must become a
    typed :class:`~repro.errors.BenchmarkError` here instead of propagating
    into (and silently corrupting) the thermal system's RHS.
    """
    bad = ~np.isfinite(arr)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise BenchmarkError(
            f"floorplan {path} die {die}: non-finite power density "
            f"{arr[r, c]!r} at cell ({r}, {c})"
        )
    negative = arr < 0.0
    if negative.any():
        r, c = np.argwhere(negative)[0]
        raise BenchmarkError(
            f"floorplan {path} die {die}: negative power density "
            f"{arr[r, c]!r} at cell ({r}, {c}); cell powers are heat "
            f"sources and must be >= 0"
        )


def read_floorplan(path: PathLike) -> List[np.ndarray]:
    """Read per-die power maps written by :func:`write_floorplan`.

    Power densities are validated at this boundary: NaN, Inf, and negative
    values raise :class:`~repro.errors.BenchmarkError` naming the die and
    cell.
    """
    maps: List[np.ndarray] = []
    lines = [
        line
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    i = 0
    while i < len(lines):
        header = lines[i].split()
        if header[0] != "die" or header[2] != "rows" or header[4] != "cols":
            raise BenchmarkError(f"bad floorplan header: {lines[i]!r}")
        nrows, ncols = int(header[3]), int(header[5])
        block = lines[i + 1 : i + 1 + nrows]
        if len(block) != nrows:
            raise BenchmarkError(
                f"floorplan die {header[1]}: expected {nrows} rows, "
                f"got {len(block)}"
            )
        arr = np.array([[float(v) for v in row.split()] for row in block])
        if arr.shape != (nrows, ncols):
            raise BenchmarkError(
                f"floorplan die {header[1]}: ragged rows "
                f"(shape {arr.shape}, expected ({nrows}, {ncols}))"
            )
        arr = corrupt(SITE_IO_POWER_MAP, arr)
        _validate_power_map(arr, header[1], path)
        maps.append(arr)
        i += 1 + nrows
    if not maps:
        raise BenchmarkError(f"no power maps found in {path}")
    return maps


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

_SOLID_CHAR = "."
_LIQUID_CHAR = "O"
_TSV_CHAR = "#"


def write_network(grid: ChannelGrid, path: PathLike) -> None:
    """Write a channel grid (pattern + ports) as character art."""
    buf = _io.StringIO()
    buf.write("# repro cooling network\n")
    buf.write(f"grid {grid.nrows} {grid.ncols}\n")
    buf.write(f"cell_width {grid.cell_width:.9g}\n")
    for r in range(grid.nrows):
        chars = []
        for c in range(grid.ncols):
            if grid.liquid[r, c]:
                chars.append(_LIQUID_CHAR)
            elif grid.tsv_mask[r, c]:
                chars.append(_TSV_CHAR)
            else:
                chars.append(_SOLID_CHAR)
        buf.write("".join(chars) + "\n")
    for port in grid.ports:
        buf.write(f"port {port.kind.value} {port.side.value} {port.index}\n")
    atomic_write_text(path, buf.getvalue())


def read_network(path: PathLike) -> ChannelGrid:
    """Read a network file written by :func:`write_network`."""
    lines = Path(path).read_text().splitlines()
    body = [l for l in lines if l.strip() and not l.lstrip().startswith("#")]
    if not body or not body[0].startswith("grid "):
        raise BenchmarkError(f"network file {path} missing grid header")
    _, nrows_s, ncols_s = body[0].split()
    nrows, ncols = int(nrows_s), int(ncols_s)
    cell_width = None
    rows: List[str] = []
    ports: List[Tuple[str, str, int]] = []
    for line in body[1:]:
        if line.startswith("cell_width"):
            cell_width = float(line.split()[1])
        elif line.startswith("port "):
            _, kind, side, index = line.split()
            ports.append((kind, side, int(index)))
        else:
            rows.append(line)
    if cell_width is None:
        raise BenchmarkError(f"network file {path} missing cell_width")
    if len(rows) != nrows:
        raise BenchmarkError(
            f"network file {path}: expected {nrows} pattern rows, got {len(rows)}"
        )
    tsv = np.zeros((nrows, ncols), dtype=bool)
    liquid = np.zeros((nrows, ncols), dtype=bool)
    for r, row in enumerate(rows):
        if len(row) != ncols:
            raise BenchmarkError(
                f"network file {path}: row {r} has {len(row)} chars, "
                f"expected {ncols}"
            )
        for c, char in enumerate(row):
            if char == _LIQUID_CHAR:
                liquid[r, c] = True
            elif char == _TSV_CHAR:
                tsv[r, c] = True
            elif char != _SOLID_CHAR:
                raise BenchmarkError(
                    f"network file {path}: unknown char {char!r} at ({r}, {c})"
                )
    grid = ChannelGrid(nrows, ncols, cell_width=cell_width, tsv_mask=tsv)
    grid.liquid = liquid
    for kind, side, index in ports:
        grid.add_port(PortKind(kind), Side(side), index)
    return grid


# ---------------------------------------------------------------------------
# Case bundles
# ---------------------------------------------------------------------------


def save_case_bundle(case: Case, directory: PathLike) -> None:
    """Persist a whole benchmark case as a directory of text files.

    Writes ``stack.txt`` (stack description) and ``floorplan.txt`` (per-die
    power maps); networks designed for the case can be dropped alongside
    (see :func:`write_network`).
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    write_stack_description(case, path / "stack.txt")
    write_floorplan(case.power_maps, path / "floorplan.txt")


def load_case_bundle(directory: PathLike) -> Case:
    """Rebuild a :class:`~repro.iccad2015.cases.Case` from a bundle directory.

    The inverse of :func:`save_case_bundle`: the stack description supplies
    geometry and constraints, the floorplan supplies the exact power maps
    (so a bundle round-trips bit-for-bit even if the synthetic map recipes
    change later).
    """
    path = Path(directory)
    stack_file = path / "stack.txt"
    floorplan_file = path / "floorplan.txt"
    if not stack_file.exists() or not floorplan_file.exists():
        raise BenchmarkError(
            f"case bundle {path} needs stack.txt and floorplan.txt"
        )
    fields = read_stack_description(stack_file)
    power_maps = read_floorplan(floorplan_file)
    if len(power_maps) != fields["dies"]:
        raise BenchmarkError(
            f"bundle {path}: stack declares {fields['dies']} dies but the "
            f"floorplan holds {len(power_maps)} power maps"
        )
    for power in power_maps:
        if power.shape != (fields["nrows"], fields["ncols"]):
            raise BenchmarkError(
                f"bundle {path}: power map shape {power.shape} does not "
                f"match grid ({fields['nrows']}, {fields['ncols']})"
            )
    total = float(sum(p.sum() for p in power_maps))
    return Case(
        number=fields["case"],
        n_dies=fields["dies"],
        channel_height=fields["channel_height"],
        die_power=total,
        delta_t_star=fields["delta_t_star"],
        t_max_star=fields["t_max_star"],
        nrows=fields["nrows"],
        ncols=fields["ncols"],
        cell_width=fields["cell_width"],
        restricted=fields["restricted"],
        matched_ports=fields["matched_ports"],
        power_maps=power_maps,
        full_die_power=fields["die_power"],
    )
