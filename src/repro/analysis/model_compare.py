"""2RM vs 4RM accuracy and runtime comparison (Fig. 9).

The paper sweeps benchmarks x network samples x thermal-cell sizes x
pressures (15600 simulations), scoring each 2RM run by the average relative
error of source-layer thermal nodes against 4RM, then averaging per cell
size and per network style.  Findings reproduced here:

* error grows with thermal-cell size and is smallest for straight channels;
* speed-up grows with cell size, saturating once solver time stops
  dominating (Fig. 9(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry.stack import Stack
from ..materials import Coolant
from ..telemetry.runlog import Stopwatch
from ..thermal.rc2 import RC2Simulator
from ..thermal.rc4 import RC4Simulator


@dataclass
class ModelComparison:
    """One 2RM-vs-4RM data point.

    Attributes:
        network: Sample name.
        style: Network style label (straight / tree / manual).
        tile_size: 2RM thermal-cell size in basic cells.
        p_sys: Pressure drop, Pa.
        error_abs: Mean per-node relative error of source-layer temperatures
            ``|T2 - T4| / T4`` (the paper's headline metric).
        error_rise: Same error normalized by the 4RM temperature *rise* above
            the inlet -- stricter, scale-free variant.
        time_4rm / time_2rm: Wall-clock solve time in seconds (one solve,
            excluding one-time mesh assembly).
        speedup: ``time_4rm / time_2rm``.
    """

    network: str
    style: str
    tile_size: int
    p_sys: float
    error_abs: float
    error_rise: float
    time_4rm: float
    time_2rm: float

    @property
    def speedup(self) -> float:
        """Solve-time ratio 4RM / 2RM."""
        return self.time_4rm / self.time_2rm if self.time_2rm > 0 else float("inf")


def compare_models(
    stack: Stack,
    coolant: Coolant,
    tile_sizes: Sequence[int],
    pressures: Sequence[float],
    network_name: str = "network",
    style: str = "manual",
    inlet_temperature: float = 300.0,
) -> List[ModelComparison]:
    """Compare 2RM against 4RM on one stack over tile sizes and pressures."""
    sim4 = RC4Simulator(stack, coolant, inlet_temperature=inlet_temperature)
    reference: Dict[float, object] = {}
    times4: Dict[float, float] = {}
    for p in pressures:
        watch = Stopwatch()
        reference[p] = sim4.solve(p)
        times4[p] = watch.elapsed()

    records: List[ModelComparison] = []
    for tile_size in tile_sizes:
        sim2 = RC2Simulator(
            stack,
            coolant,
            tile_size=tile_size,
            inlet_temperature=inlet_temperature,
        )
        for p in pressures:
            watch = Stopwatch()
            result2 = sim2.solve(p)
            elapsed2 = watch.elapsed()
            err_abs, err_rise = source_layer_errors(
                reference[p], result2, inlet_temperature
            )
            records.append(
                ModelComparison(
                    network=network_name,
                    style=style,
                    tile_size=tile_size,
                    p_sys=float(p),
                    error_abs=err_abs,
                    error_rise=err_rise,
                    time_4rm=times4[p],
                    time_2rm=elapsed2,
                )
            )
    return records


def source_layer_errors(result4, result2, inlet_temperature: float):
    """Per-node relative errors of source-layer temperatures.

    2RM fields are already expanded to cell resolution, so the comparison is
    cell-by-cell: the paper's metric ``mean(|T2 - T4| / T4)`` plus the
    rise-normalized variant ``mean(|T2 - T4|) / mean(T4 - T_in)``.
    """
    abs_errors = []
    rise_numer = []
    rise_denom = []
    for idx4, idx2 in zip(
        result4.source_layer_indices, result2.source_layer_indices
    ):
        t4 = result4.layer_fields[idx4]
        t2 = result2.layer_fields[idx2]
        diff = np.abs(t2 - t4)
        abs_errors.append(diff / t4)
        rise_numer.append(diff)
        rise_denom.append(t4 - inlet_temperature)
    error_abs = float(np.mean(np.concatenate([e.ravel() for e in abs_errors])))
    numer = float(np.mean(np.concatenate([e.ravel() for e in rise_numer])))
    denom = float(np.mean(np.concatenate([e.ravel() for e in rise_denom])))
    error_rise = numer / max(denom, 1e-12)
    return error_abs, error_rise


def aggregate_by(
    records: Sequence[ModelComparison],
    key: str,
) -> Dict[object, Dict[str, float]]:
    """Average error/speed-up grouped by one attribute (e.g. ``tile_size``)."""
    groups: Dict[object, List[ModelComparison]] = {}
    for record in records:
        groups.setdefault(getattr(record, key), []).append(record)
    out: Dict[object, Dict[str, float]] = {}
    for group_key, members in sorted(groups.items(), key=lambda kv: str(kv[0])):
        out[group_key] = {
            "error_abs": float(np.mean([m.error_abs for m in members])),
            "error_rise": float(np.mean([m.error_rise for m in members])),
            "speedup": float(np.mean([m.speedup for m in members])),
            "time_2rm": float(np.mean([m.time_2rm for m in members])),
            "time_4rm": float(np.mean([m.time_4rm for m in members])),
            "count": float(len(members)),
        }
    return out
