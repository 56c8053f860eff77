"""Thermal simulation results and the paper's summary metrics.

The three quantities the problem formulations optimize or constrain
(Section 3):

* peak temperature ``T_max`` -- the maximum thermal-node temperature (it can
  only occur in a source layer, by energy conservation);
* thermal gradient ``DeltaT = max_i(DeltaT_i)`` where ``DeltaT_i`` is the
  range of node temperatures in the ``i``-th source layer;
* pumping power ``W_pump = P_sys Q_sys``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import profiling
from ..errors import ThermalError


class ThermalResult:
    """Steady-state temperatures of one simulation.

    The metrics read only per-layer ``(min, max)`` temperatures.  A
    simulator's result gets them at solve time (``layer_extrema``) and
    builds its cell maps with ``expand_fields`` on first access, so probes
    never pay for maps; explicit ``layer_fields`` (the tests' reference)
    yield the extrema on the first metric read.  Pickling and
    ``copy.deepcopy`` materialize the maps first.

    Attributes:
        p_sys: System pressure drop, Pa.
        q_sys: System flow rate summed over all channel layers, m^3/s.
        w_pump: Pumping power ``P_sys * Q_sys``, W.
        layer_fields: One cell-resolution (nrows, ncols) temperature array
            per stack layer, bottom to top.  For 2RM results these are tile
            temperatures broadcast to cell resolution.
        layer_names: Stack layer names, aligned with ``layer_fields``.
        source_layer_indices: Indices into ``layer_fields`` of source layers.
        inlet_temperature: Coolant inlet temperature, K.
        liquid_fields: Coolant temperature per channel layer (NaN at solid
            cells), keyed by layer index.
        total_power: Heat injected by all source layers, W.
        coolant_heat_removed: Coolant enthalpy rise rate (W); equals
            total_power at a converged steady solution of an adiabatic
            stack.
        exact: Whether an exact factorization produced the temperatures
            (``False`` for a pressure-shift probe answer).
    """

    def __init__(
        self,
        p_sys: float,
        q_sys: float,
        w_pump: float,
        *,
        layer_names: List[str],
        source_layer_indices: List[int],
        inlet_temperature: float,
        total_power: float,
        layer_fields: Optional[List[np.ndarray]] = None,
        liquid_fields: Optional[Dict[int, np.ndarray]] = None,
        coolant_heat_removed: Optional[float] = None,
        layer_extrema: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        expand_fields: Optional[
            Callable[[], Tuple[List[np.ndarray], Dict[int, np.ndarray]]]
        ] = None,
    ) -> None:
        if (layer_fields is None) == (expand_fields is None):
            raise ThermalError("give exactly one of layer_fields / expand_fields")
        self.p_sys = p_sys
        self.q_sys = q_sys
        self.w_pump = w_pump
        self.layer_names = layer_names
        self.source_layer_indices = source_layer_indices
        self.inlet_temperature = inlet_temperature
        self.total_power = total_power
        self.coolant_heat_removed = coolant_heat_removed
        self.exact = True
        self._layer_fields = layer_fields
        self._liquid_fields = {} if liquid_fields is None else liquid_fields
        self._layer_extrema = layer_extrema
        self._expand_fields = expand_fields

    # ------------------------------------------------------------------

    def _extrema(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-layer ``(min, max)`` temperatures, NaN cells ignored."""
        if self._layer_extrema is None:
            fields = self.layer_fields
            self._layer_extrema = (
                np.array([np.nanmin(f) for f in fields]),
                np.array([np.nanmax(f) for f in fields]),
            )
        return self._layer_extrema

    def __getstate__(self) -> Dict[str, Any]:
        self.layer_fields  # a pickled copy holds plain arrays
        return dict(self.__dict__)

    @property
    def layer_fields(self) -> List[np.ndarray]:
        """Cell-resolution temperature map of every layer (built on demand)."""
        if self._layer_fields is None:
            assert self._expand_fields is not None
            profiling.increment("thermal.field_expansions")
            self._layer_fields, self._liquid_fields = self._expand_fields()
            self._expand_fields = None
        return self._layer_fields

    @property
    def liquid_fields(self) -> Dict[int, np.ndarray]:
        """Coolant temperature map per channel layer (built on demand)."""
        self.layer_fields  # expands both kinds of map
        return self._liquid_fields

    @property
    def n_layers(self) -> int:
        """Number of stack layers in the result."""
        return len(self.layer_names)

    def layer_field(self, layer: "int | str") -> np.ndarray:
        """Temperature field of one layer, by index or name."""
        if isinstance(layer, str):
            try:
                layer = self.layer_names.index(layer)
            except ValueError:
                raise ThermalError(
                    f"no layer named {layer!r}; have {self.layer_names}"
                ) from None
        return self.layer_fields[layer]

    def source_fields(self) -> List[np.ndarray]:
        """Temperature fields of the source layers, bottom to top."""
        return [self.layer_fields[i] for i in self.source_layer_indices]

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------

    @property
    def t_max(self) -> float:
        """Peak temperature over all thermal nodes, K."""
        return max(float(high) for high in self._extrema()[1])

    @property
    def delta_t(self) -> float:
        """Thermal gradient: the largest per-source-layer temperature range."""
        ranges = self.delta_t_per_source_layer()
        if not ranges:
            raise ThermalError("stack has no source layers; DeltaT undefined")
        return max(ranges)

    def delta_t_per_source_layer(self) -> List[float]:
        """``DeltaT_i`` for each source layer, bottom to top."""
        low, high = self._extrema()
        return [float(high[i] - low[i]) for i in self.source_layer_indices]

    @property
    def t_max_source(self) -> float:
        """Peak temperature restricted to source layers, K."""
        if not self.source_layer_indices:
            raise ThermalError("stack has no source layers")
        high = self._extrema()[1]
        return max(float(high[i]) for i in self.source_layer_indices)

    def energy_balance_error(self) -> float:
        """|power in - heat carried out by coolant| / power in.

        Only available when the simulator recorded the coolant enthalpy rise.
        """
        if self.coolant_heat_removed is None:
            raise ThermalError("simulator did not record coolant heat removal")
        if self.total_power == 0:
            return abs(self.coolant_heat_removed)
        return abs(self.total_power - self.coolant_heat_removed) / self.total_power

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"P_sys={self.p_sys / 1e3:.2f} kPa  "
            f"W_pump={self.w_pump * 1e3:.2f} mW  "
            f"T_max={self.t_max:.2f} K  "
            f"DeltaT={self.delta_t:.2f} K"
        )
