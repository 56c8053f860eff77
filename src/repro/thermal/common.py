"""Shared thermal-conductance formulas and the simulators' linear system.

The individual conductance expressions follow Section 2.2 of the paper:

* Eq. 4 -- solid-solid conduction ``g = k A / l``.
* Eq. 5 -- solid-liquid transfer: the convective wall conductance in series
  with the half-cell solid conduction, ``g_sl = (g_sl* g_ss*) / (g_sl* + g_ss*)``.
* Eq. 6 -- liquid-liquid advection under the central differencing scheme,
  ``q_ll = (C_v / 2) sum_j Q_ji T_j`` (plus the inlet/outlet closure terms).

Both simulators reduce to one sparse linear system ``(K + P_sys * A) T =
b0 + P_sys * b1``: ``K`` collects every conductance (pressure independent),
``A``/``b1`` collect the advection terms which scale linearly with ``P_sys``
because all local flow rates do; :class:`LinearThermalSystem` solves it for
either simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix

from .. import linalg, profiling
from ..constants import NUSSELT_NUMBER, quantize_key
from ..errors import GeometryError, LinalgError, ThermalError
from ..faults import SITE_LINALG_UPDATE, corrupt
from ..flow.conductance import hydraulic_diameter
from ..geometry.layers import ChannelLayer
from ..geometry.stack import Stack
from ..materials import Coolant
from .result import ThermalResult


def series_conductance(g_a: float, g_b: float) -> float:
    """Two thermal conductances in series (Eqs. 5 and 7).

    Returns 0 if either path is blocked (zero conductance).
    [unit-return: W/K]

    Args:
        g_a: First conductance.  [unit: W/K]
        g_b: Second conductance.  [unit: W/K]
    """
    if g_a <= 0 or g_b <= 0:
        return 0.0
    return g_a * g_b / (g_a + g_b)


def h_conv(
    coolant: Coolant,
    channel_width: float,
    channel_height: float,
    nusselt: float = NUSSELT_NUMBER,
) -> float:
    """Convective heat transfer coefficient ``h = Nu k_liquid / D_h``.
    [unit-return: W/(m^2 K)]

    Args:
        coolant: The liquid.
        channel_width: Channel width ``w_c``.  [unit: m]
        channel_height: Channel height ``h_c``.  [unit: m]
        nusselt: Nusselt number ``Nu``.  [unit: 1]
    """
    d_h = hydraulic_diameter(channel_width, channel_height)
    return nusselt * coolant.thermal_conductivity / d_h


def convective_conductance(
    area: float,
    coolant: Coolant,
    channel_width: float,
    channel_height: float,
    nusselt: float = NUSSELT_NUMBER,
) -> float:
    """Wall-to-coolant conductance ``g_sl* = h A`` (the Eq. 5 building block).
    [unit-return: W/K]

    Args:
        area: Wetted wall area ``A``.  [unit: m^2]
        coolant: The liquid.
        channel_width: Channel width ``w_c``.  [unit: m]
        channel_height: Channel height ``h_c``.  [unit: m]
        nusselt: Nusselt number ``Nu``.  [unit: 1]
    """
    if area < 0:
        raise ThermalError(f"wall area must be non-negative, got {area}")
    return h_conv(coolant, channel_width, channel_height, nusselt) * area


def slab_half_conductance(k: float, area: float, thickness: float) -> float:
    """Conductance from a slab's center plane to its face, ``k A / (t/2)``.
    [unit-return: W/K]

    Args:
        k: Thermal conductivity of the slab.  [unit: W/(m K)]
        area: Face area ``A`` in m^2, or ``1.0`` for the conductance per
            unit face area (how the 2RM assembly calls it before scaling
            by per-tile areas).  [unit: any]
        thickness: Slab thickness ``t``.  [unit: m]
    """
    if thickness <= 0:
        raise ThermalError(f"thickness must be positive, got {thickness}")
    return k * area / (0.5 * thickness)


@dataclass
class AdvectionSpec:
    """Advection terms of one channel layer at *unit* system pressure.

    Attributes:
        pair_nodes: (e, 2) global node ids of liquid entities exchanging
            coolant; flow is signed from column 0 to column 1.
        pair_flows: (e,) signed volumetric flow rates at ``P_sys = 1``.
        node_ids: (n,) global node ids of the layer's liquid entities.
        inlet_flows: (n,) inlet inflow per entity at ``P_sys = 1`` (>= 0).
        outlet_flows: (n,) outlet outflow per entity at ``P_sys = 1`` (>= 0).
    """

    pair_nodes: np.ndarray
    pair_flows: np.ndarray
    node_ids: np.ndarray
    inlet_flows: np.ndarray
    outlet_flows: np.ndarray


#: Advection discretization schemes for :func:`assemble_advection`.
ADVECTION_UPWIND = "upwind"
ADVECTION_CENTRAL = "central"

#: The default scheme.  Upwind is monotone (an M-matrix row pattern), so the
#: discrete maximum principle holds and liquid temperatures can never fall
#: below the inlet -- the central scheme of the paper's Eq. 6 is not, and
#: produces sub-inlet temperatures whenever a low-flow connector's cell
#: Peclet number exceeds 2 (ROADMAP item 6).
ADVECTION_SCHEME_DEFAULT = ADVECTION_UPWIND

ADVECTION_SCHEMES = (ADVECTION_UPWIND, ADVECTION_CENTRAL)


def assemble_advection(
    n_nodes: int,
    specs: "list[AdvectionSpec]",
    c_v: float,
    inlet_temperature: float,
    scheme: str = ADVECTION_SCHEME_DEFAULT,
) -> Tuple[csc_matrix, np.ndarray]:
    """Build the unit advection operator ``A`` and its RHS vector ``b1``.

    Two discretizations of the steady liquid-node energy balance are
    supported; both scale linearly with pressure (``P * A`` and ``P * b1``
    at pressure ``P``) because flow *signs* are pressure independent, which
    is what keeps the Woodbury pressure-shift path valid.

    ``scheme="central"`` is the paper's Eq. 6 (after the volume-conservation
    substitution)::

        A[i, j] = -C_v Q_ji / 2          for each liquid neighbor j
        A[i, i] = +C_v (Q_in,i + Q_out,i) / 2
        b1[i]   = +C_v Q_in,i * T_in

    It is second-order accurate but not monotone: a positive downstream
    off-diagonal appears whenever advective coupling exceeds the conduction
    anchoring a node (cell Peclet > 2), which can push liquid temperatures
    *below* the inlet on low-flow connectors.

    ``scheme="upwind"`` (the default) transports the *donor* node's
    temperature across each interface: for a pair ``(i, j)`` with signed
    flow ``q`` (positive i -> j), with donor ``d`` and receiver ``r``::

        A[d, d] += C_v |q|
        A[r, d] -= C_v |q|
        A[i, i] += C_v Q_out,i           per node
        b1[i]    = C_v Q_in,i * T_in     per node

    Every row then has a non-negative diagonal and non-positive
    off-diagonals summing to ``C_v Q_in,i`` (an M-matrix with ``K`` added),
    so the discrete maximum principle guarantees ``T >= T_in`` for
    heat-source-only steady states.  Both schemes conserve energy exactly:
    the column sums are ``C_v Q_out,j`` either way, so the coolant removes
    ``C_v P (sum_j Q_out,j T_j - Q_in_total T_in)``.

    Args:
        n_nodes: Size of the thermal system.
        specs: Advection terms of every channel layer at ``P_sys = 1``.
        c_v: Coolant volumetric heat capacity ``C_v``.  [unit: J/(m^3 K)]
        inlet_temperature: Coolant inlet temperature ``T_in``.  [unit: K]
        scheme: :data:`ADVECTION_UPWIND` or :data:`ADVECTION_CENTRAL`.
    """
    if scheme not in ADVECTION_SCHEMES:
        raise ThermalError(
            f"unknown advection scheme {scheme!r}; known: {ADVECTION_SCHEMES}"
        )
    rows: list = []
    cols: list = []
    vals: list = []
    b1 = np.zeros(n_nodes)
    for spec in specs:
        if spec.pair_nodes.size:
            i = spec.pair_nodes[:, 0]
            j = spec.pair_nodes[:, 1]
            q = spec.pair_flows
            if scheme == ADVECTION_CENTRAL:
                # For node i, neighbor j: Q_{j,i} = -q  =>  A[i, j] += C_v q / 2.
                rows.append(i)
                cols.append(j)
                vals.append(0.5 * c_v * q)
                # For node j, neighbor i: Q_{i,j} = +q  =>  A[j, i] -= C_v q / 2.
                rows.append(j)
                cols.append(i)
                vals.append(-0.5 * c_v * q)
            else:
                donor = np.where(q >= 0.0, i, j)
                receiver = np.where(q >= 0.0, j, i)
                flow = np.abs(q)
                rows.append(donor)
                cols.append(donor)
                vals.append(c_v * flow)
                rows.append(receiver)
                cols.append(donor)
                vals.append(-c_v * flow)
        if scheme == ADVECTION_CENTRAL:
            diag = 0.5 * c_v * (spec.inlet_flows + spec.outlet_flows)
        else:
            diag = c_v * spec.outlet_flows
        rows.append(spec.node_ids)
        cols.append(spec.node_ids)
        vals.append(diag)
        np.add.at(b1, spec.node_ids, c_v * spec.inlet_flows * inlet_temperature)
    if rows:
        row_arr = np.concatenate(rows)
        col_arr = np.concatenate(cols)
        val_arr = np.concatenate(vals)
    else:
        row_arr = np.zeros(0, dtype=np.int64)
        col_arr = np.zeros(0, dtype=np.int64)
        val_arr = np.zeros(0)
    matrix = coo_matrix(
        (val_arr, (row_arr, col_arr)), shape=(n_nodes, n_nodes)
    ).tocsc()
    return matrix, b1


class ConductanceBuilder:
    """Accumulates pairwise conductances into a sparse stiffness matrix ``K``."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._rows: list = []
        self._cols: list = []
        self._vals: list = []
        self._diag = np.zeros(n_nodes)

    def add_pairs(
        self, node_a: np.ndarray, node_b: np.ndarray, conductance: np.ndarray
    ) -> None:
        """Add conductances between node pairs (vectorized)."""
        node_a = np.asarray(node_a, dtype=np.int64)
        node_b = np.asarray(node_b, dtype=np.int64)
        g = np.asarray(conductance, dtype=float)
        keep = g > 0
        if not keep.all():
            node_a, node_b, g = node_a[keep], node_b[keep], g[keep]
        if node_a.size == 0:
            return
        np.add.at(self._diag, node_a, g)
        np.add.at(self._diag, node_b, g)
        self._rows.extend((node_a, node_b))
        self._cols.extend((node_b, node_a))
        self._vals.extend((-g, -g))

    def add_grounded(self, nodes: np.ndarray, conductance: np.ndarray) -> None:
        """Add conductances from nodes to a fixed-temperature reservoir."""
        nodes = np.asarray(nodes, dtype=np.int64)
        g = np.asarray(conductance, dtype=float)
        np.add.at(self._diag, nodes, g)

    def build(self) -> csc_matrix:
        """Assemble the accumulated conductances into a CSC matrix."""
        rows = list(self._rows)
        cols = list(self._cols)
        vals = list(self._vals)
        rows.append(np.arange(self.n_nodes, dtype=np.int64))
        cols.append(np.arange(self.n_nodes, dtype=np.int64))
        vals.append(self._diag)
        return coo_matrix(
            (
                np.concatenate(vals),
                (np.concatenate(rows), np.concatenate(cols)),
            ),
            shape=(self.n_nodes, self.n_nodes),
        ).tocsc()


@dataclass
class _PressureShiftState:
    """Cached Woodbury data for incremental solves across pressures.

    The operator family ``A(P) = K + P A_adv`` differs from the base
    ``A(P0)`` by ``(P - P0) A_adv``, and the advection matrix has nonzero
    rows only at liquid nodes: ``A_adv = U V^T`` with ``U`` the selector of
    those ``r`` rows and ``V^T = A_adv[rows, :]``.  One base factorization
    plus ``W = A(P0)^{-1} U`` (an ``r``-column multi-RHS solve, paid once)
    turns every later pressure probe into a single triangular solve and an
    ``r x r`` dense solve -- instead of a fresh sparse factorization.
    """

    p0: float
    factor: "linalg.Factorization"
    rows: np.ndarray
    vt: csc_matrix
    w: np.ndarray
    m: np.ndarray


#: Largest advected-row rank ``r``, per square root of the node count
#: ``n``, at which a thermal system takes the pressure-shift path.  The
#: shift pays ``r`` triangular solves once and an ``r x r`` dense solve per
#: probe, while factorizing these layered meshes costs about ``n ** 1.5``,
#: so the shift's break-even probe count grows with ``r / sqrt(n)``.  Up to
#: this bound it won the 7-47-probe evaluations of the bisecting searches
#: (an evaluation now takes 9-32); above it every probe refactorizes
#: exactly.  Measurements are in ``docs/SOLVER_CACHES.md``.
SHIFT_RANK_PER_SQRT_NODE = 10.0  #: [unit: 1]


class LinearThermalSystem:
    """Solves ``(K + P A) T = b0 + P b1`` for the node temperature vector.

    Shared back end of both simulators: each one assembles the matrices
    from its own mesh, holds one of these, and interprets the solution
    vector.

    Solver reuse: on first use, ``K`` and ``A`` are aligned onto the union
    sparsity pattern once, so assembling the operator at a new pressure is a
    single fused-data sum instead of a full sparse addition.  It keeps one
    factorization, its first: the shift base below, which also answers a
    later solve at the same quantized pressure.  Every other exact solve
    factorizes, solves and lets go (``CoolingSystem`` memoizes results).

    Incremental solves: when :class:`~repro.linalg.LinalgConfig` enables
    them (the default), pressure probes after the first are answered through
    the Woodbury pressure-shift path (see :class:`_PressureShiftState`)
    instead of refactorizing, while the advected-row rank stays within
    :data:`SHIFT_RANK_PER_SQRT_NODE` times the square root of the node
    count, guarded by a relative-residual check that falls back to the exact
    path on any doubt.  ``solve(..., exact=True)`` bypasses the incremental
    path entirely -- final scoring uses it so results are bitwise identical
    with incremental updates on or off; :meth:`solve_flagged` also says
    whether an exact factorization answered.
    """

    #: Columns of ``W`` solved per block when building the shift state, so
    #: the unit right-hand sides never take a full ``n x r`` array.
    SHIFT_BLOCK_COLUMNS = 128

    def __init__(
        self,
        stiffness: csc_matrix,
        advection: csc_matrix,
        rhs_static: np.ndarray,
        rhs_advection: np.ndarray,
    ) -> None:
        self.stiffness = stiffness
        self.advection = advection
        self.rhs_static = rhs_static
        self.rhs_advection = rhs_advection
        self.n_nodes = stiffness.shape[0]
        self._aligned_pair: Optional[Tuple[csc_matrix, csc_matrix]] = None
        self._residual_op: Optional[csc_matrix] = None
        #: ``(quantized pressure, factorization)`` of the first exact solve.
        self._base: Optional[Tuple[float, Any]] = None
        self._shift: Optional[_PressureShiftState] = None
        self._advected: Optional[np.ndarray] = None

    # -- operator assembly with structure reuse -------------------------

    def _aligned(self) -> Tuple[csc_matrix, csc_matrix]:
        """``K`` and ``A`` on their shared (union) sparsity pattern.

        The pattern merges the column-major entry keys of both canonical CSC
        matrices, so the operator at any pressure is ``K.data + P * A.data``.
        Adding ``0.0`` where both have an entry gives the bits of summing
        their concatenated triplets in one COO conversion, signed zeros too.
        """
        if self._aligned_pair is not None:
            return self._aligned_pair
        n = self.n_nodes
        keys = []
        for matrix in (self.stiffness, self.advection):
            matrix.sum_duplicates()
            cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(matrix.indptr))
            keys.append(cols * n + matrix.indices)
        union = np.sort(np.concatenate(keys))
        union = union[np.concatenate(([True], union[1:] != union[:-1]))]
        k_pos, a_pos = (np.searchsorted(union, key) for key in keys)
        k_data = np.zeros(union.size)
        k_data[k_pos] = self.stiffness.data
        k_data[a_pos] += 0.0
        a_data = np.zeros(union.size)
        a_data[a_pos] = self.advection.data
        a_data[k_pos] += 0.0
        indices = union % n
        indptr = np.searchsorted(union, np.arange(n + 1, dtype=np.int64) * n)
        self._aligned_pair = (
            csc_matrix((k_data, indices, indptr), shape=(n, n)),
            csc_matrix((a_data, indices, indptr), shape=(n, n)),
        )
        return self._aligned_pair

    def _operator(self, p_sys: float) -> csc_matrix:
        """``K + P A`` assembled on the cached shared sparsity pattern."""
        k, a = self._aligned()
        return csc_matrix(
            (k.data + p_sys * a.data, a.indices, a.indptr),
            shape=(self.n_nodes, self.n_nodes),
        )

    def _residual_operator(self, p_sys: float) -> csc_matrix:
        """``K + P A`` written over one reused matrix, for residual checks.

        Same operations, in the same order, as :meth:`_operator`, so the
        same bits; the next call overwrites it, so it never leaves the class.
        """
        op = self._residual_op
        if op is None:
            op = self._residual_op = self._operator(p_sys)
        else:
            k, a = self._aligned()
            np.multiply(p_sys, a.data, out=op.data)
            np.add(k.data, op.data, out=op.data)
        return op

    def _factorize(self, p_sys: float) -> Any:
        """A fresh LU of the operator at ``p_sys``; the first is the base."""
        with profiling.timer("thermal.factorize", nodes=self.n_nodes):
            try:
                lu = linalg.factorize(self._operator(p_sys))
            except LinalgError as exc:
                raise ThermalError(
                    "thermal system is singular; some nodes may be "
                    "thermally isolated from the coolant"
                ) from exc
        profiling.increment("thermal.factorizations")
        if self._base is None:
            self._base = (quantize_key(p_sys), lu)
        return lu

    # -- solves ----------------------------------------------------------

    def solve(self, p_sys: float, exact: bool = False) -> np.ndarray:
        """Node temperatures at one system pressure drop.

        Args:
            p_sys: System pressure drop in Pa (> 0).
            exact: Bypass the incremental pressure-shift path and solve
                through an exact factorization.  Final scoring passes
                ``True`` so results never depend on whether incremental
                updates are enabled.
        """
        return self.solve_flagged(p_sys, exact)[0]

    def solve_flagged(
        self, p_sys: float, exact: bool = False
    ) -> Tuple[np.ndarray, bool]:
        """:meth:`solve`, plus whether an exact factorization answered
        (``False`` only for an accepted pressure-shift answer)."""
        if p_sys <= 0:
            raise ThermalError(
                f"system pressure must be positive for a steady solution, "
                f"got {p_sys}"
            )
        temperatures: Optional[np.ndarray] = None
        base = self._base
        if base is not None and quantize_key(p_sys) == base[0]:
            lu = base[1]
        else:
            if not exact:
                temperatures = self._solve_incremental(p_sys)
            lu = None if temperatures is not None else self._factorize(p_sys)
        from_lu = temperatures is None
        if temperatures is None:
            with profiling.timer("thermal.solve", nodes=self.n_nodes):
                temperatures = lu.solve(self.rhs(p_sys))
            profiling.increment("thermal.solves")
        if not np.all(np.isfinite(temperatures)):
            raise ThermalError("thermal solve produced non-finite temperatures")
        return temperatures, from_lu

    # -- incremental pressure-shift path ---------------------------------

    def _solve_incremental(self, p_sys: float) -> Optional[np.ndarray]:
        """A Woodbury solve at ``p_sys``, or ``None`` to use the exact path.

        Applicable once a base factorization exists and :meth:`shift_pays`.
        The result is accepted only if its relative residual on the *true*
        operator at ``p_sys`` meets ``residual_rtol``; otherwise the
        caller refactorizes exactly (and the fallback is counted).
        """
        config = linalg.current_config()
        if not config.incremental:
            return None
        shift = self._shift
        if shift is None:
            # The first solve establishes the exact base.
            if self._base is None or not self.shift_pays():
                return None
            shift = self._build_shift(*self._base)
        rhs = self.rhs(p_sys)
        dp = p_sys - shift.p0
        with profiling.timer("linalg.incremental_solve"):
            y = shift.factor.solve(rhs)
            if shift.rows.size == 0:
                x = y
            else:
                r = shift.rows.size
                cap = shift.m + np.eye(r) / dp
                try:
                    z = np.linalg.solve(cap, shift.vt @ y)
                except np.linalg.LinAlgError:
                    profiling.increment("linalg.incremental_fallbacks")
                    return None
                x = y - shift.w @ z
        residual = self._residual_operator(p_sys) @ x - rhs
        scale = max(float(np.max(np.abs(rhs))), 1.0)
        if (
            not np.all(np.isfinite(x))
            or float(np.max(np.abs(residual))) > config.residual_rtol * scale
        ):
            profiling.increment("linalg.incremental_fallbacks")
            return None
        profiling.increment("linalg.incremental_solves")
        return corrupt(SITE_LINALG_UPDATE, x)

    def advected_rows(self) -> np.ndarray:
        """Sorted node indices of the advection operator's nonzero rows."""
        if self._advected is None:
            advection = self.advection.tocoo()
            self._advected = np.unique(advection.row[advection.data != 0.0])
        return self._advected

    def shift_pays(self) -> bool:
        """Whether the advected-row rank is small enough for the shift path."""
        rank = self.advected_rows().size
        return rank <= SHIFT_RANK_PER_SQRT_NODE * np.sqrt(self.n_nodes)

    def _build_shift(self, p0: float, factor: Any) -> _PressureShiftState:
        """Build the pressure-shift state on the base factorization."""
        rows = self.advected_rows()
        vt = self.advection.tocsr()[rows, :]
        w = np.empty((self.n_nodes, rows.size))
        for start in range(0, rows.size, self.SHIFT_BLOCK_COLUMNS):
            block = rows[start : start + self.SHIFT_BLOCK_COLUMNS]
            unit = np.zeros((self.n_nodes, block.size))
            unit[block, np.arange(block.size)] = 1.0
            w[:, start : start + block.size] = factor.solve_many(unit)
        m = np.asarray(vt @ w)
        shift = self._shift = _PressureShiftState(
            p0=p0, factor=factor, rows=rows, vt=vt, w=w, m=m
        )
        profiling.increment("linalg.shift_bases")
        profiling.observe(
            "linalg.shift_rank", rows.size, bounds=profiling.SIZE_BUCKET_BOUNDS
        )
        return shift

    def system_matrix(self, p_sys: float) -> csc_matrix:
        """The assembled operator at ``p_sys`` (used by the transient solver)."""
        return self._operator(p_sys)

    def rhs(self, p_sys: float) -> np.ndarray:
        """Right-hand side (sources + inlet enthalpy) at ``p_sys``."""
        return self.rhs_static + p_sys * self.rhs_advection


def check_stack(stack: Stack, top_bc: Optional[Tuple[float, float]]) -> None:
    """Reject adjacent channel layers (no solid interface couples them) and
    a negative ambient coefficient in the top boundary ``(h, T_amb)``."""
    layers = stack.layers
    for below, above in zip(layers, layers[1:]):
        if isinstance(below, ChannelLayer) and isinstance(above, ChannelLayer):
            raise GeometryError(
                f"adjacent channel layers {below.name!r} / {above.name!r} "
                "are not supported (no solid interface between them)"
            )
    if top_bc is not None and top_bc[0] < 0:
        raise ThermalError(
            f"ambient heat transfer coefficient must be >= 0, got {top_bc[0]}"
        )


def linear_system(
    steady: Any, builder: ConductanceBuilder, rhs_static: np.ndarray
) -> LinearThermalSystem:
    """A simulator's system: its conductances and static sources, plus the
    advection of its ``_specs`` in its scheme."""
    advection, rhs_adv = assemble_advection(
        steady.n_nodes,
        steady._specs,
        steady.coolant.volumetric_heat_capacity,
        steady.inlet_temperature,
        scheme=steady.advection_scheme,
    )
    return LinearThermalSystem(builder.build(), advection, rhs_static, rhs_adv)


def solve_steady(
    steady: Any, span: str, site: str, p_sys: float, exact: bool
) -> ThermalResult:
    """The body of both simulators' ``solve``, under their span and fault
    site.  ``exact=True`` bypasses the incremental path (final scoring);
    the result's ``exact`` says whether an exact factorization answered.

    Args:
        p_sys: System pressure drop.  [unit: Pa]
    """
    with profiling.span(span, cells=steady.n_nodes):
        temperatures, from_lu = steady.system.solve_flagged(p_sys, exact)
        temperatures = corrupt(site, temperatures)
        if not np.all(np.isfinite(temperatures)):
            raise ThermalError(
                f"{steady.model_name} solve produced non-finite temperatures"
            )
        result = package_result(steady, p_sys, temperatures)
        result.exact = from_lu
        return result


def package_result(
    steady: Any, p_sys: float, temperatures: np.ndarray
) -> ThermalResult:
    """A lazy result of a node temperature vector of either simulator:
    layer node ids are contiguous from ``steady._layer_starts`` and cover
    every cell, so the layers' node ``(min, max)`` are those of the cell
    maps ``steady._expand_fields`` builds on first use.

    Args:
        p_sys: System pressure drop.  [unit: Pa]
    """
    q_sys = sum(f.q_sys(p_sys) for f in steady.flow_fields)
    removed = 0.0
    c_v = steady.coolant.volumetric_heat_capacity
    for spec in steady._specs:
        t_nodes = temperatures[spec.node_ids]
        removed += c_v * p_sys * float(
            np.dot(spec.outlet_flows, t_nodes)
            - spec.inlet_flows.sum() * steady.inlet_temperature
        )
    return ThermalResult(
        p_sys=float(p_sys),
        q_sys=q_sys,
        w_pump=float(p_sys) * q_sys,
        layer_names=list(steady._layer_names),
        source_layer_indices=list(steady._source_layer_indices),
        inlet_temperature=steady.inlet_temperature,
        total_power=steady._total_power,
        coolant_heat_removed=removed,
        layer_extrema=(
            np.minimum.reduceat(temperatures, steady._layer_starts),
            np.maximum.reduceat(temperatures, steady._layer_starts),
        ),
        expand_fields=partial(steady._expand_fields, temperatures),
    )
