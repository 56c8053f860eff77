"""Physical constants and default model parameters.

All quantities are in SI units (m, kg, s, K, W, Pa) unless the name says
otherwise.  The values mirror the ICCAD 2015 contest / 3D-ICE conventions the
paper builds on: water coolant injected at 300 K into 100 um wide channels.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Geometry defaults (ICCAD 2015 contest benchmarks, Section 6 of the paper)
# ---------------------------------------------------------------------------

#: Width of a basic cell / microchannel, in meters (100 um).
CELL_WIDTH = 100e-6  #: [unit: m]

#: Die edge length of the contest benchmarks, in meters (10.1 mm).
CONTEST_DIE_SIZE = 10.1e-3  #: [unit: m]

#: Number of basic cells per side in the contest benchmarks (101 x 101).
CONTEST_GRID_SIZE = 101  #: [unit: 1]

#: Default channel heights used by the contest cases, in meters.
CHANNEL_HEIGHT_200UM = 200e-6  #: [unit: m]
CHANNEL_HEIGHT_400UM = 400e-6  #: [unit: m]

#: Default silicon bulk thickness per die, in meters.
DIE_BULK_THICKNESS = 50e-6  #: [unit: m]

#: Default active (source) layer thickness, in meters.
SOURCE_LAYER_THICKNESS = 2e-6  #: [unit: m]

# ---------------------------------------------------------------------------
# Coolant operating point
# ---------------------------------------------------------------------------

#: Coolant temperature at every inlet, in kelvin (Section 6: 300 K).
INLET_TEMPERATURE = 300.0  #: [unit: K]

#: Ambient temperature used by convective top boundaries, in kelvin.
AMBIENT_TEMPERATURE = 300.0  #: [unit: K]

# ---------------------------------------------------------------------------
# Laminar forced convection
# ---------------------------------------------------------------------------

#: Nusselt number for fully developed laminar flow in a rectangular duct with
#: four heated walls (Shah & London, 1978).  The exact value depends on the
#: aspect ratio; 4.86 corresponds to the aspect ratios of the contest channels
#: and is the constant 3D-ICE adopts.
NUSSELT_NUMBER = 4.86  #: [unit: 1]

#: Poiseuille shape constant in ``g = D_h^2 A_c / (C l mu)`` (Eq. 1).
POISEUILLE_CONSTANT = 32.0  #: [unit: 1]

#: Default scaling applied to the inlet/outlet edge conductance relative to a
#: full cell-to-cell conductance.  The paper only states the edge conductance
#: is "smaller"; 0.5 models the half-length path with an entrance-loss
#: penalty and is ablated in ``benchmarks/bench_ablation_edge_factor.py``.
EDGE_CONDUCTANCE_FACTOR = 0.5  #: [unit: 1]

# ---------------------------------------------------------------------------
# Numerical tolerances
# ---------------------------------------------------------------------------

#: Relative tolerance for volume / energy conservation checks.
CONSERVATION_RTOL = 1e-8  #: [unit: 1]

#: Default convergence tolerance of the pressure searches (Algorithm 3).
PRESSURE_SEARCH_RTOL = 1e-3  #: [unit: 1]

#: Initial pressure probed by Algorithm 3, in pascal.
PRESSURE_INIT = 10e3  #: [unit: Pa]

#: Initial step ratio of Algorithm 3 (``r_init``).
PRESSURE_INIT_STEP_RATIO = 0.25  #: [unit: 1]

#: Hard bounds on the system pressure drop considered physical, in pascal.
#: Integrated micropumps deliver on the order of tens of kPa (the paper's
#: operating points are 5-46 kPa); 200 kPa is a generous packaging limit.
PRESSURE_MIN = 1.0  #: [unit: Pa]
PRESSURE_MAX = 2e5  #: [unit: Pa]

# ---------------------------------------------------------------------------
# Parallel-pool resilience (repro.optimize.parallel)
# ---------------------------------------------------------------------------

#: Per-batch no-progress timeout of the persistent evaluation pool: if no
#: candidate completes for this long the batch is declared hung.  Generous --
#: a single 4RM candidate on a contest-size case stays well under a minute.
CANDIDATE_TIMEOUT = 600.0  #: [unit: s]

#: Batch retries (after the first attempt) before a pool failure propagates.
POOL_MAX_RETRIES = 2  #: [unit: 1]

#: First retry backoff; doubles per retry up to :data:`POOL_BACKOFF_MAX`.
POOL_BACKOFF_BASE = 0.05  #: [unit: s]

#: Ceiling on the exponential retry backoff.
POOL_BACKOFF_MAX = 2.0  #: [unit: s]

#: Consecutive failed batches after which a pool permanently degrades to
#: serial in-process evaluation (correctness over throughput).
POOL_DEGRADE_AFTER = 3  #: [unit: 1]

#: Decimal places a pressure is rounded to before it keys a memoized result
#: (thermal-result caches, LU caches, search memoizers).  1e-6 Pa resolution
#: is ~1e-9 of the physical pressures above, far below PRESSURE_SEARCH_RTOL,
#: so quantization never changes a search decision -- it only lets re-probes
#: of epsilon-perturbed pressures hit the caches they logically should.
PRESSURE_KEY_DECIMALS = 6  #: [unit: 1]


def quantize_key(value: float, decimals: int = PRESSURE_KEY_DECIMALS) -> float:
    """Quantize a float before it keys a memoized result.

    Every cache in the repo that is keyed by a pressure (or any other float)
    must round through this helper so that epsilon-perturbed re-probes of the
    same operating point hit the cache instead of growing it.  The R2 lint
    rule (``repro.lint``) flags float-valued cache keys that bypass it.

    Args:
        value: The float to quantize, in whatever unit the caller keys
            by -- deliberately unit-polymorphic.  [unit: any]
        decimals: Rounding resolution.  [unit: 1]

    Returns:
        The rounded value, unchanged in unit.  [unit-return: any]
    """
    return round(float(value), decimals)
