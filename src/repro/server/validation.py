"""Submission-payload validation: doomed jobs are rejected at the door.

Everything a client can put in a ``POST /v1/jobs`` body is checked here,
*before* anything touches the job store: a job that would fail in the
executor with certainty (NaN power map, oversize grid, unknown optimizer)
must cost a typed 4xx, not a queue slot, a worker thread, and three retry
attempts ending in quarantine.

The validated spec is a plain JSON-serializable dict -- exactly what goes
into the durable job record -- and fully determines the deterministic work
(:mod:`repro.server.executor` rebuilds the case and config from it alone).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from ..errors import BenchmarkError, JobValidationError
from ..optimize.registry import DEFAULT_PORTFOLIO, optimizer_names

__all__ = [
    "MAX_GRID_SIZE",
    "MAX_N_WORKERS",
    "SPEC_LIMITS",
    "validate_submission",
]

#: Largest service-accepted footprint (basic cells per side).  Contest
#: cases are 51; anything past this knob is a resource-exhaustion vector,
#: not a design problem.
MAX_GRID_SIZE = 101  #: [unit: 1]

#: Smallest meaningful footprint (matches the case generator's floor).
MIN_GRID_SIZE = 9  #: [unit: 1]

#: Per-knob caps on the optimizer schedule, bounding one job's cost.
SPEC_LIMITS: Dict[str, int] = {
    "rounds": 64,
    "iterations": 256,
    "batch_size": 64,
}

#: Payload keys a submission may carry.  Unknown keys are rejected --
#: a typo'd knob silently falling back to a default is a doomed job of a
#: subtler kind.
_ALLOWED_KEYS = frozenset(
    {
        "case",
        "case_seed",
        "grid",
        "problem",
        "optimizers",
        "rounds",
        "iterations",
        "batch_size",
        "seed",
        "power_maps",
        "max_attempts",
        "n_workers",
    }
)

#: Cap on per-job evaluation pool processes (resource bound, like the
#: schedule caps above: one job must not fork the host to its knees).
MAX_N_WORKERS = 8  #: [unit: 1]


def _require_int(
    payload: Dict[str, Any],
    key: str,
    default: Optional[int],
    minimum: int,
    maximum: int,
) -> Optional[int]:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobValidationError(
            f"{key} must be an integer, got {type(value).__name__}", field=key
        )
    if not minimum <= value <= maximum:
        raise JobValidationError(
            f"{key} must be in [{minimum}, {maximum}], got {value}", field=key
        )
    return value


def _validate_power_maps(raw: Any) -> List[List[List[float]]]:
    """Inline power-map override: finite, non-negative, rectangular."""
    if not isinstance(raw, list) or not raw:
        raise JobValidationError(
            "power_maps must be a non-empty list of 2-D arrays",
            field="power_maps",
        )
    maps: List[List[List[float]]] = []
    for die, rows in enumerate(raw):
        if not isinstance(rows, list) or not rows or not all(
            isinstance(row, list) and row for row in rows
        ):
            raise JobValidationError(
                f"power_maps[{die}] must be a non-empty 2-D array",
                field="power_maps",
            )
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise JobValidationError(
                f"power_maps[{die}] is ragged (rows of different lengths)",
                field="power_maps",
            )
        if len(rows) > MAX_GRID_SIZE or width > MAX_GRID_SIZE:
            raise JobValidationError(
                f"power_maps[{die}] is {len(rows)}x{width}; the service "
                f"caps footprints at {MAX_GRID_SIZE}x{MAX_GRID_SIZE}",
                field="power_maps",
            )
        clean: List[List[float]] = []
        for r, row in enumerate(rows):
            out_row: List[float] = []
            for c, cell in enumerate(row):
                if isinstance(cell, bool) or not isinstance(
                    cell, (int, float)
                ):
                    raise JobValidationError(
                        f"power_maps[{die}][{r}][{c}] is not a number",
                        field="power_maps",
                    )
                value = float(cell)
                if math.isnan(value):
                    raise JobValidationError(
                        f"power_maps[{die}][{r}][{c}] is NaN",
                        field="power_maps",
                    )
                if math.isinf(value):
                    raise JobValidationError(
                        f"power_maps[{die}][{r}][{c}] is infinite",
                        field="power_maps",
                    )
                if value < 0.0:
                    raise JobValidationError(
                        f"power_maps[{die}][{r}][{c}] is negative "
                        f"({value}); power densities are non-negative",
                        field="power_maps",
                    )
                out_row.append(value)
            clean.append(out_row)
        maps.append(clean)
    return maps


def validate_submission(payload: Any) -> Dict[str, Any]:
    """Validate one submission payload into a durable job spec.

    Args:
        payload: The parsed JSON request body.

    Returns:
        A JSON-serializable spec dict with every knob present and typed
        (missing optional knobs filled with their defaults).

    Raises:
        JobValidationError: On every malformed, out-of-range, unknown, or
            doomed-by-construction payload; ``field`` names the offender.
    """
    if not isinstance(payload, dict):
        raise JobValidationError(
            f"submission body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _ALLOWED_KEYS)
    if unknown:
        raise JobValidationError(
            f"unknown submission keys: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(_ALLOWED_KEYS))})",
            field=unknown[0],
        )

    case = _require_int(payload, "case", None, 1, 5)
    case_seed = _require_int(payload, "case_seed", None, 0, 2**31 - 1)
    if (case is None) == (case_seed is None):
        raise JobValidationError(
            "exactly one of 'case' (contest case 1-5) or 'case_seed' "
            "(generated case) is required",
            field="case" if case is not None else "case_seed",
        )
    grid = _require_int(payload, "grid", None, MIN_GRID_SIZE, MAX_GRID_SIZE)

    problem = _require_int(payload, "problem", 1, 1, 2)
    seed = _require_int(payload, "seed", 0, 0, 2**31 - 1)
    max_attempts = _require_int(payload, "max_attempts", 3, 1, 10)
    n_workers = _require_int(payload, "n_workers", 1, 1, MAX_N_WORKERS)

    schedule = {
        key: _require_int(payload, key, default, 1, SPEC_LIMITS[key])
        for key, default in (
            ("rounds", 2),
            ("iterations", 4),
            ("batch_size", 4),
        )
    }

    optimizers = payload.get("optimizers", list(DEFAULT_PORTFOLIO))
    if (
        not isinstance(optimizers, list)
        or not optimizers
        or not all(isinstance(name, str) for name in optimizers)
    ):
        raise JobValidationError(
            "optimizers must be a non-empty list of registry names",
            field="optimizers",
        )
    registered = optimizer_names()
    unknown_opts = sorted(set(optimizers) - set(registered))
    if unknown_opts:
        raise JobValidationError(
            f"unknown optimizer(s): {', '.join(unknown_opts)}; "
            f"registered: {', '.join(registered)}",
            field="optimizers",
        )

    power_maps: Optional[List[List[List[float]]]] = None
    if "power_maps" in payload:
        power_maps = _validate_power_maps(payload["power_maps"])

    spec = {
        "case": case,
        "case_seed": case_seed,
        "grid": grid,
        "problem": problem,
        "optimizers": list(optimizers),
        "rounds": schedule["rounds"],
        "iterations": schedule["iterations"],
        "batch_size": schedule["batch_size"],
        "seed": seed,
        "max_attempts": max_attempts,
        "power_maps": power_maps,
        "n_workers": n_workers,
    }

    # Prove the spec constructs: materialize the case once at the door so
    # an impossible geometry (grid too small for the contest TSV pattern,
    # power-map shape mismatch) is a 400 here, not a quarantined job after
    # max_attempts in the queue.  Bounded by MAX_GRID_SIZE above.
    from .executor import case_from_spec  # deferred: keeps import light

    try:
        case_from_spec(spec)
    except BenchmarkError as exc:
        raise JobValidationError(f"spec does not construct: {exc}") from exc
    return spec
