"""Sparse linear algebra: one factorization path, one process-wide config.

Public surface:

* :func:`~repro.linalg.superlu.factorize` -- the single sanctioned entry
  point for sparse factorizations (``tests/test_source_guards.py`` fails
  on ``splu`` anywhere else).  Runs scipy SuperLU and returns a
  :class:`~repro.linalg.superlu.Factorization` answering single and
  multi-RHS solves; every failure surfaces as a typed ``LinalgError``.
* :class:`~repro.linalg.config.LinalgConfig` -- the picklable process-wide
  configuration of the thermal pressure-shift path (incremental on/off,
  residual tolerance), shipped to evaluation-pool workers exactly like the
  fault plan and telemetry config.

See ``docs/SOLVER_CACHES.md`` for the pressure-shift semantics and the
measured rank cut between the shift and exact refactorization.
"""

from __future__ import annotations

from .config import (
    DEFAULT_RESIDUAL_RTOL,
    LinalgConfig,
    current_config,
    reset_config,
    set_config,
    use_config,
)
from .superlu import Factorization, factorize

__all__ = [
    "DEFAULT_RESIDUAL_RTOL",
    "Factorization",
    "LinalgConfig",
    "current_config",
    "factorize",
    "reset_config",
    "set_config",
    "use_config",
]
