"""The one sparse factorization path: scipy SuperLU behind a typed front door.

Every sparse system in the repo -- the flow Laplacian, the 2RM/4RM thermal
operators, the transient and control steppers -- is factorized through
:func:`factorize`; ``tests/test_source_guards.py`` fails on raw
``splu``/``spilu``/``factorized`` anywhere outside :mod:`repro.linalg`, so
the error contract, the span and the timer live in this one place.

Error contract: SuperLU reports an exactly singular system as
``RuntimeError`` but only *warns* (``MatrixRankWarning``) on near-singular
ones; both -- and the ``ValueError``/``ArithmeticError`` shapes other
SuperLU entry points use -- surface as :class:`~repro.errors.LinalgError`.
Callers translate that into their domain error (``FlowError``/
``ThermalError``).
"""

from __future__ import annotations

import warnings
from typing import Any

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import MatrixRankWarning, splu

from .. import profiling
from ..errors import LinalgError


class Factorization:
    """A reusable SuperLU factorization of one square sparse matrix.

    Attributes:
        n: System dimension.
    """

    def __init__(self, lu: Any, n: int) -> None:
        self._lu = lu
        self.n = int(n)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for one right-hand side, shape ``(n,)``."""
        return np.asarray(self._lu.solve(np.asarray(rhs, dtype=float)))

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for an ``(n, k)`` block of right-hand sides in one call.

        SuperLU's solve accepts the block natively; a 1-D ``rhs`` passes
        through as a single solve.
        """
        return np.asarray(self._lu.solve(np.asarray(rhs, dtype=float)))


def _as_csc(matrix: Any) -> csc_matrix:
    converted = matrix.tocsc() if hasattr(matrix, "tocsc") else None
    if converted is None:
        raise LinalgError(
            f"expected a scipy sparse matrix, got {type(matrix).__name__}"
        )
    if converted.shape[0] != converted.shape[1]:
        raise LinalgError(f"system matrix must be square, got {converted.shape}")
    return converted


def factorize(matrix: csc_matrix) -> Factorization:
    """Factorize a square sparse ``matrix`` (converted to CSC as needed).

    Raises:
        LinalgError: On non-sparse or non-square input, or a singular or
            otherwise failed factorization.
    """
    system = _as_csc(matrix)
    with profiling.timer("linalg.factorize", nodes=system.shape[0]):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", MatrixRankWarning)
                lu = splu(system)
        except (
            RuntimeError,
            ValueError,
            ArithmeticError,
            MatrixRankWarning,
        ) as exc:
            raise LinalgError(f"SuperLU factorization failed: {exc}") from exc
    profiling.increment("linalg.factorizations")
    return Factorization(lu, system.shape[0])
