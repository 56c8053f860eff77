"""Process-wide solver configuration, shippable to pool workers.

:class:`LinalgConfig` mirrors the :class:`~repro.profiling.TelemetryConfig`
pattern: a small frozen (hashable, picklable) dataclass captured with
:meth:`LinalgConfig.current` in the parent, handed to every evaluation
pool worker as it starts, re-armed worker-side with
:meth:`LinalgConfig.apply`, and part of the shared pool's key so flipping
any knob never reuses workers armed with a stale setup.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

from ..errors import LinalgError

#: Default relative residual above which an incremental solve falls back to
#: an exact factorization.
DEFAULT_RESIDUAL_RTOL = 1e-8  #: [unit: 1]


@dataclass(frozen=True)
class LinalgConfig:
    """The sparse-solver knobs one process runs with.

    Attributes:
        incremental: Whether pressure probes use the Woodbury
            pressure-shift path on systems whose advected-row rank it
            pays for (see ``LinearThermalSystem.shift_pays``); exact
            solves are unaffected.
        residual_rtol: Relative residual bound an incremental solve must
            meet, else it is discarded in favor of an exact solve.
    """

    incremental: bool = True
    residual_rtol: float = DEFAULT_RESIDUAL_RTOL

    def __post_init__(self) -> None:
        if not self.residual_rtol > 0:
            raise LinalgError(
                f"residual_rtol must be > 0, got {self.residual_rtol}"
            )

    @classmethod
    def current(cls) -> "LinalgConfig":
        """The live configuration of this process."""
        return _ACTIVE

    def apply(self) -> None:
        """Make this the live configuration (worker-side re-arm)."""
        set_config(self)


_ACTIVE = LinalgConfig()


def current_config() -> LinalgConfig:
    """The live :class:`LinalgConfig` of this process."""
    return _ACTIVE


def set_config(config: LinalgConfig) -> LinalgConfig:
    """Install ``config`` process-wide; returns the previous one."""
    global _ACTIVE
    if not isinstance(config, LinalgConfig):
        raise LinalgError(
            f"expected a LinalgConfig, got {type(config).__name__}"
        )
    previous = _ACTIVE
    _ACTIVE = config
    return previous


def reset_config() -> None:
    """Restore the default configuration (mainly for tests)."""
    set_config(LinalgConfig())


@contextmanager
def use_config(**overrides: object) -> Iterator[LinalgConfig]:
    """Temporarily override configuration fields::

        with use_config(incremental=False):
            ...  # every solve in the block refactorizes exactly
    """
    previous = _ACTIVE
    active = replace(previous, **overrides)  # type: ignore[arg-type]
    set_config(active)
    try:
        yield active
    finally:
        set_config(previous)
