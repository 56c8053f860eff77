"""The optimizer registry behind the portfolio runner.

Every search strategy the portfolio can race -- the staged SA flow and the
portfolio-native optimizers (multi-fidelity and pure-4RM SA) -- registers
itself here under a stable name.  The registry is the seam between *what*
searches (an :class:`~repro.optimize.portfolio.RoundOptimizer` subclass)
and *how* runs are orchestrated
(:func:`~repro.optimize.portfolio.run_portfolio`): the runner looks
strategies up by name, so CLI flags, benchmark configs, and checkpoints all
refer to optimizers by string.

Registration is import-time and idempotent by name collision check; the
portfolio and runner modules register the built-ins when they are
imported, so ``get_optimizer`` lazily imports them on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..errors import SearchError


@dataclass(frozen=True)
class OptimizerEntry:
    """One registered search strategy.

    Attributes:
        name: Stable registry key (CLI / checkpoint / bench identifier).
        factory: Zero-argument callable producing a fresh optimizer
            instance (a ``RoundOptimizer``; typed loosely to keep this
            module import-light).
        description: One-line human-readable summary.
    """

    name: str
    factory: Callable[[], object]
    description: str


_REGISTRY: Dict[str, OptimizerEntry] = {}

#: The strategies raced when a caller names none (the CLI's ``portfolio``
#: command and the design service).
DEFAULT_PORTFOLIO: Tuple[str, ...] = ("multi_fidelity",)


def register_optimizer(
    name: str, description: str
) -> Callable[[Callable[[], object]], Callable[[], object]]:
    """Class/factory decorator registering an optimizer under ``name``."""

    def decorate(factory: Callable[[], object]) -> Callable[[], object]:
        if name in _REGISTRY:
            raise SearchError(f"optimizer {name!r} is already registered")
        _REGISTRY[name] = OptimizerEntry(
            name=name, factory=factory, description=description
        )
        return factory

    return decorate


def _ensure_builtins() -> None:
    """Import the built-in strategies' modules so they self-register."""
    if "staged_sa" not in _REGISTRY:
        # Import-time registration.
        from . import portfolio, runner  # noqa: F401


def get_optimizer(name: str) -> OptimizerEntry:
    """Look an optimizer up by registry name.

    Raises:
        SearchError: Unknown name (the message lists what is registered).
    """
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SearchError(
            f"unknown optimizer {name!r}; registered: "
            f"{', '.join(optimizer_names())}"
        ) from None


def optimizer_names() -> Tuple[str, ...]:
    """All registered optimizer names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))
