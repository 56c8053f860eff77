"""Simulated annealing: the outer loop of Algorithm 1, written once.

Kept deliberately problem-agnostic: states are opaque, moves come from a
``neighbor_fn`` and costs from a ``batch_cost_fn`` that scores a list of
states in one call and may return ``inf`` for infeasible candidates.  One
iteration proposes ``batch_size`` neighbours of the current state and scores
them together -- the paper's "64 neighboring N solutions are evaluated
simultaneously in each iteration"; hand
:func:`repro.optimize.parallel.evaluate_population` in to fan the work
across processes -- and the best of them faces Metropolis acceptance.  The
engine handles the paper's specifics: infinite scores, convergence
detection ("if W'_pump converges then return") and deterministic seeding.

:func:`anneal` is that loop, and every SA caller of the package runs it: the
staged flow (:mod:`repro.optimize.runner`), one call per SA round, and the
``multi_fidelity`` and ``sa_4rm`` portfolio strategies
(:mod:`repro.optimize.portfolio`), one call per portfolio round.  It
advances a :class:`Chain` -- rng, current and best states with their costs,
temperature -- and leaves it where it stopped, so a caller can checkpoint
:meth:`Chain.state` between calls and a resumed run replays bitwise.

The callers differ in one rule: how an unset temperature warms up
(:func:`warm_up_first_three` or :func:`warm_up_first_batch`).  Both rules
average only finite, non-zero cost deltas, so an infeasible incumbent
never sets an infinite temperature.  An optional ``observer`` receives each
iteration's progress fields (the ``sa.iteration`` run events).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from ..errors import SearchError


@dataclass
class SAConfig:
    """Annealing schedule parameters.

    Attributes:
        iterations: Number of proposal batches.
        initial_temperature: Starting temperature in cost units; ``None``
            derives it from the first few proposal deltas (the caller's
            warm-up rule).
        cooling_rate: Geometric temperature decay per iteration.
        seed: RNG seed (vary per round); an ``int`` or a
            ``np.random.SeedSequence`` (the staged flow derives per-round
            children via spawn keys).
        stall_limit: Stop early after this many iterations without improving
            the best cost (the convergence check of Algorithm 1, line 6);
            ``None`` disables.
    """

    iterations: int = 50
    initial_temperature: Optional[float] = None
    cooling_rate: float = 0.92
    seed: Union[int, np.random.SeedSequence] = 0
    stall_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise SearchError(f"need >= 1 iteration, got {self.iterations}")
        if not 0.0 < self.cooling_rate <= 1.0:
            raise SearchError(
                f"cooling rate must be in (0, 1], got {self.cooling_rate}"
            )


@dataclass
class SAHistory:
    """Trace of one :func:`anneal` call."""

    costs: List[float] = field(default_factory=list)
    best_costs: List[float] = field(default_factory=list)
    accepted: int = 0
    proposed: int = 0

    @property
    def acceptance_rate(self) -> float:
        """Share of proposals accepted."""
        return self.accepted / self.proposed if self.proposed else 0.0


#: Per-iteration progress hook: receives ``iteration`` (1-based count of
#: completed iterations), ``current_cost``, ``best_cost``, ``temperature``,
#: ``stall``, ``accepted`` and ``proposed``.
SAObserver = Callable[[Dict[str, Any]], None]

#: Scores a list of states in one call.
BatchCost = Callable[[List[Any]], Sequence[float]]

#: Warm-up rule: the finite, non-zero |delta| collected so far in this
#: call and the call's 0-based iteration -> the temperature scale, or
#: ``None`` to keep collecting.
WarmUp = Callable[[List[float], int], Optional[float]]


def warm_up_first_three(
    deltas: List[float], iteration: int
) -> Optional[float]:
    """The serial rule: the mean of the first three |delta|, or of those
    collected by the call's fifth iteration (1.0 when there are none)."""
    if len(deltas) >= 3 or iteration >= 4:
        return float(np.mean(deltas)) if deltas else 1.0
    return None


def warm_up_first_batch(
    deltas: List[float], iteration: int
) -> Optional[float]:
    """The batched rule: the mean |delta| of the first iteration that has
    any (the collection is empty until then)."""
    return float(np.mean(deltas)) if deltas else None


@dataclass
class Chain:
    """One annealing chain: where :func:`anneal` continues from."""

    rng: np.random.Generator
    current: Any
    current_cost: float
    best: Any
    best_cost: float
    #: ``None`` until the warm-up rule sets it.
    temperature: Optional[float] = None

    @classmethod
    def start(
        cls, state: Any, batch_cost_fn: BatchCost, config: SAConfig
    ) -> "Chain":
        """A fresh chain at ``state`` (scored once), seeded from
        ``config.seed``, at ``config.initial_temperature``."""
        cost = float(batch_cost_fn([state])[0])
        return cls(
            np.random.default_rng(config.seed), state, cost, state, cost,
            config.initial_temperature,
        )

    def state(self) -> Dict[str, Any]:
        """Checkpointable snapshot (the rng as its bit-generator state)."""
        return {
            "rng": self.rng.bit_generator.state,
            "current": self.current,
            "current_cost": self.current_cost,
            "best": self.best,
            "best_cost": self.best_cost,
            "temperature": self.temperature,
        }

    @classmethod
    def restore(cls, state: Mapping[str, Any]) -> "Chain":
        """The chain of a :meth:`state` snapshot (extra keys are ignored)."""
        # The seed is a placeholder: the snapshot's state replaces it.
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state["rng"]
        return cls(
            rng, state["current"], state["current_cost"], state["best"],
            state["best_cost"], state["temperature"],
        )


def _progress(
    iteration: int, chain: Chain, stall: int, history: SAHistory
) -> Dict[str, Any]:
    return {
        "iteration": iteration,
        "current_cost": chain.current_cost,
        "best_cost": chain.best_cost,
        "temperature": chain.temperature,
        "stall": stall,
        "accepted": history.accepted,
        "proposed": history.proposed,
    }


def anneal(
    chain: Chain,
    batch_cost_fn: BatchCost,
    neighbor_fn: Callable[[Any, np.random.Generator], Any],
    config: SAConfig,
    batch_size: int = 1,
    *,
    warm_up: WarmUp,
    observer: Optional[SAObserver] = None,
) -> SAHistory:
    """Advance ``chain`` by ``config.iterations`` iterations (fewer when
    ``config.stall_limit`` stops it); returns this call's history.

    Each iteration scores ``batch_size`` neighbours of the current state in
    one ``batch_cost_fn`` call; the best of them faces Metropolis
    acceptance, and every one of them can improve the best state.  Infinite
    costs are handled asymmetrically: a finite incumbent never accepts an
    infinite candidate, while an infinite incumbent accepts any candidate
    (random-walking out of the infeasible region).  ``config.seed`` and
    ``config.initial_temperature`` are :meth:`Chain.start`'s; the chain's
    own rng and temperature drive the loop.

    Args:
        warm_up: How an unset temperature is derived from the finite,
            non-zero cost deltas this call has seen.
        observer: Called with the progress fields (see :data:`SAObserver`)
            after every completed iteration.
    """
    if batch_size < 1:
        raise SearchError(f"batch size must be >= 1, got {batch_size}")
    rng = chain.rng
    history = SAHistory()
    deltas: List[float] = []
    stall = 0
    for iteration in range(config.iterations):
        batch = [neighbor_fn(chain.current, rng) for _ in range(batch_size)]
        costs = [float(c) for c in batch_cost_fn(batch)]
        history.proposed += batch_size
        pick = int(np.argmin(costs))

        if chain.temperature is None:
            for cost in costs:
                delta = abs(cost - chain.current_cost)
                if math.isfinite(delta) and delta != 0.0:
                    deltas.append(delta)
            scale = warm_up(deltas, iteration)
            if scale is not None:
                chain.temperature = max(scale, 1e-12)
        effective_t = (
            chain.temperature
            if chain.temperature is not None
            else max(
                abs(chain.current_cost)
                if math.isfinite(chain.current_cost)
                else 1.0,
                1e-12,
            )
        )
        if _accept(chain.current_cost, costs[pick], effective_t, rng):
            chain.current, chain.current_cost = batch[pick], costs[pick]
            history.accepted += 1
        improved = False
        for state, cost in zip(batch, costs):
            if cost < chain.best_cost:
                chain.best, chain.best_cost = state, cost
                improved = True
        stall = 0 if improved else stall + 1
        history.costs.append(chain.current_cost)
        history.best_costs.append(chain.best_cost)
        if chain.temperature is not None:
            chain.temperature *= config.cooling_rate
        if observer is not None:
            observer(_progress(iteration + 1, chain, stall, history))
        if config.stall_limit is not None and stall >= config.stall_limit:
            break
    return history


def _accept(
    current: float, candidate: float, temperature: float, rng: np.random.Generator
) -> bool:
    if candidate <= current:
        return True
    if math.isinf(candidate):
        # Both infinite: keep moving; candidate infinite alone: reject.
        return math.isinf(current)
    if math.isinf(current):
        return True
    return rng.random() < math.exp(-(candidate - current) / temperature)
