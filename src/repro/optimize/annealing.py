"""Generic simulated annealing engine (the outer loop of Algorithm 1).

Kept deliberately problem-agnostic: states are opaque, moves come from a
``neighbor_fn`` and costs from a ``cost_fn`` that may return ``inf`` for
infeasible candidates.  The engine handles the paper's specifics -- infinite
scores, convergence detection ("if W'_pump converges then return") and
deterministic seeding for multi-round schedules.

One call runs one SA round.  Rounds are the unit of resumption: the staged
flow (:mod:`repro.optimize.runner`) checkpoints between rounds, and every
round derives its RNG from its own seed, so a resumed run replays bitwise.
An optional ``observer`` receives each iteration's progress fields (the
``sa.iteration`` run events).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import SearchError


@dataclass
class SAConfig:
    """Annealing schedule parameters.

    Attributes:
        iterations: Number of proposals.
        initial_temperature: Starting temperature in cost units; ``None``
            derives it from the dispersion of the first few proposal deltas.
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
    """Trace of one annealing run."""

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


def _progress(
    iteration: int,
    current_cost: float,
    best_cost: float,
    temperature: Optional[float],
    stall: int,
    history: SAHistory,
) -> Dict[str, Any]:
    return {
        "iteration": iteration,
        "current_cost": current_cost,
        "best_cost": best_cost,
        "temperature": temperature,
        "stall": stall,
        "accepted": history.accepted,
        "proposed": history.proposed,
    }


def simulated_annealing(
    initial_state: Any,
    cost_fn: Callable[[Any], float],
    neighbor_fn: Callable[[Any, np.random.Generator], Any],
    config: SAConfig,
    observer: Optional[SAObserver] = None,
) -> Tuple[Any, float, SAHistory]:
    """Run one SA round; returns ``(best_state, best_cost, history)``.

    Infinite costs are handled asymmetrically: a finite incumbent never
    accepts an infinite candidate, while an infinite incumbent accepts any
    candidate (random-walking out of the infeasible region).

    Args:
        observer: Called with the progress fields (see :data:`SAObserver`)
            after every completed iteration.
    """
    rng = np.random.default_rng(config.seed)
    current = initial_state
    current_cost = float(cost_fn(current))
    best, best_cost = current, current_cost
    history = SAHistory()
    temperature = config.initial_temperature
    warmup_deltas: List[float] = []
    stall = 0

    for iteration in range(config.iterations):
        candidate = neighbor_fn(current, rng)
        candidate_cost = float(cost_fn(candidate))
        history.proposed += 1
        delta = candidate_cost - current_cost

        if temperature is None:
            if math.isfinite(delta) and delta != 0.0:
                warmup_deltas.append(abs(delta))
            if len(warmup_deltas) >= 3 or iteration >= 4:
                scale = (
                    float(np.mean(warmup_deltas)) if warmup_deltas else 1.0
                )
                temperature = max(scale, 1e-12)
        effective_t = (
            temperature
            if temperature is not None
            else max(abs(current_cost) if math.isfinite(current_cost) else 1.0, 1e-12)
        )

        accept = _accept(current_cost, candidate_cost, effective_t, rng)
        if accept:
            current, current_cost = candidate, candidate_cost
            history.accepted += 1
        if candidate_cost < best_cost:
            best, best_cost = candidate, candidate_cost
            stall = 0
        else:
            stall += 1
        history.costs.append(current_cost)
        history.best_costs.append(best_cost)
        if temperature is not None:
            temperature *= config.cooling_rate
        if observer is not None:
            observer(
                _progress(
                    iteration + 1, current_cost, best_cost, temperature,
                    stall, history,
                )
            )
        if config.stall_limit is not None and stall >= config.stall_limit:
            break
    return best, best_cost, history


def simulated_annealing_batch(
    initial_state: Any,
    batch_cost_fn: Callable[[List[Any]], List[float]],
    neighbor_fn: Callable[[Any, np.random.Generator], Any],
    config: SAConfig,
    batch_size: int,
    observer: Optional[SAObserver] = None,
) -> Tuple[Any, float, SAHistory]:
    """Batched SA: evaluate several neighbors per iteration, move to the best.

    Reproduces the paper's parallel neighbor evaluation ("64 neighboring N
    solutions are evaluated simultaneously in each iteration"): the batch is
    scored in one call -- hand :func:`repro.optimize.parallel.evaluate_population`
    in as ``batch_cost_fn`` to fan the work across processes -- and the best
    candidate faces the usual Metropolis acceptance.

    ``observer`` gets the same per-iteration progress fields as in
    :func:`simulated_annealing`.
    """
    if batch_size < 1:
        raise SearchError(f"batch size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(config.seed)
    current = initial_state
    current_cost = float(batch_cost_fn([current])[0])
    best, best_cost = current, current_cost
    history = SAHistory()
    temperature = config.initial_temperature
    stall = 0

    for iteration in range(config.iterations):
        batch = [neighbor_fn(current, rng) for _ in range(batch_size)]
        costs = [float(c) for c in batch_cost_fn(batch)]
        history.proposed += len(batch)
        pick = int(np.argmin(costs))
        candidate, candidate_cost = batch[pick], costs[pick]

        if temperature is None:
            finite = [
                abs(c - current_cost)
                for c in costs
                if math.isfinite(c) and c != current_cost
            ]
            if finite:
                temperature = max(float(np.mean(finite)), 1e-12)
        effective_t = temperature if temperature is not None else max(
            abs(current_cost) if math.isfinite(current_cost) else 1.0, 1e-12
        )
        if _accept(current_cost, candidate_cost, effective_t, rng):
            current, current_cost = candidate, candidate_cost
            history.accepted += 1
        improved = False
        for state, cost in zip(batch, costs):
            if cost < best_cost:
                best, best_cost = state, cost
                improved = True
        stall = 0 if improved else stall + 1
        history.costs.append(current_cost)
        history.best_costs.append(best_cost)
        if temperature is not None:
            temperature *= config.cooling_rate
        if observer is not None:
            observer(
                _progress(
                    iteration + 1, current_cost, best_cost, temperature,
                    stall, history,
                )
            )
        if config.stall_limit is not None and stall >= config.stall_limit:
            break
    return best, best_cost, history


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
