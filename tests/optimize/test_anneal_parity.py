"""The one loop replays the three SA loops it replaced, bitwise.

The package used to run three copies of the Metropolis loop: a serial
``simulated_annealing``, a batched ``simulated_annealing_batch`` and the
portfolio's per-round ``RoundOptimizer._anneal_round``.  Their last versions
are kept below as reference copies (test-only).  On feasible starts
:func:`repro.optimize.annealing.anneal` must reproduce each of them exactly:
best state and cost, the history lists and counts, every observer record,
the final rng bit-generator state and the final temperature.

From an infeasible start the batched copies diverge on purpose: they
averaged ``abs(c - inf)`` into an infinite temperature, which the one loop
no longer does (see ``test_infeasible_start_diverges_on_purpose``).
"""

import math
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

import numpy as np
import pytest

from repro.cases import generate_case
from repro.optimize.annealing import (
    Chain,
    SAConfig,
    SAHistory,
    anneal,
    warm_up_first_batch,
    warm_up_first_three,
)
from repro.optimize.portfolio import (
    COOLING_RATE,
    MultiFidelityOptimizer,
    OptimizerContext,
    PortfolioConfig,
)

# ---------------------------------------------------------------------------
# Reference copies of the replaced loops
# ---------------------------------------------------------------------------


def _ref_accept(current, candidate, temperature, rng):
    if candidate <= current:
        return True
    if math.isinf(candidate):
        return math.isinf(current)
    if math.isinf(current):
        return True
    return rng.random() < math.exp(-(candidate - current) / temperature)


def _ref_progress(iteration, current_cost, best_cost, temperature, stall,
                  history):
    return {
        "iteration": iteration,
        "current_cost": current_cost,
        "best_cost": best_cost,
        "temperature": temperature,
        "stall": stall,
        "accepted": history.accepted,
        "proposed": history.proposed,
    }


def ref_simulated_annealing(initial_state, cost_fn, neighbor_fn, config,
                            observer=None):
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

        accept = _ref_accept(current_cost, candidate_cost, effective_t, rng)
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
                _ref_progress(
                    iteration + 1, current_cost, best_cost, temperature,
                    stall, history,
                )
            )
        if config.stall_limit is not None and stall >= config.stall_limit:
            break
    return best, best_cost, history


def ref_simulated_annealing_batch(initial_state, batch_cost_fn, neighbor_fn,
                                  config, batch_size, observer=None):
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
        if _ref_accept(current_cost, candidate_cost, effective_t, rng):
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
                _ref_progress(
                    iteration + 1, current_cost, best_cost, temperature,
                    stall, history,
                )
            )
        if config.stall_limit is not None and stall >= config.stall_limit:
            break
    return best, best_cost, history


def _ref_rng_from(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def ref_anneal_round(ctx, state, cost_batch_fn, pool_out=None):
    cfg = ctx.config
    rng = _ref_rng_from(state["rng"])
    current = np.asarray(state["current"])
    current_cost = state["current_cost"]
    best = np.asarray(state["best"])
    best_cost = state["best_cost"]
    temperature = state["temperature"]
    for _ in range(cfg.iterations):
        batch = [ctx.neighbor(current, rng) for _ in range(cfg.batch_size)]
        costs = [float(c) for c in cost_batch_fn(batch)]
        if pool_out is not None:
            pool_out.extend(zip(batch, costs))
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
            abs(current_cost) if math.isfinite(current_cost) else 1.0,
            1e-12,
        )
        if _ref_accept(current_cost, candidate_cost, effective_t, rng):
            current, current_cost = candidate, candidate_cost
        for cand, cost in zip(batch, costs):
            if cost < best_cost:
                best, best_cost = cand, cost
        if temperature is not None:
            temperature *= COOLING_RATE
    state["rng"] = rng.bit_generator.state
    state["current"] = current
    state["current_cost"] = current_cost
    state["best"] = best
    state["best_cost"] = best_cost
    state["temperature"] = temperature


# ---------------------------------------------------------------------------
# Toy problem: a rugged integer landscape with infeasible holes
# ---------------------------------------------------------------------------


def toy_cost(state: int) -> float:
    if state % 11 == 5:
        return math.inf
    return float((state - 17) ** 2) + 3.0 * math.sin(1.7 * state)


def toy_batch(states: List[int]) -> List[float]:
    return [toy_cost(s) for s in states]


class RngSpy:
    """A neighbour move that remembers the generator the loop drives."""

    def __init__(self) -> None:
        self.rng: Optional[np.random.Generator] = None

    def __call__(self, state: int, rng: np.random.Generator) -> int:
        self.rng = rng
        return state + int(rng.integers(-4, 5))


def history_fields(history: SAHistory) -> Dict[str, Any]:
    return {
        "costs": history.costs,
        "best_costs": history.best_costs,
        "accepted": history.accepted,
        "proposed": history.proposed,
    }


def run_reference(config: SAConfig, batch_size: Optional[int]):
    """The replaced loop: serial when ``batch_size`` is None."""
    records: List[Dict[str, Any]] = []
    spy = RngSpy()
    if batch_size is None:
        best, best_cost, history = ref_simulated_annealing(
            0, toy_cost, spy, config, observer=records.append
        )
    else:
        best, best_cost, history = ref_simulated_annealing_batch(
            0, toy_batch, spy, config, batch_size, observer=records.append
        )
    return best, best_cost, history, records, spy.rng.bit_generator.state


def run_one_loop(config: SAConfig, batch_size: Optional[int]):
    records: List[Dict[str, Any]] = []
    chain = Chain.start(0, toy_batch, config)
    history = anneal(
        chain, toy_batch, RngSpy(), config, batch_size or 1,
        warm_up=warm_up_first_three if batch_size is None else warm_up_first_batch,
        observer=records.append,
    )
    return (
        chain.best, chain.best_cost, history, records,
        chain.rng.bit_generator.state,
    )


CONFIGS = [
    pytest.param(stall, t0, id=f"stall={stall}-t0={t0}")
    for stall in (None, 6)
    for t0 in (None, 25.0)
]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("stall_limit,initial_temperature", CONFIGS)
@pytest.mark.parametrize("batch_size", [None, 1, 2, 4],
                         ids=["serial", "batch1", "batch2", "batch4"])
def test_one_loop_replays_reference(seed, stall_limit, initial_temperature,
                                    batch_size):
    config = SAConfig(
        iterations=40, seed=seed, stall_limit=stall_limit,
        initial_temperature=initial_temperature,
    )
    ref = run_reference(config, batch_size)
    new = run_one_loop(config, batch_size)
    assert new[0] == ref[0]
    assert new[1] == ref[1]
    assert history_fields(new[2]) == history_fields(ref[2])
    assert new[3] == ref[3]
    assert new[4] == ref[4]
    # The final temperature is the last observed one.
    assert new[3][-1]["temperature"] == ref[3][-1]["temperature"]


# ---------------------------------------------------------------------------
# Portfolio rounds: a chain carried across rounds through the state dict
# ---------------------------------------------------------------------------


def array_neighbor(params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.clip(params + rng.integers(-2, 3, size=params.shape), 0, 12)


def array_batch(batch: List[np.ndarray]) -> List[float]:
    return [toy_cost(int(p.sum())) for p in batch]


def chain_state(seed: int) -> Dict[str, Any]:
    params = np.array([[0, 1], [2, 3]])
    cost = array_batch([params])[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 0)))
    return {
        "rng": rng.bit_generator.state,
        "current": params,
        "current_cost": cost,
        "best": params,
        "best_cost": cost,
        "temperature": None,
    }


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("batch_size", [1, 2, 4])
def test_portfolio_rounds_replay_reference(seed, batch_size):
    config = PortfolioConfig(iterations=5, batch_size=batch_size, seed=seed)
    ctx = SimpleNamespace(
        config=config,
        neighbor=array_neighbor,
        seed_seq=lambda *key: np.random.SeedSequence(seed, spawn_key=key),
    )
    ref_state, new_state = chain_state(seed), chain_state(seed)
    optimizer = MultiFidelityOptimizer()
    temperatures = []
    for _ in range(3):
        ref_pool: List[Any] = []
        new_pool: List[Any] = []

        def pooled(batch):
            costs = array_batch(batch)
            new_pool.extend(zip(batch, costs))
            return costs

        ref_anneal_round(ctx, ref_state, array_batch, pool_out=ref_pool)
        optimizer._anneal(ctx, new_state, pooled)
        assert set(new_state) == set(ref_state)
        for key in ("rng", "current_cost", "best_cost", "temperature"):
            assert new_state[key] == ref_state[key], key
        for key in ("current", "best"):
            assert np.array_equal(new_state[key], ref_state[key]), key
        assert len(new_pool) == len(ref_pool)
        for (p_new, c_new), (p_ref, c_ref) in zip(new_pool, ref_pool):
            assert np.array_equal(p_new, p_ref) and c_new == c_ref
        temperatures.append(new_state["temperature"])
    # The temperature warms up once and then keeps cooling across rounds.
    assert temperatures[0] is not None
    assert temperatures[0] > temperatures[1] > temperatures[2]


# ---------------------------------------------------------------------------
# Infeasible starts: the deliberate divergence
# ---------------------------------------------------------------------------


def test_infeasible_start_diverges_on_purpose():
    """The batched reference warms up on ``abs(c - inf)`` and anneals at an
    infinite temperature, accepting every uphill move; the one loop waits
    for a finite delta and then cools from a finite temperature."""

    def cost(state):
        return math.inf if state == 0 else float((state - 40) ** 2)

    def batch_cost(states):
        return [cost(s) for s in states]

    def neighbor(state, rng):
        return state + int(rng.choice((-1, 1)))

    config = SAConfig(iterations=10, seed=0)
    ref_records: List[Dict[str, Any]] = []
    _, _, ref_history = ref_simulated_annealing_batch(
        0, batch_cost, neighbor, config, 1, observer=ref_records.append
    )
    assert all(math.isinf(r["temperature"]) for r in ref_records)
    # Every move is accepted but the one back onto the infeasible start.
    assert ref_history.accepted == 9

    records: List[Dict[str, Any]] = []
    chain = Chain.start(0, batch_cost, config)
    history = anneal(chain, batch_cost, neighbor, config, 1,
                     warm_up=warm_up_first_batch, observer=records.append)
    assert all(
        r["temperature"] is None or math.isfinite(r["temperature"])
        for r in records
    )
    assert math.isfinite(chain.temperature)
    assert history.accepted < ref_history.accepted


@pytest.mark.parametrize("case_seed", [28, 70])
def test_multi_fidelity_from_infeasible_start_keeps_finite_temperature(
    case_seed,
):
    """Generated cases 28 and 70 start ``multi_fidelity`` (the
    ``--bench portfolio`` config) at an infeasible plan; the chain's
    temperature must warm up on the first finite deltas, not to ``inf``."""
    case = generate_case(case_seed)
    config = PortfolioConfig(rounds=2, iterations=3, batch_size=3,
                             seed=case_seed)
    ctx = OptimizerContext(case, config, 0)
    optimizer = MultiFidelityOptimizer()
    state = optimizer.init_state(ctx)
    assert math.isinf(state["current_cost"])
    for round_i in range(config.rounds):
        optimizer.run_round(ctx, state, round_i)
        assert math.isfinite(state["temperature"])
    assert math.isfinite(optimizer.finalize(ctx, state).score)
