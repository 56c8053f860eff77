"""Unit tests for the SA engine: the one loop, :func:`anneal`."""

import math

import numpy as np
import pytest

from repro.errors import SearchError
from repro.optimize import Chain, SAConfig, anneal
from repro.optimize.annealing import warm_up_first_batch, warm_up_first_three


def quadratic_cost(state):
    return float((state - 7) ** 2)


def int_neighbor(state, rng):
    return state + int(rng.choice((-1, 1)))


def run(initial, cost, config, batch_size=1, warm_up=warm_up_first_three,
        observer=None):
    """``(best, best_cost, history)`` of one call on a fresh chain."""

    def batch_cost(states):
        return [cost(state) for state in states]

    chain = Chain.start(initial, batch_cost, config)
    history = anneal(
        chain, batch_cost, int_neighbor, config, batch_size,
        warm_up=warm_up, observer=observer,
    )
    return chain.best, chain.best_cost, history


class TestOptimization:
    def test_finds_quadratic_minimum(self):
        config = SAConfig(iterations=300, seed=1)
        best, cost, _ = run(0, quadratic_cost, config)
        assert best == 7
        assert cost == 0.0

    def test_deterministic_given_seed(self):
        config = SAConfig(iterations=50, seed=42)
        a = run(0, quadratic_cost, config)
        b = run(0, quadratic_cost, config)
        assert a[0] == b[0] and a[1] == b[1]

    def test_different_seeds_explore_differently(self):
        results = set()
        for seed in range(6):
            config = SAConfig(iterations=5, seed=seed)
            best, _, history = run(0, quadratic_cost, config)
            results.add(tuple(history.costs))
        assert len(results) > 1

    def test_best_never_worse_than_initial(self):
        config = SAConfig(iterations=20, seed=3)
        _, cost, _ = run(3, quadratic_cost, config)
        assert cost <= quadratic_cost(3)

    def test_history_tracks_best(self):
        config = SAConfig(iterations=30, seed=5)
        _, cost, history = run(0, quadratic_cost, config)
        assert history.best_costs[-1] == cost
        assert all(
            b <= c + 1e-12 for b, c in zip(history.best_costs, history.costs)
        )
        # best_costs is non-increasing.
        assert all(
            a >= b for a, b in zip(history.best_costs, history.best_costs[1:])
        )


class TestInfeasibleHandling:
    def test_never_accepts_inf_from_finite(self):
        def cost(state):
            return math.inf if state > 5 else float(state)

        config = SAConfig(iterations=100, seed=2)
        best, best_cost, history = run(5, cost, config)
        assert math.isfinite(best_cost)
        assert all(math.isfinite(c) for c in history.costs)

    def test_escapes_infeasible_region(self):
        def cost(state):
            return math.inf if state < 10 else float(abs(state - 12))

        config = SAConfig(iterations=200, seed=4)
        best, best_cost, _ = run(0, cost, config)
        assert math.isfinite(best_cost)


class TestInfeasibleStartWarmUp:
    """An infeasible incumbent gives no finite cost delta, so it must not
    set the temperature: both warm-up rules wait for a finite one."""

    @staticmethod
    def cost(state):
        return math.inf if state == 0 else float((state - 40) ** 2)

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize(
        "warm_up", [warm_up_first_batch, warm_up_first_three]
    )
    def test_temperature_stays_finite(self, warm_up, batch_size):
        temperatures = []
        config = SAConfig(iterations=10, seed=0)
        _, _, history = run(
            0, self.cost, config, batch_size, warm_up,
            observer=lambda fields: temperatures.append(fields["temperature"]),
        )
        assert history.proposed == 10 * batch_size
        assert all(t is None or math.isfinite(t) for t in temperatures)
        assert any(t is not None for t in temperatures)


class TestConvergence:
    def test_stall_limit_stops_early(self):
        config = SAConfig(iterations=500, seed=1, stall_limit=10)
        _, _, history = run(7, quadratic_cost, config)
        assert history.proposed < 500

    def test_acceptance_rate_bounded(self):
        config = SAConfig(iterations=50, seed=9)
        _, _, history = run(0, quadratic_cost, config)
        assert 0.0 <= history.acceptance_rate <= 1.0


class TestChain:
    def test_state_round_trip_continues_bitwise(self):
        """Two calls over a checkpointed chain equal one long call."""
        config = SAConfig(iterations=6, seed=11)

        def batch_cost(states):
            return [quadratic_cost(s) for s in states]

        whole = Chain.start(0, batch_cost, config)
        anneal(
            whole, batch_cost, int_neighbor,
            SAConfig(iterations=12, seed=11), 2, warm_up=warm_up_first_batch,
        )
        split = Chain.start(0, batch_cost, config)
        anneal(split, batch_cost, int_neighbor, config, 2,
               warm_up=warm_up_first_batch)
        split = Chain.restore(split.state())
        anneal(split, batch_cost, int_neighbor, config, 2,
               warm_up=warm_up_first_batch)
        assert split.state() == whole.state()


class TestValidation:
    def test_bad_iterations(self):
        with pytest.raises(SearchError):
            SAConfig(iterations=0)

    def test_bad_cooling_rate(self):
        with pytest.raises(SearchError):
            SAConfig(cooling_rate=0.0)
        with pytest.raises(SearchError):
            SAConfig(cooling_rate=1.5)

    def test_explicit_temperature(self):
        config = SAConfig(iterations=50, seed=1, initial_temperature=100.0)
        best, cost, _ = run(0, quadratic_cost, config)
        assert cost <= quadratic_cost(0)
