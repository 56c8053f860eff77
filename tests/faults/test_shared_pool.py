"""The process's shared worker pool under faults: pooled 4RM promotion
batches survive worker deaths, and a degradation lasts one job only."""

import numpy as np
import pytest

from repro import profiling
from repro.cases import generate_case
from repro.errors import WorkerLostError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, SITE_PARALLEL_WORKER
from repro.optimize import parallel
from repro.optimize.parallel import PersistentEvaluationPool
from repro.optimize.portfolio import (
    MultiFidelityEvaluator,
    PortfolioConfig,
    run_portfolio,
)

WATCHDOG = 180.0

POOLED = PortfolioConfig(
    rounds=2, iterations=2, batch_size=2, seed=3, n_workers=2
)


@pytest.fixture(scope="module")
def case():
    return generate_case(7)


def assert_same_outcome(a, b):
    assert np.array_equal(a.params, b.params)
    assert a.score == b.score
    assert a.evaluation == b.evaluation
    assert a.low_evals == b.low_evals
    assert a.high_evals == b.high_evals
    assert a.rounds == b.rounds
    assert a.offset_state == b.offset_state


def test_worker_death_during_promotion_batch(watchdog, case, monkeypatch):
    """Every worker dies on its first candidate while the first round's
    elites are promoted on the pool; the batch retries, degrades to serial
    in-process 4RM scoring, and the job ends as the fault-free job does."""
    with watchdog(WATCHDOG):
        reference = run_portfolio(case, ("multi_fidelity",), POOLED)
    profiling.reset()
    plan = FaultPlan(
        [FaultSpec(site=SITE_PARALLEL_WORKER, kind="worker-death")], seed=5
    )
    original = MultiFidelityEvaluator.promote
    seen = {"batches": 0, "lost": 0}

    def promote_under_fault(self, params_list):
        seen["batches"] += 1
        if seen["batches"] > 1:
            return original(self, params_list)
        before = profiling.counter("parallel.worker_lost")
        with FaultInjector(plan):
            evaluations = original(self, params_list)
        seen["lost"] = profiling.counter("parallel.worker_lost") - before
        return evaluations

    monkeypatch.setattr(MultiFidelityEvaluator, "promote", promote_under_fault)
    with watchdog(WATCHDOG):
        faulted = run_portfolio(case, ("multi_fidelity",), POOLED)
    assert seen["lost"] >= 1
    assert profiling.counter("parallel.degraded") == 1
    assert profiling.counter("parallel.serial_fallback") >= 1
    assert_same_outcome(
        faulted.outcomes["multi_fidelity"], reference.outcomes["multi_fidelity"]
    )


def test_degradation_lasts_one_job(watchdog, case, monkeypatch):
    """A job whose pool degrades to serial hands the next job a fresh
    parallel pool, not its serial fallback."""

    def lose_workers(self, *args, **kwargs):
        raise WorkerLostError("worker process died (test)")

    with monkeypatch.context() as patch:
        patch.setattr(
            PersistentEvaluationPool, "_collect_parallel", lose_workers
        )
        with watchdog(WATCHDOG):
            first = run_portfolio(case, ("multi_fidelity",), POOLED)
    assert profiling.counter("parallel.degraded") == 1
    assert parallel._shared_pool is None

    profiling.reset()
    with watchdog(WATCHDOG):
        second = run_portfolio(case, ("multi_fidelity",), POOLED)
    assert profiling.counter("parallel.pool_starts") == 1
    assert profiling.counter("parallel.serial_fallback") == 0
    assert profiling.counter("parallel.degraded") == 0
    shared = parallel._shared_pool
    assert shared is not None and not shared.degraded
    assert_same_outcome(
        first.outcomes["multi_fidelity"], second.outcomes["multi_fidelity"]
    )
