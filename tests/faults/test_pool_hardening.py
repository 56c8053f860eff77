"""PersistentEvaluationPool resilience: timeouts, retries, degradation."""

import gc
import math
import threading
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import profiling
from repro.errors import SearchError, WorkerTimeoutError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, SITE_PARALLEL_WORKER
from repro.iccad2015 import load_case
from repro.optimize.parallel import (
    PersistentEvaluationPool,
    evaluate_population,
    shutdown_pools,
)
from repro.optimize.runner import PROBLEM_PUMPING_POWER
from repro.optimize.stages import METRIC_LOWEST_FEASIBLE_POWER, StageConfig

WATCHDOG = 120.0

STAGE = StageConfig("h", 4, 1, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm")


@pytest.fixture(scope="module")
def case():
    return load_case(1, grid_size=21)


@pytest.fixture(scope="module")
def candidates(case):
    plan = case.tree_plan()
    rng = np.random.default_rng(7)
    out = [plan.params()]
    for _ in range(3):
        jitter = 2 * rng.integers(-3, 4, size=out[-1].shape)
        out.append(plan.clamp_params(out[-1] + jitter))
    return out


@pytest.fixture(scope="module")
def baseline_costs(case, candidates):
    with PersistentEvaluationPool(
        case, case.tree_plan(), STAGE, PROBLEM_PUMPING_POWER, n_workers=2
    ) as pool:
        return pool.evaluate(candidates)


class CollectingContext:
    """An evaluation context whose scorer runs a full garbage collection
    in the worker before scoring ``0.0``."""

    @staticmethod
    def scorer():
        def score(params):
            gc.collect()
            return 0.0

        return score

    @staticmethod
    def infeasible():
        return math.inf


def make_pool(case, fault_plan=None, **kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("backoff_base", 0.01)
    return PersistentEvaluationPool(
        case,
        case.tree_plan(),
        STAGE,
        PROBLEM_PUMPING_POWER,
        fault_plan=fault_plan,
        **kwargs,
    )


def death_plan(**spec_kwargs):
    return FaultPlan(
        [
            FaultSpec(
                site=SITE_PARALLEL_WORKER, kind="worker-death", **spec_kwargs
            )
        ],
        seed=3,
    )


class TestTimeoutAndRetry:
    def test_hang_times_out_then_retry_recovers(
        self, watchdog, case, candidates, baseline_costs
    ):
        # Each worker hangs on its *second* candidate: the first attempt
        # makes partial progress then times out; the respawned workers
        # finish the remainder before hitting their own second hit.
        fp = FaultPlan(
            [
                FaultSpec(
                    site=SITE_PARALLEL_WORKER,
                    kind="hang",
                    after=1,
                    delay=30.0,
                )
            ],
            seed=3,
        )
        with watchdog(WATCHDOG), make_pool(case, fp, timeout=5.0) as pool:
            costs = pool.evaluate(candidates)
        assert costs == baseline_costs
        counters = profiling.snapshot()["counters"]
        assert counters.get("parallel.timeouts", 0) >= 1
        assert counters.get("parallel.worker_replacements", 0) >= 1
        assert not pool.degraded

    def test_worker_death_replaced_and_recovers(
        self, watchdog, case, candidates, baseline_costs
    ):
        fp = death_plan(after=1, max_fires=1)
        with watchdog(WATCHDOG), make_pool(case, fp) as pool:
            costs = pool.evaluate(candidates)
        assert costs == baseline_costs
        counters = profiling.snapshot()["counters"]
        assert counters.get("parallel.worker_lost", 0) >= 1
        assert counters.get("parallel.retries", 0) >= 1

    def test_pool_broken_at_submit_is_a_lost_worker(
        self, watchdog, case, candidates, baseline_costs
    ):
        """A worker can die while a batch is still being handed out; then
        ``submit`` itself raises ``BrokenProcessPool``, which must take the
        same retry path as a death seen through a result."""

        class BrokenAtSubmit:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("a worker died during dispatch")

            def shutdown(self, *args, **kwargs):
                pass

        with watchdog(WATCHDOG), make_pool(case) as pool:
            real = pool._executor
            pool._executor = BrokenAtSubmit()
            try:
                costs = pool.evaluate(candidates)
            finally:
                real.shutdown(wait=False, cancel_futures=True)
        assert costs == baseline_costs
        counters = profiling.snapshot()["counters"]
        assert counters.get("parallel.worker_lost", 0) >= 1
        assert counters.get("parallel.retries", 0) >= 1

    def test_retries_exhausted_raises_typed_error(
        self, watchdog, case, candidates
    ):
        fp = FaultPlan(
            [FaultSpec(site=SITE_PARALLEL_WORKER, kind="hang", delay=30.0)],
            seed=3,
        )
        with watchdog(WATCHDOG), make_pool(
            case, fp, timeout=0.3, max_retries=1, degrade_after=99
        ) as pool:
            with pytest.raises(WorkerTimeoutError):
                pool.evaluate(candidates)
        counters = profiling.snapshot()["counters"]
        assert counters.get("parallel.timeouts", 0) == 2
        assert counters.get("parallel.retries", 0) == 1


class TestDegradation:
    def test_persistent_deaths_degrade_to_serial(
        self, watchdog, case, candidates, baseline_costs
    ):
        fp = death_plan()  # rate 1.0: every worker dies on every candidate
        with watchdog(WATCHDOG), make_pool(case, fp) as pool:
            costs = pool.evaluate(candidates)
            assert pool.degraded
            assert costs == baseline_costs
            counters = profiling.snapshot()["counters"]
            assert counters.get("parallel.degraded") == 1
            assert counters.get("parallel.serial_fallback") == len(candidates)

            # Once degraded, later batches stay serial with no new failures.
            failures_before = counters.get("parallel.pool_failures", 0)
            assert pool.evaluate(candidates) == baseline_costs
            after = profiling.snapshot()["counters"]
            assert after.get("parallel.pool_failures", 0) == failures_before
            assert after.get("parallel.serial_fallback") == 2 * len(candidates)

    def test_degraded_pool_never_fires_worker_faults(
        self, watchdog, case, candidates
    ):
        # The parallel.worker site lives only inside pool workers: the
        # serial-degradation path must never execute worker-death faults in
        # the parent (that would kill the test process).
        fp = death_plan()
        with watchdog(WATCHDOG), make_pool(case, fp) as pool:
            costs = pool.evaluate(candidates)
        assert all(math.isfinite(c) or math.isinf(c) for c in costs)


class TestCachedDispatch:
    """The evaluate_population front door under an ambient fault plan."""

    def test_empty_batch_short_circuits(self, case):
        with PersistentEvaluationPool(
            case, case.tree_plan(), STAGE, PROBLEM_PUMPING_POWER, n_workers=2
        ) as pool:
            assert pool.evaluate([]) == []

    def test_ambient_plan_reaches_cached_pool(
        self, watchdog, case, candidates, baseline_costs
    ):
        # The cached-pool path arms its workers with the ambient plan and
        # the conftest's shutdown_pools() drains the warm cache afterwards.
        fp = death_plan(after=1, max_fires=1)
        with watchdog(WATCHDOG), FaultInjector(fp):
            costs = evaluate_population(
                case,
                case.tree_plan(),
                STAGE,
                PROBLEM_PUMPING_POWER,
                candidates,
                n_workers=2,
            )
        shutdown_pools()
        assert costs == baseline_costs

    def test_bad_worker_count_rejected(self, case, candidates):
        with pytest.raises(SearchError, match="n_workers"):
            evaluate_population(
                case,
                case.tree_plan(),
                STAGE,
                PROBLEM_PUMPING_POWER,
                candidates,
                n_workers=0,
            )


class TestLifecycleAndValidation:
    def test_reuse_after_close_raises(self, case, candidates):
        pool = make_pool(case)
        pool.close()
        assert pool.closed
        with pytest.raises(SearchError, match="closed"):
            pool.evaluate(candidates)

    def test_close_is_idempotent(self, case):
        pool = make_pool(case)
        pool.close()
        pool.close()
        assert pool.closed

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"n_workers": 0}, "n_workers"),
            ({"timeout": 0.0}, "timeout"),
            ({"max_retries": -1}, "max_retries"),
            ({"degrade_after": 0}, "degrade_after"),
        ],
    )
    def test_bad_parameters_rejected(self, case, kwargs, match):
        with pytest.raises(SearchError, match=match):
            make_pool(case, **kwargs)

    def test_worker_never_collects_garbage_inherited_at_fork(self):
        """A forked worker inherits the parent's unreachable objects.  If
        its collector freed one whose finalizer takes a lock some parent
        thread held at the fork -- a shut-down executor's
        ``shutdown_lock``, held by its manager thread while it joins
        workers -- the worker would hang; so it must never free them."""
        held = threading.Lock()

        class Cycle:
            pass

        gc.disable()
        try:
            garbage = Cycle()
            garbage.self = garbage
            probe = weakref.ref(
                garbage, lambda _: (held.acquire(), held.release())
            )
            del garbage
            with held:
                with PersistentEvaluationPool(
                    n_workers=1, timeout=5.0, max_retries=0
                ) as pool:
                    scores = pool.evaluate(
                        [np.zeros((1, 2), dtype=int)], CollectingContext()
                    )
        finally:
            gc.enable()
        assert scores == [0.0]
        gc.collect()
        assert probe() is None
