"""Tests for batched/parallel neighbor evaluation."""

import contextlib
import ctypes
import hashlib
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import profiling
from repro.errors import SearchError
from repro.faults import (
    SITE_PARALLEL_WORKER,
    SITE_THERMAL_RC2,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.iccad2015 import load_case
from repro.linalg.config import use_config
from repro.optimize import Chain, SAConfig, anneal, optimize_problem1
from repro.optimize.annealing import warm_up_first_batch
from repro.optimize.parallel import (
    CandidateCrashError,
    PersistentEvaluationPool,
    StageContext,
    _score_candidate,
    bundled_openblas,
    evaluate_population,
    score_on_pool,
    shutdown_pools,
)
from repro.optimize.portfolio import ReferenceContext
from repro.optimize.runner import PROBLEM_PUMPING_POWER, _CandidateEvaluator
from repro.optimize.stages import (
    METRIC_FIXED_PRESSURE_GRADIENT,
    METRIC_LOWEST_FEASIBLE_POWER,
    METRIC_MIN_GRADIENT_CAPPED,
    StageConfig,
)

from ..conftest import fork_while_busy

STAGE = StageConfig("s", 4, 1, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm")

#: One-solve-per-candidate stage for the cheap parity/pool tests.
FIXED_STAGE = StageConfig("f", 4, 1, 4, METRIC_FIXED_PRESSURE_GRADIENT, "2rm")
FIXED_PRESSURE = 2e4


class BlasThreadsContext:
    """An evaluation context whose scorer reads, where it runs, the thread
    count of bundled OpenBLAS library ``params[0, 0]``."""

    @staticmethod
    def scorer():
        def score(params):
            library, suffix = bundled_openblas()[int(params[0, 0])]
            getter = getattr(
                library, "scipy_openblas_get_num_threads" + suffix
            )
            getter.argtypes, getter.restype = [], ctypes.c_int
            return float(getter())

        return score

    @staticmethod
    def infeasible():
        return math.inf


@pytest.fixture(scope="module")
def case():
    return load_case(1, grid_size=21)


@contextlib.contextmanager
def telemetry_tracing(enabled):
    """Tracing switched to ``enabled`` for the block."""
    previous = profiling.set_tracing(enabled)
    try:
        yield
    finally:
        profiling.set_tracing(previous)


@pytest.fixture(autouse=True)
def _clean_pools():
    """Leave no warm worker pools behind any of these tests."""
    yield
    shutdown_pools()


class TestEvaluatePopulation:
    def test_serial_matches_single_evaluator(self, case):
        plan = case.tree_plan()
        rng = np.random.default_rng(0)
        candidates = [plan.params()]
        for _ in range(3):
            jitter = 2 * rng.integers(-3, 4, size=candidates[-1].shape)
            candidates.append(plan.clamp_params(candidates[-1] + jitter))
        fresh = [
            _CandidateEvaluator(case, plan, STAGE, PROBLEM_PUMPING_POWER)(p)
            for p in candidates
        ]
        for n_workers in (1, 2):
            costs = evaluate_population(
                case, plan, STAGE, PROBLEM_PUMPING_POWER, candidates,
                n_workers=n_workers,
            )
            assert costs == fresh, n_workers

    def test_parallel_matches_serial(self, case):
        plan = case.tree_plan()
        candidates = [plan.params(), plan.params() + 2]
        candidates[1] = plan.clamp_params(candidates[1])
        serial = evaluate_population(
            case, plan, STAGE, PROBLEM_PUMPING_POWER, candidates, n_workers=1
        )
        parallel = evaluate_population(
            case, plan, STAGE, PROBLEM_PUMPING_POWER, candidates, n_workers=2
        )
        assert serial == pytest.approx(parallel, rel=1e-9)

    def test_grouped_metric_stays_serial(self, case):
        plan = case.tree_plan()
        stage = StageConfig(
            "g", 4, 1, 4, METRIC_MIN_GRADIENT_CAPPED, "2rm", group_size=3
        )
        costs = evaluate_population(
            case,
            plan,
            stage,
            "problem2",
            [plan.params()] * 2,
            n_workers=4,  # must silently fall back to serial
        )
        assert len(costs) == 2

    def test_empty_population(self, case):
        plan = case.tree_plan()
        assert evaluate_population(
            case, plan, STAGE, PROBLEM_PUMPING_POWER, [], n_workers=1
        ) == []

    def test_bad_workers(self, case):
        plan = case.tree_plan()
        with pytest.raises(SearchError):
            evaluate_population(
                case, plan, STAGE, PROBLEM_PUMPING_POWER, [plan.params()],
                n_workers=0,
            )

    def test_parallel_bitwise_identical_with_infeasible(self, case):
        """The parity criterion: n_workers=2 returns the exact floats the
        serial path returns -- including ``inf`` for an illegal candidate --
        not approximately-equal ones."""
        plan = case.tree_plan()
        rng = np.random.default_rng(3)
        candidates = [plan.params()]
        for _ in range(4):
            jitter = 2 * rng.integers(-2, 3, size=candidates[-1].shape)
            candidates.append(plan.clamp_params(candidates[-1] + jitter))
        # A wrong-shaped candidate is illegal geometry (out-of-range values
        # get clamped, but the tree count is structural): scores ``inf``.
        candidates.append(np.zeros((plan.params().shape[0] + 1, 2), dtype=int))
        serial = evaluate_population(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, candidates,
            fixed_pressure=FIXED_PRESSURE, n_workers=1,
        )
        parallel = evaluate_population(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, candidates,
            fixed_pressure=FIXED_PRESSURE, n_workers=2,
        )
        assert serial == parallel  # bitwise, no tolerance
        assert math.isinf(serial[-1])
        assert all(math.isfinite(c) for c in serial[:-1])


class TestErrorDiscipline:
    """ReproError means infeasible (inf); anything else must surface."""

    class _InfeasibleEvaluator:
        def __call__(self, params):
            raise SearchError("constraint unachievable")

    class _CrashingEvaluator:
        def __call__(self, params):
            raise ValueError("negative conductance")

    def test_repro_error_scores_inf(self):
        params = np.array([[3, 5]])
        assert math.isinf(_score_candidate(self._InfeasibleEvaluator(), params))

    def test_unexpected_error_surfaces_with_params(self):
        params = np.array([[3, 5]])
        with pytest.raises(CandidateCrashError) as excinfo:
            _score_candidate(self._CrashingEvaluator(), params)
        message = str(excinfo.value)
        assert "[[3, 5]]" in message
        assert "ValueError" in message
        assert "negative conductance" in message
        # The SA loop's ReproError handlers must not swallow it.
        assert not isinstance(excinfo.value, (SearchError,))

    def test_crash_propagates_from_worker(self, case, monkeypatch):
        """A bug inside a worker process reaches the parent as
        CandidateCrashError, not as a silent ``inf``."""
        from repro.optimize import runner

        class _Broken:
            def __init__(self, *args, **kwargs):
                pass

            def __call__(self, params):
                raise ValueError("boom in worker")

        # Workers are forked, so they inherit the patched symbol the stage
        # context's scorer imports.
        monkeypatch.setattr(runner, "_CandidateEvaluator", _Broken)
        plan = case.tree_plan()
        context = StageContext(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, FIXED_PRESSURE
        )
        with PersistentEvaluationPool(n_workers=2) as pool:
            with pytest.raises(CandidateCrashError, match="boom in worker"):
                pool.evaluate([plan.params()], context)

    def test_infeasible_does_not_crash_worker(self, case):
        """An illegal candidate in a worker is just ``inf``, no exception."""
        plan = case.tree_plan()
        bad = np.zeros((plan.params().shape[0] + 1, 2), dtype=int)
        context = StageContext(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, FIXED_PRESSURE
        )
        with PersistentEvaluationPool(n_workers=2) as pool:
            costs = pool.evaluate([plan.params(), bad], context)
        assert math.isfinite(costs[0])
        assert math.isinf(costs[1])


class TestPersistentPool:
    def test_pool_reused_across_batches(self, case):
        """Consecutive evaluate_population calls with one context share one
        pool: a single spin-up, counters accumulating per batch."""
        plan = case.tree_plan()
        shutdown_pools()
        profiling.reset()
        batch = [plan.params(), plan.clamp_params(plan.params() + 2)]
        for _ in range(3):
            evaluate_population(
                case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, batch,
                fixed_pressure=FIXED_PRESSURE, n_workers=2,
            )
        assert profiling.counter("parallel.pool_starts") == 1
        assert profiling.counter("parallel.batches") == 3
        assert profiling.counter("parallel.candidates") == 6

    def test_explicit_pool_and_close(self, case):
        plan = case.tree_plan()
        context = StageContext(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, FIXED_PRESSURE
        )
        pool = PersistentEvaluationPool(n_workers=2)
        costs = pool.evaluate([plan.params()], context)
        assert len(costs) == 1 and math.isfinite(costs[0])
        workers = [worker.process for worker in pool._workers]
        pool.close()
        assert pool.closed
        assert all(process.exitcode is not None for process in workers)
        pool.close()  # idempotent
        with pytest.raises(SearchError):
            pool.evaluate([plan.params()], context)

    def test_worker_counters_reach_parent(self, case):
        """Solver activity inside workers shows up in the parent profiler."""
        plan = case.tree_plan()
        shutdown_pools()
        profiling.reset()
        evaluate_population(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER,
            [plan.params(), plan.clamp_params(plan.params() + 2)],
            fixed_pressure=FIXED_PRESSURE, n_workers=2,
        )
        assert profiling.counter("cooling.simulations") == 2
        assert profiling.counter("thermal.solves") == 2

    def test_pool_workers_run_one_blas_thread(self):
        """numpy's and scipy's OpenBLAS each run one thread in a worker."""
        libraries = bundled_openblas()
        if not libraries:
            pytest.skip("no bundled OpenBLAS library installed")
        batch = [np.array([[index, 0]]) for index in range(len(libraries))]
        with PersistentEvaluationPool(n_workers=2) as pool:
            threads = pool.evaluate(batch * 2, BlasThreadsContext())
        assert threads == [1.0] * (2 * len(libraries))

    def test_bad_pool_workers(self):
        with pytest.raises(SearchError):
            PersistentEvaluationPool(n_workers=0)

    def test_shutdown_pools_closes_cached(self, case):
        from repro.optimize import parallel

        plan = case.tree_plan()
        shutdown_pools()
        evaluate_population(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, [plan.params()],
            fixed_pressure=FIXED_PRESSURE, n_workers=2,
        )
        shared = parallel._shared_pool
        assert shared is not None and not shared.closed
        shutdown_pools()
        assert parallel._shared_pool is None
        assert shared.closed

    def test_closed_cached_pool_is_replaced(self, case):
        """Closing the shared pool out from under the module must not
        poison later calls: the next evaluation builds a fresh pool."""
        from repro.optimize import parallel

        plan = case.tree_plan()
        shutdown_pools()
        profiling.reset()
        batch = [plan.params()]
        kwargs = dict(fixed_pressure=FIXED_PRESSURE, n_workers=2)
        first = evaluate_population(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, batch, **kwargs
        )
        parallel._shared_pool.close()
        second = evaluate_population(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, batch, **kwargs
        )
        assert second == first
        assert profiling.counter("parallel.pool_starts") == 2

    def test_one_pool_serves_stages_pressures_and_fidelities(self, case):
        """Three stages x three fixed pressures at 2RM, then a 4RM batch:
        one pool start, and every result bitwise equal to in-process."""
        plan = case.tree_plan()
        shutdown_pools()
        profiling.reset()
        batch = [plan.params(), plan.clamp_params(plan.params() + 2)]
        stages = [
            StageConfig(f"f{tile}", 4, 1, 4, METRIC_FIXED_PRESSURE_GRADIENT,
                        "2rm", tile)
            for tile in (2, 3, 4)
        ]
        for stage in stages:
            for pressure in (1e4, 2e4, 3e4):
                pooled = evaluate_population(
                    case, plan, stage, PROBLEM_PUMPING_POWER, batch,
                    fixed_pressure=pressure, n_workers=2,
                )
                serial = evaluate_population(
                    case, plan, stage, PROBLEM_PUMPING_POWER, batch,
                    fixed_pressure=pressure, n_workers=1,
                )
                assert pooled == serial
        reference = ReferenceContext(case, plan, PROBLEM_PUMPING_POWER)
        high = score_on_pool(reference, batch[:1], 2)
        assert high == [reference.scorer()(batch[0])]
        assert high[0].fidelity == "high" and high[0].feasible
        assert profiling.counter("parallel.pool_starts") == 1
        assert profiling.counter("parallel.batches") == 10

    @pytest.mark.parametrize("change", ["tracing", "linalg", "fault_plan"])
    def test_config_change_replaces_pool(self, case, change):
        """The shared pool is keyed by the telemetry, solver and fault
        configurations its workers were armed with: changing any of them
        starts a new pool and closes the old workers."""
        from repro.optimize import parallel

        plan = case.tree_plan()
        shutdown_pools()
        batch = [plan.params()]
        kwargs = dict(fixed_pressure=FIXED_PRESSURE, n_workers=2)
        first = evaluate_population(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, batch, **kwargs
        )
        old = parallel._shared_pool
        workers = [worker.process for worker in old._workers]
        assert workers
        changes = {
            "tracing": lambda: telemetry_tracing(True),
            "linalg": lambda: use_config(incremental=False),
            "fault_plan": lambda: FaultInjector(FaultPlan([FaultSpec(
                site=SITE_PARALLEL_WORKER, kind="slow", delay=0.0,
            )])),
        }
        with changes[change]():
            second = evaluate_population(
                case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, batch,
                **kwargs,
            )
            new = parallel._shared_pool
        assert new is not old and not new.closed
        assert old.closed
        for process in workers:
            process.join(timeout=10.0)
            assert not process.is_alive()
        if change != "linalg":
            assert second == first

    def test_context_lru_is_bounded(self, case):
        """A process keeps at most CONTEXT_SLOTS built contexts, evicting
        the least recently used."""
        from repro.optimize import parallel

        plan = case.tree_plan()
        digests = []
        try:
            for i in range(parallel.CONTEXT_SLOTS + 2):
                context = StageContext(
                    case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER,
                    1e4 * (i + 1),
                )
                blob = pickle.dumps(context)
                digests.append(hashlib.sha256(blob).digest())
                parallel._context_scorer(digests[-1], blob)
            assert len(parallel._contexts) == parallel.CONTEXT_SLOTS
            assert list(parallel._contexts) == digests[2:]
        finally:
            parallel._contexts.clear()

    def test_evicted_context_rebuilds_bitwise(self, case):
        """A context pushed out of the worker's LRU is unpickled again on
        its next batch and scores the same floats."""
        from repro.optimize import parallel

        plan = case.tree_plan()
        profiling.reset()
        batch = [plan.params(), plan.clamp_params(plan.params() + 2)]

        def context(pressure):
            return StageContext(
                case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, pressure
            )

        with PersistentEvaluationPool(n_workers=1) as pool:
            first = pool.evaluate(batch, context(FIXED_PRESSURE))
            again = pool.evaluate(batch, context(FIXED_PRESSURE))
            assert profiling.counter("parallel.context_loads") == 1
            for i in range(parallel.CONTEXT_SLOTS):
                pool.evaluate(batch[:1], context(3e4 + 1e3 * i))
            rebuilt = pool.evaluate(batch, context(FIXED_PRESSURE))
        assert first == again == rebuilt  # bitwise
        assert (
            profiling.counter("parallel.context_loads")
            == parallel.CONTEXT_SLOTS + 2
        )

    def test_concurrent_threads_share_one_pool(self, case):
        """Design-service worker threads dispatch to the one shared pool at
        once: every batch scores what it scores alone, and the threads
        never start a second pool."""
        plan = case.tree_plan()
        shutdown_pools()
        profiling.reset()
        batch = [plan.params(), plan.clamp_params(plan.params() + 2)]
        pressures = [1e4 * (i + 1) for i in range(6)]
        expected = {
            p: evaluate_population(
                case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, batch,
                fixed_pressure=p, n_workers=1,
            )
            for p in pressures
        }
        got = {}
        errors = []

        def client(mine):
            try:
                for p in mine:
                    got[p] = evaluate_population(
                        case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER,
                        batch, fixed_pressure=p, n_workers=2,
                    )
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(pressures[i::3],))
            for i in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert got == expected
        assert profiling.counter("parallel.pool_starts") == 1

    def test_running_batch_starts_no_thread(self, case):
        """The pool waits on its workers' pipes itself: a batch leaves no
        thread behind, not even on a worker's first use."""
        plan = case.tree_plan()
        context = StageContext(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, FIXED_PRESSURE
        )
        batch = [plan.params(), plan.clamp_params(plan.params() + 2)] * 2
        with PersistentEvaluationPool(n_workers=2) as pool:
            threads = threading.active_count()
            pool.evaluate(batch, context)
            assert threading.active_count() == threads


def _bits(costs):
    """The exact bytes of a cost list (``inf`` included)."""
    return np.asarray(costs, dtype=np.float64).tobytes()


class TestSerialScorerReuse:
    """``n_workers=1`` scores on the process's one scorer per context, its
    cost memo kept across batches, as a pool worker keeps it."""

    @staticmethod
    def _batch(plan):
        return [plan.params(), plan.clamp_params(plan.params() + 2)]

    @staticmethod
    def _serial(case, plan, batch):
        return evaluate_population(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, batch,
            fixed_pressure=FIXED_PRESSURE, n_workers=1,
        )

    def test_repeated_batch_runs_no_simulation(self, case):
        plan = case.tree_plan()
        batch = self._batch(plan)
        fresh = StageContext(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, FIXED_PRESSURE
        ).scorer()
        expected = [fresh(p) for p in batch]
        profiling.reset()
        first = self._serial(case, plan, batch)
        assert profiling.counter("cooling.simulations") == len(batch)
        profiling.reset()
        again = self._serial(case, plan, batch)
        assert profiling.counter("cooling.simulations") == 0
        assert profiling.counter("parallel.context_loads") == 0
        assert profiling.counter("parallel.candidates") == len(batch)
        assert _bits(first) == _bits(again) == _bits(expected)

    def test_grouped_metric_batches_score_fresh(self, case):
        """The grouped metric carries group state between candidates, so
        each batch starts a new group on a new scorer: two consecutive
        batches score as each would alone."""
        plan = case.tree_plan()
        stage = StageConfig(
            "g", 4, 1, 4, METRIC_MIN_GRADIENT_CAPPED, "2rm", group_size=3
        )
        params = plan.params()
        batches = [
            [params, plan.clamp_params(params + 2)],
            [plan.clamp_params(params - 2), plan.clamp_params(params + 4)],
        ]

        def scored(batch, scorer):
            return [scorer(p) for p in batch]

        context = StageContext(case, plan, stage, "problem2")
        expected = [scored(b, context.scorer()) for b in batches]
        shared = context.scorer()
        continued = [scored(b, shared) for b in batches]
        # The check bites: one scorer across both batches scores otherwise.
        assert _bits(continued[1]) != _bits(expected[1])
        got = [
            evaluate_population(case, plan, stage, "problem2", b, n_workers=1)
            for b in batches
        ]
        assert [_bits(g) for g in got] == [_bits(e) for e in expected]

    def test_fault_plan_between_batches_rescores(self, case):
        """A memo never outlives the fault plan it was scored under, nor
        serves a plan armed after it."""
        plan = case.tree_plan()
        batch = self._batch(plan)
        clean = self._serial(case, plan, batch)
        assert all(math.isfinite(c) for c in clean)
        nan_plan = FaultPlan([FaultSpec(site=SITE_THERMAL_RC2, kind="nan")])
        with FaultInjector(nan_plan):
            faulted = self._serial(case, plan, batch)
        assert all(math.isinf(c) for c in faulted)
        profiling.reset()
        after = self._serial(case, plan, batch)
        assert profiling.counter("cooling.simulations") == len(batch)
        assert _bits(after) == _bits(clean)

    def test_linalg_config_between_batches_rescores(self, case):
        plan = case.tree_plan()
        batch = self._batch(plan)
        first = self._serial(case, plan, batch)
        profiling.reset()
        with use_config(incremental=False):
            self._serial(case, plan, batch)
        assert profiling.counter("cooling.simulations") == len(batch)
        profiling.reset()
        after = self._serial(case, plan, batch)
        assert profiling.counter("cooling.simulations") == len(batch)
        assert _bits(after) == _bits(first)

    def test_concurrent_threads_share_one_scorer(self, case):
        """Service job threads scoring one context at once get the serial
        costs, from one scorer built once."""
        plan = case.tree_plan()
        rng = np.random.default_rng(7)
        batch = [plan.params()]
        for _ in range(5):
            jitter = 2 * rng.integers(-2, 3, size=batch[-1].shape)
            batch.append(plan.clamp_params(batch[-1] + jitter))
        fresh = StageContext(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, FIXED_PRESSURE
        ).scorer()
        expected = _bits([fresh(p) for p in batch])
        profiling.reset()
        got, errors = [], []

        def client(order):
            try:
                costs = self._serial(case, plan, [batch[i] for i in order])
                got.append(_bits([costs[order.index(i)] for i in range(6)]))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        orders = [list(range(6)), list(range(5, -1, -1))] * 2
        threads = [threading.Thread(target=client, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert got == [expected] * len(orders)
        assert profiling.counter("parallel.context_loads") == 1

    def test_pool_workers_start_cold(self, case):
        """A forked worker does not inherit the parent's scorers: it scores
        a context the parent already memoized with its own simulations."""
        plan = case.tree_plan()
        batch = self._batch(plan)
        serial = self._serial(case, plan, batch)
        profiling.reset()
        context = StageContext(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, FIXED_PRESSURE
        )
        with PersistentEvaluationPool(n_workers=1) as pool:
            pooled = pool.evaluate(batch, context)
        assert profiling.counter("cooling.simulations") == len(batch)
        assert _bits(pooled) == _bits(serial)

    # Python 3.12 warns about every fork of a multi-threaded process; such
    # a fork is the subject of this test.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_child_forked_mid_lookup_can_score(self, case):
        """A child forked while another thread holds the scorer LRU's lock
        must not inherit it held: its first lookup would wait forever."""
        from repro.optimize import parallel

        plan = case.tree_plan()
        task = parallel._context_task(StageContext(
            case, plan, FIXED_STAGE, PROBLEM_PUMPING_POWER, FIXED_PRESSURE
        ))
        parallel._context_scorer(*task)
        assert fork_while_busy(
            lambda: parallel._context_scorer(*task),
            lambda: parallel._context_scorer(*task),
        ) == []


POOL_OWNER = """
import time
from repro.optimize.parallel import PersistentEvaluationPool

pool = PersistentEvaluationPool(n_workers=2)
print(*(worker.process.pid for worker in pool._workers), flush=True)
time.sleep(120)
"""


def process_ended(pid):
    """Whether ``pid`` is gone or a zombie waiting for its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads process states from /proc"
)
def test_workers_exit_when_their_parent_is_killed():
    """SIGKILL leaves a pool no chance to close: its workers must notice
    the parent's end of their pipes closing and exit by themselves."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    owner = subprocess.Popen(
        [sys.executable, "-c", POOL_OWNER],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        pids = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(pids) == 2
        owner.send_signal(signal.SIGKILL)
        owner.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not all(map(process_ended, pids)):
            time.sleep(0.01)
        assert all(map(process_ended, pids)), "orphaned workers still alive"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(owner.pid, signal.SIGKILL)
        owner.wait(timeout=30)
        owner.stdout.close()


def batch_anneal(batch_cost, neighbor, config, batch_size):
    """``(best, best_cost, history)`` of the one loop on a fresh chain."""
    chain = Chain.start(0, batch_cost, config)
    history = anneal(
        chain, batch_cost, neighbor, config, batch_size,
        warm_up=warm_up_first_batch,
    )
    return chain.best, chain.best_cost, history


class TestBatchSA:
    def test_optimizes_quadratic(self):
        def batch_cost(states):
            return [float((s - 7) ** 2) for s in states]

        def neighbor(state, rng):
            return state + int(rng.choice((-1, 1)))

        config = SAConfig(iterations=60, seed=1)
        best, cost, history = batch_anneal(batch_cost, neighbor, config, 4)
        assert best == 7 and cost == 0.0
        assert history.proposed == pytest.approx(60 * 4, abs=4 * 60)

    def test_batch_size_one_equivalent_semantics(self):
        def batch_cost(states):
            return [float((s - 3) ** 2) for s in states]

        def neighbor(state, rng):
            return state + int(rng.choice((-1, 1)))

        config = SAConfig(iterations=80, seed=2)
        best, cost, _ = batch_anneal(batch_cost, neighbor, config, 1)
        assert cost == 0.0

    def test_invalid_batch_size(self):
        config = SAConfig(iterations=5, seed=0)
        with pytest.raises(SearchError):
            batch_anneal(lambda s: [0.0] * len(s), lambda s, r: s, config, 0)


class TestEndToEndBatchFlow:
    def test_problem1_with_batches(self, case):
        stages = [
            StageConfig("b", 3, 1, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm")
        ]
        result = optimize_problem1(
            case, stages=stages, directions=(0,), seed=0, batch_size=3
        )
        assert result.evaluation is not None
        assert result.total_simulations > 0
