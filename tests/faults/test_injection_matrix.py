"""The chaos acceptance matrix: every fault kind at each of its sites.

Every row runs the *real* stack (no monkeypatching) under an armed
:class:`~repro.faults.FaultPlan` and must end, within the watchdog, in one
of exactly two outcomes:

* **recovered** -- the computation completes with the same result as the
  fault-free run (slow workers, survivable worker deaths), or with the
  injected infeasibility correctly scored ``inf``;
* **typed error** -- a :class:`~repro.errors.ReproError` subclass (or
  :class:`~repro.errors.CandidateCrashError` for deliberately untyped
  crashes, proving the crash boundary translates instead of swallowing).

A hang, a bare builtin exception, or a silently different result fails the
suite.
"""

import math

import numpy as np
import pytest

from repro.constants import CELL_WIDTH
from repro.cooling.evaluation import evaluate_problem1, evaluate_problem2
from repro.cooling.system import CoolingSystem
from repro.errors import (
    BenchmarkError,
    CandidateCrashError,
    FlowError,
    InjectedFaultError,
    ThermalError,
    WorkerTimeoutError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    KNOWN_KINDS,
    SITE_COOLING_PROBLEM1,
    SITE_COOLING_PROBLEM2,
    SITE_FLOW_MATRIX,
    SITE_FLOW_PRESSURES,
    SITE_IO_POWER_MAP,
    SITE_LINALG_UPDATE,
    SITE_PARALLEL_DISPATCH,
    SITE_PARALLEL_WORKER,
    SITE_THERMAL_RC2,
    SITE_THERMAL_RC4,
)
from repro.flow.network import clear_unit_cache
from repro.geometry import build_contest_stack
from repro.iccad2015 import load_case
from repro.iccad2015.io import read_floorplan, write_floorplan
from repro.materials import WATER
from repro.networks import serpentine_network
from repro.optimize.parallel import PersistentEvaluationPool
from repro.optimize.runner import PROBLEM_PUMPING_POWER
from repro.optimize.stages import METRIC_LOWEST_FEASIBLE_POWER, StageConfig

WATCHDOG = 60.0

DELTA_T_STAR = 50.0
T_MAX_STAR = 450.0
W_PUMP_STAR = 1e-3

STAGE = StageConfig("chaos", 4, 1, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm")


def small_stack():
    grid = serpentine_network(9, 9)
    power = np.full((9, 9), 0.01)
    return build_contest_stack(
        2, 2e-4, [power, power], lambda d: grid.copy(), 9, 9, CELL_WIDTH
    )


def run_evaluation(problem, model):
    """One fault-free-shaped network evaluation through the full stack."""
    clear_unit_cache()
    system = CoolingSystem(small_stack(), WATER, model=model)
    if problem == "problem1":
        return evaluate_problem1(system, DELTA_T_STAR, T_MAX_STAR)
    return evaluate_problem2(system, T_MAX_STAR, W_PUMP_STAR)


@pytest.fixture(scope="module")
def case():
    return load_case(1, grid_size=21)


@pytest.fixture(scope="module")
def candidates(case):
    plan = case.tree_plan()
    rng = np.random.default_rng(0)
    out = [plan.params()]
    for _ in range(3):
        jitter = 2 * rng.integers(-3, 4, size=out[-1].shape)
        out.append(plan.clamp_params(out[-1] + jitter))
    return out


@pytest.fixture(scope="module")
def baseline_costs(case, candidates):
    plan = case.tree_plan()
    with PersistentEvaluationPool(
        case, plan, STAGE, PROBLEM_PUMPING_POWER, n_workers=2
    ) as pool:
        return pool.evaluate(candidates)


def make_pool(case, fault_plan, **kwargs):
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


# ---------------------------------------------------------------------------
# In-process solver sites: corruption becomes a typed library error
# ---------------------------------------------------------------------------

IN_PROCESS_ERRORS = [
    ("singular-system", SITE_FLOW_MATRIX, "problem1", "2rm", FlowError),
    ("disconnect", SITE_FLOW_MATRIX, "problem1", "2rm", FlowError),
    ("nan", SITE_FLOW_PRESSURES, "problem1", "2rm", FlowError),
    ("inf", SITE_FLOW_PRESSURES, "problem1", "2rm", FlowError),
    ("nan", SITE_THERMAL_RC2, "problem1", "2rm", ThermalError),
    ("inf", SITE_THERMAL_RC2, "problem1", "2rm", ThermalError),
    ("nan", SITE_THERMAL_RC4, "problem1", "4rm", ThermalError),
    ("inf", SITE_THERMAL_RC4, "problem1", "4rm", ThermalError),
    ("nan", SITE_LINALG_UPDATE, "problem1", "2rm", ThermalError),
    ("inf", SITE_LINALG_UPDATE, "problem1", "2rm", ThermalError),
    (
        "raise-infeasible",
        SITE_COOLING_PROBLEM1,
        "problem1",
        "2rm",
        InjectedFaultError,
    ),
    (
        "raise-infeasible",
        SITE_COOLING_PROBLEM2,
        "problem2",
        "2rm",
        InjectedFaultError,
    ),
]


@pytest.mark.parametrize(
    "kind,site,problem,model,expected",
    IN_PROCESS_ERRORS,
    ids=[f"{k}@{s}" for k, s, *_ in IN_PROCESS_ERRORS],
)
def test_in_process_fault_raises_typed_error(
    watchdog, kind, site, problem, model, expected
):
    plan = FaultPlan([FaultSpec(site=site, kind=kind)], seed=1)
    with watchdog(WATCHDOG), FaultInjector(plan):
        with pytest.raises(expected):
            run_evaluation(problem, model)
    assert plan.fired() >= 1


IN_PROCESS_RECOVERIES = [
    ("slow", SITE_COOLING_PROBLEM1, None),
    ("hang", SITE_COOLING_PROBLEM1, 0.2),
    ("slow", SITE_FLOW_PRESSURES, None),
]


@pytest.mark.parametrize(
    "kind,site,delay",
    IN_PROCESS_RECOVERIES,
    ids=[f"{k}@{s}" for k, s, _ in IN_PROCESS_RECOVERIES],
)
def test_in_process_delay_recovers_with_same_result(
    watchdog, kind, site, delay
):
    baseline = run_evaluation("problem1", "2rm")
    plan = FaultPlan([FaultSpec(site=site, kind=kind, delay=delay)], seed=1)
    with watchdog(WATCHDOG), FaultInjector(plan):
        result = run_evaluation("problem1", "2rm")
    assert plan.fired() >= 1
    assert result.score == baseline.score
    assert result.feasible == baseline.feasible


# ---------------------------------------------------------------------------
# The load boundary: corrupted power maps are rejected on read
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["nan", "inf", "negative"])
def test_power_map_fault_rejected_at_load(watchdog, tmp_path, kind):
    path = tmp_path / "floorplan.txt"
    write_floorplan([np.full((3, 3), 0.5)], path)
    plan = FaultPlan([FaultSpec(site=SITE_IO_POWER_MAP, kind=kind)], seed=1)
    with watchdog(WATCHDOG), FaultInjector(plan):
        with pytest.raises(BenchmarkError, match="power density"):
            read_floorplan(path)
    assert plan.fired() == 1


# ---------------------------------------------------------------------------
# The serial scoring boundary: untyped crashes are translated, not hidden
# ---------------------------------------------------------------------------


def test_injected_crash_translates_to_candidate_crash(
    watchdog, case, candidates
):
    from repro.optimize.parallel import evaluate_population

    plan = FaultPlan(
        [FaultSpec(site=SITE_COOLING_PROBLEM1, kind="raise-crash")], seed=1
    )
    with watchdog(WATCHDOG), FaultInjector(plan):
        with pytest.raises(CandidateCrashError, match="injected crash"):
            evaluate_population(
                case,
                case.tree_plan(),
                STAGE,
                PROBLEM_PUMPING_POWER,
                candidates[:1],
                n_workers=1,
            )


# ---------------------------------------------------------------------------
# Pool sites: hangs, deaths, crashes inside worker processes
# ---------------------------------------------------------------------------


def test_worker_crash_is_typed(watchdog, case, candidates):
    fp = FaultPlan(
        [FaultSpec(site=SITE_PARALLEL_WORKER, kind="raise-crash", max_fires=1)],
        seed=3,
    )
    with watchdog(WATCHDOG), make_pool(case, fp) as pool:
        with pytest.raises(CandidateCrashError, match="injected crash"):
            pool.evaluate(candidates)


def test_worker_injected_infeasibility_scores_inf(watchdog, case, candidates):
    fp = FaultPlan(
        [FaultSpec(site=SITE_PARALLEL_WORKER, kind="raise-infeasible")],
        seed=3,
    )
    with watchdog(WATCHDOG), make_pool(case, fp) as pool:
        costs = pool.evaluate(candidates)
    assert costs == [math.inf] * len(candidates)


def test_worker_death_recovers(watchdog, case, candidates, baseline_costs):
    fp = FaultPlan(
        [
            FaultSpec(
                site=SITE_PARALLEL_WORKER,
                kind="worker-death",
                after=1,
                max_fires=1,
            )
        ],
        seed=3,
    )
    with watchdog(WATCHDOG), make_pool(case, fp) as pool:
        costs = pool.evaluate(candidates)
    assert costs == baseline_costs


def test_worker_slow_recovers(watchdog, case, candidates, baseline_costs):
    fp = FaultPlan(
        [FaultSpec(site=SITE_PARALLEL_WORKER, kind="slow", delay=0.02)],
        seed=3,
    )
    with watchdog(WATCHDOG), make_pool(case, fp) as pool:
        costs = pool.evaluate(candidates)
    assert costs == baseline_costs


def test_worker_hang_is_typed_timeout(watchdog, case, candidates):
    fp = FaultPlan(
        [FaultSpec(site=SITE_PARALLEL_WORKER, kind="hang", delay=30.0)],
        seed=3,
    )
    with watchdog(WATCHDOG), make_pool(
        case, fp, timeout=0.5, max_retries=1, degrade_after=99
    ) as pool:
        with pytest.raises(WorkerTimeoutError, match="no candidate"):
            pool.evaluate(candidates)


def test_dispatch_fault_is_typed(watchdog, case, candidates):
    fp = FaultPlan(
        [FaultSpec(site=SITE_PARALLEL_DISPATCH, kind="raise-infeasible")],
        seed=3,
    )
    with watchdog(WATCHDOG), FaultInjector(fp):
        with make_pool(case, None) as pool:
            with pytest.raises(InjectedFaultError, match="parallel.dispatch"):
                pool.evaluate(candidates)


# ---------------------------------------------------------------------------
# Queue sites: torn records, dying servers
# ---------------------------------------------------------------------------


def queue_store(tmp_path):
    from repro.server import JobStore, validate_submission

    store = JobStore(tmp_path / "store")
    spec = validate_submission(
        {
            "case_seed": 7,
            "grid": 9,
            "rounds": 2,
            "iterations": 1,
            "batch_size": 1,
        }
    )
    return store, spec


def test_torn_record_write_is_surfaced_not_served(watchdog, tmp_path):
    """A torn record write makes *that job* unreadable -- typed on access,
    counted by scan -- while the rest of the queue keeps working."""
    from repro.errors import JobRecordError
    from repro.faults import SITE_SERVER_RECORD

    store, spec = queue_store(tmp_path)
    plan = FaultPlan(
        [FaultSpec(site=SITE_SERVER_RECORD, kind="torn-write", max_fires=1)],
        seed=1,
    )
    with watchdog(WATCHDOG), FaultInjector(plan):
        torn = store.submit(dict(spec), tenant="a")
    assert plan.fired() == 1
    with pytest.raises(JobRecordError):
        store.get(torn.job_id)
    healthy = store.submit(dict(spec), tenant="b")  # queue still admits
    records, invalid = store.scan()
    assert [r.job_id for r in records] == [healthy.job_id]
    assert invalid == [torn.job_id]
    assert store.queue_depth()["invalid"] == 1


_QUEUE_WORKER_DEATH_SCRIPT = """
import sys
from repro.faults import FaultInjector, FaultPlan, FaultSpec, SITE_SERVER_WORKER
from repro.server import JobStore, Worker

store = JobStore(sys.argv[1])
plan = FaultPlan(
    [FaultSpec(site=SITE_SERVER_WORKER, kind="worker-death", max_fires=1)],
    seed=1,
)
with FaultInjector(plan):
    Worker(store, worker_id="w-doomed").claim_once()
"""


def test_queue_worker_death_leaves_job_reclaimable(watchdog, tmp_path):
    """``worker-death`` at the queue site is a real ``os._exit`` in a real
    process; the next owner of the store must recover the abandoned job."""
    import os
    import subprocess
    import sys
    import time as _time
    from pathlib import Path

    from repro.faults.plan import _DEATH_EXIT_CODE
    from repro.server import Worker, recover_running

    store, spec = queue_store(tmp_path)
    job_id = store.submit(spec).job_id
    store.close()  # the dying process owns the store next
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    with watchdog(WATCHDOG):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _QUEUE_WORKER_DEATH_SCRIPT,
                str(store.root),
            ],
            env=env,
            timeout=WATCHDOG,
        )
    assert proc.returncode == _DEATH_EXIT_CODE
    with type(store)(store.root) as store:
        assert recover_running(store, retry_backoff=0.01) == [job_id]
        recovered = store.get(job_id)
        assert recovered.state == "pending"
        assert recovered.attempts == 1
        _time.sleep(0.05)
        with watchdog(WATCHDOG):
            assert Worker(store, worker_id="w-2").claim_once() == job_id
        assert store.get(job_id).state == "completed"


# ---------------------------------------------------------------------------
# Matrix completeness
# ---------------------------------------------------------------------------


def test_matrix_covers_at_least_eight_kinds():
    exercised = {k for k, *_ in IN_PROCESS_ERRORS}
    exercised |= {k for k, _, _ in IN_PROCESS_RECOVERIES}
    exercised |= {"nan", "inf", "negative"}  # load boundary
    exercised |= {"raise-crash", "worker-death", "slow", "hang"}  # pool
    exercised |= {"torn-write", "raise-infeasible"}  # queue sites
    assert len(exercised) >= 8
    assert exercised == set(KNOWN_KINDS)
