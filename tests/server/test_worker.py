"""Workers and recovery: retries, quarantine, drains, and contention."""

import threading
import time

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SITE_SERVER_WORKER,
)
from repro.server import JobStore, Worker, recover_running
from repro.server.records import (
    STATE_COMPLETED,
    STATE_PENDING,
    STATE_QUARANTINED,
    STATE_RUNNING,
)

WATCHDOG = 120.0


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "store") as store:
        yield store


def event_types(store, job_id):
    return [e["type"] for e in store.events(job_id)]


def test_worker_completes_a_job(watchdog, store, quick_spec):
    record = store.submit(quick_spec)
    worker = Worker(store, worker_id="w-1")
    with watchdog(WATCHDOG):
        assert worker.claim_once() == record.job_id
    final = store.get(record.job_id)
    assert final.state == STATE_COMPLETED
    assert final.attempts == 0
    result = store.read_result(record.job_id)
    assert result["winner"] == "multi_fidelity"
    assert result["score"] == pytest.approx(result["score"])  # finite
    types = event_types(store, record.job_id)
    # Lifecycle events bracket the run; the worker's progress callback
    # interleaves live portfolio events between claim and completion.
    assert types[:2] == ["job.submitted", "job.claimed"]
    assert types[-1] == "job.completed"
    assert "portfolio.round" in types
    assert all(t.startswith(("job.", "portfolio.", "run.")) for t in types)


def test_empty_queue_claims_nothing(store):
    assert Worker(store).claim_once() is None


def test_injected_crash_retries_with_backoff_then_succeeds(
    watchdog, store, quick_spec
):
    record = store.submit(quick_spec)
    worker = Worker(store, worker_id="w-1", retry_backoff=0.3)
    plan = FaultPlan(
        [FaultSpec(site=SITE_SERVER_WORKER, kind="raise-crash", max_fires=1)],
        seed=1,
    )
    with watchdog(WATCHDOG), FaultInjector(plan):
        assert worker.claim_once() == record.job_id
        failed = store.get(record.job_id)
        assert failed.state == STATE_PENDING
        assert failed.attempts == 1
        assert "injected crash" in failed.error
        assert failed.not_before > failed.updated_at  # backoff applied
        assert worker.claim_once() is None  # gated by backoff
        time.sleep(0.4)
        assert worker.claim_once() == record.job_id  # retry succeeds
    final = store.get(record.job_id)
    assert final.state == STATE_COMPLETED
    assert final.attempts == 1
    assert "job.failed" in event_types(store, record.job_id)


def test_poison_job_is_quarantined_after_max_attempts(
    watchdog, store, quick_spec
):
    spec = dict(quick_spec)
    spec["max_attempts"] = 2
    record = store.submit(spec)
    worker = Worker(store, worker_id="w-1", retry_backoff=0.01)
    plan = FaultPlan(
        [FaultSpec(site=SITE_SERVER_WORKER, kind="raise-crash")], seed=1
    )
    with watchdog(WATCHDOG), FaultInjector(plan):
        assert worker.claim_once() == record.job_id
        time.sleep(0.05)
        assert worker.claim_once() == record.job_id
        time.sleep(0.05)
        assert worker.claim_once() is None  # quarantined: never claimable
    final = store.get(record.job_id)
    assert final.state == STATE_QUARANTINED
    assert final.attempts == 2
    assert final.terminal
    assert "job.quarantined" in event_types(store, record.job_id)


def test_graceful_drain_requeues_without_charging_an_attempt(
    watchdog, store, quick_spec
):
    record = store.submit(quick_spec)
    worker = Worker(store, worker_id="w-1")
    with watchdog(WATCHDOG):
        # stop_check is already true: the run checkpoints at the first
        # round boundary and defers the rest.
        assert worker.claim_once(stop_check=lambda: True) == record.job_id
    drained = store.get(record.job_id)
    assert drained.state == STATE_PENDING
    assert drained.attempts == 0  # drains are free: not a failure
    assert "job.interrupted" in event_types(store, record.job_id)
    ckpt = store.checkpoint_dir(record.job_id)
    assert any(ckpt.iterdir())  # resumable state reached disk
    with watchdog(WATCHDOG):
        assert worker.claim_once() == record.job_id  # picks it back up
    assert store.get(record.job_id).state == STATE_COMPLETED
    assert "job.resumed" in event_types(store, record.job_id)


def test_two_workers_one_job_exactly_one_executes(
    watchdog, store, quick_spec
):
    record = store.submit(quick_spec)
    results = {}
    barrier = threading.Barrier(2)

    def claim(name):
        worker = Worker(store, worker_id=name)
        barrier.wait()
        results[name] = worker.claim_once()

    threads = [
        threading.Thread(target=claim, args=(f"w-{i}",)) for i in range(2)
    ]
    with watchdog(WATCHDOG):
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    claimed = [v for v in results.values() if v is not None]
    assert claimed == [record.job_id]  # exactly one winner
    types = event_types(store, record.job_id)
    assert types.count("job.claimed") == 1
    assert types.count("job.completed") == 1
    assert store.get(record.job_id).state == STATE_COMPLETED


def fake_dead_owner(store, spec):
    """A job its (dead) worker left ``running``, as a restart finds it."""
    record = store.submit(spec)
    return store.update(record.with_state(STATE_RUNNING, worker="w-dead"))


def test_recovery_requeues_a_running_job(watchdog, store, quick_spec):
    record = fake_dead_owner(store, quick_spec)
    assert recover_running(store, retry_backoff=0.01) == [record.job_id]
    recovered = store.get(record.job_id)
    assert recovered.state == STATE_PENDING
    assert recovered.attempts == 1  # the crash cost one attempt
    assert recovered.worker is None
    assert "w-dead" in recovered.error
    (event,) = [
        e for e in store.events(record.job_id) if e["type"] == "job.recovered"
    ]
    assert (event["dead_worker"], event["state"]) == ("w-dead", STATE_PENDING)
    assert recover_running(store) == []  # nothing left running
    time.sleep(0.05)  # clear the requeue backoff
    with watchdog(WATCHDOG):
        assert Worker(store).claim_once() == record.job_id
    assert store.get(record.job_id).state == STATE_COMPLETED


def test_recovery_quarantines_at_max_attempts(store, quick_spec):
    spec = dict(quick_spec)
    spec["max_attempts"] = 1
    record = fake_dead_owner(store, spec)
    assert recover_running(store) == [record.job_id]
    final = store.get(record.job_id)
    assert final.state == STATE_QUARANTINED
    assert final.attempts == 1
    types = event_types(store, record.job_id)
    assert types[-2:] == ["job.recovered", "job.quarantined"]


def test_recovery_commits_half_completed_jobs(store, quick_spec):
    """A worker that died between writing the result and flipping the
    record must not cost a re-run: recovery commits the completion."""
    record = fake_dead_owner(store, quick_spec)
    store.write_result(record.job_id, {"score": 0.5, "winner": "x"})
    assert recover_running(store) == [record.job_id]
    final = store.get(record.job_id)
    assert final.state == STATE_COMPLETED
    assert final.attempts == 0  # the work was NOT redone
    assert store.read_result(record.job_id)["score"] == 0.5
    types = event_types(store, record.job_id)
    assert types[-2:] == ["job.recovered", "job.completed"]


def test_failing_claim_write_leaves_job_pending(store, quick_spec):
    """The atomic record write is the claim: when it fails, nothing was
    claimed and the job stays pending with no attempt charged."""
    record = store.submit(quick_spec)
    worker = Worker(store, worker_id="w-1")
    original = store.update

    def broken_update(record):
        raise OSError("disk fell over")

    store.update = broken_update
    try:
        with pytest.raises(OSError, match="disk fell over"):
            worker.claim_once()
    finally:
        store.update = original
    pending = store.get(record.job_id)
    assert pending.state == STATE_PENDING
    assert pending.attempts == 0


def test_failure_after_claim_requeues_with_one_attempt(
    watchdog, store, quick_spec
):
    """An unexpected exception after the record flip must not strand a
    ``running`` job with no worker: the claim path charges one attempt
    and requeues it before the exception propagates."""
    record = store.submit(quick_spec)
    worker = Worker(store, worker_id="w-1", retry_backoff=0.01)
    original = store.write_result

    def broken_write_result(job_id, result):
        raise OSError("disk fell over")

    store.write_result = broken_write_result
    try:
        with watchdog(WATCHDOG), pytest.raises(OSError, match="disk fell"):
            worker.claim_once()
    finally:
        store.write_result = original
    requeued = store.get(record.job_id)
    assert requeued.state == STATE_PENDING
    assert requeued.attempts == 1
    assert "OSError" in requeued.error
    assert "job.failed" in event_types(store, record.job_id)
    time.sleep(0.05)
    with watchdog(WATCHDOG):
        assert worker.claim_once() == record.job_id
    assert store.get(record.job_id).state == STATE_COMPLETED
