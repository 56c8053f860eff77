"""The durable job store: ownership, admission, ordering, caps, and scan
hygiene."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import (
    JobNotFoundError,
    JobQueueFullError,
    JobStateError,
    JobStoreLockedError,
)
from repro.server import JobStore
from repro.server.records import (
    STATE_COMPLETED,
    STATE_PENDING,
    STATE_QUARANTINED,
    STATE_RUNNING,
)


SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "store", tenant_cap=2) as store:
        yield store


def test_second_store_on_a_held_root_is_typed(store, quick_spec):
    with pytest.raises(JobStoreLockedError, match="owned by another"):
        JobStore(store.root)
    record = store.submit(quick_spec)
    store.close()
    assert store.closed
    assert store.get(record.job_id) == record  # reads outlive ownership
    with pytest.raises(JobStateError, match="closed"):
        store.update(record.with_state(STATE_RUNNING, worker="w"))
    with JobStore(store.root) as successor:  # the root is free at once
        assert successor.get(record.job_id) == record


def _sleep_until_killed(ready):
    ready.set()
    time.sleep(600)


def test_forked_child_does_not_keep_the_root_locked(store):
    """A forked pool worker can outlive its server (SIGKILL orphans it);
    its inherited copy of the lock file must not keep the root locked."""
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Event()
    child = ctx.Process(target=_sleep_until_killed, args=(ready,))
    child.start()
    try:
        assert ready.wait(30.0)
        store.close()  # the owner goes; the child lives on
        with JobStore(store.root):
            pass
    finally:
        child.kill()
        child.join(30.0)


HOLDER_SCRIPT = """
import sys, time
from repro.server import JobStore

store = JobStore(sys.argv[1])
print("held", flush=True)
time.sleep(600)
"""


def test_store_lock_spans_processes_and_dies_with_its_owner(tmp_path):
    root = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLDER_SCRIPT, str(root)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert holder.stdout.readline().strip() == "held"
        with pytest.raises(JobStoreLockedError):
            JobStore(root)
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=30)
    finally:
        holder.kill()
        holder.wait(timeout=30)
        holder.stdout.close()
    with JobStore(root):  # no TTL to wait out: the kernel freed the lock
        pass


def test_submit_get_round_trip(store, quick_spec):
    record = store.submit(quick_spec, tenant="acme")
    loaded = store.get(record.job_id)
    assert loaded == record
    assert loaded.state == STATE_PENDING
    assert loaded.spec == quick_spec
    assert loaded.submitted_at > 0
    types = [e["type"] for e in store.events(record.job_id)]
    assert types == ["job.submitted"]


def test_unknown_job_is_typed(store):
    with pytest.raises(JobNotFoundError):
        store.get("j-nope")
    with pytest.raises(JobNotFoundError):
        store.events("j-nope")


def test_listing_is_submission_ordered(store, quick_spec):
    ids = [store.submit(quick_spec, tenant=f"t{i}").job_id for i in range(3)]
    assert [r.job_id for r in store.list_jobs()] == ids
    assert [r.job_id for r in store.claimable()] == ids


def test_backoff_gates_claimability(store, quick_spec):
    record = store.submit(quick_spec)
    store.update(
        record.with_state(STATE_PENDING, not_before=time.time() + 60.0)
    )
    assert store.claimable() == []
    assert len(store.list_jobs()) == 1
    assert 59.0 < store.next_claim_in() <= 60.0


def test_nothing_gated_means_no_timed_wait(store, quick_spec):
    assert store.next_claim_in() is None
    store.submit(quick_spec)  # claimable now: not a gate either
    assert store.next_claim_in() is None


def test_tenant_cap_rejects_with_retry_after(store, quick_spec):
    store.submit(quick_spec, tenant="acme")
    store.submit(quick_spec, tenant="acme")
    with pytest.raises(JobQueueFullError) as excinfo:
        store.submit(quick_spec, tenant="acme")
    assert excinfo.value.retry_after == 15.0
    # Another tenant's queue is unaffected.
    store.submit(quick_spec, tenant="other")


def test_terminal_jobs_free_tenant_capacity(store, quick_spec):
    first = store.submit(quick_spec, tenant="acme")
    store.submit(quick_spec, tenant="acme")
    store.update(first.with_state(STATE_COMPLETED))
    assert store.active_count("acme") == 1
    store.submit(quick_spec, tenant="acme")  # admitted again


def test_queue_depth_counts_states(store, quick_spec):
    a = store.submit(quick_spec, tenant="a")
    b = store.submit(quick_spec, tenant="b")
    store.submit(quick_spec, tenant="c")
    store.update(a.with_state(STATE_RUNNING, worker="w"))
    store.update(b.with_state(STATE_QUARANTINED, error="poison"))
    depth = store.queue_depth()
    assert depth["pending"] == 1
    assert depth["running"] == 1
    assert depth["quarantined"] == 1
    assert depth["invalid"] == 0


def test_scan_surfaces_invalid_records(store, quick_spec):
    good = store.submit(quick_spec)
    broken_dir = store.jobs_dir / "j-broken"
    broken_dir.mkdir()
    (broken_dir / "record.json").write_bytes(b"\x00 not a record")
    empty_dir = store.jobs_dir / "j-empty"  # crash between mkdir and write
    empty_dir.mkdir()
    records, invalid = store.scan()
    assert [r.job_id for r in records] == [good.job_id]
    assert sorted(invalid) == ["j-broken", "j-empty"]
    assert store.queue_depth()["invalid"] == 2


def test_result_requires_completion(store, quick_spec):
    record = store.submit(quick_spec)
    with pytest.raises(JobStateError, match="not completed"):
        store.read_result(record.job_id)
    store.write_result(record.job_id, {"score": 1.25})
    with pytest.raises(JobStateError, match="not completed"):
        store.read_result(record.job_id)  # result file alone is not enough
    store.update(record.with_state(STATE_COMPLETED))
    assert store.read_result(record.job_id) == {"score": 1.25}


def test_update_of_unknown_job_is_typed(store, quick_spec):
    record = store.submit(quick_spec)
    import shutil

    shutil.rmtree(store.job_dir(record.job_id))
    with pytest.raises(JobNotFoundError):
        store.update(record.with_state(STATE_RUNNING))


def test_events_offset_pagination(store, quick_spec):
    record = store.submit(quick_spec)
    store.log_event(record.job_id, "job.claimed", worker="w")
    store.log_event(record.job_id, "job.completed", worker="w")
    all_events = store.events(record.job_id)
    assert [e["type"] for e in all_events] == [
        "job.submitted",
        "job.claimed",
        "job.completed",
    ]
    assert [e["type"] for e in store.events(record.job_id, offset=2)] == [
        "job.completed"
    ]
