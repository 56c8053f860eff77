"""Wake-on-change: the store's notifier, and the loops that sleep on it.

Idle workers and ``follow=1`` streams wait on
:meth:`JobStore.wait_for_change` instead of sleeping out a poll tick, so
a submit is claimed, and a terminal event delivered, the moment it lands.
One process owns the store, so every writer notifies it and nothing
polls: a worker's only timed wait is for a retry backoff to end, and a
stream's is its heartbeat.
"""

import collections
import sys
import threading
import time

import pytest

from repro import profiling
from repro.server import ApiServer, DesignService, JobStore, ServiceClient, Worker
from repro.server.records import STATE_COMPLETED, STATE_PENDING, STATE_RUNNING

from .conftest import QUICK_PAYLOAD
from .test_chaos import long_spec, wait_until

WATCHDOG = 120.0


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "store") as store:
        yield store


def waiter(store, seen, timeout, records_only=False):
    """``wait_for_change`` on a thread; ``(done, result)`` to poll."""
    done = threading.Event()
    result = {}

    def run():
        result["generation"] = store.wait_for_change(
            seen, timeout, records_only=records_only
        )
        done.set()

    threading.Thread(target=run, daemon=True).start()
    return done, result


def start_workers(store, names, stop):
    threads = []
    for name in names:
        thread = threading.Thread(
            target=Worker(store, worker_id=name).run_forever,
            args=(stop.is_set,),
            name=name,
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    return threads


def stop_workers(store, stop, threads):
    stop.set()
    store.wake()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()


def count_scans(store):
    """Count ``claimable`` scans per calling thread name."""
    scans = collections.Counter()
    scan = store.claimable

    def counting(now=None):
        scans[threading.current_thread().name] += 1
        return scan(now)

    store.claimable = counting
    return scans


# -- the notifier --------------------------------------------------------


@pytest.mark.parametrize("change", ["submit", "update", "log_event"])
def test_wait_for_change_wakes_on_every_write(store, quick_spec, change):
    record = store.submit(quick_spec)
    seen = store.generation()
    done, result = waiter(store, seen, timeout=30.0)
    time.sleep(0.05)
    assert not done.is_set()
    if change == "submit":
        store.submit(quick_spec)
    elif change == "update":
        store.update(record.with_state(STATE_RUNNING, worker="w-test"))
    else:
        store.log_event(record.job_id, "job.claimed", worker="w-test")
    assert done.wait(1.0), f"{change} did not wake the waiter"
    assert result["generation"] > seen


def test_wait_for_change_times_out_when_nothing_changes(store):
    seen = store.generation()
    start = time.monotonic()
    assert store.wait_for_change(seen, 0.2) == seen
    assert time.monotonic() - start >= 0.2


def test_events_do_not_wake_record_waiters(store, quick_spec):
    record = store.submit(quick_spec)
    seen = store.generation(records_only=True)
    done, result = waiter(store, seen, timeout=0.3, records_only=True)
    store.log_event(record.job_id, "portfolio.round", round=0)
    assert not done.wait(0.15), "an event append woke a records-only waiter"
    assert done.wait(5.0)
    assert result["generation"] == seen
    store.update(record.with_state(STATE_RUNNING, worker="w-test"))
    assert store.generation(records_only=True) == seen + 1


def test_concurrent_writers_lose_no_change(store, quick_spec):
    """Writers on more threads than cores, switching every microsecond:
    every append counts once, and a waiter following along sees the
    last one."""
    record = store.submit(quick_spec)
    start = store.generation()
    writers, appends = 8, 40
    final = start + writers * appends
    seen_final = threading.Event()

    def follow():
        seen = start
        deadline = time.monotonic() + 30.0
        while seen != final and time.monotonic() < deadline:
            seen = store.wait_for_change(seen, 1.0)
        if seen == final:
            seen_final.set()

    def write():
        for i in range(appends):
            store.log_event(record.job_id, "portfolio.round", round=i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        follower = threading.Thread(target=follow, daemon=True)
        follower.start()
        threads = [threading.Thread(target=write) for _ in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        follower.join(timeout=30.0)
        assert not follower.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert store.generation() == final
    assert seen_final.is_set()
    assert len(store.events(record.job_id)) == 1 + writers * appends


# -- the claim loop --------------------------------------------------------


def test_idle_worker_claims_a_submit_at_once(store, quick_spec, watchdog):
    """An idle worker has no poll: only the wake can claim the job."""
    scans = count_scans(store)
    stop = threading.Event()
    threads = start_workers(store, ["w-idle"], stop)
    try:
        assert wait_until(lambda: scans["w-idle"] >= 1, 10.0)
        time.sleep(0.1)  # well into the idle wait
        submitted = time.monotonic()
        record = store.submit(quick_spec)
        assert wait_until(
            lambda: store.get(record.job_id).state != STATE_PENDING, 1.0
        ), "the idle worker slept through the submit"
        claimed = time.monotonic() - submitted
        with watchdog(WATCHDOG):
            assert wait_until(
                lambda: store.get(record.job_id).state == STATE_COMPLETED,
                WATCHDOG,
            )
    finally:
        stop_workers(store, stop, threads)
    queue_wait = profiling.histogram("server.queue_wait")
    assert queue_wait is not None and queue_wait.count == 1
    assert queue_wait.vmax <= claimed + 0.05


def test_idle_worker_claims_when_the_backoff_ends(store, quick_spec, watchdog):
    """The one timed wait: a requeued job is claimed as its backoff ends,
    with no record change to wake the worker."""
    record = store.submit(quick_spec)
    gate = time.time() + 0.3
    store.update(record.with_state(STATE_PENDING, not_before=gate))
    stop = threading.Event()
    threads = start_workers(store, ["w-gated"], stop)
    try:
        assert wait_until(
            lambda: store.get(record.job_id).state != STATE_PENDING, 10.0
        ), "the worker slept through the end of the backoff"
        claimed_at = time.time()
        with watchdog(WATCHDOG):
            assert wait_until(
                lambda: store.get(record.job_id).state == STATE_COMPLETED,
                WATCHDOG,
            )
    finally:
        stop_workers(store, stop, threads)
    assert gate <= claimed_at < gate + 1.0


def test_progress_events_do_not_make_idle_workers_rescan(
    store, quick_spec, watchdog
):
    scans = count_scans(store)
    stop = threading.Event()
    names = ["w-a", "w-b"]
    threads = start_workers(store, names, stop)
    try:
        assert wait_until(lambda: all(scans[n] >= 1 for n in names), 10.0)
        record = store.submit(long_spec(quick_spec))
        with watchdog(WATCHDOG):
            assert wait_until(
                lambda: store.get(record.job_id).state == STATE_COMPLETED,
                WATCHDOG,
            )
    finally:
        stop_workers(store, stop, threads)
    ran = store.get(record.job_id).worker
    (idle,) = [name for name in names if name != ran]
    rounds = sum(
        1 for e in store.events(record.job_id) if e["type"] == "portfolio.round"
    )
    assert rounds >= 8
    # Startup, the submit, the running flip, the completion (plus the
    # stop wake): record writes only, never one per round.
    assert scans[idle] <= 5, (scans, rounds)


# -- the event stream and shutdown -----------------------------------------


def test_follow_delivers_each_event_at_once(store):
    """An event appended while the stream idles, and the terminal
    ``job.completed`` + ``stream.end``, reach the follower at once, not at
    the stream's next heartbeat."""
    api = ApiServer(store, stream_heartbeat=5.0)
    api.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{api.port}", timeout=10.0)
        idle_delays, final_delays = [], []
        for _ in range(7):
            job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]
            arrivals = []
            done = threading.Event()

            def follow(job_id=job_id, arrivals=arrivals, done=done):
                for event in client.follow_events(job_id):
                    arrivals.append((event, time.time()))
                done.set()

            threading.Thread(target=follow, daemon=True).start()
            assert wait_until(lambda: len(arrivals) >= 1, 10.0)
            time.sleep(0.15)  # the stream is idle-waiting now
            record = store.update(
                store.get(job_id).with_state(STATE_RUNNING, worker="w-test")
            )
            store.log_event(job_id, "job.claimed", worker="w-test")
            assert wait_until(lambda: len(arrivals) >= 2, 10.0)
            claimed, at = arrivals[1]
            idle_delays.append(at - claimed["t_wall"])
            time.sleep(0.15)
            store.update(record.with_state(STATE_COMPLETED))
            # Commit order puts the final event after the record flip; the
            # gap makes the stream linger for it.
            time.sleep(0.01)
            store.log_event(job_id, "job.completed", worker="w-test")
            assert done.wait(10.0)
            (completed, at), (end, end_at) = arrivals[-2:]
            assert completed["type"] == "job.completed"
            assert (end["type"], end["reason"]) == ("stream.end", "completed")
            final_delays.append(max(at, end_at) - completed["t_wall"])
    finally:
        api.shutdown()
    for delays in (idle_delays, final_delays):
        assert sorted(delays)[len(delays) // 2] < 0.02, delays


def test_stop_on_an_idle_service_returns_at_once(tmp_path):
    """Workers and API all wake on ``stop()``: idle workers wait on the
    store with no timeout, so only the wake can end them in time."""
    service = DesignService(tmp_path / "svc", n_workers=2)
    service.start()
    time.sleep(0.3)  # every thread is in its idle wait
    start = time.monotonic()
    service.stop(timeout=10.0)
    elapsed = time.monotonic() - start
    assert not any(thread.is_alive() for thread in service._threads)
    assert elapsed < 0.5, elapsed
