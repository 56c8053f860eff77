"""Live event streams (``follow=1``): delivery latency, half-close, chaos.

The stream is the service's only push channel, so these tests pin down its
contract: every durable event is delivered (within one heartbeat of being
logged), the final lifecycle event always precedes the synthetic
``stream.end`` record, a vanished client costs the server nothing but one
handler thread that exits by the next write, and a follower spanning a
server SIGKILL + restart recovery sees the whole recovery story, resuming
from its offset on the restarted server.
"""

import http.client
import json
import os
import signal
import threading
import time

import pytest

from repro.errors import JobError
from repro.optimize.portfolio import PORTFOLIO_CHECKPOINT
from repro.server import ApiServer, DesignService, JobStore, ServiceClient
from repro.server.records import STATE_COMPLETED, STATE_RUNNING

from .conftest import QUICK_PAYLOAD
from .test_chaos import client_of, kill_session, long_spec, serve, wait_until

WATCHDOG = 240.0

#: Streams in these tests heartbeat fast so disconnect detection and
#: final-event grace windows stay interactive-speed.
HEARTBEAT = 0.5


@pytest.fixture
def api(tmp_path):
    """An API over a store with NO workers: streams idle until we act."""
    server = ApiServer(
        JobStore(tmp_path / "store"), stream_heartbeat=HEARTBEAT
    )
    server.start()
    yield server
    server.shutdown()
    server.store.close()


@pytest.fixture
def client(api):
    return ServiceClient(f"http://127.0.0.1:{api.port}", timeout=5.0)


def follow_in_thread(client, job_id, offset=0):
    """Collect ``(event, arrival_monotonic)`` pairs off a follower thread."""
    collected = []
    done = threading.Event()

    def run():
        try:
            for event in client.follow_events(job_id, offset=offset):
                collected.append((event, time.time()))
        finally:
            done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return collected, done, thread


def test_follow_streams_live_run_within_one_heartbeat(tmp_path, watchdog):
    """End to end: every event of a real run arrives on the stream within
    one heartbeat of being written, and the final event precedes
    ``stream.end`` (reason ``completed``)."""
    service = DesignService(
        tmp_path / "svc", n_workers=1,
        stream_heartbeat=2.0,
    )
    service.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]
        events = []
        with watchdog(WATCHDOG):
            for event in client.follow_events(job_id):
                events.append((event, time.time()))
    finally:
        service.stop()
    types = [event["type"] for event, _ in events]
    assert types[0] == "job.submitted"
    assert "portfolio.round" in types  # live progress, not just lifecycle
    assert types[-2:] == ["job.completed", "stream.end"]
    end = events[-1][0]
    assert end["reason"] == "completed"
    assert end["next_offset"] == len(events) - 1  # resume point
    for event, arrived in events[:-1]:
        latency = arrived - event["t_wall"]
        assert latency <= 2.0, (event["type"], latency)


def test_follow_offset_skips_delivered_events(api, client):
    job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]
    store = api.store
    store.log_event(job_id, "job.claimed", worker="w-test")
    collected, done, _ = follow_in_thread(client, job_id, offset=1)
    assert wait_until(lambda: len(collected) >= 1, 10.0)
    record = store.get(job_id)
    store.update(record.with_state(STATE_RUNNING, worker="w-test"))
    store.log_event(job_id, "job.completed", worker="w-test")
    store.update(store.get(job_id).with_state(STATE_COMPLETED))
    assert done.wait(10.0)
    types = [event["type"] for event, _ in collected]
    assert "job.submitted" not in types  # offset=1 skipped it
    assert types == ["job.claimed", "job.completed", "stream.end"]


def test_follower_spans_server_sigkill_and_restart_recovery(
    tmp_path, watchdog
):
    """A follower observes the whole crash story: claim, SIGKILL (the
    stream breaks with a typed error), then, following the restarted
    server from its offset, recovery, resume, completion and stream end --
    nothing lost, nothing delivered twice."""
    root = tmp_path / "store"
    first = serve(root)
    collected, broke = [], []
    try:
        client = client_of(first)
        job_id = client.submit(long_spec(dict(QUICK_PAYLOAD)))["job_id"]

        def follow():
            try:
                for event in client.follow_events(job_id):
                    collected.append(event)
            except JobError as exc:
                broke.append(exc)

        follower = threading.Thread(target=follow, daemon=True)
        follower.start()
        ckpt = root / "jobs" / job_id / "checkpoint" / PORTFOLIO_CHECKPOINT
        assert wait_until(ckpt.exists, WATCHDOG), "no checkpoint appeared"
        kill_session(first)
        follower.join(timeout=30)
        assert not follower.is_alive(), "the stream outlived its server"
        assert broke, "the stream ended without an error"

        second = serve(root)
        try:
            client = client_of(second)
            with watchdog(WATCHDOG):
                rest = [
                    (event, time.time())
                    for event in client.follow_events(
                        job_id, offset=len(collected)
                    )
                ]
            events = client.events(job_id)["events"]
        finally:
            second.send_signal(signal.SIGTERM)
            assert second.wait(timeout=60) == 0
            second.stdout.close()
    finally:
        kill_session(first)

    before = [event["type"] for event in collected]
    assert before[:2] == ["job.submitted", "job.claimed"], before
    after = [event["type"] for event, _ in rest]
    for expected in ("job.recovered", "job.resumed", "job.completed"):
        assert expected in after, (expected, after)
    assert after[-1] == "stream.end"
    assert rest[-1][0]["reason"] == "completed"
    # What the follower saw before the crash, then what it resumed from
    # its offset, is the whole log in order.
    assert collected + [event for event, _ in rest[:-1]] == events
    # The resume event arrived promptly, not at stream teardown.
    resumed, arrived = next(
        (event, at) for event, at in rest if event["type"] == "job.resumed"
    )
    assert arrived - resumed["t_wall"] <= 5.0


def test_client_disconnect_releases_thread_and_socket(api, client):
    """A follower that vanishes mid-stream is detected by the next write
    (at worst one heartbeat) and costs no leaked thread or fd."""
    job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]  # stays pending
    fd_dir = "/proc/self/fd"
    baseline_threads = threading.active_count()
    baseline_fds = len(os.listdir(fd_dir))

    conn = http.client.HTTPConnection("127.0.0.1", api.port, timeout=10.0)
    conn.request("GET", f"/v1/jobs/{job_id}/events?follow=1")
    response = conn.getresponse()
    assert response.status == 200
    assert response.getheader("Content-Type") == "application/x-ndjson"
    first = json.loads(response.readline())
    assert first["type"] == "job.submitted"
    conn.close()  # vanish without consuming the stream

    # The serving thread notices on its next write -- a heartbeat at most
    # -- and both the thread and the server-side socket go away.
    assert wait_until(
        lambda: threading.active_count() <= baseline_threads
        and len(os.listdir(fd_dir)) <= baseline_fds,
        HEARTBEAT * 20 + 10.0,
    ), (
        f"leak: {threading.active_count()} threads "
        f"(baseline {baseline_threads}), "
        f"{len(os.listdir(fd_dir))} fds (baseline {baseline_fds})"
    )


def test_follow_pending_job_ends_on_drain(api, client):
    job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]
    collected, done, _ = follow_in_thread(client, job_id)
    assert wait_until(lambda: len(collected) >= 1, 10.0)
    api.draining.set()
    assert done.wait(10.0), "drain did not terminate the pending stream"
    end = collected[-1][0]
    assert end["type"] == "stream.end"
    assert end["reason"] == "draining"


def test_follow_running_job_survives_drain_with_final_event(
    tmp_path, watchdog
):
    """SIGTERM-equivalent drain mid-job: the follower keeps its stream
    through the drain window and receives ``job.interrupted`` before the
    stream closes -- the in-flight work's fate is never silent."""
    service = DesignService(
        tmp_path / "svc", n_workers=1,
        stream_heartbeat=HEARTBEAT,
    )
    service.start()
    client = ServiceClient(f"http://127.0.0.1:{service.port}")
    payload = dict(QUICK_PAYLOAD)
    payload["rounds"] = 8  # long enough to still be running at stop()
    job_id = client.submit(payload)["job_id"]
    collected, done, _ = follow_in_thread(client, job_id)
    store = service.store
    with watchdog(WATCHDOG):
        while store.get(job_id).state == "pending":
            time.sleep(0.01)  # wait for a worker to claim it
        service.stop(timeout=WATCHDOG)
    assert done.wait(30.0), "drain did not terminate the stream"
    types = [event["type"] for event, _ in collected]
    assert types[-1] == "stream.end"
    end = collected[-1][0]
    if store.get(job_id).state == "pending":
        # Interrupted at a round boundary: final event then clean close.
        assert "job.interrupted" in types
        assert end["reason"] in ("draining", "shutdown")
    else:
        # The job beat the drain; then it closed as a normal completion.
        assert "job.completed" in types
        assert end["reason"] == "completed"


def test_idle_stream_emits_heartbeats(api, client):
    """A stream with nothing to say still writes ``#hb`` comments, so
    dead connections are detected and clients can distinguish silence
    from disconnection."""
    job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]
    conn = http.client.HTTPConnection("127.0.0.1", api.port, timeout=10.0)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events?follow=1")
        response = conn.getresponse()
        json.loads(response.readline())  # job.submitted
        line = response.readline().decode("utf-8").strip()
        assert line == "#hb"
    finally:
        conn.close()
