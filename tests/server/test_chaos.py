"""SIGKILL chaos: no acknowledged job is lost, and recovered runs are
bitwise-identical to uninterrupted ones.

One process owns a store root.  Each scenario kills a real OS process
(the server, a submitter, a recovering server) with SIGKILL -- no cleanup
handlers run -- then proves the next owner of the root restores the queue
to a coherent state:

* server killed mid-optimization: its pool workers see their pipes close
  and exit on their own, so no process of the killed server is left; a
  restart on the same root and the same port starts at once, recovery
  charges the crash as one attempt, the job resumes from its checkpoint,
  and the final score bitwise-matches a never-interrupted run of the same
  spec;
* submitter killed mid-burst: every acknowledged job id has a complete,
  CRC-valid record; crash debris is at worst an empty job dir, never a
  torn record;
* server killed mid-recovery: the next start still charges exactly one
  attempt, not two, and the job then completes.

A second server on a held root is refused with the typed error.
"""

import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.optimize.portfolio import PORTFOLIO_CHECKPOINT
from repro.server import (
    JobStore,
    ServiceClient,
    Worker,
    read_record,
    recover_running,
    validate_submission,
)
from repro.server.records import (
    STATE_COMPLETED,
    STATE_PENDING,
    STATE_RUNNING,
)

from .conftest import QUICK_PAYLOAD

WATCHDOG = 240.0
SRC = Path(__file__).resolve().parents[2] / "src"

# Fields of the executor result that must survive a crash bit-for-bit.
EXACT_FIELDS = ("winner", "score", "p_sys", "w_pump", "t_max", "delta_t")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def spawn(script, *argv):
    """Run ``script`` in a fresh interpreter with the repo on sys.path."""
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, argv)],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def serve(root, port=0):
    """``repro serve`` on ``root`` in its own session, so a test can watch
    every process it started (:func:`session_ended`) and clean up after a
    failure (:func:`kill_session`)."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--root", str(root), "--port", str(port), "--workers", "1",
        ],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )


def client_of(server):
    """A client for a :func:`serve` process, once it reports its port."""
    line = server.stdout.readline()
    match = re.search(r"http://[0-9.]+:([0-9]+)", line)
    assert match, f"repro serve did not start: {line!r}"
    return ServiceClient(f"http://127.0.0.1:{match.group(1)}", timeout=30.0)


def session_ended(sid):
    """Whether no process of session ``sid`` is alive (a zombie waiting
    for its reaper has ended)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        if fields[0] != "Z" and int(fields[3]) == sid:
            return False
    return True


def kill_session(server):
    """SIGKILL a :func:`serve` process and every process of its session."""
    try:
        os.killpg(server.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    server.wait(timeout=30)
    server.stdout.close()


def wait_until(predicate, deadline, interval=0.01):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return False


def long_spec(quick_spec):
    """A run with several round-boundary checkpoints to kill between."""
    spec = dict(quick_spec)
    spec["rounds"] = 8
    return spec


def test_sigkill_server_restart_recovers_bitwise_identical_result(
    tmp_path, watchdog
):
    # Two pool workers per job: forked children that inherit the server's
    # open files, its listening socket among them.
    payload = long_spec(dict(QUICK_PAYLOAD, n_workers=2))

    # Baseline: the same spec, never interrupted.
    with JobStore(tmp_path / "baseline") as baseline_store:
        baseline_id = baseline_store.submit(
            validate_submission(dict(payload))
        ).job_id
        with watchdog(WATCHDOG):
            assert Worker(baseline_store, worker_id="w-calm").claim_once()
        baseline = baseline_store.read_result(baseline_id)

    root = tmp_path / "chaos"
    first = serve(root)
    try:
        client = client_of(first)
        port = int(client.base_url.rsplit(":", 1)[1])
        job_id = client.submit(dict(payload))["job_id"]
        job_dir = root / "jobs" / job_id
        # Die the instant resumable state reaches disk.
        ckpt = job_dir / "checkpoint" / PORTFOLIO_CHECKPOINT
        assert wait_until(ckpt.exists, WATCHDOG), "no checkpoint appeared"
        first.send_signal(signal.SIGKILL)
        first.wait(timeout=30)
        assert read_record(job_dir / "record.json").state == STATE_RUNNING
        # Its pool workers see their pipes close and exit by themselves.
        assert wait_until(lambda: session_ended(first.pid), 10.0), (
            "the killed server left processes behind"
        )

        # The restart owns the root and the port at once: no TTL to wait
        # out, and no orphan holds the listening socket.
        second = serve(root, port)
        try:
            client = client_of(second)
            with watchdog(WATCHDOG):
                final = client.wait(job_id, timeout=WATCHDOG)
            result = client.result(job_id)
            events = client.events(job_id)["events"]
        finally:
            second.send_signal(signal.SIGTERM)
            assert second.wait(timeout=60) == 0
            second.stdout.close()
    finally:
        kill_session(first)

    # Zero loss AND zero drift: resume produced the exact same design.
    assert final["attempts"] == 1
    for field in EXACT_FIELDS:
        assert result[field] == baseline[field], field
    types = [e["type"] for e in events]
    assert "job.recovered" in types
    assert "job.resumed" in types
    assert types[-1] == "job.completed"


def test_second_server_on_a_held_root_exits_with_the_typed_error(tmp_path):
    root = tmp_path / "store"
    first = serve(root)
    try:
        client_of(first)  # up, and owning the root
        second = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--root", str(root), "--port", "0",
            ],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=WATCHDOG,
        )
        assert second.returncode == 1
        assert "owned by another JobStore" in second.stderr
    finally:
        first.send_signal(signal.SIGTERM)
        assert first.wait(timeout=60) == 0
        first.stdout.close()


SUBMITTER_SCRIPT = """
import sys
from repro.server import JobStore, validate_submission

spec = validate_submission(
    {"case_seed": 7, "grid": 9, "optimizers": ["multi_fidelity"]}
)
store = JobStore(sys.argv[1], tenant_cap=100000)
i = 0
while True:
    record = store.submit(dict(spec), tenant="t%d" % i)
    print(record.job_id, flush=True)
    i += 1
"""


def test_sigkill_submitter_leaves_no_torn_records(tmp_path, watchdog):
    root = tmp_path / "store"
    jobs_dir = root / "jobs"
    submitter = spawn(SUBMITTER_SCRIPT, root)
    try:
        # Let it ack a healthy burst, then kill it mid-stride.
        # jobs/ is created lazily by the submitter's first admission.
        assert wait_until(
            lambda: jobs_dir.exists() and len(list(jobs_dir.iterdir())) >= 6,
            WATCHDOG,
        ), "submitter never produced jobs"
        submitter.send_signal(signal.SIGKILL)
        out, _ = submitter.communicate(timeout=30)
    finally:
        submitter.kill()
        submitter.wait(timeout=30)

    # Ids the submitter printed were acknowledged: submit() had returned.
    # The kill window can swallow the newest dir's ack (that's the point),
    # so acked trails the dir count by at most the in-flight submission.
    lines = out.split("\n")
    acked = [line for line in lines[:-1] if line]  # last line may be torn
    assert len(acked) >= 4

    # The dead submitter's lock died with it: the root opens at once.
    with JobStore(root) as store:
        records, invalid = store.scan()
        surviving = {r.job_id for r in records}
        # Zero loss: every acknowledged job has a complete, CRC-valid
        # record.
        for job_id in acked:
            assert job_id in surviving, f"acked {job_id} lost"
            assert store.get(job_id).state == STATE_PENDING
        # Crash debris is at worst an empty dir -- never a half-written
        # record, because records land via write-to-temp-then-rename.
        for job_id in invalid:
            assert not (store.job_dir(job_id) / "record.json").exists()
        # The store still admits work afterwards.
        store.submit(validate_submission(dict(QUICK_PAYLOAD)), tenant="after")


RECOVERY_SCRIPT = """
import os, signal, sys
from repro.server import JobStore, recover_running

store = JobStore(sys.argv[1])
flip_lands = sys.argv[2] == "after-flip"
update = store.update


def update_then_die(record):
    if flip_lands:
        update(record)
    os.kill(os.getpid(), signal.SIGKILL)


store.update = update_then_die
recover_running(store, retry_backoff=0.01)
"""


@pytest.mark.parametrize("kill_at", ["before-flip", "after-flip"])
def test_sigkill_mid_recovery_still_charges_exactly_one_attempt(
    tmp_path, watchdog, quick_spec, kill_at
):
    root = tmp_path / "store"
    with JobStore(root) as store:
        record = store.submit(quick_spec)
        job_id = record.job_id
        # A server that died mid-job left the record running.
        store.update(record.with_state(STATE_RUNNING, worker="w-dead"))

    # The restart dies inside recovery: before its record flip lands, or
    # after the flip but before the job.recovered event.
    victim = spawn(RECOVERY_SCRIPT, root, kill_at)
    try:
        assert victim.wait(timeout=WATCHDOG) == -signal.SIGKILL
    finally:
        victim.kill()
        victim.wait(timeout=30)
        victim.stdout.close()

    # The next restart finishes whatever the victim left undone.
    with JobStore(root) as store:
        recover_running(store, retry_backoff=0.01)
        recovered = store.get(job_id)
        assert recovered.state == STATE_PENDING
        assert recovered.attempts == 1  # exactly one attempt, not two
        types = [e["type"] for e in store.events(job_id)]
        assert types.count("job.recovered") <= 1

        time.sleep(0.05)  # clear the requeue backoff
        with watchdog(WATCHDOG):
            assert Worker(store, worker_id="w-rescue").claim_once() == job_id
        assert store.get(job_id).state == STATE_COMPLETED


def test_server_on_a_taken_port_exits_with_the_typed_error(tmp_path):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        server = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--root", str(tmp_path / "store"), "--port", str(port),
            ],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=WATCHDOG,
        )
    assert server.returncode == 1
    assert server.stderr.splitlines() == [
        f"error: cannot listen on 127.0.0.1:{port}: Address already in use"
    ]
