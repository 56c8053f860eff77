"""Cross-process trace correlation: one ``trace_id`` stitches every row.

A traced job's export must tell the whole story in one file: the API
thread that served requests during the run, the worker thread that
executed it, and the evaluation-pool processes it fanned out to -- all as
separately named Perfetto process rows carrying the ``trace_id`` minted at
submission.  The suite also pins the zero-overhead contract: with tracing
off (the default), the global tracer never arms.
"""

import pytest

from repro import profiling
from repro.profiling import TelemetryConfig
from repro.server import DesignService, JobStore, ServiceClient, Worker

from .conftest import QUICK_PAYLOAD

WATCHDOG = 240.0

#: A traced submission that fans out to a real evaluation pool, so the
#: export has pool-worker rows to stitch.
POOLED_PAYLOAD = dict(QUICK_PAYLOAD, batch_size=2, iterations=2, n_workers=2)


def process_rows(trace):
    """``{row label: metadata args}`` of the export's process rows."""
    return {
        event["args"]["name"]: event["args"]
        for event in trace["traceEvents"]
        if event.get("ph") == "M" and event.get("name") == "process_name"
    }


def test_traced_job_stitches_api_worker_and_pool_rows(tmp_path, watchdog):
    service = DesignService(
        tmp_path / "svc",
        n_workers=1,
        trace_jobs=True,
        stream_heartbeat=1.0,
    )
    service.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        submitted = client.submit(dict(POOLED_PAYLOAD))
        job_id = submitted["job_id"]
        trace_id = submitted["trace_id"]
        assert trace_id
        with watchdog(WATCHDOG):
            events = list(client.follow_events(job_id))
        assert events[-1]["reason"] == "completed"
        trace = client.trace(job_id)
    finally:
        service.stop()

    # The export is Perfetto-loadable Chrome trace-event JSON.
    assert isinstance(trace["traceEvents"], list)
    for event in trace["traceEvents"]:
        assert {"name", "ph", "pid", "tid"} <= set(event)
    rows = process_rows(trace)
    assert "api" in rows, rows.keys()  # requests served during the run
    assert "worker-0" in rows, rows.keys()  # the executing worker thread
    pool_rows = [
        label
        for label in rows
        if label.startswith("worker-") and label != "worker-0"
    ]
    assert pool_rows, rows.keys()  # the evaluation-pool processes
    # One trace_id stitches every row -- and matches the job record's.
    assert trace["otherData"]["trace_id"] == trace_id
    for label, args in rows.items():
        assert args["trace_id"] == trace_id, label
    # The worker row carries the actual execution span.
    job_spans = [
        e for e in trace["traceEvents"] if e["name"] == "server.job"
    ]
    assert len(job_spans) == 1
    assert job_spans[0]["args"]["job_id"] == job_id


def test_untraced_service_never_arms_the_tracer(tmp_path, watchdog):
    """trace_jobs=False (the default) is the zero-overhead path: no span
    is ever recorded and ``/trace`` stays a typed 409."""
    from repro.errors import JobStateError

    service = DesignService(tmp_path / "svc", n_workers=1)
    service.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]
        with watchdog(WATCHDOG):
            client.wait(job_id, timeout=WATCHDOG)
        assert profiling.spans() == []
        with pytest.raises(JobStateError, match="no trace export"):
            client.trace(job_id)
    finally:
        service.stop()


def test_trace_id_rides_telemetry_config_to_pool_workers():
    """The pool re-arm path: ``TelemetryConfig`` (the frozen dataclass in
    the pool's initargs and cache key) round-trips the trace_id."""
    original = TelemetryConfig.current()
    try:
        TelemetryConfig(trace=True, trace_id="t-123").apply()
        mirrored = TelemetryConfig.current()
        assert mirrored.trace is True
        assert mirrored.trace_id == "t-123"
        # A worker applying the mirrored config tags its exports too.
        TelemetryConfig().apply()
        assert TelemetryConfig.current().trace_id is None
        mirrored.apply()
        with profiling.span("server.job", job_id="j"):
            pass
        assert profiling.to_chrome_trace()["otherData"]["trace_id"] == "t-123"
    finally:
        original.apply()
        profiling.clear_spans()


def test_concurrent_jobs_trace_at_most_one_per_process(tmp_path, watchdog):
    """The global tracer is process state: with two traced jobs racing in
    one process, exactly one export exists per completed *traced* job and
    no export ever mixes two jobs' spans (the trace slot guarantees the
    loser runs untraced)."""
    store = JobStore(tmp_path / "store")
    from repro.server import validate_submission

    ids = [
        store.submit(validate_submission(dict(QUICK_PAYLOAD))).job_id
        for _ in range(2)
    ]
    worker = Worker(store, worker_id="w-0", trace_jobs=True)
    with watchdog(WATCHDOG):
        assert worker.claim_once() in ids
        assert worker.claim_once() in ids
    for job_id in ids:
        trace = store.read_trace(job_id)
        spans = [
            e for e in trace["traceEvents"] if e["name"] == "server.job"
        ]
        assert len(spans) == 1
        assert spans[0]["args"]["job_id"] == job_id
        assert (
            trace["otherData"]["trace_id"] == store.get(job_id).trace_id
        )


def test_arming_a_job_trace_keeps_the_cumulative_metrics(tmp_path):
    """Counters, histograms and spans share one recorder; arming a per-job
    trace must clear only the span buffer, never the cumulative counters
    and histograms that ``/metrics`` serves."""
    from repro.server import validate_submission

    store = JobStore(tmp_path / "store")
    record = store.submit(validate_submission(dict(QUICK_PAYLOAD)))
    worker = Worker(store, worker_id="w-0", trace_jobs=True)
    profiling.increment("server.jobs_submitted", 3)
    profiling.observe("server.queue_wait", 0.25)
    previous = profiling.set_tracing(True)
    try:
        profiling.instant("server.http")  # a span from before the job
        before = profiling.snapshot()
        assert worker._arm_tracing(record)
        try:
            assert profiling.spans() == []
            assert profiling.snapshot() == before
        finally:
            worker._finish_tracing(record)
        assert profiling.snapshot() == before
    finally:
        profiling.set_tracing(previous)
        profiling.clear_spans()
