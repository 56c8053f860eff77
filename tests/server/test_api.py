"""The HTTP API: status codes, backpressure, health, readiness, drain."""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    JobNotFoundError,
    JobQueueFullError,
    JobStateError,
    JobValidationError,
)
from repro.server import ApiServer, DesignService, JobStore, ServiceClient

from .conftest import QUICK_PAYLOAD

WATCHDOG = 120.0


@pytest.fixture
def api(tmp_path):
    """An API over a store with NO workers: queue state stays put."""
    server = ApiServer(
        JobStore(tmp_path / "store", tenant_cap=2),
        max_queue_depth=3,
    )
    server.start()
    yield server
    server.shutdown()
    server.store.close()


@pytest.fixture
def client(api):
    return ServiceClient(f"http://127.0.0.1:{api.port}", timeout=5.0)


def raw_status(api, method, path, body=None, headers=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{api.port}{path}",
        data=body,
        method=method,
        headers=headers or {},
    )
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_submit_poll_events_round_trip(api, client):
    record = client.submit(dict(QUICK_PAYLOAD))
    assert record["state"] == "pending"
    job_id = record["job_id"]
    assert client.status(job_id)["state"] == "pending"
    assert [j["job_id"] for j in client.jobs()] == [job_id]
    page = client.events(job_id)
    assert [e["type"] for e in page["events"]] == ["job.submitted"]
    assert client.events(job_id, offset=page["next_offset"])["events"] == []


def test_validation_failures_are_400_with_field(api, client):
    with pytest.raises(JobValidationError, match="NaN"):
        client.submit(
            {"case_seed": 7, "power_maps": [[[1.0, float("nan")]]]}
        )
    status, payload = raw_status(
        api,
        "POST",
        "/v1/jobs",
        body=json.dumps({"case": 99}).encode(),
    )
    assert status == 400
    assert payload["field"] == "case"
    status, _ = raw_status(api, "POST", "/v1/jobs", body=b"{not json")
    assert status == 400
    status, _ = raw_status(api, "POST", "/v1/jobs", body=b"")
    assert status == 400


def test_unknown_job_and_route_are_404(api, client):
    with pytest.raises(JobNotFoundError):
        client.status("j-nope")
    assert raw_status(api, "GET", "/v2/other")[0] == 404


def test_path_traversal_job_ids_are_404(api, client):
    """A job-id path segment is joined onto the store root; anything not
    shaped like a real job id (``..``, encoded separators, store file
    names) must 404 before it ever touches the filesystem."""
    import http.client

    client.submit(dict(QUICK_PAYLOAD))  # a real job the escape could hit
    for path in (
        "/v1/jobs/..",
        "/v1/jobs/../events",
        "/v1/jobs/../result",
        "/v1/jobs/..%2f..",
        "/v1/jobs/store.lock",
    ):
        # http.client sends the path verbatim -- urllib would normalize
        # away the exact traversal under test.
        conn = http.client.HTTPConnection("127.0.0.1", api.port, timeout=5.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 404, path
            assert body["error"] == "JobNotFoundError", path
        finally:
            conn.close()


def test_result_before_completion_is_409(api, client):
    job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]
    with pytest.raises(JobStateError, match="not completed"):
        client.result(job_id)


def test_tenant_cap_is_429_with_retry_after(api, client):
    client.submit(dict(QUICK_PAYLOAD))
    client.submit(dict(QUICK_PAYLOAD))
    with pytest.raises(JobQueueFullError) as excinfo:
        client.submit(dict(QUICK_PAYLOAD))
    assert excinfo.value.retry_after >= 1.0
    # Another tenant still gets in.
    other = ServiceClient(client.base_url, tenant="other")
    other.submit(dict(QUICK_PAYLOAD))


def test_healthz_reports_queue_and_readyz_backpressure(api, client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["queue"]["invalid"] == 0
    status, ready = raw_status(api, "GET", "/readyz")
    assert status == 200
    assert ready["ready"] is True
    # Fill past max_queue_depth=3 (two tenants x two jobs each).
    for tenant in ("a", "b"):
        t = ServiceClient(client.base_url, tenant=tenant)
        t.submit(dict(QUICK_PAYLOAD))
        t.submit(dict(QUICK_PAYLOAD))
    status, ready = raw_status(api, "GET", "/readyz")
    assert status == 503
    assert ready["ready"] is False
    assert any("queue depth" in r for r in ready["reasons"])


def test_draining_rejects_submissions_but_serves_reads(api, client):
    job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]
    api.draining.set()
    status, payload = raw_status(
        api,
        "POST",
        "/v1/jobs",
        body=json.dumps(dict(QUICK_PAYLOAD)).encode(),
    )
    assert status == 503
    assert payload["error"] == "draining"
    assert client.status(job_id)["state"] == "pending"  # reads still work
    assert raw_status(api, "GET", "/readyz")[0] == 503
    assert client.healthz()["status"] == "draining"


def test_internal_errors_are_opaque_500(api, monkeypatch):
    def boom():
        raise RuntimeError("secret stack detail")

    monkeypatch.setattr(api.store, "list_jobs", boom)
    status, payload = raw_status(api, "GET", "/v1/jobs")
    assert status == 500
    assert payload["error"] == "internal"
    assert "secret" not in json.dumps(payload)  # no detail leak


def test_events_offset_and_limit_are_validated_and_applied(api, client):
    job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]
    api.store.log_event(job_id, "job.claimed", worker="w-test")
    # Validation: negative / non-integer query values are typed 400s.
    for query in (
        "offset=-1",
        "offset=nope",
        "offset=1.5",
        "limit=0",
        "limit=-3",
        "limit=x",
    ):
        status, payload = raw_status(
            api, "GET", f"/v1/jobs/{job_id}/events?{query}"
        )
        assert status == 400, query
        assert payload["error"] == "JobValidationError", query
        assert payload["field"] in ("offset", "limit"), query
    # Application: offset skips, limit caps, next_offset composes.
    page = client.events(job_id, offset=1, limit=1)
    assert [e["type"] for e in page["events"]] == ["job.claimed"]
    assert page["next_offset"] == 2


def test_metrics_endpoint_serves_valid_prometheus_text(api, client):
    from repro.telemetry.promexpo import (
        PROMETHEUS_CONTENT_TYPE,
        parse_prometheus_text,
    )

    client.submit(dict(QUICK_PAYLOAD))
    client.submit(dict(QUICK_PAYLOAD))
    request = urllib.request.Request(
        f"http://127.0.0.1:{api.port}/metrics"
    )
    with urllib.request.urlopen(request, timeout=5.0) as response:
        assert response.status == 200
        assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = response.read().decode("utf-8")
    families = parse_prometheus_text(text)  # raises on malformed output
    depth = {
        s["labels"]["state"]: s["value"]
        for s in families["repro_server_queue_depth"]["samples"]
    }
    assert depth["pending"] == 2
    tenants = families["repro_server_tenant_active_jobs"]["samples"]
    assert {s["labels"]["tenant"]: s["value"] for s in tenants} == {
        "default": 2
    }
    assert families["repro_server_jobs_submitted_total"]["samples"][0][
        "value"
    ] == 2
    assert "repro_server_oldest_pending_age_s" in families


def test_readyz_detail_shares_the_metrics_gauges(api, client):
    client.submit(dict(QUICK_PAYLOAD))
    status, ready = raw_status(api, "GET", "/readyz")
    assert status == 200
    gauges = ready["gauges"]
    assert gauges["queue_depth"] == 1
    assert set(gauges) == {"queue_depth", "oldest_pending_age_s"}
    assert gauges["oldest_pending_age_s"] >= 0.0
    assert ready["queue"]["pending"] == 1


def test_trace_endpoint_is_409_until_exported(api, client):
    job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]
    assert client.status(job_id)["trace_id"]  # minted at submission
    with pytest.raises(JobStateError, match="no trace export"):
        client.trace(job_id)
    assert raw_status(api, "GET", "/v1/jobs/nope/trace")[0] == 404


def test_full_service_runs_submission_to_result(tmp_path, watchdog):
    service = DesignService(tmp_path / "svc", n_workers=1)
    service.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        job_id = client.submit(dict(QUICK_PAYLOAD))["job_id"]
        with watchdog(WATCHDOG):
            final = client.wait(job_id, timeout=WATCHDOG)
        assert final["attempts"] == 0
        result = client.result(job_id)
        assert result["winner"] == "multi_fidelity"
        types = [e["type"] for e in client.events(job_id)["events"]]
        assert types[0] == "job.submitted"
        assert types[-1] == "job.completed"
        health = client.healthz()
        assert health["degraded"] is False
    finally:
        service.stop()


def test_graceful_stop_drains_in_flight_jobs(tmp_path, watchdog):
    """SIGTERM-equivalent: stop() while a job runs leaves it pending and
    resumable, with a checkpoint on disk and no attempt charged."""
    service = DesignService(tmp_path / "svc", n_workers=1)
    service.start()
    client = ServiceClient(f"http://127.0.0.1:{service.port}")
    payload = dict(QUICK_PAYLOAD)
    payload["rounds"] = 8  # long enough to still be running at stop()
    job_id = client.submit(payload)["job_id"]
    store = service.store
    with watchdog(WATCHDOG):
        while store.get(job_id).state == "pending":
            pass  # wait for a worker to claim it
        service.stop(timeout=WATCHDOG)
    drained = store.get(job_id)
    assert drained.state in ("pending", "completed")
    if drained.state == "pending":
        assert drained.attempts == 0
        assert any(store.checkpoint_dir(job_id).iterdir())
    # A fresh service process over the same root picks the job back up.
    revived = DesignService(tmp_path / "svc", n_workers=1)
    revived.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{revived.port}")
        with watchdog(WATCHDOG):
            client.wait(job_id, timeout=WATCHDOG)
        assert store.get(job_id).state == "completed"
    finally:
        revived.stop()
