"""The HTTP face of the design service (stdlib ``http.server`` only).

Routes::

    POST /v1/jobs                submit a job        -> 202 {job_id, ...}
    GET  /v1/jobs                list jobs           -> 200 {jobs: [...]}
    GET  /v1/jobs/<id>           job status          -> 200 {record}
    GET  /v1/jobs/<id>/result    completed result    -> 200 {result}
    GET  /v1/jobs/<id>/events    lifecycle events    -> 200 {events, next_offset}
    GET  /v1/jobs/<id>/events?follow=1   chunked JSONL live tail
    GET  /v1/jobs/<id>/trace     stitched Chrome trace export (Perfetto)
    GET  /metrics                Prometheus text exposition (0.0.4)
    GET  /healthz                liveness + detail   -> 200 always (while up)
    GET  /readyz                 readiness           -> 200 ready / 503 not

The ``follow=1`` stream is an HTTP/1.1 chunked response tailing the job's
append-only event log: one JSON object per line, ``#hb`` comment lines
during idle gaps (keeps proxies from buffering and detects dead clients
within one heartbeat), and a final synthetic ``stream.end`` record naming
why the stream closed (terminal state, drain, shutdown, deletion) plus the
offset to resume from.

Error discipline: every typed :class:`~repro.errors.JobError` maps to one
status code (400 validation, 404 unknown job, 409 wrong state, 429 queue
full with ``Retry-After``); unexpected exceptions become an opaque 500
without killing the serving thread.  This module is therefore a sanctioned
error boundary (``repro-lint-scope: error-boundary``): the process-edge
handler may catch broad ``Exception`` exactly like the CLI main.

Graceful degradation: a draining server (SIGTERM received, see
:mod:`repro.server.service`) rejects new submissions with 503 +
``Retry-After`` while read paths keep serving, so clients can poll their
jobs to the end of the drain window.

``repro-lint-scope: determinism-boundary`` -- HTTP plumbing is wall-clock
territory.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .. import profiling
from ..errors import (
    JobError,
    JobNotFoundError,
    JobQueueFullError,
    JobStateError,
    JobValidationError,
    ServerBindError,
)
from ..telemetry.promexpo import PROMETHEUS_CONTENT_TYPE, render_prometheus
from .jobstore import JobStore
from .records import (
    JobRecord,
    STATE_COMPLETED,
    STATE_QUARANTINED,
    STATE_RUNNING,
)
from .validation import validate_submission

__all__ = ["ApiServer", "MAX_BODY_BYTES"]

#: Largest accepted request body; past this the submission is a 400, not
#: an allocation.
MAX_BODY_BYTES = 4 * 1024 * 1024  #: [unit: B]

#: JobError subclass -> HTTP status.
_STATUS: Tuple[Tuple[type, int], ...] = (
    (JobValidationError, 400),
    (JobNotFoundError, 404),
    (JobStateError, 409),
    (JobQueueFullError, 429),
)

#: The event type a terminal record state is announced by; the streamer
#: waits briefly for it because the record flip lands an instant before
#: the final event append.
_FINAL_EVENT = {
    STATE_COMPLETED: "job.completed",
    STATE_QUARANTINED: "job.quarantined",
}


def _record_view(record: JobRecord) -> Dict[str, Any]:
    """The client-facing projection of a job record."""
    return {
        "job_id": record.job_id,
        "tenant": record.tenant,
        "state": record.state,
        "attempts": record.attempts,
        "max_attempts": record.max_attempts,
        "submitted_at": record.submitted_at,
        "updated_at": record.updated_at,
        "not_before": record.not_before,
        "worker": record.worker,
        "error": record.error,
        "spec": record.spec,
        "trace_id": record.trace_id,
    }


class ApiServer:
    """The service's HTTP endpoint over one :class:`JobStore`.

    Args:
        store: The durable queue all requests operate on.
        host / port: Bind address (``port=0`` picks a free port; see
            :attr:`port` after construction).  One that cannot be bound
            raises :class:`~repro.errors.ServerBindError`.
        ready_check: Extra readiness predicate composed into ``/readyz``
            (the service wires pool/worker health through this).
        max_queue_depth: ``/readyz`` reports not-ready once this many
            jobs are waiting or running (backpressure signal for load
            balancers; submissions still work until tenant caps bite).
        stream_heartbeat: Idle interval after which a ``follow=1`` stream
            emits a ``#hb`` comment line [unit: s] -- also bounds how long
            a dead client can pin a streaming thread.
    """

    def __init__(
        self,
        store: JobStore,
        host: str = "127.0.0.1",
        port: int = 0,
        ready_check: Optional[Callable[[], Tuple[bool, str]]] = None,
        max_queue_depth: int = 64,
        stream_heartbeat: float = 5.0,
    ):
        self.store = store
        self.ready_check = ready_check
        self.max_queue_depth = int(max_queue_depth)
        self.stream_heartbeat = float(stream_heartbeat)
        self.draining = threading.Event()
        self._stream_stop = threading.Event()
        api = self

        class _Handler(BaseHTTPRequestHandler):
            # Chunked transfer encoding (the follow=1 stream) only exists
            # in HTTP/1.1; plain responses still carry Content-Length.
            protocol_version = "HTTP/1.1"

            # One silent line per request is still too chatty for a
            # long-poll client; the run log carries the real telemetry.
            def log_message(self, fmt: str, *args: Any) -> None:
                pass

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                api._dispatch(self, "GET")

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                api._dispatch(self, "POST")

        try:
            self.httpd = ThreadingHTTPServer((host, port), _Handler)
        except OSError as exc:
            raise ServerBindError(
                f"cannot listen on {host}:{port}: {exc.strerror or exc}"
            ) from exc
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return int(self.httpd.server_address[1])

    def start(self) -> None:
        """Serve in a background thread until :meth:`shutdown`."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._thread.start()

    def shutdown(self) -> None:
        """Stop accepting connections and join the serving thread."""
        self._stream_stop.set()  # follow=1 streams end with stream.end
        self.store.wake()  # ... and end now, not at their next poll
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.httpd.server_close()

    # -- dispatch ------------------------------------------------------

    def _dispatch(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        profiling.increment("server.http_requests")
        profiling.set_thread_lane("api")
        path, _, query = handler.path.partition("?")
        payload: Union[Dict[str, Any], str]
        follow_job: Optional[str] = None
        offset = 0
        try:
            # The span closes before a follow=1 stream starts serving, so
            # the request row lands inside the job's tracing window
            # instead of after it (streams outlive the job).
            with profiling.span("server.http", method=method, path=path):
                follow_job = self._follow_requested(method, path, query)
                if follow_job is not None:
                    offset = self._offset(query)
                    self.store.get(follow_job)  # 404/500 before streaming
                else:
                    status, payload, headers = self._route(handler, method)
        except JobError as exc:
            follow_job = None
            status, payload, headers = self._job_error(exc)
        except Exception as exc:  # process edge: never kill the thread
            follow_job = None
            status = 500
            payload = {"error": "internal", "detail": type(exc).__name__}
            headers = {}
        if follow_job is not None:
            self._stream_events(handler, follow_job, offset)
            return
        if status >= 400:
            profiling.increment("server.http_rejects")
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = headers.pop(
                "Content-Type", "text/plain; charset=utf-8"
            )
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", content_type)
            handler.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                handler.send_header(name, value)
            handler.end_headers()
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    @staticmethod
    def _job_error(exc: JobError) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        status = 500
        for cls, code in _STATUS:
            if isinstance(exc, cls):
                status = code
                break
        payload: Dict[str, Any] = {
            "error": type(exc).__name__,
            "detail": str(exc),
        }
        headers: Dict[str, str] = {}
        field = getattr(exc, "field", None)
        if field is not None:
            payload["field"] = field
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            headers["Retry-After"] = f"{max(int(round(retry_after)), 1)}"
        return status, payload, headers

    def _route(
        self, handler: BaseHTTPRequestHandler, method: str
    ) -> Tuple[int, Union[Dict[str, Any], str], Dict[str, str]]:
        path, _, query = handler.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if method == "GET":
            if parts == ["healthz"]:
                return 200, self._health(), {}
            if parts == ["readyz"]:
                return self._ready()
            if parts == ["metrics"]:
                text = render_prometheus(
                    profiling.snapshot(), self.store.collect_gauges()
                )
                return 200, text, {"Content-Type": PROMETHEUS_CONTENT_TYPE}
            if parts == ["v1", "jobs"]:
                return (
                    200,
                    {
                        "jobs": [
                            _record_view(r) for r in self.store.list_jobs()
                        ]
                    },
                    {},
                )
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                return 200, _record_view(self.store.get(parts[2])), {}
            if len(parts) == 4 and parts[:2] == ["v1", "jobs"]:
                if parts[3] == "result":
                    return 200, {"result": self.store.read_result(parts[2])}, {}
                if parts[3] == "trace":
                    return 200, self.store.read_trace(parts[2]), {}
                if parts[3] == "events":
                    offset = self._offset(query)
                    limit = self._query_int(query, "limit", None, minimum=1)
                    events = self.store.events(parts[2], offset, limit)
                    return (
                        200,
                        {
                            "events": events,
                            "next_offset": offset + len(events),
                        },
                        {},
                    )
        if method == "POST" and parts == ["v1", "jobs"]:
            return self._submit(handler)
        raise JobNotFoundError(f"no route {method} {path}")

    # -- query-string parsing ------------------------------------------

    @staticmethod
    def _query_param(query: str, key: str) -> Optional[str]:
        for pair in query.split("&"):
            name, _, value = pair.partition("=")
            if name == key:
                return value
        return None

    @classmethod
    def _query_int(
        cls,
        query: str,
        key: str,
        default: Optional[int],
        minimum: int = 0,
    ) -> Optional[int]:
        """An integer query parameter, validated; 400 on garbage.

        Raises:
            JobValidationError: The value is not an integer or falls below
                ``minimum`` -- rejected explicitly instead of silently
                coerced, so a paging client notices its own bug.
        """
        value = cls._query_param(query, key)
        if value is None:
            return default
        try:
            parsed = int(value)
        except ValueError as exc:
            raise JobValidationError(
                f"{key} must be an integer, got {value!r}", field=key
            ) from exc
        if parsed < minimum:
            raise JobValidationError(
                f"{key} must be >= {minimum}, got {parsed}", field=key
            )
        return parsed

    @classmethod
    def _offset(cls, query: str) -> int:
        offset = cls._query_int(query, "offset", 0)
        assert offset is not None  # default is 0
        return offset

    @classmethod
    def _follow_requested(
        cls, method: str, path: str, query: str
    ) -> Optional[str]:
        """The job id of a ``follow=1`` events request, else ``None``."""
        if method != "GET":
            return None
        parts = [p for p in path.split("/") if p]
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "jobs"]
            and parts[3] == "events"
            and cls._query_param(query, "follow") in ("1", "true", "yes")
        ):
            return parts[2]
        return None

    # -- streaming -----------------------------------------------------

    def _stream_events(
        self, handler: BaseHTTPRequestHandler, job_id: str, offset: int
    ) -> None:
        """Tail the job's event log as chunked JSONL until it terminates.

        Ends (with a synthetic ``stream.end`` record carrying the close
        reason and the resume offset) when the job reaches a terminal
        state, the server shuts down, a drain leaves the job unable to
        ever run, or the job directory vanishes.  A disconnected client is
        detected by the next write -- at worst one heartbeat later -- and
        the serving thread returns without leaking.
        """
        handler.close_connection = True  # one stream per connection
        handler.send_response(200)
        handler.send_header("Content-Type", "application/x-ndjson")
        handler.send_header("Cache-Control", "no-store")
        handler.send_header("Transfer-Encoding", "chunked")
        handler.end_headers()

        def chunk(data: bytes) -> None:
            handler.wfile.write(
                f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"
            )
            handler.wfile.flush()

        def flush_events() -> List[dict]:
            events = self.store.events(job_id, offset)
            for event in events:
                chunk(
                    json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
                )
            return events

        reason: Optional[str] = None
        try:
            delivered: set = set()
            last_write = time.monotonic()
            # Read before the first look at the job and refreshed by every
            # wait, so a change that lands between a look and the next
            # wait cuts that wait short.  Every writer is a thread of this
            # process and notifies the store, so the waits need no poll.
            seen = self.store.generation()
            while reason is None:
                try:
                    record = self.store.get(job_id)
                    events = flush_events()
                except JobNotFoundError:
                    reason = "deleted"
                    break
                offset += len(events)
                delivered.update(event.get("type") for event in events)
                if events:
                    last_write = time.monotonic()
                    # A no-op unless a traced job armed the tracer; lands
                    # the API lane inside the job's tracing window so the
                    # /trace export shows the stream serving alongside it.
                    profiling.instant(
                        "server.http",
                        path=f"/v1/jobs/{job_id}/events",
                        streamed=len(events),
                    )
                if record.terminal:
                    # The record flips terminal an instant before the final
                    # event lands in the log; linger up to one heartbeat so
                    # the job.completed/quarantined line is delivered.
                    final = _FINAL_EVENT.get(record.state)
                    deadline = time.monotonic() + self.stream_heartbeat
                    while (
                        final not in delivered
                        and time.monotonic() < deadline
                        and not self._stream_stop.is_set()
                    ):
                        seen = self.store.wait_for_change(
                            seen, deadline - time.monotonic()
                        )
                        tail = flush_events()
                        offset += len(tail)
                        delivered.update(e.get("type") for e in tail)
                    reason = record.state
                elif self._stream_stop.is_set():
                    reason = "shutdown"
                elif self.draining.is_set() and record.state != STATE_RUNNING:
                    # A running job still delivers its interrupt/final
                    # events during the drain window; a pending one will
                    # never run here again.
                    reason = "draining"
                else:
                    idle = time.monotonic() - last_write
                    if idle >= self.stream_heartbeat:
                        chunk(b"#hb\n")
                        last_write = time.monotonic()
                    # Sleep until a change, or until the next heartbeat.
                    seen = self.store.wait_for_change(
                        seen,
                        last_write + self.stream_heartbeat - time.monotonic(),
                    )
            chunk(
                json.dumps(
                    {
                        "type": "stream.end",
                        "reason": reason,
                        "next_offset": offset,
                    },
                    sort_keys=True,
                ).encode("utf-8")
                + b"\n"
            )
            handler.wfile.write(b"0\r\n\r\n")
            handler.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away mid-stream; nothing to salvage

    # -- handlers ------------------------------------------------------

    def _submit(
        self, handler: BaseHTTPRequestHandler
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        if self.draining.is_set():
            return (
                503,
                {
                    "error": "draining",
                    "detail": "server is draining; submit elsewhere",
                },
                {"Retry-After": "5"},
            )
        try:
            length = int(handler.headers.get("Content-Length", "0"))
        except ValueError as exc:
            raise JobValidationError("bad Content-Length header") from exc
        if length <= 0:
            raise JobValidationError("submission body is required")
        if length > MAX_BODY_BYTES:
            raise JobValidationError(
                f"submission body is {length} bytes; cap is {MAX_BODY_BYTES}"
            )
        raw = handler.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobValidationError(
                f"submission body is not valid JSON: {exc}"
            ) from exc
        tenant = handler.headers.get("X-Tenant", "default").strip() or "default"
        spec = validate_submission(payload)
        record = self.store.submit(spec, tenant=tenant)
        return 202, _record_view(record), {}

    def _health(self) -> Dict[str, Any]:
        depth = self.store.queue_depth()
        info: Dict[str, Any] = {
            "status": "draining" if self.draining.is_set() else "ok",
            "queue": depth,
        }
        if self.ready_check is not None:
            ready, detail = self.ready_check()
            info["workers"] = detail
            info["degraded"] = not ready
        return info

    def _ready(self) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        reasons = []
        if self.draining.is_set():
            reasons.append("draining")
        samples = self.store.collect_gauges()
        depth: Dict[str, int] = {}
        gauges: Dict[str, float] = {
            "queue_depth": 0,
            "oldest_pending_age_s": 0.0,
        }
        for sample in samples:
            name, value = sample["name"], sample["value"]
            if name == "server.queue_depth":
                state = sample["labels"].get("state", "")
                depth[state] = int(value)
                if state in ("pending", "running"):
                    gauges["queue_depth"] += int(value)
            elif name == "server.oldest_pending_age_s":
                gauges["oldest_pending_age_s"] = value
        # One collection feeds both this payload and /metrics, so the
        # backpressure decision and the Prometheus scrape agree exactly.
        waiting = int(gauges["queue_depth"])
        if waiting >= self.max_queue_depth:
            reasons.append(
                f"queue depth {waiting} >= {self.max_queue_depth}"
            )
        if self.ready_check is not None:
            ready, detail = self.ready_check()
            if not ready:
                reasons.append(detail)
        payload: Dict[str, Any] = {"queue": depth, "gauges": gauges}
        if reasons:
            payload.update(ready=False, reasons=reasons)
            return 503, payload, {"Retry-After": "5"}
        payload["ready"] = True
        return 200, payload, {}
