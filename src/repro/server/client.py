"""A small urllib client for the design service (``repro submit`` uses it).

Stdlib-only, like the server.  Every HTTP-level failure is translated back
into the same typed :class:`~repro.errors.JobError` family the server
raised -- a 404 comes back as :class:`~repro.errors.JobNotFoundError`, a
429 as :class:`~repro.errors.JobQueueFullError` carrying the server's
``Retry-After``, and so on -- so callers handle one error vocabulary on
both sides of the wire.

Waiting is wall-clock, which the nondeterminism source guard allows in
``repro.server``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, List, Optional

from ..errors import (
    JobError,
    JobNotFoundError,
    JobQueueFullError,
    JobStateError,
    JobValidationError,
)

__all__ = ["ServiceClient"]

#: HTTP status -> raised error class (the inverse of the API's mapping).
_ERRORS = {
    400: JobValidationError,
    404: JobNotFoundError,
    409: JobStateError,
    429: JobQueueFullError,
}


class ServiceClient:
    """Client of one service endpoint.

    Args:
        base_url: e.g. ``http://127.0.0.1:8752`` (no trailing slash).
        timeout: Per-request socket timeout [unit: s].
        tenant: Tenant id sent as ``X-Tenant`` on submissions.
    """

    def __init__(
        self, base_url: str, timeout: float = 10.0, tenant: str = "default"
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.tenant = tenant

    # -- raw request ---------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={
                "Content-Type": "application/json",
                "X-Tenant": self.tenant,
            },
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise self._translate(exc) from exc
        except urllib.error.URLError as exc:
            raise JobError(
                f"service unreachable at {self.base_url}: {exc.reason}"
            ) from exc

    @staticmethod
    def _translate(exc: urllib.error.HTTPError) -> JobError:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
            detail = payload.get("detail", payload.get("error", ""))
        except (ValueError, UnicodeDecodeError):
            detail = exc.reason
        cls = _ERRORS.get(exc.code)
        if cls is JobQueueFullError:
            try:
                retry_after = float(exc.headers.get("Retry-After", "1"))
            except (TypeError, ValueError):
                retry_after = 1.0
            return JobQueueFullError(detail, retry_after=retry_after)
        if cls is not None:
            return cls(detail)
        return JobError(f"HTTP {exc.code}: {detail}")

    # -- API surface ---------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a job; returns the created record view (has ``job_id``)."""
        return self._request("POST", "/v1/jobs", body=payload)

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's current record view."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        """All jobs the service knows about."""
        return self._request("GET", "/v1/jobs")["jobs"]

    def result(self, job_id: str) -> Dict[str, Any]:
        """The completed job's result payload (409 until completed)."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")["result"]

    def events(
        self, job_id: str, offset: int = 0, limit: Optional[int] = None
    ) -> Dict[str, Any]:
        """Lifecycle events from ``offset``; has ``events``/``next_offset``."""
        path = f"/v1/jobs/{job_id}/events?offset={int(offset)}"
        if limit is not None:
            path += f"&limit={int(limit)}"
        return self._request("GET", path)

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The job's stitched Chrome trace export (409 until exported)."""
        return self._request("GET", f"/v1/jobs/{job_id}/trace")

    def metrics(self) -> str:
        """The raw ``/metrics`` Prometheus exposition text."""
        request = urllib.request.Request(
            self.base_url + "/metrics", headers={"X-Tenant": self.tenant}
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise self._translate(exc) from exc
        except urllib.error.URLError as exc:
            raise JobError(
                f"service unreachable at {self.base_url}: {exc.reason}"
            ) from exc

    def follow_events(
        self,
        job_id: str,
        offset: int = 0,
        read_timeout: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's events live until the stream ends.

        Consumes the chunked ``follow=1`` JSONL stream: heartbeat comment
        lines are swallowed, every JSON event (including the final
        synthetic ``stream.end`` record carrying the close reason and
        resume offset) is yielded.  The generator returns after
        ``stream.end``; closing it early just drops the connection, which
        the server notices within one heartbeat.

        Raises:
            JobError: The stream broke or closed before ``stream.end``
                (the server died); follow again from the events received.

        Args:
            read_timeout: Socket read timeout [unit: s].  Must exceed the
                server's heartbeat interval; defaults to the larger of the
                client timeout and 30 s.
        """
        timeout = (
            max(self.timeout, 30.0) if read_timeout is None else read_timeout
        )
        request = urllib.request.Request(
            f"{self.base_url}/v1/jobs/{job_id}/events"
            f"?follow=1&offset={int(offset)}",
            headers={"X-Tenant": self.tenant},
        )
        try:
            response = urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            raise self._translate(exc) from exc
        except urllib.error.URLError as exc:
            raise JobError(
                f"service unreachable at {self.base_url}: {exc.reason}"
            ) from exc
        try:
            with response:
                for raw in response:
                    line = raw.decode("utf-8").strip()
                    if not line or line.startswith("#"):
                        continue  # heartbeat / comment
                    event = json.loads(line)
                    yield event
                    if event.get("type") == "stream.end":
                        return
        except (OSError, ValueError) as exc:
            raise JobError(
                f"event stream for {job_id} broke: {exc}"
            ) from exc
        # The connection closed between two lines: the server died.
        raise JobError(f"event stream for {job_id} broke before stream.end")

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_interval: float = 0.25,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns the record.

        Raises:
            JobStateError: ``timeout`` elapsed first, or the job was
                quarantined (the record's ``error`` is in the message).
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.status(job_id)
            if record["state"] == "completed":
                return record
            if record["state"] == "quarantined":
                raise JobStateError(
                    f"job {job_id} quarantined after "
                    f"{record['attempts']} attempts: {record['error']}"
                )
            if time.monotonic() >= deadline:
                raise JobStateError(
                    f"job {job_id} still {record['state']} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll_interval)
