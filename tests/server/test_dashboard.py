"""``repro top``: the dashboard is a pure renderer over public endpoints.

A fake client speaking the two public surfaces (``/metrics`` exposition
text and the jobs/events JSON) drives :class:`TopMonitor` and
:func:`render` without a server, so the tests pin the screen's content --
queue, latency quantiles, live score trajectories -- not socket
behavior (the client itself is covered by the API suite).
"""

import io
import time

from repro.errors import JobError
from repro.server.dashboard import (
    MAX_TRAJECTORY,
    TopMonitor,
    render,
    run_top,
)
from repro.telemetry.promexpo import gauge, render_prometheus


class FakeClient:
    """The slice of ``ServiceClient`` the dashboard consumes."""

    def __init__(self, metrics_text="", jobs=None, events=None):
        self.metrics_text = metrics_text
        self._jobs = jobs or []
        self._events = events or {}
        self.event_calls = []

    def metrics(self):
        return self.metrics_text

    def jobs(self):
        return list(self._jobs)

    def events(self, job_id, offset=0, limit=None):
        self.event_calls.append((job_id, offset))
        events = self._events.get(job_id, [])[offset:]
        if limit is not None:
            events = events[:limit]
        return {"events": events, "next_offset": offset + len(events)}


def sample_metrics():
    from repro.profiling import Profiler

    profiler = Profiler()
    for value in (1.0, 1.0, 4.0, 8.0):
        profiler.observe("server.job_duration", value)
    for value in (0.01, 0.02, 0.5):
        profiler.observe("server.queue_wait", value)
    return render_prometheus(
        profiler.snapshot(),
        [
            gauge("server.queue_depth", 3, state="pending"),
            gauge("server.queue_depth", 1, state="running"),
            gauge("server.oldest_pending_age_s", 7.5),
            gauge("server.tenant_active_jobs", 4, tenant="acme"),
        ],
    )


def test_render_shows_queue_latency_and_trajectories():
    monitor = TopMonitor(
        FakeClient(
            metrics_text=sample_metrics(),
            jobs=[
                {
                    "job_id": "j-abc",
                    "state": "running",
                    "attempts": 0,
                    "max_attempts": 3,
                    "submitted_at": time.time() - 30.0,
                }
            ],
            events={
                "j-abc": [
                    {"type": "job.claimed"},
                    {"type": "portfolio.round", "verified": 12.5},
                    {"type": "portfolio.round", "verified": 9.75},
                ]
            },
        )
    )
    screen = render(monitor.poll())
    assert "pending 3" in screen and "running 1" in screen
    assert "oldest-pending 7.5s" in screen
    assert "latency p50" in screen and "(n=4)" in screen
    assert "wait    p50" in screen and "(n=3)" in screen
    assert "acme 4" in screen
    assert "j-abc" in screen
    assert "12.5 -> 9.75" in screen


def test_poll_tails_events_incrementally():
    client = FakeClient(
        jobs=[{"job_id": "j-1", "state": "running"}],
        events={"j-1": [{"type": "portfolio.round", "verified": 5.0}]},
    )
    monitor = TopMonitor(client)
    monitor.poll()
    client._events["j-1"].append(
        {"type": "portfolio.round", "verified": 4.0}
    )
    state = monitor.poll()
    # The second poll resumed from the stored offset, not from zero.
    assert client.event_calls == [("j-1", 0), ("j-1", 1)]
    assert state["trajectories"]["j-1"] == [5.0, 4.0]


def test_render_truncates_trajectories_and_handles_empty_state():
    scores = [float(i) for i in range(MAX_TRAJECTORY + 3)]
    screen = render(
        {
            "families": {},
            "jobs": [{"job_id": "j-long", "state": "running"}],
            "trajectories": {"j-long": scores},
        }
    )
    shown = screen.split("score ", 1)[1]
    assert len(shown.split(" -> ")) == MAX_TRAJECTORY
    empty = render({})
    assert "(no data)" in empty
    assert "(no jobs)" in empty


def test_run_top_renders_and_survives_unreachable_service():
    out = io.StringIO()
    count = run_top(
        "http://127.0.0.1:1",
        interval=0.0,
        iterations=2,
        out=out,
        client=FakeClient(metrics_text=sample_metrics()),
        clear=False,
    )
    assert count == 2
    assert out.getvalue().count("repro top") == 2

    class DeadClient(FakeClient):
        def metrics(self):
            raise JobError("connection refused")

    out = io.StringIO()
    assert run_top(
        "http://127.0.0.1:1",
        interval=0.0,
        iterations=1,
        out=out,
        client=DeadClient(),
        clear=False,
    ) == 1
    assert "unreachable" in out.getvalue()
