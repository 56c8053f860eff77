"""``repro top``: a stdlib ANSI terminal dashboard for the design service.

Polls ``GET /metrics`` (parsed with
:func:`repro.telemetry.promexpo.parse_prometheus_text` -- the dashboard is
deliberately a consumer of the public scrape format, not of any private
endpoint) and ``GET /v1/jobs``, and renders:

* queue depth by state, the oldest pending job's age, and per-tenant
  active jobs,
* claim->complete latency and queue-wait quantiles (p50/p90/p99)
  recovered from the ``repro_server_job_duration_seconds`` and
  ``repro_server_queue_wait_seconds`` histograms via
  :func:`~repro.telemetry.promexpo.histogram_quantile`,
* a live score trajectory per job, tailed incrementally from the events
  endpoint (offset-tracked, so each poll fetches only new rounds).

Rendering is a pure function of the polled state (:func:`render`), which
is what the tests exercise; :func:`run_top` adds the poll/clear/sleep loop
around it.  ANSI clear-screen instead of curses keeps the module importable
and testable anywhere a terminal is not guaranteed.

A live dashboard is wall-clock territory, which the nondeterminism source
guard allows in ``repro.server``.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Mapping, Optional, TextIO, Tuple

from ..errors import JobError, TelemetryError
from ..telemetry.promexpo import histogram_quantile, parse_prometheus_text
from .client import ServiceClient

__all__ = ["TopMonitor", "render", "run_top"]

#: Jobs shown (and trajectory-tracked) per refresh, newest first.
MAX_JOBS = 8

#: Trailing scores shown per job trajectory.
MAX_TRAJECTORY = 5

#: ANSI: clear screen, cursor home.
_CLEAR = "\x1b[2J\x1b[H"

#: The exported histogram families quantile lines are rendered from, with
#: their row labels: claim->complete latency, then claimable->claim wait.
_QUANTILE_FAMILIES = (
    ("latency", "repro_server_job_duration_seconds"),
    ("wait", "repro_server_queue_wait_seconds"),
)


def _samples(
    families: Mapping[str, Any], family: str
) -> List[Dict[str, Any]]:
    data = families.get(family)
    return list(data["samples"]) if data else []


def _gauge_total(families: Mapping[str, Any], family: str) -> float:
    return sum(sample["value"] for sample in _samples(families, family))


def _gauge_by_label(
    families: Mapping[str, Any], family: str, label: str
) -> Dict[str, float]:
    return {
        sample["labels"].get(label, ""): sample["value"]
        for sample in _samples(families, family)
    }


def _histogram_buckets(
    families: Mapping[str, Any], family: str
) -> List[Tuple[float, float]]:
    buckets: List[Tuple[float, float]] = []
    for sample in _samples(families, family):
        if not sample["name"].endswith("_bucket"):
            continue
        le = sample["labels"].get("le", "")
        bound = float("inf") if le == "+Inf" else float(le)
        buckets.append((bound, sample["value"]))
    return sorted(buckets)


class TopMonitor:
    """Incremental poller behind the dashboard (one per ``repro top``)."""

    def __init__(self, client: ServiceClient):
        self.client = client
        self._offsets: Dict[str, int] = {}
        self._trajectories: Dict[str, List[float]] = {}

    def poll(self) -> Dict[str, Any]:
        """One scrape of metrics + jobs + fresh per-job round scores."""
        families = parse_prometheus_text(self.client.metrics())
        jobs = self.client.jobs()
        for job in jobs[-MAX_JOBS:]:
            self._tail_scores(job["job_id"])
        return {
            "families": families,
            "jobs": jobs,
            "trajectories": {
                job_id: list(scores)
                for job_id, scores in self._trajectories.items()
            },
        }

    def _tail_scores(self, job_id: str) -> None:
        offset = self._offsets.get(job_id, 0)
        try:
            page = self.client.events(job_id, offset=offset, limit=500)
        except JobError:
            return  # the job vanished between listing and tailing
        self._offsets[job_id] = int(page.get("next_offset", offset))
        trajectory = self._trajectories.setdefault(job_id, [])
        for event in page.get("events", []):
            if event.get("type") != "portfolio.round":
                continue
            verified = event.get("verified")
            if isinstance(verified, (int, float)):
                trajectory.append(float(verified))


def render(state: Mapping[str, Any], now: Optional[float] = None) -> str:
    """The dashboard screen for one polled ``state`` (pure; testable)."""
    families = state.get("families", {})
    jobs = list(state.get("jobs", []))
    trajectories = state.get("trajectories", {})
    now = time.time() if now is None else now

    lines: List[str] = ["repro top -- design service"]
    depth = _gauge_by_label(families, "repro_server_queue_depth", "state")
    if depth:
        oldest = _gauge_total(families, "repro_server_oldest_pending_age_s")
        lines.append(
            "queue   "
            + "  ".join(f"{st} {int(n)}" for st, n in sorted(depth.items()))
            + f"  oldest-pending {oldest:.1f}s"
        )
    else:
        lines.append("queue   (no data)")
    for label, family in _QUANTILE_FAMILIES:
        buckets = _histogram_buckets(families, family)
        if not buckets or buckets[-1][1] <= 0:
            continue
        try:
            p50 = histogram_quantile(buckets, 0.50)
            p90 = histogram_quantile(buckets, 0.90)
            p99 = histogram_quantile(buckets, 0.99)
        except TelemetryError:
            continue  # a malformed scrape renders everything else anyway
        lines.append(
            f"{label:<7} p50 {p50:.2f}s  p90 {p90:.2f}s  p99 {p99:.2f}s  "
            f"(n={int(buckets[-1][1])})"
        )
    tenants = _gauge_by_label(
        families, "repro_server_tenant_active_jobs", "tenant"
    )
    if tenants:
        lines.append(
            "tenants "
            + "  ".join(
                f"{tenant} {int(n)}"
                for tenant, n in sorted(tenants.items())
            )
        )
    lines.append("")
    lines.append("jobs (newest last)")
    for job in jobs[-MAX_JOBS:]:
        job_id = job.get("job_id", "?")
        age = max(now - float(job.get("submitted_at", now)), 0.0)
        row = (
            f"  {job_id[:18]:<18} {job.get('state', '?'):<12} "
            f"attempt {job.get('attempts', 0)}/{job.get('max_attempts', 0)} "
            f"age {age:6.1f}s"
        )
        scores = trajectories.get(job_id, [])
        if scores:
            row += "  score " + " -> ".join(
                f"{score:.4g}" for score in scores[-MAX_TRAJECTORY:]
            )
        if job.get("error"):
            row += f"  [{job['error']}]"
        lines.append(row)
    if not jobs:
        lines.append("  (no jobs)")
    return "\n".join(lines)


def run_top(
    url: str,
    interval: float = 2.0,
    iterations: int = 0,
    out: Optional[TextIO] = None,
    client: Optional[ServiceClient] = None,
    clear: bool = True,
) -> int:
    """Poll-and-render loop; ``iterations=0`` runs until interrupted.

    Returns the number of refreshes rendered (Ctrl-C exits cleanly).
    """
    client = client or ServiceClient(url)
    out = sys.stdout if out is None else out
    monitor = TopMonitor(client)
    count = 0
    try:
        while True:
            try:
                state = monitor.poll()
            except (JobError, TelemetryError) as exc:
                screen = f"repro top -- {url}\n  unreachable: {exc}"
            else:
                screen = render(state)
            if clear:
                out.write(_CLEAR)
            out.write(screen + "\n")
            out.flush()
            count += 1
            if iterations and count >= iterations:
                return count
            time.sleep(interval)
    except KeyboardInterrupt:
        return count
