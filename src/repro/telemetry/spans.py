"""Nested span tracing with a bounded in-memory buffer.

A *span* is one timed region of work with a dot-namespaced name, free-form
attributes, and process/thread identity:

    from repro import telemetry

    with telemetry.span("thermal.rc2.solve", cells=n_cells):
        ...

Spans nest naturally (the Chrome trace viewer reconstructs the stack from
the enclosing time intervals per thread), timestamps come from
``time.monotonic_ns()`` -- ``CLOCK_MONOTONIC`` is shared across processes
on Linux, so worker spans and parent spans land on one comparable
timeline -- and everything is held in a bounded in-memory buffer drained
either into a Chrome trace-event file at the end of the run
(:func:`repro.telemetry.export.write_chrome_trace`) or across the process
boundary by the evaluation pool (:func:`drain_spans` in the worker,
:func:`extend_spans` in the parent).

Tracing is **off by default** and the disabled path is a single attribute
check returning a shared no-op context manager -- the same near-zero-cost
discipline as :mod:`repro.profiling` and :mod:`repro.faults`.

Span names are literals from the registry in :mod:`repro.telemetry.names`
(lint rule R7).
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Attribute values are coerced to JSON-safe scalars with this check.
_JSON_SCALARS = (str, int, float, bool, type(None))

#: Default bound on buffered spans per process; beyond it new spans are
#: counted as dropped instead of recorded, so a runaway trace cannot eat
#: the heap.
DEFAULT_SPAN_CAPACITY = 100_000


def _clean_args(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce span attributes to JSON-serializable scalars."""
    return {
        key: value if isinstance(value, _JSON_SCALARS) else str(value)
        for key, value in attrs.items()
    }


#: Per-thread state: the *lane* a thread records its spans under.  Lanes
#: give one process's logical actors (API listener, worker threads) their
#: own named rows in the exported trace -- threads of one service process
#: would otherwise collapse into a single anonymous process row.
_THREAD_STATE = threading.local()


def set_thread_lane(lane: Optional[str]) -> None:
    """Name the lane this thread's spans render under (``None`` clears)."""
    _THREAD_STATE.lane = lane


def current_lane() -> Optional[str]:
    """This thread's lane, or ``None`` when unset."""
    return getattr(_THREAD_STATE, "lane", None)


def _lane_pid(pid: int, lane: str) -> int:
    """A stable synthetic pid for a ``(pid, lane)`` row.

    Real Linux pids stay below ``2**22``; offsetting the CRC into the
    ``2**30`` range keeps synthetic rows from colliding with any real
    process while staying deterministic across exports.
    """
    return 0x40000000 + zlib.crc32(f"{pid}:{lane}".encode("utf-8"))


class SpanHandle:
    """The context-manager interface :meth:`Tracer.span` hands out."""

    __slots__ = ()

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = SpanHandle()


class _LiveSpan(SpanHandle):
    """A span being timed; records itself into the tracer on ``__exit__``."""

    __slots__ = ("_tracer", "_name", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start = 0

    def __enter__(self) -> "_LiveSpan":
        self._start = time.monotonic_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.monotonic_ns()
        self._tracer.record(
            {
                "name": self._name,
                "ph": "X",
                "ts": self._start,
                "dur": end - self._start,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "lane": current_lane(),
                "args": self._args,
            }
        )


class Tracer:
    """A thread-safe, bounded buffer of completed spans (off by default)."""

    def __init__(
        self,
        enabled: bool = False,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        trace_id: Optional[str] = None,
    ):
        self._lock = threading.Lock()
        self.enabled = bool(enabled)
        self.capacity = int(capacity)
        self.trace_id = trace_id
        self._spans: List[dict] = []
        self.dropped = 0

    def span(self, name: str, **attrs: Any) -> SpanHandle:
        """A context manager timing its body as span ``name``.

        Attributes become the span's ``args`` in the exported trace; values
        that are not JSON scalars are stringified.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, _clean_args(attrs))

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration marker (retry fired, resume point...)."""
        if not self.enabled:
            return
        self.record(
            {
                "name": name,
                "ph": "i",
                "ts": time.monotonic_ns(),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "lane": current_lane(),
                "args": _clean_args(attrs),
            }
        )

    def record(self, span_dict: dict) -> None:
        """Append one finished span/marker, honouring the capacity bound."""
        with self._lock:
            if len(self._spans) >= self.capacity:
                self.dropped += 1
                return
            self._spans.append(span_dict)

    def extend(self, spans: List[dict]) -> None:
        """Fold spans drained from another process into this buffer."""
        if not self.enabled or not spans:
            return
        with self._lock:
            room = self.capacity - len(self._spans)
            if room <= 0:
                self.dropped += len(spans)
                return
            self._spans.extend(spans[:room])
            self.dropped += max(0, len(spans) - room)

    def drain(self) -> List[dict]:
        """Remove and return every buffered span (worker -> parent hop)."""
        with self._lock:
            spans, self._spans = self._spans, []
            return spans

    def snapshot(self) -> List[dict]:
        """A copy of the buffered spans, leaving the buffer intact."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Discard all buffered spans and reset the dropped counter."""
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def to_chrome_trace(self) -> dict:
        """The buffered spans as a Chrome trace-event JSON object.

        Loadable in Perfetto / ``chrome://tracing``: ``ph: "X"`` complete
        events with microsecond ``ts``/``dur``, one named process row per
        pid (``parent`` for this process, ``worker-<pid>`` otherwise), and
        the first name segment as the event category.

        Threads that declared a *lane* (:func:`set_thread_lane` -- the API
        listener and worker threads of one service process) get their own
        synthetic process rows named after the lane, so a single-process
        service still renders as distinguishable API / worker / pool-worker
        timelines.  When :attr:`trace_id` is set it rides in every process
        row's metadata and in ``otherData`` -- the stitching key across the
        API, worker, and pool-worker exports of one job.
        """
        events: List[dict] = []
        rows: List[tuple] = []
        this_pid = os.getpid()
        for span_dict in self.snapshot():
            pid = span_dict["pid"]
            lane = span_dict.get("lane")
            if pid != this_pid:
                # A foreign span carrying a lane is a forked pool worker
                # that inherited the spawning thread's lane; render it as
                # its own worker-<pid> row, not under the parent's lane.
                lane = None
            display_pid = pid if lane is None else _lane_pid(pid, lane)
            if (display_pid, pid, lane) not in rows:
                rows.append((display_pid, pid, lane))
            event = {
                "name": span_dict["name"],
                "cat": span_dict["name"].split(".", 1)[0],
                "ph": span_dict["ph"],
                "ts": span_dict["ts"] / 1000.0,
                "pid": display_pid,
                "tid": span_dict["tid"],
                "args": span_dict["args"],
            }
            if span_dict["ph"] == "X":
                event["dur"] = span_dict["dur"] / 1000.0
            else:
                event["s"] = "p"
            events.append(event)
        for display_pid, pid, lane in rows:
            if lane is not None:
                label = lane
            elif pid == this_pid:
                label = "parent"
            else:
                label = f"worker-{pid}"
            args: Dict[str, Any] = {"name": label}
            if self.trace_id is not None:
                args["trace_id"] = self.trace_id
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": display_pid,
                    "tid": 0,
                    "args": args,
                }
            )
        trace: Dict[str, Any] = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
        }
        if self.trace_id is not None:
            trace["otherData"] = {"trace_id": self.trace_id}
        return trace


#: The process-global tracer behind the module-level helpers.
GLOBAL = Tracer()


def span(name: str, **attrs: Any) -> SpanHandle:
    """Time a ``with`` body as a span on the global tracer."""
    return GLOBAL.span(name, **attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record a zero-duration marker on the global tracer."""
    GLOBAL.instant(name, **attrs)


def set_tracing(enabled: bool) -> bool:
    """Enable/disable the global tracer; returns the previous state."""
    previous = GLOBAL.enabled
    GLOBAL.enabled = bool(enabled)
    return previous


def is_tracing() -> bool:
    """Whether the global tracer is recording."""
    return GLOBAL.enabled


def drain_spans() -> List[dict]:
    """Drain the global tracer (used by workers shipping spans home)."""
    return GLOBAL.drain()


def extend_spans(spans: Optional[List[dict]]) -> None:
    """Fold worker spans into the global tracer."""
    if spans:
        GLOBAL.extend(spans)


def clear_spans() -> None:
    """Discard everything in the global tracer."""
    GLOBAL.clear()


def spans_snapshot() -> List[dict]:
    """A copy of the global tracer's buffered spans."""
    return GLOBAL.snapshot()


def to_chrome_trace() -> dict:
    """The global tracer's buffer as Chrome trace-event JSON."""
    return GLOBAL.to_chrome_trace()


@dataclass(frozen=True)
class TelemetryConfig:
    """The picklable slice of telemetry state workers must mirror.

    Shipped in the evaluation pool's initializer arguments (like the fault
    plan) so respawned workers re-arm tracing identically; also part of the
    shared pool's key, so flipping tracing starts a new pool.
    """

    trace: bool = False
    span_capacity: int = DEFAULT_SPAN_CAPACITY
    trace_id: Optional[str] = None

    @classmethod
    def current(cls) -> "TelemetryConfig":
        """The parent process's live configuration."""
        return cls(
            trace=GLOBAL.enabled,
            span_capacity=GLOBAL.capacity,
            trace_id=GLOBAL.trace_id,
        )

    def apply(self) -> None:
        """Arm this process's global tracer to match (worker-side)."""
        GLOBAL.enabled = self.trace
        GLOBAL.capacity = self.span_capacity
        GLOBAL.trace_id = self.trace_id
