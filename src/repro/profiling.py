"""The one in-process metrics recorder: counters, histograms and spans.

Every layer reports what it did through this module, so benchmarks, the
``/metrics`` endpoint and traces read measured work instead of guessing
from wall clock alone:

    from repro import profiling

    profiling.reset()
    with profiling.timer("thermal.solve", nodes=n):
        ...
    profiling.increment("thermal.solves")
    profiling.snapshot()
    # {"counters": {"thermal.solves": 1},
    #  "histograms": {"thermal.solve": {"bounds": [...], "count": 1, ...}}}

Counters and fixed-bucket :class:`Histogram` s are always on, at one lock
and one dict update per event.  A :func:`timer` block observes its elapsed
seconds into the histogram of its name, so snapshots carry latency
*distributions* (p50/p90/p99), not just totals.  Buckets are fixed and
shared by construction, which makes histogram merging associative: folding
worker deltas into the parent gives the same result in any order.

*Spans* -- timed regions with attributes and process/thread identity -- are
recorded only while tracing is on (:func:`set_tracing`, off by default).
Then every :func:`timer` block is also a span carrying its attributes,
:func:`span` times a region as a span only, and :func:`instant` records a
zero-duration marker.  With tracing off, :func:`span` returns a shared no-op
context manager.  Timestamps come from ``time.monotonic_ns()``:
``CLOCK_MONOTONIC`` is shared across processes on Linux, so worker and
parent spans land on one timeline.  The span buffer is bounded
(:data:`DEFAULT_SPAN_CAPACITY`); overflow is counted, not recorded.
:func:`to_chrome_trace` renders it as Chrome trace-event JSON (Perfetto).

Each process records into its own :data:`GLOBAL` recorder.  A worker of
:class:`repro.optimize.parallel.PersistentEvaluationPool` ships one
:func:`drain` delta (counters, histograms and spans) home per candidate,
and the parent folds it in with :func:`merge`.

Names are dot-namespaced literals declared in :mod:`repro.telemetry.names`
(lint rule R7); ``docs/OBSERVABILITY.md`` has the registry with semantics.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, ContextManager, Dict, List, Optional, Sequence, Tuple

from .errors import TelemetryError

#: [unit: s] Upper bucket bounds for latency histograms: log-spaced, four
#: buckets per decade, from 1 microsecond to 100 seconds (an implicit
#: overflow bucket catches anything slower).  Fixed bounds -- identical in
#: every process and every run -- are what make histogram merges associative
#: and snapshots comparable across BENCH_*.json generations.
LATENCY_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (exponent / 4.0) for exponent in range(-24, 9)
)

#: [unit: 1] Upper bucket bounds for size/count histograms (batch sizes,
#: queue depths): powers of two from 1 to 4096.
SIZE_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    float(2**exponent) for exponent in range(0, 13)
)


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max sidecars.

    ``bounds`` are *upper* bucket edges: observation ``v`` lands in the
    first bucket whose bound is ``>= v``; anything above the last bound
    lands in the implicit overflow bucket, so there are ``len(bounds) + 1``
    buckets in total.  Because the bounds are fixed at construction and two
    histograms only merge when their bounds match exactly, merging is
    associative and commutative -- fold worker snapshots in any order and
    the percentiles come out identical.

    Percentiles are estimated by linear interpolation inside the bucket
    containing the requested rank, clamped to the exact observed
    ``[min, max]`` envelope.
    """

    __slots__ = ("bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKET_BOUNDS):
        if len(bounds) < 1:
            raise TelemetryError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if any(b2 <= b1 for b1, b2 in zip(ordered, ordered[1:])):
            raise TelemetryError(
                "histogram bucket bounds must be strictly increasing"
            )
        self.bounds: Tuple[float, ...] = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    # -- recording -----------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same bounds) into this one."""
        if other.bounds != self.bounds:
            raise TelemetryError(
                f"cannot merge histograms with different bucket bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} edges)"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)

    # -- queries -------------------------------------------------------

    def percentile(self, q: float) -> float:
        """Estimated value at percentile ``q`` (0..100); 0.0 when empty."""
        if not 0.0 <= q <= 100.0:
            raise TelemetryError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else self.vmin
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.vmax
                )
                fraction = (target - cumulative) / bucket_count
                value = lower + fraction * (upper - lower)
                return min(max(value, self.vmin), self.vmax)
            cumulative += bucket_count
        return self.vmax

    def snapshot(self) -> dict:
        """JSON-ready bucket state (mergeable via :meth:`from_snapshot`)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Histogram":
        """Rebuild a histogram from a :meth:`snapshot` payload."""
        histogram = cls(bounds=tuple(snap["bounds"]))
        counts = [int(c) for c in snap["counts"]]
        if len(counts) != len(histogram.counts):
            raise TelemetryError(
                f"histogram snapshot has {len(counts)} buckets, "
                f"expected {len(histogram.counts)}"
            )
        histogram.counts = counts
        histogram.count = int(snap["count"])
        histogram.total = float(snap["sum"])
        if histogram.count:
            histogram.vmin = float(snap["min"])
            histogram.vmax = float(snap["max"])
        return histogram

    def summary(self) -> dict:
        """Compact stats: count, sum, mean, min/max, p50/p90/p99."""
        if self.count == 0:
            return {
                "count": 0,
                "sum": 0.0,
                "mean": 0.0,
                "min": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p90": 0.0,
                "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count,
            "min": self.vmin,
            "max": self.vmax,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


#: Default bound on buffered spans per process; beyond it new spans are
#: counted as dropped instead of recorded, so a runaway trace cannot eat
#: the heap.
DEFAULT_SPAN_CAPACITY = 100_000

#: Attribute values are coerced to JSON-safe scalars with this check.
_JSON_SCALARS = (str, int, float, bool, type(None))

#: What :func:`span` returns while tracing is off.
_NULL_SPAN = nullcontext()


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


def _event(name: str, ph: str, ts: int, args: Dict[str, Any]) -> dict:
    """One buffered span (``ph: "X"``) or marker (``ph: "i"``)."""
    return {
        "name": name,
        "ph": ph,
        "ts": ts,
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "lane": current_lane(),
        "args": _clean_args(args),
    }


class _Region:
    """A timed ``with`` body: a histogram observation, a span, or both."""

    __slots__ = (
        "_profiler", "_name", "_attrs", "_observe", "_trace", "_start",
    )

    def __init__(
        self,
        profiler: "Profiler",
        name: str,
        attrs: Dict[str, Any],
        observe: bool,
        trace: bool,
    ):
        self._profiler = profiler
        self._name = name
        self._attrs = attrs
        self._observe = observe
        self._trace = trace
        self._start = 0

    def __enter__(self) -> "_Region":
        self._start = time.monotonic_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.monotonic_ns() - self._start
        span = None
        if self._trace:
            span = _event(self._name, "X", self._start, self._attrs)
            span["dur"] = elapsed
        profiler = self._profiler
        with profiler._lock:
            if self._observe:
                profiler._observe_locked(
                    self._name, elapsed / 1e9, LATENCY_BUCKET_BOUNDS
                )
            if span is not None:
                profiler._record_locked([span])


class Profiler:
    """A thread-safe store of counters, histograms and (while tracing)
    spans, under one lock."""

    def __init__(
        self,
        trace: bool = False,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
        trace_id: Optional[str] = None,
    ):
        self._lock = threading.Lock()
        #: Whether spans are recorded.
        self.tracing = bool(trace)
        self.span_capacity = int(span_capacity)
        #: Stitching key carried by every exported process row.
        self.trace_id = trace_id
        #: Spans lost to the capacity bound since the last clear.
        self.dropped = 0
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: List[dict] = []

    # -- events --------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(amount)

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = LATENCY_BUCKET_BOUNDS,
    ) -> None:
        """Record one observation into the histogram ``name``.

        ``bounds`` only matters on first use (the histogram is created
        with them); later observations must agree or the merge discipline
        would break, so a mismatch raises :class:`TelemetryError`.
        """
        with self._lock:
            self._observe_locked(name, value, tuple(float(b) for b in bounds))

    def _observe_locked(
        self, name: str, value: float, bounds: Tuple[float, ...]
    ) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(bounds=bounds)
            self._histograms[name] = histogram
        elif histogram.bounds != bounds:
            raise TelemetryError(
                f"histogram {name!r} already exists with different bounds"
            )
        histogram.observe(value)

    def timer(self, name: str, **attrs: Any) -> _Region:
        """Time a ``with`` body into the histogram ``name``; while tracing,
        also as a span carrying ``attrs`` (stringified unless JSON
        scalars)."""
        return _Region(self, name, attrs, observe=True, trace=self.tracing)

    def span(self, name: str, **attrs: Any) -> ContextManager[Any]:
        """Time a ``with`` body as a span only (a no-op unless tracing)."""
        if not self.tracing:
            return _NULL_SPAN
        return _Region(self, name, attrs, observe=False, trace=True)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration marker (retry fired, resume point...)."""
        if not self.tracing:
            return
        marker = _event(name, "i", time.monotonic_ns(), attrs)
        with self._lock:
            self._record_locked([marker])

    def _record_locked(self, spans: Sequence[dict]) -> None:
        """Buffer finished spans, honouring the capacity bound."""
        room = max(self.span_capacity - len(self._spans), 0)
        self._spans.extend(spans[:room])
        self.dropped += max(len(spans) - room, 0)

    # -- queries -------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def timer_seconds(self, name: str) -> float:
        """Seconds accumulated by :meth:`timer` ``name``: the sum of its
        histogram (0.0 when never used)."""
        with self._lock:
            histogram = self._histograms.get(name)
            return 0.0 if histogram is None else histogram.total

    def histogram(self, name: str) -> Optional[Histogram]:
        """A copy of the histogram ``name`` (``None`` when never observed)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                return None
            return Histogram.from_snapshot(histogram.snapshot())

    def snapshot(self) -> dict:
        """A JSON-ready copy of the counters and histograms."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict:
        return {
            "counters": dict(self._counters),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in self._histograms.items()
            },
        }

    def spans(self) -> List[dict]:
        """A copy of the buffered spans, leaving the buffer intact."""
        with self._lock:
            return list(self._spans)

    # -- the worker hop --------------------------------------------------

    def drain(self) -> dict:
        """Everything recorded since the last reset, as one delta
        (:meth:`snapshot` plus ``"spans"``), and reset."""
        with self._lock:
            delta = self._snapshot_locked()
            delta["spans"] = self._spans
            self._counters, self._histograms, self._spans = {}, {}, []
            return delta

    def merge(self, delta: dict) -> None:
        """Fold a :meth:`drain` delta or a :meth:`snapshot` (e.g. from a
        worker process) into this recorder.

        Histograms merge bucket-wise (associative, order-independent);
        spans are kept only while tracing.
        """
        incoming = {
            name: Histogram.from_snapshot(snap)
            for name, snap in delta.get("histograms", {}).items()
        }
        with self._lock:
            for name, value in delta.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, histogram in incoming.items():
                existing = self._histograms.get(name)
                if existing is None:
                    self._histograms[name] = histogram
                else:
                    existing.merge(histogram)
            if self.tracing:
                self._record_locked(delta.get("spans", ()))

    def clear_spans(self) -> None:
        """Discard the buffered spans and reset :attr:`dropped`; counters
        and histograms are kept."""
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def reset(self) -> None:
        """Zero every counter and histogram and discard every span."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._spans.clear()
            self.dropped = 0

    # -- export --------------------------------------------------------

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
        for span_dict in self.spans():
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


#: The process-global recorder behind the module-level helpers.
GLOBAL = Profiler()


# A forked child gets the recorder a new lock: another thread of the parent
# may have held the old one at the fork, and no child thread would free it.
os.register_at_fork(
    after_in_child=lambda: setattr(GLOBAL, "_lock", threading.Lock())
)


def increment(name: str, amount: int = 1) -> None:
    """Add to a counter on the global recorder."""
    GLOBAL.increment(name, amount)


def observe(
    name: str, value: float, bounds: Sequence[float] = LATENCY_BUCKET_BOUNDS
) -> None:
    """Record a histogram observation on the global recorder."""
    GLOBAL.observe(name, value, bounds=bounds)


def timer(name: str, **attrs: Any) -> _Region:
    """Time a ``with`` body on the global recorder (see
    :meth:`Profiler.timer`)."""
    return GLOBAL.timer(name, **attrs)


def span(name: str, **attrs: Any) -> ContextManager[Any]:
    """Time a ``with`` body as a span on the global recorder."""
    return GLOBAL.span(name, **attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record a zero-duration marker on the global recorder."""
    GLOBAL.instant(name, **attrs)


def counter(name: str) -> int:
    """Read one global counter."""
    return GLOBAL.counter(name)


def timer_seconds(name: str) -> float:
    """Read one global timer's accumulated seconds."""
    return GLOBAL.timer_seconds(name)


def histogram(name: str) -> Optional[Histogram]:
    """Read (a copy of) one global histogram."""
    return GLOBAL.histogram(name)


def snapshot() -> dict:
    """Snapshot the global counters and histograms."""
    return GLOBAL.snapshot()


def spans() -> List[dict]:
    """A copy of the global span buffer."""
    return GLOBAL.spans()


def drain() -> dict:
    """Drain the global recorder (a pool worker's per-candidate delta)."""
    return GLOBAL.drain()


def merge(delta: dict) -> None:
    """Fold a worker delta into the global recorder."""
    GLOBAL.merge(delta)


def clear_spans() -> None:
    """Discard the global span buffer (counters and histograms stay)."""
    GLOBAL.clear_spans()


def reset() -> None:
    """Zero the global recorder."""
    GLOBAL.reset()


def set_tracing(enabled: bool) -> bool:
    """Turn global span recording on or off; returns the previous state."""
    previous = GLOBAL.tracing
    GLOBAL.tracing = bool(enabled)
    return previous


def is_tracing() -> bool:
    """Whether the global recorder records spans."""
    return GLOBAL.tracing


def to_chrome_trace() -> dict:
    """The global span buffer as Chrome trace-event JSON."""
    return GLOBAL.to_chrome_trace()


def histogram_summaries(snap: Optional[dict] = None) -> Dict[str, dict]:
    """Per-histogram :meth:`Histogram.summary` stats of a snapshot.

    The compact form benchmarks and run logs embed: percentiles and
    count/sum per histogram, without the raw buckets.
    """
    snap = snapshot() if snap is None else snap
    return {
        name: Histogram.from_snapshot(hist_snap).summary()
        for name, hist_snap in snap.get("histograms", {}).items()
    }


@dataclass(frozen=True)
class TelemetryConfig:
    """The picklable slice of tracing state workers must mirror.

    Handed to every evaluation pool worker as it starts (like the fault
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
            trace=GLOBAL.tracing,
            span_capacity=GLOBAL.span_capacity,
            trace_id=GLOBAL.trace_id,
        )

    def apply(self) -> None:
        """Arm this process's global recorder to match (worker-side)."""
        GLOBAL.tracing = self.trace
        GLOBAL.span_capacity = self.span_capacity
        GLOBAL.trace_id = self.trace_id
