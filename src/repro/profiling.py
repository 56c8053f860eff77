"""Lightweight named counters, timers, and histograms for the hot paths.

The solver-reuse layers (flow unit-solution cache, thermal factorization
reuse, cooling-system result memoization) and the parallel SA evaluation all
report what they did through this module, so benchmarks can prove that an
optimization actually removed work instead of guessing from wall clock alone:

    from repro import profiling

    profiling.reset()
    ...  # run something
    print(profiling.snapshot())
    # {"counters": {"flow.unit_cache_hits": 12, ...},
    #  "timers": {"thermal.factorize": {"count": 9, "seconds": 0.41}, ...},
    #  "histograms": {"thermal.factorize": {"bounds": [...], ...}}}

Beyond sum-only timers, every :meth:`Profiler.timer` block also feeds a
fixed-bucket :class:`Histogram`, so snapshots carry latency *distributions*
(p50/p90/p99) for the hot paths, not just totals -- a batch whose p99 is 40x
its p50 looks identical to a uniform one in a sum, and completely different
in a histogram.  Buckets are fixed and shared by construction, which makes
histogram merging associative: folding worker snapshots into the parent
gives the same result in any order.

Instrumentation is process-local: worker processes of
:class:`repro.optimize.parallel.PersistentEvaluationPool` accumulate their
own counters, which the pool can fetch and fold into the parent's profiler
(:func:`merge`).  Overhead is one dict update plus a lock per event --
negligible next to a sparse factorization -- and :func:`set_enabled` turns
everything into no-ops for the truly paranoid.

Metric names are dot-namespaced string literals declared in
:mod:`repro.telemetry.names` (enforced by lint rule R7); see
``docs/OBSERVABILITY.md`` for the full registry with semantics.

Well-known names (see ``docs/SOLVER_CACHES.md`` for the cache semantics):

=============================  =============================================
``flow.unit_solves``           sparse pressure systems assembled + factorized
``flow.unit_cache_hits``       :class:`~repro.flow.network.FlowField` reuses
``thermal.factorizations``     ``repro.linalg.factorize`` calls on the
                               thermal operator
``thermal.lu_cache_hits``      thermal solves that reused a factorization
``thermal.solves``             thermal linear solves (triangular sweeps)
``thermal.field_expansions``   lazy 2RM results expanded to cell maps
``cooling.simulations``        distinct thermal simulations per network
``cooling.cache_hits``         pressure probes served from the result cache
``search.probes``              pressure-search objective evaluations
``parallel.pool_starts``       persistent worker pools created
``parallel.batches``           candidate batches dispatched
``parallel.candidates``        candidates scored (parent-side count)
``parallel.infeasible``        candidates scored ``inf`` (illegal/infeasible)
``parallel.crashed``           candidates that raised unexpected exceptions
``parallel.pool_failures``     batch attempts lost to a pool-level failure
``parallel.timeouts``          batches that hit the no-progress timeout
``parallel.worker_lost``       batches that lost a worker process
``parallel.retries``           batch retries after a pool failure
``parallel.worker_replacements``  worker sets killed and respawned
``parallel.degraded``          pools that fell back to serial evaluation
``parallel.serial_fallback``   candidates scored on the degraded path
``parallel.batch_size``        histogram of candidates per dispatched batch
``faults.injected``            faults fired by :mod:`repro.faults` (also
                               split per kind: ``faults.injected.<kind>``)
``optimize.batch_cache_hits``  batch-mode candidates served from the
                               per-round memo instead of re-evaluated
``optimize.candidate``         timer + histogram over single-candidate
                               scoring (cache misses only)
``checkpoint.saves``           checkpoints written (one per round boundary)
``checkpoint.loads``           checkpoints read back and validated
``checkpoint.resumes``         design runs that continued a prior run
=============================  =============================================
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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


class Profiler:
    """A thread-safe bag of named counters, timers, and histograms."""

    def __init__(self, enabled: bool = True):
        self._lock = threading.Lock()
        self.enabled = bool(enabled)
        self._counters: Dict[str, int] = {}
        self._timer_counts: Dict[str, int] = {}
        self._timer_seconds: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- events --------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at 0)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(amount)

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        """Record ``seconds`` of wall clock against the timer ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self._timer_counts[name] = self._timer_counts.get(name, 0) + count
            self._timer_seconds[name] = (
                self._timer_seconds.get(name, 0.0) + float(seconds)
            )

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
        if not self.enabled:
            return
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

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager timing its body into timer + histogram ``name``."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self._timer_counts[name] = self._timer_counts.get(name, 0) + 1
                self._timer_seconds[name] = (
                    self._timer_seconds.get(name, 0.0) + elapsed
                )
                self._observe_locked(name, elapsed, LATENCY_BUCKET_BOUNDS)

    # -- queries -------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def timer_seconds(self, name: str) -> float:
        """Accumulated seconds of a timer (0.0 when never used)."""
        with self._lock:
            return self._timer_seconds.get(name, 0.0)

    def histogram(self, name: str) -> Optional[Histogram]:
        """A copy of the histogram ``name`` (``None`` when never observed)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                return None
            return Histogram.from_snapshot(histogram.snapshot())

    def snapshot(self) -> dict:
        """A JSON-ready copy: counters, timers, and (when any) histograms.

        The ``"histograms"`` key is only present when at least one
        histogram has been created, so counter/timer-only consumers (and
        pre-histogram snapshots riding in old checkpoints) see the same
        two-key shape as before.
        """
        with self._lock:
            out: dict = {
                "counters": dict(self._counters),
                "timers": {
                    name: {
                        "count": self._timer_counts[name],
                        "seconds": self._timer_seconds[name],
                    }
                    for name in self._timer_counts
                },
            }
            if self._histograms:
                out["histograms"] = {
                    name: histogram.snapshot()
                    for name, histogram in self._histograms.items()
                }
            return out

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this one.

        Histograms merge bucket-wise (associative, order-independent);
        snapshots without a ``"histograms"`` key merge as before.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.increment(name, value)
        for name, stat in snapshot.get("timers", {}).items():
            self.add_time(name, stat["seconds"], count=stat["count"])
        for name, hist_snap in snapshot.get("histograms", {}).items():
            if not self.enabled:
                return
            incoming = Histogram.from_snapshot(hist_snap)
            with self._lock:
                existing = self._histograms.get(name)
                if existing is None:
                    self._histograms[name] = incoming
                else:
                    existing.merge(incoming)

    def reset(self) -> None:
        """Zero every counter, timer, and histogram."""
        with self._lock:
            self._counters.clear()
            self._timer_counts.clear()
            self._timer_seconds.clear()
            self._histograms.clear()


#: The process-global profiler behind the module-level helpers.
GLOBAL = Profiler()


def increment(name: str, amount: int = 1) -> None:
    """Add to a counter on the global profiler."""
    GLOBAL.increment(name, amount)


def add_time(name: str, seconds: float, count: int = 1) -> None:
    """Record wall-clock seconds on the global profiler."""
    GLOBAL.add_time(name, seconds, count)


def observe(
    name: str, value: float, bounds: Sequence[float] = LATENCY_BUCKET_BOUNDS
) -> None:
    """Record a histogram observation on the global profiler."""
    GLOBAL.observe(name, value, bounds=bounds)


def timer(name: str):
    """Time a ``with`` body on the global profiler."""
    return GLOBAL.timer(name)


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
    """Snapshot the global profiler."""
    return GLOBAL.snapshot()


def merge(worker_snapshot: dict) -> None:
    """Merge a worker snapshot into the global profiler."""
    GLOBAL.merge(worker_snapshot)


def reset() -> None:
    """Zero the global profiler."""
    GLOBAL.reset()


def set_enabled(enabled: bool) -> bool:
    """Enable/disable global instrumentation; returns the previous state."""
    previous = GLOBAL.enabled
    GLOBAL.enabled = bool(enabled)
    return previous


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


def format_snapshot(
    snap: Optional[dict] = None, sort_by: str = "name"
) -> str:
    """Human-readable one-line-per-entry rendering of a snapshot.

    Args:
        snap: A :func:`snapshot` payload (the global one by default).
        sort_by: ``"name"`` for alphabetical sections, or ``"seconds"`` to
            sort timers by accumulated wall clock (descending) and counters
            by value (descending), so the hottest entries surface first.

    The name column widens to the longest name present (minimum 32), so
    long dotted names never shear the value columns out of alignment.
    """
    if sort_by not in ("name", "seconds"):
        raise TelemetryError(
            f"sort_by must be 'name' or 'seconds', got {sort_by!r}"
        )
    snap = snapshot() if snap is None else snap
    counters = snap.get("counters", {})
    timers = snap.get("timers", {})
    summaries = histogram_summaries(snap)
    names = [*counters, *timers, *summaries]
    width = max([32, *(len(name) for name in names)]) if names else 32

    if sort_by == "seconds":
        counter_names = sorted(counters, key=lambda n: (-counters[n], n))
        timer_names = sorted(
            timers, key=lambda n: (-timers[n]["seconds"], n)
        )
    else:
        counter_names = sorted(counters)
        timer_names = sorted(timers)

    lines: List[str] = []
    for name in counter_names:
        lines.append(f"{name:<{width}s} {counters[name]:>12d}")
    for name in timer_names:
        stat = timers[name]
        lines.append(
            f"{name:<{width}s} {stat['count']:>12d} calls "
            f"{stat['seconds']:>10.3f} s"
        )
    for name in sorted(summaries):
        stats = summaries[name]
        lines.append(
            f"{name:<{width}s} {stats['count']:>12d} obs   "
            f"p50 {stats['p50']:.3g} s  p90 {stats['p90']:.3g} s  "
            f"p99 {stats['p99']:.3g} s"
        )
    return "\n".join(lines)
