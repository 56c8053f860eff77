"""Unit tests for the metrics recorder: counters, histograms, timers, and
the registered-name check at every telemetry sink."""

import random
import threading

import pytest

from repro import profiling
from repro.errors import TelemetryError
from repro.profiling import (
    LATENCY_BUCKET_BOUNDS,
    SIZE_BUCKET_BOUNDS,
    Histogram,
    Profiler,
)
from repro.server.jobstore import JobStore
from repro.server.records import new_job_id
from repro.telemetry.promexpo import gauge
from repro.telemetry.runlog import RunLog, emit_event

from .conftest import fork_while_busy


@pytest.fixture(autouse=True)
def _clean_global():
    """Every test starts and ends with a zeroed, untraced global recorder."""
    profiling.reset()
    profiling.set_tracing(False)
    yield
    profiling.reset()
    profiling.set_tracing(False)


class TestCounters:
    def test_increment_and_read(self):
        p = Profiler()
        assert p.counter("x") == 0
        p.increment("x")
        p.increment("x", 4)
        assert p.counter("x") == 5

    def test_independent_names(self):
        p = Profiler()
        p.increment("a")
        p.increment("b", 2)
        assert (p.counter("a"), p.counter("b")) == (1, 2)

    def test_thread_safety(self):
        p = Profiler()

        def bump():
            for _ in range(1000):
                p.increment("hits")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert p.counter("hits") == 8000


class TestTimers:
    def test_timer_context_manager(self):
        p = Profiler()
        with p.timer("work"):
            pass
        snap = p.snapshot()["histograms"]["work"]
        assert snap["count"] == 1
        assert snap["sum"] >= 0.0
        assert p.timer_seconds("work") == snap["sum"]

    def test_timer_records_on_exception(self):
        p = Profiler()
        with pytest.raises(ValueError):
            with p.timer("work"):
                raise ValueError("boom")
        assert p.histogram("work").count == 1

    def test_timer_seconds_is_the_histogram_sum(self):
        p = Profiler()
        for _ in range(3):
            with p.timer("work"):
                pass
        assert p.timer_seconds("work") == p.histogram("work").total
        assert p.timer_seconds("never") == 0.0

    def test_traced_timer_is_one_observation_and_one_span(self):
        p = Profiler(trace=True)
        with p.timer("thermal.solve", nodes=42):
            pass
        assert p.histogram("thermal.solve").count == 1
        (span,) = p.spans()
        assert span["name"] == "thermal.solve"
        assert span["ph"] == "X"
        assert span["args"] == {"nodes": 42}
        assert span["dur"] / 1e9 == p.timer_seconds("thermal.solve")

    def test_untraced_timer_records_no_span(self):
        p = Profiler()
        with p.timer("thermal.solve", nodes=42):
            pass
        assert p.histogram("thermal.solve").count == 1
        assert p.spans() == []


class TestSnapshotMergeReset:
    def test_snapshot_is_a_copy(self):
        p = Profiler()
        p.increment("x")
        snap = p.snapshot()
        p.increment("x")
        assert snap["counters"]["x"] == 1
        assert p.counter("x") == 2

    def test_merge_folds_worker_snapshot(self):
        parent, worker = Profiler(), Profiler()
        parent.increment("solves", 2)
        worker.increment("solves", 3)
        worker.observe("factorize", 0.04)
        worker.observe("factorize", 0.06)
        parent.merge(worker.snapshot())
        assert parent.counter("solves") == 5
        assert parent.timer_seconds("factorize") == pytest.approx(0.1)
        assert parent.histogram("factorize").count == 2

    def test_merge_empty_snapshot(self):
        p = Profiler()
        p.merge({})
        assert p.snapshot() == {"counters": {}, "histograms": {}}

    def test_reset(self):
        p = Profiler(trace=True)
        p.increment("x")
        with p.timer("t"):
            pass
        p.reset()
        assert p.snapshot() == {"counters": {}, "histograms": {}}
        assert p.spans() == []

    def test_snapshot_has_no_timers_key(self):
        p = Profiler()
        p.increment("x")
        with p.timer("t"):
            pass
        assert set(p.snapshot()) == {"counters", "histograms"}

    def test_drain_is_one_delta_and_resets(self):
        worker = Profiler(trace=True)
        worker.increment("solves", 3)
        with worker.timer("thermal.solve", nodes=7):
            pass
        delta = worker.drain()
        assert set(delta) == {"counters", "histograms", "spans"}
        assert worker.snapshot() == {"counters": {}, "histograms": {}}
        assert worker.spans() == []
        parent = Profiler(trace=True)
        parent.merge(delta)
        assert parent.counter("solves") == 3
        assert parent.histogram("thermal.solve").count == 1
        assert [s["args"] for s in parent.spans()] == [{"nodes": 7}]

    def test_untraced_merge_keeps_metrics_and_drops_spans(self):
        worker = Profiler(trace=True)
        with worker.timer("thermal.solve"):
            pass
        parent = Profiler()
        parent.merge(worker.drain())
        assert parent.histogram("thermal.solve").count == 1
        assert parent.spans() == []

    def test_clear_spans_keeps_counters_and_histograms(self):
        p = Profiler(trace=True)
        p.increment("x", 2)
        with p.timer("t"):
            pass
        p.clear_spans()
        assert p.spans() == []
        assert p.counter("x") == 2
        assert p.histogram("t").count == 1


class TestHistograms:
    def test_observe_and_summary(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0, 10.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 5
        assert s["sum"] == pytest.approx(16.5)
        assert s["min"] == 0.5
        assert s["max"] == 10.0
        assert 0.5 <= s["p50"] <= 10.0

    def test_empty_summary_is_all_zeros(self):
        s = Histogram().summary()
        assert s == {
            "count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }

    def test_percentiles_clamped_to_observed_envelope(self):
        h = Histogram(bounds=LATENCY_BUCKET_BOUNDS)
        h.observe(0.005)
        assert h.percentile(0.0) == 0.005
        assert h.percentile(100.0) == 0.005

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(TelemetryError):
            Histogram().percentile(101.0)

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(TelemetryError):
            Histogram(bounds=(1.0, 1.0, 2.0))

    def test_snapshot_round_trip(self):
        h = Histogram(bounds=SIZE_BUCKET_BOUNDS)
        for v in (1, 3, 17, 9000):
            h.observe(v)
        clone = Histogram.from_snapshot(h.snapshot())
        assert clone.snapshot() == h.snapshot()
        assert clone.summary() == h.summary()

    def test_merge_requires_identical_bounds(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 3.0))
        with pytest.raises(TelemetryError):
            a.merge(b)

    def test_merge_is_associative_and_order_independent(self):
        rng = random.Random(42)
        parts = []
        for _ in range(4):
            h = Histogram(bounds=LATENCY_BUCKET_BOUNDS)
            for _ in range(200):
                h.observe(rng.lognormvariate(-6.0, 2.0))
            parts.append(h)

        def fold(order):
            acc = Histogram(bounds=LATENCY_BUCKET_BOUNDS)
            for index in order:
                acc.merge(
                    Histogram.from_snapshot(parts[index].snapshot())
                )
            return acc.snapshot()

        forward = fold([0, 1, 2, 3])
        reverse = fold([3, 2, 1, 0])
        shuffled = fold([2, 0, 3, 1])
        assert forward == reverse == shuffled
        # Associativity: (a+b)+(c+d) equals folding left-to-right.
        left = Histogram(bounds=LATENCY_BUCKET_BOUNDS)
        left.merge(parts[0])
        left.merge(parts[1])
        right = Histogram(bounds=LATENCY_BUCKET_BOUNDS)
        right.merge(parts[2])
        right.merge(parts[3])
        left.merge(right)
        assert left.snapshot() == forward

    def test_profiler_timer_feeds_histogram(self):
        p = Profiler()
        with p.timer("work"):
            pass
        snap = p.snapshot()
        assert snap["histograms"]["work"]["count"] == 1
        assert p.histogram("work").count == 1

    def test_observe_helper_and_bounds_conflict(self):
        p = Profiler()
        p.observe("batch", 8, bounds=SIZE_BUCKET_BOUNDS)
        with pytest.raises(TelemetryError):
            p.observe("batch", 8, bounds=LATENCY_BUCKET_BOUNDS)

    def test_merge_folds_worker_histograms(self):
        parent, worker = Profiler(), Profiler()
        with parent.timer("solve"):
            pass
        with worker.timer("solve"):
            pass
        worker.observe("batch", 4, bounds=SIZE_BUCKET_BOUNDS)
        parent.merge(worker.snapshot())
        assert parent.histogram("solve").count == 2
        assert parent.histogram("batch").count == 1

    def test_concurrent_increment_and_merge(self):
        parent = Profiler()
        worker_snapshots = []
        for _ in range(4):
            w = Profiler()
            w.increment("hits", 100)
            with w.timer("solve"):
                pass
            worker_snapshots.append(w.snapshot())

        def bump():
            for _ in range(500):
                parent.increment("hits")

        def fold(snap):
            for _ in range(50):
                parent.merge(snap)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        threads += [
            threading.Thread(target=fold, args=(s,))
            for s in worker_snapshots
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert parent.counter("hits") == 4 * 500 + 4 * 50 * 100
        assert parent.histogram("solve").count == 4 * 50


class TestModuleHelpers:
    def test_global_helpers(self):
        profiling.increment("search.probes", 2)
        with profiling.timer("thermal.solve"):
            pass
        profiling.observe("thermal.solve", 0.5)
        snap = profiling.snapshot()
        assert snap["counters"]["search.probes"] == 2
        assert snap["histograms"]["thermal.solve"]["count"] == 2
        assert profiling.timer_seconds("thermal.solve") >= 0.5
        profiling.merge({"counters": {"search.probes": 1}})
        assert profiling.counter("search.probes") == 3


def _timed(helper):
    def record(name, tmp_path):
        with helper(name):
            pass

    return record


def _log_event(name, tmp_path):
    with JobStore(tmp_path / "store") as store:
        store.log_event(new_job_id(), name)


#: Every place a telemetry name enters the system, as ``(name, tmp_path)``.
NAME_SINKS = {
    "profiling.increment": lambda name, tmp_path: profiling.increment(name),
    "profiling.observe": lambda name, tmp_path: profiling.observe(name, 0.1),
    "profiling.timer": _timed(profiling.timer),
    "profiling.span": _timed(profiling.span),
    "profiling.instant": lambda name, tmp_path: profiling.instant(name),
    "runlog.emit_event": lambda name, tmp_path: emit_event(name),
    "RunLog.emit": lambda name, tmp_path: RunLog(
        tmp_path / "run.jsonl", fsync=False
    ).emit(name),
    "JobStore.log_event": _log_event,
    "promexpo.gauge": lambda name, tmp_path: gauge(name, 1.0),
}


@pytest.mark.parametrize("sink", sorted(NAME_SINKS))
class TestRegisteredNames:
    """Each sink rejects a name missing from ``repro.telemetry.names``."""

    @pytest.mark.parametrize(
        "name", ["thermal.sovles", "faults.injectedx", "job.claimd", "g"]
    )
    def test_unregistered_name_raises(self, sink, name, tmp_path):
        profiling.set_tracing(True)
        with pytest.raises(TelemetryError, match="not declared"):
            NAME_SINKS[sink](name, tmp_path)

    def test_wildcard_family_is_accepted(self, sink, tmp_path):
        profiling.set_tracing(True)
        NAME_SINKS[sink]("faults.injected.torn-write", tmp_path)


class TestForkSafety:
    # Python 3.12 warns about every fork of a multi-threaded process; such
    # a fork is the subject of this test.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_child_forked_mid_record_can_use_the_recorder(self):
        """A child forked while another thread holds the recorder's lock
        must not inherit it held: its first ``reset`` would wait forever."""

        def record():
            profiling.increment("parallel.candidates")
            profiling.observe("thermal.factorize", 0.001)

        def child():  # touch the recorder
            profiling.reset()
            profiling.increment("parallel.batches")

        assert fork_while_busy(record, child) == []
