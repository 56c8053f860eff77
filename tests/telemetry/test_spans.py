"""Unit tests for span recording and its Chrome trace export."""

import os
import pickle
import threading

import pytest

from repro import profiling
from repro.profiling import _NULL_SPAN, Profiler, TelemetryConfig


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with an untraced, empty global recorder."""
    profiling.set_tracing(False)
    profiling.clear_spans()
    yield
    profiling.set_tracing(False)
    profiling.clear_spans()


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        tracer = Profiler()
        handle = tracer.span("thermal.solve")
        assert handle is _NULL_SPAN
        with handle:
            pass
        assert tracer.spans() == []

    def test_disabled_instant_records_nothing(self):
        tracer = Profiler()
        tracer.instant("parallel.retry", attempt=1)
        assert tracer.spans() == []

    def test_disabled_extend_is_noop(self):
        tracer = Profiler()
        tracer.merge({"spans": [{"name": "x"}]})
        assert tracer.spans() == []


class TestRecording:
    def test_span_records_identity_and_timing(self):
        tracer = Profiler(trace=True)
        with tracer.span("thermal.solve", nodes=100):
            pass
        (span,) = tracer.spans()
        assert span["name"] == "thermal.solve"
        assert span["ph"] == "X"
        assert span["dur"] >= 0
        assert span["pid"] == os.getpid()
        assert span["tid"] == threading.get_ident()
        assert span["args"] == {"nodes": 100}

    def test_non_scalar_attrs_are_stringified(self):
        tracer = Profiler(trace=True)
        with tracer.span("thermal.solve", shape=(3, 4), ok=True):
            pass
        (span,) = tracer.spans()
        assert span["args"] == {"shape": "(3, 4)", "ok": True}

    def test_nested_spans_are_contained(self):
        tracer = Profiler(trace=True)
        with tracer.span("optimize.round"):
            with tracer.span("parallel.batch"):
                pass
        inner, outer = tracer.spans()
        assert (inner["name"], outer["name"]) == (
            "parallel.batch", "optimize.round",
        )
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_instant_marker(self):
        tracer = Profiler(trace=True)
        tracer.instant("parallel.retry", attempt=2)
        (marker,) = tracer.spans()
        assert marker["ph"] == "i"
        assert "dur" not in marker
        assert marker["args"] == {"attempt": 2}

    def test_span_records_on_exception(self):
        tracer = Profiler(trace=True)
        with pytest.raises(ValueError):
            with tracer.span("thermal.solve"):
                raise ValueError("boom")
        assert len(tracer.spans()) == 1


class TestBufferDiscipline:
    def test_capacity_bound_counts_drops(self):
        tracer = Profiler(trace=True, span_capacity=2)
        for _ in range(5):
            tracer.instant("parallel.retry")
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 3

    def test_drain_empties_buffer(self):
        tracer = Profiler(trace=True)
        tracer.instant("parallel.retry")
        drained = tracer.drain()["spans"]
        assert len(drained) == 1
        assert tracer.spans() == []

    def test_extend_folds_and_respects_capacity(self):
        tracer = Profiler(trace=True, span_capacity=3)
        tracer.instant("parallel.retry")
        worker_spans = [
            {"name": "parallel.candidate", "ph": "i", "ts": 0,
             "pid": 9999, "tid": 1, "args": {}},
        ] * 4
        tracer.merge({"spans": worker_spans})
        assert len(tracer.spans()) == 3
        assert tracer.dropped == 2

    def test_clear_resets_dropped(self):
        tracer = Profiler(trace=True, span_capacity=1)
        tracer.instant("parallel.retry")
        tracer.instant("parallel.retry")
        assert tracer.dropped == 1
        tracer.clear_spans()
        assert tracer.dropped == 0
        assert tracer.spans() == []


class TestChromeTrace:
    def test_export_shape(self):
        tracer = Profiler(trace=True)
        with tracer.span("thermal.rc2.solve", cells=10):
            pass
        tracer.instant("parallel.retry")
        tracer.merge({"spans": [
            {"name": "parallel.candidate", "ph": "X", "ts": 5_000,
             "dur": 2_000, "pid": 424242, "tid": 7, "args": {}},
        ]})
        trace = tracer.to_chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        complete = by_ph["X"]
        assert {"thermal.rc2.solve", "parallel.candidate"} == {
            e["name"] for e in complete
        }
        worker_event = next(
            e for e in complete if e["name"] == "parallel.candidate"
        )
        assert worker_event["ts"] == 5.0  # ns -> us
        assert worker_event["dur"] == 2.0
        (marker,) = by_ph["i"]
        assert marker["s"] == "p"
        assert all(
            e["cat"] == e["name"].split(".", 1)[0]
            for e in complete + by_ph["i"]
        )
        labels = {
            e["pid"]: e["args"]["name"] for e in by_ph["M"]
            if e["name"] == "process_name"
        }
        assert labels[os.getpid()] == "parent"
        assert labels[424242] == "worker-424242"


class TestModuleHelpers:
    def test_set_tracing_round_trip(self):
        assert profiling.set_tracing(True) is False
        assert profiling.is_tracing()
        with profiling.span("checkpoint.save"):
            pass
        assert len(profiling.spans()) == 1
        assert profiling.set_tracing(False) is True
        profiling.clear_spans()
        assert profiling.spans() == []

    def test_drain_and_extend_round_trip(self):
        profiling.set_tracing(True)
        profiling.instant("parallel.retry")
        shipped = profiling.drain()
        assert profiling.spans() == []
        profiling.merge(shipped)
        assert len(profiling.spans()) == 1


class TestTelemetryConfig:
    def test_current_apply_round_trip(self):
        profiling.set_tracing(True)
        config = TelemetryConfig.current()
        assert config.trace is True
        profiling.set_tracing(False)
        config.apply()
        assert profiling.is_tracing()

    def test_picklable_and_hashable(self):
        config = TelemetryConfig(trace=True, span_capacity=10)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert hash(clone) == hash(config)
        with pytest.raises(AttributeError):
            config.trace = False


class TestThreadLanes:
    def test_lane_names_give_threads_their_own_rows(self):
        """API and worker threads of one process export as distinct,
        lane-named process rows with stable synthetic pids."""
        profiling.set_tracing(True)

        def record(lane):
            profiling.set_thread_lane(lane)
            profiling.instant("server.http", lane_check=lane)

        threads = [
            threading.Thread(target=record, args=(lane,))
            for lane in ("api", "worker-0")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        trace = profiling.to_chrome_trace()
        labels = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert sorted(labels.values()) == ["api", "worker-0"]
        # Synthetic pids stay clear of real pid space and are distinct.
        assert all(pid >= 0x40000000 for pid in labels)
        assert len(set(labels)) == 2

    def test_lane_clears_and_unlaned_spans_keep_the_plain_row(self):
        profiling.set_tracing(True)
        profiling.set_thread_lane("api")
        profiling.set_thread_lane(None)
        profiling.instant("server.http")
        trace = profiling.to_chrome_trace()
        (meta,) = [
            e for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        ]
        assert meta["pid"] == os.getpid()
        assert meta["args"]["name"] == "parent"

    def test_foreign_pid_spans_drop_inherited_lanes(self):
        """A forked pool worker inherits the spawning thread's lane in its
        thread-locals; the export must render its spans as a worker-<pid>
        row, not fold them into the parent's lane."""
        profiling.set_tracing(True)
        profiling.set_thread_lane("worker-0")
        try:
            with profiling.span("server.job"):
                pass
            foreign = dict(profiling.spans()[0])
            foreign["pid"] = 424242  # as if drained home from a fork
            foreign["name"] = "parallel.candidate"
            profiling.merge({"spans": [foreign]})
            trace = profiling.to_chrome_trace()
            labels = {
                e["args"]["name"]
                for e in trace["traceEvents"]
                if e.get("ph") == "M" and e["name"] == "process_name"
            }
            assert labels == {"worker-0", "worker-424242"}
        finally:
            profiling.set_thread_lane(None)

    def test_trace_id_rides_every_process_row(self):
        profiling.set_tracing(True)
        TelemetryConfig(trace=True, trace_id="t-42").apply()
        profiling.instant("server.http")
        trace = profiling.to_chrome_trace()
        assert trace["otherData"] == {"trace_id": "t-42"}
        for event in trace["traceEvents"]:
            if event.get("ph") == "M" and event["name"] == "process_name":
                assert event["args"]["trace_id"] == "t-42"
        TelemetryConfig().apply()
