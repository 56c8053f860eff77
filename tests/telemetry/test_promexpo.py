"""The Prometheus exposition module: render/parse round-trip fidelity.

The renderer and the parser in :mod:`repro.telemetry.promexpo` define the
whole ``GET /metrics`` wire contract between them (no client library on
either side), so the tests drive one against the other: everything the
renderer emits must parse back loss-free, and the parser must reject the
malformed shapes a broken renderer would produce.
"""

import math
import re

import pytest

from repro.errors import TelemetryError
from repro.profiling import LATENCY_BUCKET_BOUNDS, Profiler
from repro.telemetry.promexpo import (
    PROMETHEUS_CONTENT_TYPE,
    gauge,
    histogram_quantile,
    parse_prometheus_text,
    render_prometheus,
)


def live_snapshot():
    """A profiler snapshot exercising counters, timers, and histograms."""
    profiler = Profiler()
    profiler.increment("server.jobs_submitted", 3)
    with profiler.timer("flow.unit_solve"):
        pass
    for value in (0.01, 0.02, 0.5, 2.0):
        profiler.observe("server.job_duration", value)
    return profiler.snapshot()


def test_counters_render_as_total_and_round_trip():
    text = render_prometheus(live_snapshot())
    families = parse_prometheus_text(text)
    family = families["repro_server_jobs_submitted_total"]
    assert family["type"] == "counter"
    assert family["samples"][0]["value"] == 3


def test_timer_with_same_name_histogram_renders_histogram_only():
    """A ``profiling.timer`` is a histogram of its name: it renders as that
    histogram (whose _sum/_count carry the timer's data) and nothing
    else."""
    profiler = Profiler()
    with profiler.timer("thermal.solve"):
        pass
    text = render_prometheus(profiler.snapshot())
    families = parse_prometheus_text(text)
    assert "repro_thermal_solve_seconds" in families
    assert "repro_thermal_solve_seconds_total" not in families
    assert "repro_thermal_solve_calls_total" not in families


def test_latency_histogram_is_cumulative_with_inf_and_unit_suffix():
    text = render_prometheus(live_snapshot())
    families = parse_prometheus_text(text)
    family = families["repro_server_job_duration_seconds"]
    assert family["type"] == "histogram"
    buckets = sorted(
        (float("inf") if s["labels"]["le"] == "+Inf" else float(s["labels"]["le"]),
         s["value"])
        for s in family["samples"]
        if s["name"].endswith("_bucket")
    )
    counts = [count for _, count in buckets]
    assert counts == sorted(counts)  # cumulative by construction
    assert buckets[-1][0] == float("inf")
    assert buckets[-1][1] == 4  # +Inf bucket holds every observation
    total = next(
        s["value"] for s in family["samples"] if s["name"].endswith("_count")
    )
    assert total == 4
    sum_sample = next(
        s["value"] for s in family["samples"] if s["name"].endswith("_sum")
    )
    assert sum_sample == pytest.approx(0.01 + 0.02 + 0.5 + 2.0)


def test_gauges_render_with_escaped_labels():
    tricky = 'tenant "a"\\with\nnewline'
    text = render_prometheus(
        gauges=[
            gauge("server.queue_depth", 4, state="pending"),
            gauge("server.tenant_active_jobs", 2, tenant=tricky),
        ]
    )
    families = parse_prometheus_text(text)
    depth = families["repro_server_queue_depth"]
    assert depth["type"] == "gauge"
    assert depth["samples"][0]["labels"] == {"state": "pending"}
    tenants = families["repro_server_tenant_active_jobs"]
    assert tenants["samples"][0]["labels"]["tenant"] == tricky


def test_empty_inputs_render_empty_and_parse_empty():
    assert render_prometheus() == ""
    assert parse_prometheus_text("") == {}
    assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


def test_parser_rejects_malformed_text():
    with pytest.raises(TelemetryError, match="no preceding"):
        parse_prometheus_text("repro_orphan_total 3\n")
    with pytest.raises(TelemetryError, match="unknown sample type"):
        parse_prometheus_text("# TYPE repro_x summary\nrepro_x 1\n")
    with pytest.raises(TelemetryError, match="bad sample value"):
        parse_prometheus_text(
            "# TYPE repro_x counter\nrepro_x oops\n"
        )
    with pytest.raises(TelemetryError, match="lacks a \\+Inf"):
        parse_prometheus_text(
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 2\n'
            "repro_h_sum 1\nrepro_h_count 2\n"
        )
    with pytest.raises(TelemetryError, match="not cumulative"):
        parse_prometheus_text(
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="+Inf"} 2\n'
            "repro_h_sum 1\nrepro_h_count 2\n"
        )


def test_hyphenated_counter_renders_a_valid_metric_name():
    # Fault kinds such as "torn-write" end up in counter names; the
    # exposition grammar has no hyphen, and one bad name fails a scrape.
    profiler = Profiler()
    profiler.increment("faults.injected.torn-write")
    families = parse_prometheus_text(render_prometheus(profiler.snapshot()))
    assert families["repro_faults_injected_torn_write_total"]["samples"][0][
        "value"
    ] == 1
    grammar = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
    for name, family in families.items():
        assert grammar.fullmatch(name), name
        for sample in family["samples"]:
            assert grammar.fullmatch(sample["name"]), sample["name"]


def test_parser_rejects_names_outside_the_metric_grammar():
    with pytest.raises(TelemetryError, match="invalid metric name"):
        parse_prometheus_text("# TYPE repro_torn-write_total counter\n")
    with pytest.raises(TelemetryError, match="invalid metric name"):
        parse_prometheus_text("# HELP 9lives help text\n")
    with pytest.raises(TelemetryError, match="invalid metric name"):
        parse_prometheus_text("# TYPE repro_x counter\nrepro_x-y 1\n")
    with pytest.raises(TelemetryError, match="invalid metric name"):
        parse_prometheus_text(
            '# TYPE repro_x gauge\nrepro.x{tenant="a"} 1\n'
        )


def test_parser_skips_comment_and_heartbeat_lines():
    families = parse_prometheus_text(
        "#hb\n# a free-form comment\n"
        "# TYPE repro_x counter\nrepro_x 1\n"
    )
    assert families["repro_x"]["samples"][0]["value"] == 1


def test_histogram_quantile_interpolates_and_bounds():
    buckets = [(1.0, 10.0), (2.0, 20.0), (math.inf, 20.0)]
    assert histogram_quantile(buckets, 0.0) == 0.0
    assert histogram_quantile(buckets, 0.25) == pytest.approx(0.5)
    assert histogram_quantile(buckets, 0.75) == pytest.approx(1.5)
    # Mass in the +Inf bucket clamps to the last finite bound.
    assert histogram_quantile([(1.0, 0.0), (math.inf, 5.0)], 0.99) == 1.0
    assert histogram_quantile([], 0.5) == 0.0
    with pytest.raises(TelemetryError):
        histogram_quantile(buckets, 1.5)


def test_quantiles_round_trip_through_exposition_text():
    """p50/p90 recovered from rendered text stay within one bucket of the
    profiler's own percentile estimate (the ``repro top`` data path)."""
    profiler = Profiler()
    for exponent in range(40):
        profiler.observe("server.job_duration", 0.01 * (1.3 ** exponent))
    direct = profiler.histogram("server.job_duration").percentile(90.0)
    families = parse_prometheus_text(render_prometheus(profiler.snapshot()))
    family = families["repro_server_job_duration_seconds"]
    buckets = [
        (float("inf") if s["labels"]["le"] == "+Inf" else float(s["labels"]["le"]),
         s["value"])
        for s in family["samples"]
        if s["name"].endswith("_bucket")
    ]
    recovered = histogram_quantile(buckets, 0.90)
    bounds = sorted(b for b, _ in buckets if b != float("inf"))
    spacing = max(
        b2 / b1 for b1, b2 in zip(bounds, bounds[1:])
    )
    assert recovered / direct < spacing * 1.01
    assert direct / recovered < spacing * 1.01
