"""Gate on the committed service-overhead benchmark artifact.

The observability PR's bargain is "near-free unless armed, cheap when
armed": running a job through the service must track a direct
``SimulationExecutor.execute`` call within HTTP and status-poll noise (the
worker claims on submit, not at a poll tick), and turning on the full
surface (per-job tracing + a live ``follow=1`` consumer + ``/metrics``
scrapes) must not meaningfully tax the job on top of that.
The gates are ratios within one artifact, so they hold across machines.

Regenerate the artifact with::

    PYTHONPATH=src python benchmarks/harness.py --bench service_overhead --json
"""

import json
from pathlib import Path

import pytest

ARTIFACT = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "out"
    / "BENCH_service_overhead.json"
)

#: The quiet service (no tracing, nobody scraping) may cost at most this
#: multiple of a direct executor call.  An idle worker wakes on the submit
#: instead of at its next claim poll, so the honest tax is the HTTP round
#: trips plus the client's 0.05 s status poll -- tens of milliseconds on a
#: seconds-long job.  1.25x leaves room for CI noise; a claim that waits
#: out the 0.2 s worker poll again would cost about 1.3x.
MAX_SERVICE_TAX = 1.25

#: The fully observed leg (tracing armed, a follower draining the event
#: stream, metrics parsed every round) over the quiet leg.  Span capture
#: is bounded-buffer appends and the stream tails a file the worker was
#: writing anyway, so anything past 1.5x means an observability feature
#: leaked onto the hot path.
MAX_OBSERVED_TAX = 1.5


@pytest.fixture(scope="module")
def artifact():
    assert ARTIFACT.is_file(), (
        f"missing {ARTIFACT}; regenerate with: "
        "PYTHONPATH=src python benchmarks/harness.py "
        "--bench service_overhead --json"
    )
    return json.loads(ARTIFACT.read_text())


def test_artifact_identifies_itself(artifact):
    assert artifact["benchmark"] == "service_overhead"
    assert artifact["config"]["repeats"] >= 5
    assert artifact["config"]["legs"] == ["baseline", "disabled", "enabled"]
    for leg in ("baseline", "disabled", "enabled"):
        assert artifact[f"{leg}_seconds"] > 0.0
        assert len(artifact[f"{leg}_runs"]) == artifact["config"]["repeats"]


def test_quiet_service_tracks_direct_execution(artifact):
    ratio = artifact["disabled_over_baseline"]
    assert ratio <= MAX_SERVICE_TAX, (
        f"service(quiet)/direct = {ratio:.2f}x exceeds "
        f"{MAX_SERVICE_TAX}x: the queue or HTTP layer is taxing jobs"
    )


def test_full_observability_is_cheap_when_armed(artifact):
    ratio = artifact["enabled_over_disabled"]
    assert ratio <= MAX_OBSERVED_TAX, (
        f"service(observed)/service(quiet) = {ratio:.2f}x exceeds "
        f"{MAX_OBSERVED_TAX}x: tracing, streaming, or /metrics is "
        "leaking onto the job's hot path"
    )


def test_ratios_match_recorded_medians(artifact):
    """The committed ratios are derived from the committed medians."""
    assert artifact["disabled_over_baseline"] == pytest.approx(
        artifact["disabled_seconds"] / artifact["baseline_seconds"]
    )
    assert artifact["enabled_over_disabled"] == pytest.approx(
        artifact["enabled_seconds"] / artifact["disabled_seconds"]
    )
