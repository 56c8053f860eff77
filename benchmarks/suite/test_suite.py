"""Self-tests of the benchmark suite (tiny sizes; well under a minute).

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO / "src")]

import report  # noqa: E402
import run  # noqa: E402
from layers import LayerInputs, Tracer, layer_metrics  # noqa: E402
from record_sa_stream import decode, read_stream  # noqa: E402
from workloads import (  # noqa: E402
    DesignP2Mixed,
    SABatchP1,
    p2_job_inputs,
    service_payload,
    verify_winner,
)

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=170,
    )


def test_definitions_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in report.E2E_METRICS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in report.LAYER_METRICS
    ]
    assert [w["name"] for w in SPEC["workloads"]] == list(report.WORKLOAD_NAMES)
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_layer_metrics_cover_every_name_even_untraced():
    inputs = LayerInputs(counters={}, ops=1, n_workers=1, factorize_p50_s=0.0)
    assert set(layer_metrics(Tracer(enabled=False), inputs)) == {
        name for name, _, _ in report.LAYER_METRICS
    }


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_names_and_units_match_benchmark_json(trace, section):
    proc = _run("--workload", "sa_batch_p1", "--seed", "3", "--seconds", "0.3",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _sa_digests(seed: int, tmp_path: Path) -> dict:
    workload = SABatchP1(seed, tmp_path)
    workload.prepare()
    tracer = Tracer(enabled=False)
    for index in range(3):
        workload.run_op(index, tracer, None)
    return workload.digests(3)


def test_same_seed_same_digests_other_seed_other_inputs(tmp_path):
    first, again = _sa_digests(0, tmp_path), _sa_digests(0, tmp_path)
    other = _sa_digests(1, tmp_path)
    assert first == again
    assert first["inputs"] != other["inputs"]
    assert p2_job_inputs(0, 5) == p2_job_inputs(0, 5) != p2_job_inputs(1, 5)
    assert service_payload(0, 5) == service_payload(0, 5) != service_payload(1, 5)


def test_recorded_sa_stream_fits_the_case_and_outlasts_a_run(tmp_path):
    workload = SABatchP1(0, tmp_path)
    workload.prepare()
    shape, batches = read_stream()
    assert shape == workload.plan.params().shape
    candidates = [decode(word, shape) for batch in batches for word in batch]
    assert all(batch for batch in batches)
    assert all(0 <= p.min() and p.max() < workload.case.ncols for p in candidates)
    # A run at 10 ms a batch, faster than any seen, still scores no batch
    # twice.
    assert len(batches) > SPEC["run_seconds"] / 0.010


def test_corrupted_sa_score_fails_the_check(tmp_path):
    workload = SABatchP1(0, tmp_path)
    workload.prepare()
    workload.run_op(0, Tracer(enabled=False), None)
    assert workload.check(None) == (1, 0)
    params, cost = workload.scored[0]
    workload.scored[0] = (params, cost * (1.0 + 1e-12))
    assert workload.check(None) == (1, 1)


def test_corrupted_design_result_fails_verification(tmp_path):
    workload = DesignP2Mixed(0, tmp_path)
    workload.prepare()
    op = workload.run_op(0, Tracer(enabled=False), None)  # grid 9, 2 dies
    assert not op.failed
    case, config, best = workload.jobs[0]
    assert verify_winner(case, config, best)
    hotter = dataclasses.replace(
        best.evaluation, t_max=best.evaluation.t_max + 0.5
    )
    assert not verify_winner(case, config, dataclasses.replace(best, evaluation=hotter))


def _result_set(
    seed: int, scale: float = 1.0, jitter: float = 0.01, raw_scale: float = 1.0
) -> dict:
    """A one-workload result set; ``scale`` multiplies ``latency_mean_ms``,
    ``raw_scale`` its raw value as well."""
    value = 100.0 * (1.0 + jitter * (seed % 3))
    metrics = {
        name: {"value": value * (scale if name == "latency_mean_ms" else 1.0),
               "unit": unit}
        for name, unit, _ in report.E2E_METRICS
    }
    raw = {name: m["value"] for name, m in metrics.items()}
    raw["latency_mean_ms"] *= raw_scale
    run_result = {
        "correct": True, "attempted": 10, "failed": 0, "metrics": metrics,
        "raw": raw, "slowdown": 1.0 + 0.01 * seed,
        "digests": {"inputs": f"in{seed}", "scores": f"sc{seed}", "ops": 5},
    }
    return {"seed": seed, "workloads": {"sa_batch_p1": run_result}}


def _latency_row(lines):
    return next(line for line in lines if " latency_mean_ms " in line)


def test_compare_flags_a_regression_past_the_bound_and_passes_identical_sets():
    bounds = report.load_bounds()
    base = [_result_set(seed) for seed in range(5)]
    lines, result = report.compare(base, [_result_set(s) for s in range(5)], bounds)
    assert result == report.PASS, "\n".join(lines)
    assert not any("REGRESSION" in line or "digest changed" in line for line in lines)
    _, bound = bounds["latency_mean_ms"]
    slower = [_result_set(seed, scale=1.0 + bound + 0.05) for seed in range(5)]
    lines, result = report.compare(base, slower, bounds)
    assert result == report.FAIL
    assert "REGRESSION" in _latency_row(lines)
    changed = _result_set(0)
    changed["workloads"]["sa_batch_p1"]["digests"]["scores"] = "other"
    lines, _ = report.compare(base, [changed], bounds)
    assert any("score digest changed" in line for line in lines)


def test_compare_is_inconclusive_when_the_base_spread_exceeds_the_bound():
    bounds = report.load_bounds()
    noisy = [_result_set(seed, jitter=0.3) for seed in range(5)]
    doubled = [_result_set(seed, scale=2.0) for seed in range(5)]
    lines, result = report.compare(noisy, doubled, bounds)
    assert result == report.INCONCLUSIVE
    assert "unresolved" in _latency_row(lines)
    assert "sa_batch_p1 latency_mean_ms" in lines[-1]


def test_compare_flags_a_raw_regression_that_rescaling_hides():
    bounds = report.load_bounds()
    base = [_result_set(seed) for seed in range(5)]
    new = [_result_set(seed, raw_scale=1.3) for seed in range(5)]
    lines, result = report.compare(base, new, bounds)
    assert result == report.INCONCLUSIVE
    assert "raw regression" in _latency_row(lines)


def test_compare_needs_paired_wins_to_call_a_gain():
    bounds = report.load_bounds()
    base = [_result_set(seed) for seed in range(10)]
    faster = [_result_set(seed, scale=0.7) for seed in range(10)]
    lines, _ = report.compare(base, faster, bounds)
    assert "improved" in _latency_row(lines)
    # The same values under other seeds: no pairs, so no gain is claimed.
    unpaired = [_result_set(seed, scale=0.7) for seed in range(10, 20)]
    for run_set, seed in zip(unpaired, range(10)):
        run_set["workloads"]["sa_batch_p1"]["metrics"] = (
            faster[seed]["workloads"]["sa_batch_p1"]["metrics"]
        )
    lines, _ = report.compare(base, unpaired, bounds)
    assert "within bound" in _latency_row(lines)


def test_fails_without_a_result_where_only_the_benchmark_is(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(REPO / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sa_batch_p1", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
