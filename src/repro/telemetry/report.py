"""Offline run-log analyzer: ``python -m repro.telemetry report run.jsonl``.

Renders a human-readable summary of one JSONL run log (run configuration,
per-round acceptance rate and best-score trajectory, candidate-evaluation
latency percentiles, fault/retry annotations) and, with ``--compare``,
a side-by-side delta of two runs -- e.g. a fault-free baseline against a
chaos run, or two scheduler configurations.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .runlog import read_run_log

#: Histograms whose percentiles the summary surfaces, in display order.
_LATENCY_HISTOGRAMS = ("optimize.candidate", "parallel.batch")


def summarize_run(records: List[dict]) -> Dict[str, Any]:
    """Distill a run log's records into one summary dict.

    Keys: ``start`` / ``end`` (the ``run.start`` / ``run.end`` records or
    ``None``), ``rounds`` (the ``round.end`` records in order), ``resumes``
    (``checkpoint.resume`` records), ``iterations`` (count of
    ``sa.iteration`` records), ``pool_retries`` / ``pool_degraded``
    (counts), and ``histograms`` (the ``run.end`` histogram summaries,
    ``{}`` when absent).
    """
    by_type: Dict[str, List[dict]] = {}
    for record in records:
        by_type.setdefault(record["type"], []).append(record)
    end = by_type.get("run.end", [None])[-1]
    return {
        "start": by_type.get("run.start", [None])[0],
        "end": end,
        "rounds": by_type.get("round.end", []),
        "stages": by_type.get("stage.end", []),
        "resumes": by_type.get("checkpoint.resume", []),
        "iterations": len(by_type.get("sa.iteration", [])),
        "pool_retries": len(by_type.get("pool.retry", [])),
        "pool_degraded": len(by_type.get("pool.degraded", [])),
        "histograms": (end or {}).get("histograms", {}) or {},
    }


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f} ms"


def _render_summary(label: str, summary: Dict[str, Any]) -> List[str]:
    lines = [f"== {label} =="]
    start = summary["start"]
    if start:
        config_keys = (
            "problem", "case_number", "grid_size", "seed", "directions",
            "stages", "n_workers", "batch_size", "fingerprint",
        )
        config = ", ".join(
            f"{key}={start[key]}" for key in config_keys if key in start
        )
        lines.append(f"run: {config}")
    else:
        lines.append("run: (no run.start record)")
    for resume in summary["resumes"]:
        cursor = ", ".join(
            f"{key}={resume[key]}"
            for key in ("active", "round", "completed", "fingerprint")
            if key in resume
        )
        lines.append(f"resumed: {cursor}")

    end = summary["end"]
    if end:
        lines.append(
            f"result: score={end.get('score')} "
            f"feasible={end.get('feasible')} "
            f"simulations={end.get('total_simulations')} "
            f"seconds={end.get('seconds', 0.0):.2f}"
        )
    else:
        lines.append("result: (no run.end record -- run incomplete?)")

    rounds = summary["rounds"]
    if rounds:
        lines.append(
            f"{'direction':>9s} {'stage':>16s} {'round':>5s} "
            f"{'best_cost':>14s} {'accept%':>8s} {'iters':>6s}"
        )
        for record in rounds:
            acceptance = record.get("acceptance_rate", 0.0) * 100.0
            best = record.get("best_cost")
            best_text = f"{best:.6g}" if isinstance(best, float) else str(best)
            lines.append(
                f"{record.get('d_index', '?'):>9} "
                f"{str(record.get('stage', '?')):>16s} "
                f"{record.get('round', '?'):>5} "
                f"{best_text:>14s} {acceptance:>7.1f}% "
                f"{record.get('iterations', '?'):>6}"
            )
        trajectory = " -> ".join(
            f"{r['best_cost']:.6g}"
            for r in rounds
            if isinstance(r.get("best_cost"), (int, float))
        )
        lines.append(f"best-score trajectory: {trajectory}")
    else:
        lines.append(f"rounds: none logged ({summary['iterations']} sa.iteration records)")

    for name in _LATENCY_HISTOGRAMS:
        stats = summary["histograms"].get(name)
        if stats and stats.get("count"):
            lines.append(
                f"{name}: n={stats['count']} "
                f"p50={_fmt_ms(stats['p50'])} "
                f"p90={_fmt_ms(stats['p90'])} "
                f"p99={_fmt_ms(stats['p99'])}"
            )

    if summary["pool_retries"] or summary["pool_degraded"]:
        lines.append(
            f"pool resilience: {summary['pool_retries']} retries, "
            f"{summary['pool_degraded']} degradations to serial"
        )
    return lines


def _delta(a: Optional[float], b: Optional[float]) -> str:
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return "n/a"
    return f"{b - a:+.6g}"


def _render_compare(
    summary_a: Dict[str, Any], summary_b: Dict[str, Any]
) -> List[str]:
    lines = ["== compare (B - A) =="]
    end_a = summary_a["end"] or {}
    end_b = summary_b["end"] or {}
    lines.append(f"score delta:       {_delta(end_a.get('score'), end_b.get('score'))}")
    lines.append(
        f"seconds delta:     {_delta(end_a.get('seconds'), end_b.get('seconds'))}"
    )
    lines.append(
        f"simulations delta: "
        f"{_delta(end_a.get('total_simulations'), end_b.get('total_simulations'))}"
    )
    for name in _LATENCY_HISTOGRAMS:
        stats_a = summary_a["histograms"].get(name) or {}
        stats_b = summary_b["histograms"].get(name) or {}
        if stats_a.get("count") or stats_b.get("count"):
            lines.append(
                f"{name} p50 delta: "
                f"{_delta(stats_a.get('p50'), stats_b.get('p50'))} s, "
                f"p99 delta: {_delta(stats_a.get('p99'), stats_b.get('p99'))} s"
            )
    lines.append(
        f"pool retries: {summary_a['pool_retries']} -> {summary_b['pool_retries']}, "
        f"degradations: {summary_a['pool_degraded']} -> {summary_b['pool_degraded']}"
    )
    return lines


def render_report(
    path: Union[str, Path], compare: Optional[Union[str, Path]] = None
) -> str:
    """The full text report for one run log (optionally vs. a second)."""
    summary = summarize_run(read_run_log(path))
    lines = _render_summary(str(path), summary)
    if compare is not None:
        summary_b = summarize_run(read_run_log(compare))
        lines.append("")
        lines.extend(_render_summary(str(compare), summary_b))
        lines.append("")
        lines.extend(_render_compare(summary, summary_b))
    return "\n".join(lines)
