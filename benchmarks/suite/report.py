"""Metric definitions, summary statistics, environment capture and result-set
comparison for the benchmark suite.

The metric names and units here are the ones ``BENCHMARK.json`` lists; the
self-tests check that the two agree exactly.  Regression bounds live only in
``BENCHMARK.json``: :func:`compare` reads them from there.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = REPO / "BENCHMARK.json"

#: Workload names in run order.
WORKLOAD_NAMES = (
    "sa_batch_p1",
    "design_p1_pool",
    "design_p2_mixed",
    "service_small_jobs",
)

#: End-to-end metrics, measured with tracing off: (name, unit, better).
E2E_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("latency_mean_ms", "ms", "lower"),
    ("cands_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Per-layer metrics of the traced run: (name, unit, better).  ``frac`` is a
#: share of the traced wall time (all root spans), ``ratio`` a dimensionless
#: quotient, ``count`` a count per candidate or per job (per operation: a
#: batch in ``sa_batch_p1``, where the per-job counters are 0).
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("networks.build_ms", "ms", "lower"),
    ("networks.self_frac", "frac", "lower"),
    ("flow.field_ms", "ms", "lower"),
    ("flow.self_frac", "frac", "lower"),
    ("flow.unit_cache_hit_ratio", "ratio", "higher"),
    ("thermal.rc2.assembly_ms", "ms", "lower"),
    ("thermal.rc2.solve_ms", "ms", "lower"),
    ("thermal.rc2.self_frac", "frac", "lower"),
    ("thermal.rc4.assembly_ms", "ms", "lower"),
    ("thermal.rc4.solve_ms", "ms", "lower"),
    ("thermal.rc4.self_frac", "frac", "lower"),
    ("thermal.solves_per_cand", "count", "lower"),
    ("thermal.factorizations_per_cand", "count", "lower"),
    ("linalg.factorize_ms", "ms", "lower"),
    ("linalg.factorize_share", "frac", "lower"),
    ("linalg.self_frac", "frac", "lower"),
    ("linalg.factorizations_per_cand", "count", "lower"),
    ("linalg.incremental_solves_per_cand", "count", "lower"),
    ("linalg.incremental_fallbacks_per_cand", "count", "lower"),
    ("cooling.search_self_ms", "ms", "lower"),
    ("cooling.self_frac", "frac", "lower"),
    ("cooling.simulations_per_cand", "count", "lower"),
    ("cooling.cache_hit_ratio", "ratio", "higher"),
    ("cooling.exact_recomputes_per_cand", "count", "lower"),
    ("search.probes_per_cand", "count", "lower"),
    ("parallel.batch_ms", "ms", "lower"),
    ("parallel.self_frac", "frac", "lower"),
    ("parallel.pool_starts_per_job", "count", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("parallel.failures", "count", "lower"),
    ("portfolio.round_ms", "ms", "lower"),
    ("portfolio.promote_ms", "ms", "lower"),
    ("portfolio.self_frac", "frac", "lower"),
    ("portfolio.low_evals_per_job", "count", "lower"),
    ("portfolio.high_evals_per_job", "count", "lower"),
    ("runner.staged_flow_s", "s", "lower"),
    ("runner.self_frac", "frac", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.self_frac", "frac", "lower"),
    ("checkpoint.saves_per_job", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("server.submit_ms", "ms", "lower"),
    ("server.queue_wait_p50_ms", "ms", "lower"),
    ("server.queue_wait_p90_ms", "ms", "lower"),
    ("server.execute_ms", "ms", "lower"),
    ("server.notify_ms", "ms", "lower"),
    ("server.submit_frac", "frac", "lower"),
    ("server.queue_wait_frac", "frac", "lower"),
    ("server.execute_frac", "frac", "lower"),
    ("server.notify_frac", "frac", "lower"),
    ("server.http_requests_per_job", "count", "lower"),
    ("server.overhead_ratio", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    # Only the checkout's own repository counts; a checkout exported without
    # .git must not report the commit of some enclosing repository.
    if not (REPO / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> Dict[str, object]:
    """What a result depends on besides the code: machine and library versions."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# Comparison of result sets
# ---------------------------------------------------------------------------


def load_bounds(path: Path = BENCHMARK_JSON) -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` for every end-to-end metric."""
    spec = json.loads(Path(path).read_text())
    return {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}


def _worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


#: Overall results of :func:`compare`, and the exit code of each.
PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"
EXIT_CODES = {PASS: 0, FAIL: 1, INCONCLUSIVE: 3}
#: Pairs of runs a gain needs.
MIN_PAIRS = 10


def _verdict(
    base: Dict[int, float], new: Dict[int, float], better: str, bound: float
) -> Tuple[str, float, Optional[float]]:
    """``(verdict, change, wins)`` of one metric on one workload.

    ``base`` and ``new`` map seeds to values; runs with the same seed on
    both sides form the pairs behind ``wins`` (None without pairs).
    """
    b1, bm, b3 = quartiles(list(base.values()))
    _, nm, _ = quartiles(list(new.values()))
    worse = _worse_by(bm, nm, better)
    pairs = sorted(set(base) & set(new))
    wins = (
        sum(_better(new[s], base[s], better) for s in pairs) / len(pairs)
        if pairs else None
    )
    every_run_better = all(
        _better(n, b, better) for n in new.values() for b in base.values()
    )
    if spread(base.values()) > bound and not every_run_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    elif (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9
        and _better(nm, bm, better)
        and abs(nm - bm) > b3 - b1
    ):
        verdict = "improved"
    else:
        verdict = "within bound"
    return verdict, -worse, wins


def _by_seed(runs: Sequence[Tuple[int, dict]], pick) -> Dict[int, float]:
    """``{seed: value}``; a seed run more than once keeps its first run."""
    out: Dict[int, float] = {}
    for seed, run in runs:
        value = pick(run)
        if value is not None:
            out.setdefault(seed, value)
    return out


def _range(values: Iterable[float]) -> str:
    q1, median, q3 = quartiles(list(values))
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(
    base_sets: Sequence[dict],
    new_sets: Sequence[dict],
    bounds: Dict[str, Tuple[str, float]],
) -> Tuple[List[str], str]:
    """Compare two lists of result sets metric by metric, workload by workload.

    Runs are paired by their set's ``seed``.  Each row gets a verdict:

    * ``unresolved`` -- the base's own spread exceeds the bound, and not
      every new run reads better than every base run;
    * ``REGRESSION`` -- the new median is worse than the base median by
      more than the bound;
    * ``improved`` -- over at least :data:`MIN_PAIRS` pairs, the new side
      wins at least 90% (ties win nothing) and its median is better by more
      than the base's inter-quartile range;
    * ``within bound`` -- otherwise.

    The same verdict is worked out on the raw wall-clock values (``raw``)
    as well as on the rescaled ones, and each side's median machine
    ``slowdown`` is shown.  A raw regression that rescaling turns into
    another verdict is flagged: the program may have slowed the reference
    kernel too (a background thread, busy-polling workers), or the machine
    changed speed between the sides.

    The result is FAIL on any regression or any rise in the failed share,
    else INCONCLUSIVE when a row is unresolved or flagged, else PASS.  Input
    and score digests of runs with the same seed must match; a changed
    score digest means a changed SA trajectory.

    Returns the report lines and the result.
    """
    lines: List[str] = []
    failed: List[str] = []
    doubtful: List[str] = []
    workloads = [
        w
        for w in WORKLOAD_NAMES
        if any(w in s["workloads"] for s in base_sets)
        and any(w in s["workloads"] for s in new_sets)
    ]
    lines.append(
        f"{'workload':<20s} {'metric':<15s} {'base median [q1, q3]':>28s} "
        f"{'new median [q1, q3]':>28s} {'change':>7s} {'bound':>5s} "
        f"{'wins':>4s} {'verdict':<12s} {'raw':>7s}  raw verdict"
    )
    for workload in workloads:
        base_runs = [(s["seed"], s["workloads"][workload])
                     for s in base_sets if workload in s["workloads"]]
        new_runs = [(s["seed"], s["workloads"][workload])
                    for s in new_sets if workload in s["workloads"]]
        for name, (better, bound) in bounds.items():
            base = _by_seed(base_runs, lambda r: r["metrics"][name]["value"])
            new = _by_seed(new_runs, lambda r: r["metrics"][name]["value"])
            verdict, change, wins = _verdict(base, new, better, bound)
            base_raw = _by_seed(base_runs, lambda r: r.get("raw", {}).get(name))
            new_raw = _by_seed(new_runs, lambda r: r.get("raw", {}).get(name))
            raw_verdict, raw_change = "-", None
            if base_raw and new_raw:
                raw_verdict, raw_change, _ = _verdict(base_raw, new_raw, better, bound)
            row = f"{workload} {name}"
            note = ""
            if verdict == "REGRESSION":
                failed.append(row)
            elif verdict == "unresolved":
                doubtful.append(row)
            elif raw_verdict == "REGRESSION":
                doubtful.append(row)
                note = "  <- raw regression, see slowdown"
            lines.append(
                f"{workload:<20s} {name:<15s} {_range(base.values()):>28s} "
                f"{_range(new.values()):>28s} {change:>+7.1%} {bound:>5.2f} "
                f"{'-' if wins is None else f'{wins:.2f}':>4s} {verdict:<12s} "
                f"{'-' if raw_change is None else f'{raw_change:+.1%}':>7s}  "
                f"{raw_verdict}{note}"
            )
        base_slow = [r["slowdown"] for _, r in base_runs if "slowdown" in r]
        new_slow = [r["slowdown"] for _, r in new_runs if "slowdown" in r]
        if base_slow and new_slow:
            (b1, bm, b3), (n1, nm, n3) = quartiles(base_slow), quartiles(new_slow)
            apart = abs(nm - bm) > max(b3 - b1, n3 - n1)
            lines.append(
                f"{workload:<20s} slowdown        {_range(base_slow):>28s} "
                f"{_range(new_slow):>28s}"
                + ("  <- differs by more than its spread" if apart else "")
            )
        base_rate = sum(r["failed"] for _, r in base_runs) / sum(
            r["attempted"] for _, r in base_runs)
        new_rate = sum(r["failed"] for _, r in new_runs) / sum(
            r["attempted"] for _, r in new_runs)
        if new_rate > base_rate:
            failed.append(f"{workload} failed share")
            lines.append(
                f"{workload:<20s} FAILURE: failed share rose from "
                f"{base_rate:.4f} to {new_rate:.4f}"
            )
    lines.extend(_digest_changes(base_sets, new_sets))
    if failed:
        lines.append("failing: " + "; ".join(failed))
        return lines, FAIL
    if doubtful:
        lines.append("unresolved or flagged: " + "; ".join(doubtful))
        return lines, INCONCLUSIVE
    return lines, PASS


def _digests_by_seed(sets: Iterable[dict]) -> Dict[Tuple[str, int], dict]:
    out: Dict[Tuple[str, int], dict] = {}
    for result in sets:
        for workload, run in result["workloads"].items():
            out.setdefault((workload, result["seed"]), run["digests"])
    return out


def _digest_changes(base_sets: Sequence[dict], new_sets: Sequence[dict]) -> List[str]:
    base = _digests_by_seed(base_sets)
    new = _digests_by_seed(new_sets)
    lines = []
    shared = sorted(set(base) & set(new))
    if not shared:
        return ["digests: no seed was run on both sides"]
    for key in shared:
        workload, seed = key
        b, n = base[key], new[key]
        if b["inputs"] != n["inputs"]:
            lines.append(f"{workload:<20s} seed {seed}: input digest changed")
        elif b["ops"] == n["ops"] and b["scores"] != n["scores"]:
            lines.append(
                f"{workload:<20s} seed {seed}: score digest changed "
                f"(the outputs, e.g. an SA trajectory, differ)"
            )
    if not lines:
        lines.append("digests: inputs and scores unchanged for every shared seed")
    return lines


def main_compare(argv: Sequence[str]) -> int:
    """``--compare BASE.json... -- NEW.json...``: print the comparison."""
    if "--" not in argv:
        print("usage: run.py --compare BASE.json... -- NEW.json...", file=sys.stderr)
        return 2
    cut = list(argv).index("--")
    base_paths, new_paths = argv[:cut], argv[cut + 1 :]
    if not base_paths or not new_paths:
        print("--compare needs result sets on both sides of --", file=sys.stderr)
        return 2
    base = [json.loads(Path(p).read_text()) for p in base_paths]
    new = [json.loads(Path(p).read_text()) for p in new_paths]
    lines, result = compare(base, new, load_bounds())
    print("\n".join(lines))
    print("compare: " + result)
    return EXIT_CODES[result]
