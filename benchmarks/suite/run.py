"""The repository benchmark: one command, four workloads.

Run one workload (this is what ``BENCHMARK.json`` names)::

    python3 benchmarks/suite/run.py --workload sa_batch_p1 --seed 0 \\
        --seconds 20 --trace 0

It prints every metric as ``workload metric value unit n=<samples>``, then
one JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
run with ``--trace 1`` (``--trace-out DIR`` also writes a Chrome trace).

Run every workload, each in its own fresh process, and keep the result
set::

    python3 benchmarks/suite/run.py --seed 0 --out RESULT.json

Compare result sets (see README.md)::

    python3 benchmarks/suite/run.py --compare BASE.json... -- NEW.json...

The exit code is non-zero when a correctness check fails.  The seed only
generates inputs; the program sees only those inputs.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread per process, so BLAS threads plus pool
# workers never exceed the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# glibc raises its mmap threshold after large frees, after which freed
# arrays stay in the heap; peak memory then depends on allocation history
# (two runs of the same jobs differed by 25%).  Fixing the threshold at its
# initial value keeps peak RSS about live data.  glibc reads it only when a
# process starts, so the command restarts itself with it (see the end of
# this file); children inherit it.
MMAP_THRESHOLD = "131072"

import argparse
import json
import math
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"

#: Default measured seconds per run (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 18
#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 3
#: Seconds one setup probe may take before the run fails.
PROBE_TIMEOUT = 120.0

from report import (  # noqa: E402  (after the BLAS pinning above)
    E2E_METRICS,
    LAYER_METRICS,
    WORKLOAD_NAMES,
    environment,
    main_compare,
)


def _work_dir(workload: str) -> Path:
    """A private scratch directory inside the checkout (also the TMPDIR)."""
    path = REPO / ".bench_work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = str(path)
    return path


def _remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # only once no other run is using it
    except OSError:
        pass


def _cores(workload) -> list:
    """The cores the workload runs on.

    A one-process workload, and the service (whose client idles while the
    server works), is pinned to one core, so the speed samples come from
    the core that does the work; setup probes and the server inherit it.
    """
    cores = sorted(os.sched_getaffinity(0))
    if workload.one_core:
        cores = cores[:1]
        os.sched_setaffinity(0, cores)
    return cores


def own_peak_mb(reset: bool = False) -> float:
    """This process's peak RSS since the last reset; ``reset`` starts a new
    peak after reading it."""
    with open("/proc/self/status", encoding="ascii") as handle:
        kib = next(int(line.split()[1]) for line in handle
                   if line.startswith("VmHWM:"))
    if reset:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    return kib / 1024.0


def children_peak_mb() -> float:
    """Peak RSS of the largest child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, cpu: int) -> float:
    """Seconds from starting a fresh process on core ``cpu`` until the
    workload is ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=str(REPO),
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            # SIGTERM first: the probe then stops the server it started.
            proc.terminate()
            try:
                proc.wait(timeout=PROBE_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe of {workload} failed")
    return elapsed


def setup_probe(args) -> int:
    """Child side of :func:`measure_setup`."""
    from workloads import WORKLOADS

    work_dir = _work_dir(args.workload)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        workload.prepare()
        workload.warm_up()
        print("ready", flush=True)
    finally:
        workload.release()
        _remove_work_dir(work_dir)
    return 0


def _setup_times(args, cpu: int) -> Tuple[List[float], List[float]]:
    """``(raw, rescaled)`` seconds of :data:`SETUP_PROBES` setup probes.

    Every probe runs on core ``cpu`` and is rescaled by the reference
    kernel timed on that core right before and after it.
    """
    from monitor import SpeedMonitor

    monitor = SpeedMonitor([cpu])
    raw, rescaled = [], []
    monitor.sample()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        raw.append(measure_setup(args.workload, args.seed, cpu))
        monitor.sample()
        rescaled.append(raw[-1] / monitor.slowdown(start, time.perf_counter()))
    return raw, rescaled


def _end_to_end(args, workload, ops, windows, monitor, rss_mb):
    """``(values, samples, detail)`` of the end-to-end metrics.

    Times the setup probes, then rescales every timing to the reference
    machine speed (see monitor.py); ``detail`` keeps the raw values.
    """
    setup, setup_at_speed = _setup_times(args, monitor.cpus[0])
    latencies = [op.latency_s for op in ops]
    cands = sum(op.cands for op in ops)
    raw = {
        "setup_s": statistics.median(setup),
        "latency_mean_ms": statistics.mean(latencies) * 1e3,
        "cands_per_s": cands / sum(latencies),
        "peak_rss_mb": rss_mb,
    }
    at_speed = []
    for op, window in zip(ops, windows):
        compute = op.latency_s if op.compute_s is None else op.compute_s
        at_speed.append(
            op.latency_s - compute + compute / monitor.slowdown(*window)
        )
    values = {
        "setup_s": statistics.median(setup_at_speed),
        "latency_mean_ms": statistics.mean(at_speed) * 1e3,
        "cands_per_s": cands / sum(at_speed),
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": len(setup),
        "latency_mean_ms": len(ops),
        "cands_per_s": cands,
        "peak_rss_mb": len(ops),
    }
    detail = {"raw": raw, "slowdown": monitor.slowdown(-math.inf, math.inf)}
    return values, samples, detail


def run_workload(args) -> int:
    """Run one workload, print its metrics and the result line."""
    from repro import profiling

    from layers import Tracer, layer_metrics, span_cost_s
    from monitor import SpeedMonitor
    from workloads import WORKLOADS

    work_dir = _work_dir(args.workload)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    tracer = Tracer(enabled=bool(args.trace))
    monitor = SpeedMonitor(_cores(workload))
    ops = []
    #: perf_counter (start, end) of every operation.
    windows = []
    #: [unit: MB] This process's peak RSS during each operation.
    own_peaks = []
    detail = {}
    try:
        try:
            workload.prepare()
            workload.warm_up()
            tracer.install()
            profiling.reset()
            monitor.sample()
            planned = workload.planned_ops(args.seconds)
            deadline = time.perf_counter() + args.seconds
            while (
                len(ops) < planned if planned
                else not ops or time.perf_counter() < deadline
            ):
                time.sleep(workload.think_s(len(ops)))
                own_peak_mb(reset=True)
                start = time.perf_counter()
                with tracer.root("op", len(ops)) as root:
                    ops.append(workload.run_op(len(ops), tracer, root))
                windows.append((start, time.perf_counter()))
                own_peaks.append(own_peak_mb())
                monitor.sample_if_due()
            monitor.sample()
            workload.after_loop(ops)
            inputs = workload.layer_inputs(ops)
        finally:
            workload.release()
        # A run's own peak is the largest of a few jobs' peaks, which follow
        # the SA path (the 16 Problem-2 jobs of one run peaked at 158 MB or
        # at 200-215 MB, as their two largest jobs went); the mean of the
        # jobs' peaks is steady.  Children are pool workers or the server.
        rss_mb = statistics.mean(own_peaks) + children_peak_mb()
        checked, check_failures = workload.check(tracer)
        tracer.remove()
        if args.trace:
            inputs = workload.checked_layer_inputs(inputs)
            inputs.span_cost_s = span_cost_s()
            values = layer_metrics(tracer, inputs)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
            traced = sum(1 for root in tracer.spans if root.layer is None)
            samples = {name: traced for name in units}
            if args.trace_out:
                out = Path(args.trace_out)
                out.mkdir(parents=True, exist_ok=True)
                tracer.write_chrome_trace(out / f"{args.workload}.trace.json")
        else:
            values, samples, detail = _end_to_end(
                args, workload, ops, windows, monitor, rss_mb
            )
            units = {name: unit for name, unit, _ in E2E_METRICS}
        digests = workload.digests(len(ops))
    finally:
        _remove_work_dir(work_dir)

    failed = sum(op.failed for op in ops) + check_failures
    for name, unit in units.items():
        raw_note = f" raw={detail['raw'][name]!r}" if "raw" in detail else ""
        print(f"{args.workload} {name} {values[name]!r} {unit} "
              f"n={samples[name]}{raw_note}")
    print(f"{args.workload}: {len(ops)} ops (one op = one {workload.op_kind}), "
          f"checks {checked - check_failures}/{checked} passed, failed={failed}")
    detail.update(digests=digests, ops=len(ops), env=environment(args.seed))
    print("DETAIL " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops) + checked,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


def run_set(args) -> int:
    """Every workload in its own fresh process; optionally keep the set."""
    workloads = {}
    ok = True
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.trace_out:
            command += ["--trace-out", args.trace_out]
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, cwd=str(REPO),
        )
        try:
            stdout, stderr = proc.communicate()
        finally:
            if proc.poll() is None:
                proc.terminate()  # it then stops its own pools and server
                proc.wait()
        lines = stdout.strip().splitlines()
        details = [line for line in lines if line.startswith("DETAIL ")]
        for line in lines[:-1]:
            if not line.startswith("DETAIL "):
                print(line, flush=True)
        if not lines or not details:
            ok = False
            print(f"{name}: no result (exit {proc.returncode})\n{stderr}")
            continue
        result = json.loads(lines[-1])
        detail = json.loads(details[-1][len("DETAIL "):])
        result.update(
            {key: detail[key] for key in ("digests", "ops", "raw", "slowdown")
             if key in detail}
        )
        workloads[name] = result
        ok = ok and result["correct"] and proc.returncode == 0
    result_set = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "workloads": workloads,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n")
    print("all correctness checks passed" if ok else "FAILED: see above")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--compare"]:
        return main_compare(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this workload only (default: all, each in "
                        "its own process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generates the inputs")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting per-layer metrics")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="write <workload>.trace.json Chrome traces here")
    parser.add_argument("--out", metavar="RESULT.json",
                        help="write the result set (all workloads) here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program to measure ({SRC / 'repro'} is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its server and pools (the finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload:
        return run_workload(args)
    return run_set(args)


if __name__ == "__main__":
    if os.environ.get("MALLOC_MMAP_THRESHOLD_") != MMAP_THRESHOLD:
        os.environ["MALLOC_MMAP_THRESHOLD_"] = MMAP_THRESHOLD
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
