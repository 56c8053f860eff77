"""The four benchmark workloads.

Each workload makes its inputs from the benchmark seed, runs one operation
at a time in a closed loop with a single client, and checks its outputs
afterwards.  Why each workload exists is in ``README.md``; in short:

* ``sa_batch_p1`` -- the paper's inner loop alone: the neighbour batches
  of recorded real SA runs scored by ``evaluate_population`` in-process;
* ``design_p1_pool`` -- whole Problem-1 design jobs over the worker pool,
  with the portfolio, 4RM promotion, the staged flow and checkpoints;
* ``design_p2_mixed`` -- Problem-2 design jobs over generated cases of every
  size, die count and power regime;
* ``service_small_jobs`` -- tiny jobs through the real ``repro serve``
  binary, where admission, queueing and notification dominate.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import multiprocessing
import os
import re
import select
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from layers import COUNTERS, LayerInputs, Tracer
from record_sa_stream import decode, read_stream

REPO = Path(__file__).resolve().parents[2]


def derive_seed(seed: int, *key: int) -> int:
    """A 31-bit seed for one input, independent for every ``key``."""
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)


def _f64(value: float) -> bytes:
    return struct.pack("<d", float(value))


def _same_float(a: float, b: float) -> bool:
    """Bitwise equality (``inf == inf``; ``0.0`` and ``-0.0`` differ)."""
    return _f64(a) == _f64(b)


@dataclass
class Op:
    """One measured operation."""

    latency_s: float
    cands: int
    failed: bool = False
    #: [unit: s] The part of ``latency_s`` that runs at the machine's speed
    #: and is rescaled (monitor.py); None: all of it.
    compute_s: Optional[float] = None


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every child process this process started (pool workers)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5.0)
            return
        time.sleep(0.02)


class Workload:
    """Seeded inputs, one operation at a time, then correctness checks."""

    name = ""
    #: What one operation is, for the report.
    op_kind = "job"
    #: Evaluation processes the workload asks for.
    n_workers = 1
    #: Whether the workload's processes share one core (see run.py).
    one_core = True
    #: [unit: s] For a fixed-size run: one operation's time at the
    #: reference speed.  ``None``: operations run until ``--seconds`` pass.
    nominal_op_s: Optional[float] = None
    #: A fixed-size run holds whole groups of this many operations.
    op_group = 1
    #: Leading operations covered by the input and score digests.
    digest_ops = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.score_records: List[bytes] = []
        self.checkpoint_sizes: List[int] = []

    def planned_ops(self, seconds: float) -> Optional[int]:
        """Operations of a fixed-size run lasting about ``seconds``."""
        if self.nominal_op_s is None:
            return None
        groups = round(seconds / (self.nominal_op_s * self.op_group))
        return self.op_group * max(1, groups)

    def prepare(self) -> None:
        """Imports and inputs; what ``setup_s`` times (with :meth:`warm_up`)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Work done once before measuring (counted in ``setup_s``)."""

    def input_record(self, index: int) -> bytes:
        """The bytes of operation ``index``'s inputs (for the digest)."""
        raise NotImplementedError

    def think_s(self, index: int) -> float:
        """Idle seconds the client waits before operation ``index``."""
        return 0.0

    def run_op(self, index: int, tracer: Tracer, root) -> Op:
        """Run operation ``index``; ``root`` is its span when traced."""
        raise NotImplementedError

    def after_loop(self, ops: List[Op]) -> None:
        """Collect what the loop's operations left behind."""

    def layer_inputs(self, ops: List[Op]) -> LayerInputs:
        """The measured loop's inputs to the layer metrics (its
        ``repro.profiling`` counters and timers, read right after it)."""
        from repro import profiling

        histogram = profiling.histogram("linalg.factorize")
        return LayerInputs(
            counters=dict(profiling.snapshot()["counters"]),
            ops=len(ops),
            n_workers=self.n_workers,
            factorize_p50_s=histogram.percentile(50.0) if histogram else 0.0,
            factorize_s=profiling.timer_seconds("linalg.factorize"),
            candidate_s=profiling.timer_seconds("optimize.candidate"),
            compute_wall_s=sum(op.latency_s for op in ops),
        )

    def checked_layer_inputs(self, inputs: LayerInputs) -> LayerInputs:
        """``inputs`` completed with what :meth:`check` measured."""
        if self.checkpoint_sizes:
            inputs.checkpoint_bytes = statistics.mean(self.checkpoint_sizes)
        return inputs

    def release(self) -> None:
        """Stop pools and servers and wait until their processes ended."""
        from repro.optimize.parallel import shutdown_pools

        shutdown_pools()
        reap_children()

    def check(self, tracer: Tracer) -> Tuple[int, int]:
        """Run the correctness checks; ``(attempted, failed)``."""
        raise NotImplementedError

    def digests(self, n_ops: int) -> Dict[str, object]:
        """Digests of the first :attr:`digest_ops` inputs and outputs."""
        count = min(self.digest_ops, n_ops)
        inputs = hashlib.sha256()
        for index in range(count):
            inputs.update(self.input_record(index))
        scores = hashlib.sha256(b"".join(self.score_records[:count]))
        return {
            "inputs": inputs.hexdigest(),
            "scores": scores.hexdigest(),
            "ops": count,
        }


# ---------------------------------------------------------------------------
# sa_batch_p1
# ---------------------------------------------------------------------------

#: Every this many candidates one is re-scored from scratch.
SA_CHECK_EVERY = 50


class SABatchP1(Workload):
    """Contest case 1 at grid 21, 2RM, Problem-1 lowest-feasible-power metric
    (the stage-3 configuration of Table 1): recorded batches of real staged
    SA runs through ``evaluate_population(..., n_workers=1)``.

    The batches are those ``record_sa_stream.py`` recorded, in order; the
    seed picks the batch the run starts at, and the run reads on from
    there (wrapping to the first batch after the last), so a run never
    scores a batch twice.
    """

    name = "sa_batch_p1"
    op_kind = "batch"
    digest_ops = 50

    def prepare(self) -> None:
        from repro.iccad2015 import load_case
        from repro.optimize.stages import problem1_stages

        self.case = load_case(1, grid_size=21)
        self.plan = self.case.tree_plan()
        self.stage = problem1_stages()[2]
        self._shape, self._stream = read_stream()
        self._start = derive_seed(self.seed, 1) % len(self._stream)
        #: (params, cost) of every scored candidate, in order.
        self.scored: List[Tuple[np.ndarray, float]] = []

    def _evaluate(self, batch) -> List[float]:
        from repro.optimize.parallel import evaluate_population

        return evaluate_population(
            self.case, self.plan, self.stage, "problem1", batch, n_workers=1
        )

    def warm_up(self) -> None:
        # The batch before the run's first, as the annealer scored it.
        self._evaluate(self.batch(-1))

    def batch(self, index: int) -> List[np.ndarray]:
        words = self._stream[(self._start + index) % len(self._stream)]
        return [decode(word, self._shape) for word in words]

    def input_record(self, index: int) -> bytes:
        return b"".join(p.astype(np.int64).tobytes() for p in self.batch(index))

    def run_op(self, index: int, tracer: Tracer, root) -> Op:
        from repro.errors import CandidateCrashError

        batch = self.batch(index)
        start = time.perf_counter()
        try:
            costs = self._evaluate(batch)
        except CandidateCrashError:
            self.score_records.append(b"failed")
            return Op(time.perf_counter() - start, 0, failed=True)
        latency = time.perf_counter() - start
        self.scored.extend(zip(batch, costs))
        self.score_records.append(b"".join(_f64(c) for c in costs))
        return Op(latency, len(batch))

    def rescore(self, params: np.ndarray) -> float:
        """Score one candidate from scratch through the cooling layer."""
        from repro.cooling import CoolingSystem, evaluate_problem1
        from repro.errors import ReproError

        case = self.case
        try:
            system = CoolingSystem.for_network(
                case.base_stack(),
                self.plan.with_params(params).build(),
                case.coolant,
                model=self.stage.model,
                tile_size=self.stage.tile_size,
                inlet_temperature=case.inlet_temperature,
            )
            return evaluate_problem1(
                system, case.delta_t_star, case.t_max_star
            ).score
        except ReproError:
            return math.inf

    def check(self, tracer: Tracer) -> Tuple[int, int]:
        picked = self.scored[::SA_CHECK_EVERY]
        failed = sum(
            not _same_float(self.rescore(params), cost) for params, cost in picked
        )
        return len(picked), failed


# ---------------------------------------------------------------------------
# Design jobs (shared by both design workloads)
# ---------------------------------------------------------------------------


def verify_winner(case, config, outcome) -> bool:
    """Rebuild a job's winning design and check it against physics.

    The flow solution at the winner's ``p_sys`` must pass
    ``verify_flow_solution``, and the thermal result at the winner's fidelity
    must pass ``verify_thermal_result`` and reproduce the reported ``T_max``
    and ``DeltaT``.  An infeasible winner with no operating point has
    nothing to verify and passes.
    """
    from repro.cooling import CoolingSystem
    from repro.flow.network import FlowField
    from repro.verify import verify_flow_solution, verify_thermal_result

    evaluation = outcome.evaluation
    p_sys = evaluation.p_sys
    if not (math.isfinite(p_sys) and p_sys > 0):
        return True
    plan = case.tree_plan(
        direction=config.direction, leaves_per_tree=config.leaves_per_tree
    )
    grid = plan.with_params(outcome.params).build()
    report = verify_flow_solution(
        FlowField(grid, case.channel_height, case.coolant).at_pressure(p_sys)
    )
    system = CoolingSystem.for_network(
        case.base_stack(),
        grid,
        case.coolant,
        model="4rm" if evaluation.fidelity == "high" else "2rm",
        tile_size=config.tile_size,
        inlet_temperature=case.inlet_temperature,
    )
    result = system.evaluate(p_sys, exact=True)
    report = report.merged_with(verify_thermal_result(result))
    reproduced = all(
        math.isclose(a, b, rel_tol=1e-9)
        for a, b in (
            (result.t_max, evaluation.t_max),
            (result.delta_t, evaluation.delta_t),
        )
    )
    return report.ok and reproduced


class _DesignJobs(Workload):
    """Shared loop of the two design workloads: one portfolio run per op.

    Jobs differ in cost, so a job count that followed the machine's speed
    would change a run's mix of jobs; a run is a fixed number of jobs
    instead, sized by :attr:`nominal_op_s` to last about ``--seconds``.
    """

    optimizers: Tuple[str, ...] = ()
    checkpoints = False

    def prepare(self) -> None:
        # Imported here so that setup_s counts the import.
        from repro.optimize.portfolio import run_portfolio  # noqa: F401

        #: (case, config, winning outcome) of every finished job.
        self.jobs: List[tuple] = []
        #: [unit: s] Portfolio round times of the traced run.
        self.round_s: List[float] = []

    def job(self, index: int):
        """``(case, PortfolioConfig)`` of job ``index``."""
        raise NotImplementedError

    def _progress(self, event: str, fields: dict) -> None:
        """``run_portfolio`` progress callback of the traced run: a round
        lasts from its optimizer's start or the previous round's end."""
        now = time.perf_counter()
        if event == "portfolio.round":
            self.round_s.append(now - self._round_start)
        if event in ("portfolio.optimizer.start", "portfolio.round"):
            self._round_start = now

    def run_op(self, index: int, tracer: Tracer, root) -> Op:
        from repro.errors import CandidateCrashError, ReproError
        from repro.optimize.portfolio import run_portfolio

        case, config = self.job(index)
        ckpt = self.work_dir / f"job{index}" if self.checkpoints else None
        start = time.perf_counter()
        try:
            result = run_portfolio(
                case,
                self.optimizers,
                config,
                checkpoint_dir=None if ckpt is None else str(ckpt),
                progress=self._progress if tracer.enabled else None,
            )
        except (ReproError, CandidateCrashError):
            self.score_records.append(b"failed")
            return Op(time.perf_counter() - start, 0, failed=True)
        latency = time.perf_counter() - start
        if ckpt is not None:
            self.checkpoint_sizes.append((ckpt / "portfolio.ckpt").stat().st_size)
            shutil.rmtree(ckpt)
        best = result.best
        self.jobs.append((case, config, best))
        self.score_records.append(
            best.name.encode()
            + _f64(best.score)
            + np.asarray(best.params, dtype=np.int64).tobytes()
        )
        cands = sum(o.low_evals + o.high_evals for o in result.outcomes.values())
        return Op(latency, cands)

    def layer_inputs(self, ops: List[Op]) -> LayerInputs:
        inputs = super().layer_inputs(ops)
        inputs.round_s = list(self.round_s)
        return inputs

    def check(self, tracer: Tracer) -> Tuple[int, int]:
        failed = sum(
            not verify_winner(case, config, best) for case, config, best in self.jobs
        )
        return len(self.jobs), failed


class DesignP1Pool(_DesignJobs):
    """Contest case 1 at grid 21, ``multi_fidelity`` then ``staged_sa``,
    Problem 1, 3 rounds x 4 iterations x batches of 4 over 2 pool workers,
    checkpointing every round."""

    name = "design_p1_pool"
    n_workers = 2
    one_core = False
    nominal_op_s = 7.0
    digest_ops = 2
    optimizers = ("multi_fidelity", "staged_sa")
    checkpoints = True

    def prepare(self) -> None:
        super().prepare()
        from repro.iccad2015 import load_case

        self.case = load_case(1, grid_size=21)

    def _config(self, index: int):
        from repro.optimize.portfolio import PortfolioConfig

        return PortfolioConfig(
            problem="problem1",
            rounds=3,
            iterations=4,
            batch_size=4,
            n_workers=self.n_workers,
            seed=derive_seed(self.seed, 2, index),
        )

    def job(self, index: int):
        return self.case, self._config(index)

    def input_record(self, index: int) -> bytes:
        return struct.pack("<q", self._config(index).seed)


#: Problem-2 die counts and grids; small and large grids alternate.
P2_DIES = (2, 3)
P2_GRIDS = (9, 15, 11, 13)


def p2_stratum(index: int) -> Tuple[int, int, str]:
    """``(dies, grid, power regime)`` of Problem-2 job ``index``.

    Jobs cycle through all 32 combinations in blocks of 8.  Every block
    holds each grid once per die count and each power regime twice, so a
    run's mix of working-set sizes barely depends on where the run stops.
    """
    from repro.cases.generator import POWER_REGIMES

    block, slot = divmod(index % 32, 8)
    grid = slot // 2
    return P2_DIES[slot % 2], P2_GRIDS[grid], POWER_REGIMES[(grid + block) % 4]


@functools.lru_cache(maxsize=None)
def catalog_case(dies: int, regime: str, grid: int) -> int:
    """The seed of the first generated case with ``dies`` and ``regime``.

    The design and service workloads take their cases from this fixed
    catalog: cases of one combination still differ in power, constraints
    and channel height, and so in cost by up to 2x, which made a run's time
    depend on which cases the benchmark seed drew.  The benchmark seed sets
    the SA seeds instead, so each seed searches the same cases along other
    paths.
    """
    from repro.cases.generator import generate_case_spec

    case_seed = 0
    while True:
        spec = generate_case_spec(case_seed, grid_size=grid)
        if spec.n_dies == dies and spec.power_regime == regime:
            return case_seed
        case_seed += 1


def p2_job_inputs(seed: int, index: int) -> Tuple[int, int, int]:
    """``(case_seed, grid, sa_seed)`` of Problem-2 job ``index``."""
    dies, grid, regime = p2_stratum(index)
    return catalog_case(dies, regime, grid), grid, derive_seed(seed, 4, index)


class DesignP2Mixed(_DesignJobs):
    """Generated cases (grids 9-15, 2-3 dies, four power regimes),
    ``multi_fidelity`` on Problem 2, 2 rounds x 3 iterations x batches of
    4, in-process."""

    name = "design_p2_mixed"
    digest_ops = 8
    optimizers = ("multi_fidelity",)
    nominal_op_s = 1.25
    #: Whole blocks of 8 (see :func:`p2_stratum`).
    op_group = 8

    def prepare(self) -> None:
        super().prepare()
        from repro.cases import generate_case  # noqa: F401

    def job(self, index: int):
        from repro.cases import generate_case
        from repro.optimize.portfolio import PortfolioConfig

        case_seed, grid, sa_seed = p2_job_inputs(self.seed, index)
        config = PortfolioConfig(
            problem="problem2",
            rounds=2,
            iterations=3,
            batch_size=4,
            n_workers=1,
            seed=sa_seed,
        )
        return generate_case(case_seed, grid_size=grid), config

    def input_record(self, index: int) -> bytes:
        return struct.pack("<3q", *p2_job_inputs(self.seed, index))


# ---------------------------------------------------------------------------
# service_small_jobs
# ---------------------------------------------------------------------------

#: Jobs re-run directly through the executor as the reference leg.
DIRECT_JOBS = 20
#: Seconds the server gets to start and answer ``/healthz``.
SERVER_START_TIMEOUT = 120.0
#: [unit: s] Longest client pause between service jobs (one queue poll
#: interval of the service worker).
THINK_MAX_S = 0.2


def service_payload(seed: int, index: int) -> dict:
    """The submission body of service job ``index``: the grid-9 catalog
    cases of every die count and power regime in turn."""
    from repro.cases.generator import POWER_REGIMES

    dies = P2_DIES[index % 2]
    regime = POWER_REGIMES[(index // 2) % len(POWER_REGIMES)]
    return {
        "case_seed": catalog_case(dies, regime, 9),
        "grid": 9,
        "rounds": 1,
        "iterations": 1,
        "batch_size": 2,
        "seed": derive_seed(seed, 6, index),
        "optimizers": ["multi_fidelity"],
    }


class ServiceSmallJobs(Workload):
    """``repro serve --workers 1`` in a subprocess; tiny jobs submitted one
    after another and followed to ``stream.end``; then the first
    :data:`DIRECT_JOBS` specs again through ``SimulationExecutor.execute``."""

    name = "service_small_jobs"
    digest_ops = DIRECT_JOBS

    def prepare(self) -> None:
        from repro.server import ServiceClient
        from repro.errors import JobError

        self.server: Optional[subprocess.Popen] = None
        #: (job id, payload, completed) of every submitted job.
        self.jobs: List[Tuple[str, dict, bool]] = []
        self.results: List[Optional[dict]] = []
        #: [unit: s] Per completed job (see ``LayerInputs.server_s``).
        self.server_s: Dict[str, List[float]] = {
            "queue": [], "execute": [], "notify": []
        }
        self._log = open(self.work_dir / "server.log", "wb")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--root", str(self.work_dir / "store"),
                "--port", "0",
                "--workers", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=str(REPO),
        )
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        ready, _, _ = select.select([self.server.stdout], [], [], SERVER_START_TIMEOUT)
        line = self.server.stdout.readline().decode() if ready else ""
        match = re.search(r"http://[0-9.]+:([0-9]+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not report its address: {line!r}")
        self.client = ServiceClient(f"http://127.0.0.1:{match.group(1)}", timeout=60.0)
        while True:
            try:
                self.client.healthz()
                return
            except JobError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def input_record(self, index: int) -> bytes:
        return json.dumps(service_payload(self.seed, index), sort_keys=True).encode()

    def think_s(self, index: int) -> float:
        # The worker polls the queue every 0.2 s and the event stream its
        # job every 0.1 s.  Submitting the instant the last job ended would
        # lock the client to those cycles, and every latency would land on
        # one of a few values; a seeded pause of up to one poll period
        # samples the cycles evenly, as independent users would.
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(7, index))
        )
        return float(rng.uniform(0.0, THINK_MAX_S))

    def run_op(self, index: int, tracer: Tracer, root) -> Op:
        payload = service_payload(self.seed, index)
        wall0 = time.time()
        start = time.perf_counter()
        job_id = self.client.submit(payload)["job_id"]
        submitted = time.perf_counter()
        stamps: Dict[str, float] = {}
        reason = None
        for event in self.client.follow_events(job_id):
            if event["type"] == "stream.end":
                reason = event.get("reason")
            elif "t_wall" in event:
                stamps.setdefault(event["type"], event["t_wall"])
        end = time.perf_counter()
        received = time.time()
        completed = reason == "completed"
        self.jobs.append((job_id, payload, completed))
        execute = None
        if completed:
            execute = stamps["job.completed"] - stamps["job.claimed"]
            parts = self.server_s
            parts["queue"].append(stamps["job.claimed"] - stamps["job.submitted"])
            parts["execute"].append(execute)
            parts["notify"].append(received - stamps["job.completed"])
        if root is not None and completed:
            # Server event times, moved onto this process's clock and laid
            # end to end after the submit round trip.
            cursor = submitted
            for name, event in (
                ("server.queue_wait", "job.claimed"),
                ("server.execute", "job.completed"),
            ):
                at = start + (stamps[event] - wall0)
                stop = min(max(cursor, at), end)
                tracer.add_span(name, "server", cursor, stop, root)
                cursor = stop
            tracer.add_span("server.notify", "server", cursor, end, root)
        # Only the server's execution runs at the core's speed; the rest of
        # a job's latency is mostly its poll loops, which run on timers.
        return Op(end - start, 0, failed=not completed, compute_s=execute)

    def after_loop(self, ops: List[Op]) -> None:
        self.latencies = [op.latency_s for op in ops]
        for op, (job_id, _, completed) in zip(ops, self.jobs):
            result = self.client.result(job_id) if completed else None
            self.results.append(result)
            self.score_records.append(
                json.dumps(result, sort_keys=True).encode()
            )
            if result is not None:
                op.cands = sum(
                    o["low_evals"] + o["high_evals"]
                    for o in result["optimizers"].values()
                )
    def layer_inputs(self, ops: List[Op]) -> LayerInputs:
        """The server's counters, from one ``/metrics`` scrape, and the
        jobs' event times; the kernel timers come from the direct leg."""
        from repro.telemetry.promexpo import parse_prometheus_text

        families = parse_prometheus_text(self.client.metrics())
        counters = {}
        for name in COUNTERS:
            family = families.get("repro_" + name.replace(".", "_") + "_total")
            counters[name] = (
                sum(s["value"] for s in family["samples"]) if family else 0
            )
        return LayerInputs(
            counters=counters,
            ops=len(ops),
            n_workers=self.n_workers,
            server_s=self.server_s,
        )

    def release(self) -> None:
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
        self._log.close()

    def check(self, tracer: Tracer) -> Tuple[int, int]:
        """The direct leg: each result must equal the service's, as JSON."""
        from repro import profiling
        from repro.server import SimulationExecutor, validate_submission

        profiling.reset()
        executor = SimulationExecutor()
        attempted = failed = 0
        self.direct_latencies: List[float] = []
        for index, ((_, payload, _), service_result) in enumerate(
            zip(self.jobs[:DIRECT_JOBS], self.results)
        ):
            if service_result is None:
                continue  # the failed job already counts as a failed op
            spec = validate_submission(dict(payload))
            ckpt = self.work_dir / f"direct{index}"
            with tracer.root("direct", index):
                start = time.perf_counter()
                direct = executor.execute(spec, str(ckpt))
                self.direct_latencies.append(time.perf_counter() - start)
            self.checkpoint_sizes.append((ckpt / "portfolio.ckpt").stat().st_size)
            shutil.rmtree(ckpt)
            attempted += 1
            failed += json.loads(json.dumps(direct)) != service_result
        self._direct = super().layer_inputs(
            [Op(latency, 0) for latency in self.direct_latencies]
        )
        return attempted, failed

    def checked_layer_inputs(self, inputs: LayerInputs) -> LayerInputs:
        inputs = super().checked_layer_inputs(inputs)
        direct = self._direct
        inputs.factorize_p50_s = direct.factorize_p50_s
        inputs.factorize_s = direct.factorize_s
        inputs.candidate_s = direct.candidate_s
        inputs.compute_wall_s = direct.compute_wall_s
        if self.direct_latencies:
            inputs.overhead_ratio = statistics.median(
                self.latencies
            ) / statistics.median(self.direct_latencies)
        return inputs


WORKLOADS = {
    cls.name: cls
    for cls in (SABatchP1, DesignP1Pool, DesignP2Mixed, ServiceSmallJobs)
}
