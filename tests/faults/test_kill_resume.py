"""Kill resilience: SIGKILL a checkpointed run mid-stage, resume, match.

The crash-safety acceptance bar: a staged SA run whose *process* dies --
no handlers, no cleanup, ``SIGKILL`` -- must resume from its last
round-boundary checkpoint to the exact result of a run that never died.
Two kill strategies:

* **faults-chosen**: a :mod:`repro.faults` ``hang`` fault parks the child
  at a deterministic thermal-solve hit mid-stage; the parent detects the
  stall and hard-kills it there.
* **checkpoint-polling smoke**: the parent kills the child as soon as the
  first checkpoint lands, wherever the run happens to be.

Both resumes must be bitwise: same score, same selected plan, same
simulation count.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import profiling
from repro.iccad2015 import load_case
from repro.optimize import optimize_problem1
from repro.optimize.stages import (
    METRIC_FIXED_PRESSURE_GRADIENT,
    METRIC_LOWEST_FEASIBLE_POWER,
    StageConfig,
)

WATCHDOG = 300.0
SRC = str(Path(__file__).resolve().parents[2] / "src")

STAGES = [
    StageConfig("coarse", 5, 2, 8, METRIC_FIXED_PRESSURE_GRADIENT, "2rm"),
    StageConfig("fine", 4, 1, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm"),
]

#: The child runs the same flow as :func:`run_golden`, checkpointing every
#: SA round; with HANG_AFTER set it arms a long ``hang`` fault at the N-th
#: 2RM thermal solve so the parent can SIGKILL it at a deterministic,
#: faults-chosen point mid-stage.
CHILD_SCRIPT = """
import os, sys
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults import KIND_HANG, SITE_THERMAL_RC2
from repro.iccad2015 import load_case
from repro.optimize import optimize_problem1
from repro.optimize.stages import (
    METRIC_FIXED_PRESSURE_GRADIENT,
    METRIC_LOWEST_FEASIBLE_POWER,
    StageConfig,
)

stages = [
    StageConfig("coarse", 5, 2, 8, METRIC_FIXED_PRESSURE_GRADIENT, "2rm"),
    StageConfig("fine", 4, 1, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm"),
]
case = load_case(1, grid_size=21)

def run():
    optimize_problem1(
        case, stages=stages, directions=(0, 1), seed=3,
        checkpoint_dir=sys.argv[1],
    )

hang_after = int(os.environ.get("HANG_AFTER", "0"))
if hang_after:
    plan = FaultPlan(
        [FaultSpec(site=SITE_THERMAL_RC2, kind=KIND_HANG,
                   after=hang_after, max_fires=1, delay=600.0)],
        seed=0,
    )
    with FaultInjector(plan):
        run()
else:
    run()
print("FINISHED")
"""


@pytest.fixture(scope="module")
def case():
    return load_case(1, grid_size=21)


def run_golden(case):
    return optimize_problem1(
        case, stages=STAGES, directions=(0, 1), seed=3
    )


def summarize(result):
    return (
        result.evaluation.score,
        result.total_simulations,
        result.plan.params().tolist(),
        result.direction,
    )


def spawn_child(tmp_path, hang_after=0):
    env = dict(os.environ, PYTHONPATH=SRC, HANG_AFTER=str(hang_after))
    return subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(tmp_path)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def wait_for_checkpoint(child, ckpt, deadline_s=120.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        if ckpt.exists():
            return
        if child.poll() is not None:
            raise AssertionError(
                f"child exited ({child.returncode}) before its first "
                f"checkpoint: {child.stderr.read().decode()}"
            )
        time.sleep(0.05)
    raise AssertionError("child never wrote a checkpoint")


def wait_for_stall(child, ckpt, quiet_s=2.0, deadline_s=120.0):
    """Wait until the checkpoint stops changing: the hang fault has fired."""
    start = time.monotonic()
    last_stat = None
    quiet_since = time.monotonic()
    while time.monotonic() - start < deadline_s:
        if child.poll() is not None:
            raise AssertionError(
                f"child exited ({child.returncode}) before hanging: "
                f"{child.stderr.read().decode()}"
            )
        stat = ckpt.stat()
        key = (stat.st_mtime_ns, stat.st_size)
        if key != last_stat:
            last_stat = key
            quiet_since = time.monotonic()
        elif time.monotonic() - quiet_since >= quiet_s:
            return
        time.sleep(0.05)
    raise AssertionError("child never stalled on the hang fault")


def sigkill(child):
    child.kill()  # SIGKILL: no handlers, no atexit, no flushing
    child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL


def resume(case, tmp_path):
    profiling.reset()
    return optimize_problem1(
        case, stages=STAGES, directions=(0, 1), seed=3,
        checkpoint_dir=str(tmp_path), resume=True,
    )


def test_sigkill_at_faults_chosen_point_resumes_bitwise(
    watchdog, case, tmp_path
):
    """Hang fault parks the child mid-stage; SIGKILL there; resume."""
    with watchdog(WATCHDOG):
        golden = summarize(run_golden(case))

        child = spawn_child(tmp_path, hang_after=120)
        try:
            ckpt = tmp_path / "portfolio.ckpt"
            wait_for_checkpoint(child, ckpt)
            wait_for_stall(child, ckpt)
        finally:
            sigkill(child)

        result = resume(case, tmp_path)
    assert summarize(result) == golden
    # The resume really continued a partial run rather than starting over.
    assert profiling.counter("checkpoint.resumes") == 1


def test_sigkill_at_first_checkpoint_resumes_bitwise(watchdog, case, tmp_path):
    """Kill as early as possible: resume must rebuild everything missing."""
    with watchdog(WATCHDOG):
        golden = summarize(run_golden(case))

        child = spawn_child(tmp_path)
        try:
            wait_for_checkpoint(child, tmp_path / "portfolio.ckpt")
        finally:
            sigkill(child)

        result = resume(case, tmp_path)
    assert summarize(result) == golden
