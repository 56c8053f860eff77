"""The ``GET /metrics`` family set is pinned.

``metrics_families.txt`` holds the sorted ``# TYPE`` lines that
:func:`repro.telemetry.promexpo.render_prometheus` emitted for a fixed run:
one :class:`~repro.server.executor.SimulationExecutor` job (generated case
7, grid 9, ``multi_fidelity``) plus one batch on a two-worker pool.  A
change to how the recorder stores timers, merges worker deltas or renders
families must leave every family name and type as it was, so dashboards
and ``repro top`` keep reading the same series.  The run happens in a fresh
interpreter, so solver caches and pools of earlier tests cannot change
which counters fire.
"""

import os
import subprocess
import sys
from pathlib import Path

PIN = Path(__file__).with_name("metrics_families.txt")

RUN = """
import tempfile

from repro import profiling
from repro.iccad2015 import load_case
from repro.optimize.parallel import evaluate_population, shutdown_pools
from repro.optimize.stages import (
    METRIC_FIXED_PRESSURE_GRADIENT, PROBLEM_PUMPING_POWER, StageConfig,
)
from repro.server.executor import SimulationExecutor
from repro.server.validation import validate_submission
from repro.telemetry.promexpo import render_prometheus

profiling.reset()
spec = validate_submission({
    "case_seed": 7, "grid": 9, "rounds": 2, "iterations": 1,
    "batch_size": 1, "optimizers": ["multi_fidelity"],
})
with tempfile.TemporaryDirectory() as checkpoint_dir:
    SimulationExecutor().execute(spec, checkpoint_dir)
case = load_case(1, grid_size=21)
plan = case.tree_plan()
stage = StageConfig("f", 4, 1, 4, METRIC_FIXED_PRESSURE_GRADIENT, "2rm")
batch = [plan.clamp_params(plan.params() + delta) for delta in range(4)]
evaluate_population(
    case, plan, stage, PROBLEM_PUMPING_POWER, batch,
    fixed_pressure=2e4, n_workers=2,
)
shutdown_pools()
text = render_prometheus(profiling.snapshot())
print("\\n".join(sorted(
    line for line in text.splitlines() if line.startswith("# TYPE ")
)))
"""


def test_metrics_family_names_and_types_are_pinned():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == PIN.read_text().splitlines()
