#!/usr/bin/env python3
"""Crash-safe checkpointing: interrupt a design run, resume it bitwise.

Runs the Problem 1 staged SA flow three times on the same case:

1. an uninterrupted *golden* run;
2. a checkpointed run that is interrupted mid-flight (a cooperative stop
   flag stands in for the SIGINT/SIGTERM the CLI's ``RunSupervisor``
   translates into the same hook) — it stops at the next SA-round boundary,
   after that round's checkpoint reached disk, and raises
   ``RunInterrupted``;
3. a ``resume=True`` run from that checkpoint, which must finish with the
   bitwise-identical score, plan, and simulation count of the golden run.

The same behavior is available on the command line::

    python -m repro optimize --case 1 --quick --checkpoint-dir ckpt/
    # Ctrl-C / SIGTERM -> stops after the current SA round, exits with code 75
    python -m repro optimize --case 1 --quick --checkpoint-dir ckpt/ --resume

Run:  python examples/resumable_run.py [case_number] [grid_size]
(defaults: case 1 at 21 x 21; takes a few seconds).
"""

import sys
import tempfile
import time

from repro import profiling
from repro.errors import RunInterrupted
from repro.iccad2015 import load_case
from repro.optimize import optimize_problem1
from repro.optimize.stages import (
    METRIC_FIXED_PRESSURE_GRADIENT,
    METRIC_LOWEST_FEASIBLE_POWER,
    StageConfig,
)

#: A miniature two-stage schedule so the example runs in seconds; real
#: runs would use the default (Table 1) schedules via ``quick=``.
STAGES = [
    StageConfig("coarse", 6, 2, 10, METRIC_FIXED_PRESSURE_GRADIENT, "2rm"),
    StageConfig("fine", 5, 1, 6, METRIC_LOWEST_FEASIBLE_POWER, "2rm"),
]


def summarize(result):
    return {
        "score": result.evaluation.score,
        "simulations": result.total_simulations,
        "params": result.plan.params().tolist(),
        "direction": result.direction,
    }


def main() -> None:
    case_number = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    grid_size = int(sys.argv[2]) if len(sys.argv) > 2 else 21
    case = load_case(case_number, grid_size=grid_size)
    print(f"{case}\n")

    def run(**kwargs):
        return optimize_problem1(
            case, stages=STAGES, directions=(0, 1), seed=3, **kwargs
        )

    start = time.time()
    golden = run()
    print(f"golden run:      {time.time() - start:.1f} s, "
          f"W_pump={golden.evaluation.w_pump * 1e3:.3f} mW, "
          f"{golden.total_simulations} simulations")

    with tempfile.TemporaryDirectory() as ckpt_dir:
        # Interrupt at the 5th round boundary: the second direction's
        # first stage is done, its second stage is still to run.
        polls = [0]

        def stop_requested() -> bool:
            polls[0] += 1
            return polls[0] >= 5

        profiling.reset()
        try:
            run(checkpoint_dir=ckpt_dir, interrupt_check=stop_requested)
            raise SystemExit("expected the run to be interrupted")
        except RunInterrupted as exc:
            print(f"interrupted run: stopped early ({exc})")

        # A fresh process would start here: new profiler, same directory.
        profiling.reset()
        start = time.time()
        resumed = run(checkpoint_dir=ckpt_dir, resume=True)
        print(f"resumed run:     {time.time() - start:.1f} s, "
              f"W_pump={resumed.evaluation.w_pump * 1e3:.3f} mW, "
              f"{resumed.total_simulations} simulations")

    assert summarize(resumed) == summarize(golden)
    print("\nresumed result is bitwise-identical to the golden run "
          f"(score {golden.evaluation.score:.6g}, "
          f"direction {golden.direction})")


if __name__ == "__main__":
    main()
