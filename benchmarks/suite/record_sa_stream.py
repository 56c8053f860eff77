"""Record the candidate batches a real staged SA run scores.

``sa_batch_p1`` replays these batches; it does not generate its own.  This
script runs the paper's Problem-1 staged flow (``run_staged_flow`` with the
full Table-1 schedule up to stage 3) on contest case 1 at grid 21,
direction 0, batches of 4, once per SA seed, and writes every batch the
lowest-feasible-power 2RM stages (2 and 3) hand to ``evaluate_population``,
after the round's memo has dropped repeated proposals.  Stage 4 (4RM) comes
after them and is not run.

Run it from the repository root (about 5 minutes on one core of a 2-core
Xeon VM)::

    PYTHONPATH=src python3 benchmarks/suite/record_sa_stream.py

It then prints what the stream holds: the share of proposals the memo
caught, the share of scored candidates seen before in their run, the share
that repeat another candidate of their batch, and the share whose 2RM
thermal operator has the sparsity pattern of another, different candidate
of their batch.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import List, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
STREAM = HERE / "data" / "sa_p1_case1_g21.txt"

#: Digits of one parameter in the stream file (columns up to 35).
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def encode(params: np.ndarray) -> str:
    return "".join(DIGITS[int(v)] for v in np.asarray(params).ravel())


def decode(word: str, shape: Tuple[int, int]) -> np.ndarray:
    return np.array([DIGITS.index(c) for c in word], dtype=int).reshape(shape)


def read_stream(path: Path = STREAM) -> Tuple[Tuple[int, int], List[List[str]]]:
    """``(params shape, batches)`` of a stream file, each batch a list of
    encoded candidates (see :func:`decode`)."""
    shape = None
    batches = []
    for line in path.read_text().splitlines():
        if line.startswith("# shape "):
            shape = tuple(int(v) for v in line.split()[2:])
        elif line and not line.startswith("#"):
            batches.append(line.split()[1:])
    return shape, batches


def record(seeds) -> Tuple[List[str], dict]:
    """Run the flow once per seed; ``(stream lines, statistics)``."""
    from repro.iccad2015 import load_case
    from repro.optimize import parallel, runner
    from repro.optimize.stages import METRIC_LOWEST_FEASIBLE_POWER, problem1_stages

    case = load_case(1, grid_size=21)
    stages = problem1_stages()[:3]
    lines: List[str] = []
    stats = {"proposed": 0, "memo_hits": 0, "scored": 0, "seen": 0}
    original_evaluate = parallel.evaluate_population
    original_call = runner._BatchCost.__call__

    def recorded_stage(stage) -> bool:
        return stage.metric == METRIC_LOWEST_FEASIBLE_POWER and stage.model == "2rm"

    for seed in seeds:
        seen = set()

        def evaluate(case_, plan, stage, problem, params_list, **kwargs):
            if recorded_stage(stage):
                words = [encode(p) for p in params_list]
                lines.append(f"{stage.name} " + " ".join(words))
                stats["scored"] += len(words)
                stats["seen"] += sum(w in seen for w in words)
                seen.update(words)
            return original_evaluate(case_, plan, stage, problem, params_list, **kwargs)

        def call(batch_cost, states):
            if recorded_stage(batch_cost.stage):
                stats["proposed"] += len(states)
                stats["memo_hits"] += sum(
                    np.asarray(s, dtype=int).tobytes() in batch_cost.cache
                    for s in states
                )
            return original_call(batch_cost, states)

        lines.append(f"# run seed {seed}")
        parallel.evaluate_population = evaluate
        runner._BatchCost.__call__ = call
        try:
            runner.run_staged_flow(
                case, stages, "problem1", directions=(0,), seed=seed,
                n_workers=1, batch_size=4,
            )
        finally:
            parallel.evaluate_population = original_evaluate
            runner._BatchCost.__call__ = original_call
        print(f"seed {seed}: {sum(not l.startswith('#') for l in lines)} batches "
              "so far", flush=True)
    return lines, stats


def batch_shares(shape, batches: List[List[str]]) -> Tuple[float, float]:
    """Shares of candidates that repeat another candidate of their batch, and
    of candidates whose 2RM thermal operator has the sparsity pattern of
    another, different candidate of their batch."""
    from repro.cooling import CoolingSystem
    from repro.iccad2015 import load_case

    case = load_case(1, grid_size=21)
    plan = case.tree_plan()
    repeated = shared = total = 0
    for words in batches:
        repeated += sum(words.count(w) > 1 for w in words)
        keys = {}
        for word in words:
            if word in keys:
                continue
            params = decode(word, shape)
            system = CoolingSystem.for_network(
                case.base_stack(), plan.with_params(params).build(), case.coolant,
                model="2rm", tile_size=4, inlet_temperature=case.inlet_temperature,
            )
            matrix = system.simulator.system.system_matrix(1.0)
            matrix.sort_indices()
            keys[word] = hashlib.sha256(
                matrix.indptr.tobytes() + matrix.indices.tobytes()
            ).hexdigest()
        patterns = [keys[w] for w in words]
        shared += sum(
            any(p == q and v != w for q, v in zip(patterns, words))
            for p, w in zip(patterns, words)
        )
        total += len(words)
    return repeated / total, shared / total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(16)))
    parser.add_argument("--out", type=Path, default=STREAM)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parents[1] / "src"))

    lines, stats = record(args.seeds)
    from repro.iccad2015 import load_case

    shape = load_case(1, grid_size=21).tree_plan().params().shape
    header = [
        "# Candidate batches of real staged SA runs (record_sa_stream.py):",
        "# contest case 1, grid 21, direction 0, Problem 1, batches of 4,",
        "# stages 2-3 (lowest feasible power, 2RM, tile 4), after the memo.",
        "# One batch a line: stage, then one word per candidate, one base-36",
        "# digit per tree parameter in row order.",
        f"# shape {shape[0]} {shape[1]}",
    ]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(header + lines) + "\n")

    shape, batches = read_stream(args.out)
    print(f"batches {len(batches)}, candidates {stats['scored']}")
    print(f"memo hits / proposals: {stats['memo_hits']}/{stats['proposed']} = "
          f"{stats['memo_hits'] / stats['proposed']:.3f}")
    print(f"scored before in the same run: {stats['seen']}/{stats['scored']} = "
          f"{stats['seen'] / stats['scored']:.3f}")
    repeated, shared = batch_shares(shape, batches)
    print(f"repeats another candidate of its batch: {repeated:.3f}")
    print(f"same thermal pattern as another, different candidate of its "
          f"batch: {shared:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
