"""The multi-fidelity optimizer portfolio (ISSUE tentpole + satellite 3/4).

Three layers under test:

* the registry seam (names resolve, collisions and typos are loud);
* the offset model and multi-fidelity evaluator (log-space correction,
  memoization, fidelity eval accounting, corrected-2RM/4RM top-k
  agreement within the calibrated tolerance);
* the round-based orchestrator (seeded determinism, bitwise
  checkpoint/resume, worker-count invariance, hash-seed invariance,
  per-optimizer run logs).
"""

import dataclasses
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import profiling
from repro.cases import generate_case
from repro.checkpoint import CheckpointError
from repro.cooling.evaluation import EvaluationResult
from repro.errors import RunInterrupted, SearchError
from repro.optimize.portfolio import (
    DEFAULT_PORTFOLIO,
    MultiFidelityEvaluator,
    OffsetModel,
    PortfolioConfig,
    run_portfolio,
)
from repro.optimize.registry import (
    get_optimizer,
    optimizer_names,
    register_optimizer,
)
from repro.optimize.runner import (
    PROBLEM_PUMPING_POWER,
    PROBLEM_THERMAL_GRADIENT,
)
from repro.telemetry.runlog import read_run_log

QUICK = PortfolioConfig(rounds=2, iterations=2, batch_size=2, seed=3)

SRC = Path(__file__).resolve().parents[2] / "src"
DATA = Path(__file__).resolve().parent / "data"

#: A small Problem-1 portfolio (case 1 at grid 21, two tiny 2RM stages for
#: ``staged_sa``) that prints every strategy's outcome as one JSON line.
#: Floats go out as ``float.hex`` or ``repr``, so equal lines mean bitwise
#: equal outcomes.  With ``seed=0`` an ``_elite_candidates`` that ranks in
#: ``set`` order already promotes in a different order under hash seeds 0
#: and 1 (``offset_state`` records that order); some other seeds do not.
HASH_SEED_RUN = """
import json
from repro.iccad2015 import load_case
from repro.optimize.portfolio import PortfolioConfig, run_portfolio
from repro.optimize.stages import (
    METRIC_FIXED_PRESSURE_GRADIENT, METRIC_LOWEST_FEASIBLE_POWER, StageConfig,
)
config = PortfolioConfig(
    rounds=2, iterations=2, batch_size=2, seed=0,
    stages=(
        StageConfig("s1", 3, 1, 8, METRIC_FIXED_PRESSURE_GRADIENT, "2rm"),
        StageConfig("s2", 3, 1, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm"),
    ),
)
result = run_portfolio(
    load_case(1, grid_size=21), ("multi_fidelity", "staged_sa"), config
)
print(json.dumps({
    name: {
        "score": outcome.score.hex(),
        "params": outcome.params.tolist(),
        "evals": [outcome.low_evals, outcome.high_evals],
        "rounds": repr(outcome.rounds),
        "offset_state": repr(outcome.offset_state),
    }
    for name, outcome in result.outcomes.items()
}))
"""


@pytest.fixture(scope="module")
def case():
    return generate_case(7)


def bits(value: float) -> bytes:
    """The IEEE-754 bytes of a float (bitwise comparison)."""
    return struct.pack("<d", value)


def evaluation_bits(evaluation: EvaluationResult) -> tuple:
    """Every field of an evaluation, floats as their bytes."""
    return tuple(
        bits(value) if isinstance(value, float) else value
        for value in dataclasses.astuple(evaluation)
    )


def outcomes_equal(a, b) -> bool:
    return (
        np.array_equal(a.params, b.params)
        and a.score == b.score
        and a.low_evals == b.low_evals
        and a.high_evals == b.high_evals
        and a.rounds == b.rounds
        and a.offset_state == b.offset_state
    )


class TestRegistry:
    def test_builtins_registered(self):
        names = optimizer_names()
        assert names == ("multi_fidelity", "sa_4rm", "staged_sa")
        assert DEFAULT_PORTFOLIO == ("multi_fidelity",)

    def test_lookup_returns_entry(self):
        entry = get_optimizer("multi_fidelity")
        assert entry.name == "multi_fidelity"
        assert entry.description
        assert entry.factory().name == "multi_fidelity"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(SearchError, match="multi_fidelity"):
            get_optimizer("gradient_descent")

    def test_collision_is_loud(self):
        with pytest.raises(SearchError, match="already registered"):
            register_optimizer("multi_fidelity", "imposter")(object)


class TestOffsetModel:
    def test_recovers_multiplicative_factor(self):
        model = OffsetModel(scale=1.0)
        for low in (0.1, 0.5, 2.0, 7.0):
            model.observe(low, 3.0 * low)
        assert model.log_offset == pytest.approx(math.log(3.0))
        assert model.correct(1.0) == pytest.approx(3.0)
        # A clean multiplicative relationship calibrates a tight envelope
        # (the floor), and corrected scores agree with references under it.
        assert model.tolerance() == model.min_tolerance
        assert model.agrees(model.correct(0.9), 3.0 * 0.9)

    def test_identity_before_any_pair(self):
        model = OffsetModel(scale=1.0)
        assert model.log_offset == 0.0
        assert model.correct(5.0) == 5.0
        assert model.tolerance() >= 0.5  # undersampled: wide envelope

    def test_ignores_nonfinite_and_nonpositive_pairs(self):
        model = OffsetModel(scale=1.0)
        model.observe(math.inf, 2.0)
        model.observe(1.0, math.inf)
        model.observe(0.0, 1.0)
        model.observe(-1.0, 1.0)
        assert model.n_pairs == 0

    def test_tolerance_tracks_dispersion(self):
        tight = OffsetModel(scale=1.0)
        loose = OffsetModel(scale=1.0)
        for low in (0.1, 1.0, 4.0):
            tight.observe(low, 2.0 * low)
        for low, factor in ((0.1, 1.2), (1.0, 4.0), (4.0, 0.7)):
            loose.observe(low, factor * low)
        assert loose.tolerance() > tight.tolerance()

    def test_infinite_scores_agree_only_with_infinite(self):
        model = OffsetModel(scale=1.0)
        assert model.agrees(math.inf, math.inf)
        assert not model.agrees(math.inf, 1.0)
        assert not model.agrees(1.0, math.inf)

    def test_state_round_trip(self):
        model = OffsetModel(scale=2.0)
        model.observe(1.0, 3.0)
        clone = OffsetModel(scale=1.0)
        clone.restore(model.state())
        assert clone.pairs == model.pairs
        assert clone.scale == model.scale
        assert clone.correct(1.0) == model.correct(1.0)


class TestMultiFidelityEvaluator:
    @pytest.fixture(scope="class")
    def evaluator(self, case):
        return MultiFidelityEvaluator(
            case, case.tree_plan(), PROBLEM_PUMPING_POWER
        )

    def test_low_is_memoized(self, evaluator):
        params = evaluator.plan.params()
        before = evaluator.low_evals
        first = evaluator.low(params)
        mid = evaluator.low_evals
        second = evaluator.low(params)
        assert first == second
        assert mid == before + 1 and evaluator.low_evals == mid

    def test_batch_dedupes_repeats(self, evaluator):
        params = evaluator.plan.params()
        shifted = evaluator.plan.clamp_params(params + 1)
        before = evaluator.low_evals
        costs = evaluator.low_batch([params, shifted, params, shifted])
        assert costs[0] == costs[2] and costs[1] == costs[3]
        assert evaluator.low_evals <= before + 2

    def test_promotion_calibrates_offset(self, evaluator):
        params = evaluator.plan.params()
        pairs_before = evaluator.offset.n_pairs
        (evaluation,) = evaluator.promote([params])
        assert evaluation.fidelity == "high"
        assert evaluation.feasible
        assert evaluator.offset.n_pairs == pairs_before + 1
        # Memoized: a second promotion is free and observes nothing new.
        evaluator.promote([params])
        assert evaluator.offset.n_pairs == pairs_before + 1

    def test_promotion_batch_observes_in_order(self, evaluator):
        """A batch promotion observes each fresh candidate once, in batch
        order, and returns the memoized evaluations of repeats."""
        params = evaluator.plan.params()
        shifted = evaluator.plan.clamp_params(params + 2)
        pairs_before = evaluator.offset.n_pairs
        high_before = evaluator.high_evals
        evaluations = evaluator.promote([shifted, params, shifted])
        fresh = evaluator.high_evals - high_before
        assert evaluator.offset.n_pairs - pairs_before <= fresh <= 2
        assert evaluations[0] is evaluations[2]
        assert evaluations[1] == evaluator.high_evaluation(params)

    def test_state_round_trip(self, evaluator, case):
        fresh = MultiFidelityEvaluator(
            case, case.tree_plan(), PROBLEM_PUMPING_POWER
        )
        fresh.restore(evaluator.state())
        params = evaluator.plan.params()
        before = fresh.low_evals
        assert fresh.low(params) == evaluator.low(params)
        assert fresh.low_evals == before  # cache hit, not a re-evaluation

    def test_unknown_problem_rejected(self, case):
        with pytest.raises(SearchError, match="unknown problem"):
            MultiFidelityEvaluator(case, case.tree_plan(), "problem9")


class TestTopKAgreement:
    """Satellite 3: corrected-2RM promotion agrees with the 4RM oracle."""

    def test_topk_promotion_within_calibrated_envelope(self, case):
        """Promoting the top-k by (corrected) surrogate score finds a
        candidate whose reference score is within the calibrated envelope
        of the true reference optimum over the whole pool."""
        evaluator = MultiFidelityEvaluator(
            case, case.tree_plan(), PROBLEM_PUMPING_POWER
        )
        plan = evaluator.plan
        rng = np.random.default_rng(42)
        pool = [plan.params()]
        for _ in range(7):
            pool.append(
                plan.clamp_params(
                    pool[-1] + rng.integers(-4, 5, size=np.shape(pool[-1]))
                )
            )
        low = evaluator.low_batch(pool)
        high = [evaluator.high_evaluation(p).score for p in pool]
        for l, h in zip(low, high):
            evaluator.offset.observe(l, h)
        finite = [i for i in range(len(pool)) if math.isfinite(high[i])]
        assert finite, "pool degenerated to all-infeasible"
        k = 2
        topk = sorted(finite, key=lambda i: evaluator.corrected(low[i]))[:k]
        best_promoted = min(high[i] for i in topk)
        best_true = min(high[i] for i in finite)
        assert (
            math.log(best_promoted / best_true) <= evaluator.offset.tolerance()
        )

    def test_correction_preserves_ranking(self):
        model = OffsetModel(scale=1.0)
        model.observe(1.0, 2.5)
        scores = [0.3, 1.7, 0.9, 5.0]
        assert sorted(range(4), key=lambda i: scores[i]) == sorted(
            range(4), key=lambda i: model.correct(scores[i])
        )


class TestRunPortfolio:
    def test_seeded_determinism(self, case):
        a = run_portfolio(case, ("multi_fidelity",), QUICK)
        b = run_portfolio(case, ("multi_fidelity",), QUICK)
        assert outcomes_equal(
            a.outcomes["multi_fidelity"], b.outcomes["multi_fidelity"]
        )

    def test_outcomes_are_verified_at_high_fidelity(self, case):
        result = run_portfolio(case, ("multi_fidelity", "sa_4rm"), QUICK)
        for outcome in result.outcomes.values():
            assert isinstance(outcome.evaluation, EvaluationResult)
            assert outcome.evaluation.fidelity == "high"
            assert outcome.score == outcome.evaluation.score
            assert outcome.high_evals >= 1
            assert len(outcome.rounds) == QUICK.rounds
        assert result.best.name in result.outcomes

    def test_worker_count_invariance(self, case, tmp_path):
        """n_workers 1 and 2 agree bitwise on both strategies: with two
        workers the 2RM batches, the promotion batches and sa_4rm's 4RM
        batches all run on the shared pool.  The candidate counters agree
        too: every scoring path counts its batch once."""
        opts = ("multi_fidelity", "sa_4rm")
        counted = ("parallel.candidates", "parallel.infeasible")
        profiling.reset()
        serial = run_portfolio(
            case, opts, QUICK, run_log_dir=str(tmp_path / "serial")
        )
        serial_counts = [profiling.counter(name) for name in counted]
        profiling.reset()
        cfg = PortfolioConfig(
            rounds=QUICK.rounds,
            iterations=QUICK.iterations,
            batch_size=QUICK.batch_size,
            seed=QUICK.seed,
            n_workers=2,
        )
        pooled = run_portfolio(
            case, opts, cfg, run_log_dir=str(tmp_path / "pooled")
        )
        assert serial_counts[0] > 0
        assert serial_counts == [profiling.counter(name) for name in counted]
        for name in opts:
            a, b = serial.outcomes[name], pooled.outcomes[name]
            assert np.array_equal(a.params, b.params)
            assert bits(a.score) == bits(b.score)
            assert evaluation_bits(a.evaluation) == evaluation_bits(
                b.evaluation
            )
            assert a.low_evals == b.low_evals
            assert a.high_evals == b.high_evals
            assert a.rounds == b.rounds
            assert a.envelope == b.envelope
            assert a.offset_state == b.offset_state
        promotions = {
            label: [
                {k: v for k, v in record.items()
                 if k not in ("seq", "t_wall", "t_mono_ns")}
                for record in read_run_log(
                    tmp_path / label / "multi_fidelity.jsonl"
                )
                if record["type"] == "portfolio.promotion"
            ]
            for label in ("serial", "pooled")
        }
        assert promotions["serial"]
        assert promotions["serial"] == promotions["pooled"]

    def test_worker_count_invariance_problem2(self, case, tmp_path):
        """The Problem-2 twin: ``multi_fidelity``'s 2RM groups hold one
        candidate each, so with two workers its 2RM batches run on the
        shared pool like every 4RM batch, and n_workers 1 and 2 still agree
        bitwise on outcomes, counts, round records and offset state."""
        opts = ("multi_fidelity",)
        counted = ("parallel.candidates", "parallel.infeasible")
        runs, counts, pooled = {}, {}, {}
        for n_workers in (1, 2):
            profiling.reset()
            config = dataclasses.replace(
                QUICK, problem=PROBLEM_THERMAL_GRADIENT, n_workers=n_workers
            )
            runs[n_workers] = run_portfolio(
                case, opts, config, run_log_dir=str(tmp_path / str(n_workers))
            )
            counts[n_workers] = [profiling.counter(name) for name in counted]
            sizes = profiling.histogram("parallel.batch_size")
            pooled[n_workers] = 0 if sizes is None else int(sizes.total)
        assert counts[1][0] > 0
        assert counts[1] == counts[2]
        # Every candidate the pooled run scored went through the pool.
        assert pooled[1] == 0
        assert pooled[2] == counts[2][0]
        for name in opts:
            a, b = runs[1].outcomes[name], runs[2].outcomes[name]
            assert np.array_equal(a.params, b.params)
            assert bits(a.score) == bits(b.score)
            assert evaluation_bits(a.evaluation) == evaluation_bits(
                b.evaluation
            )
            assert a.low_evals == b.low_evals
            assert a.high_evals == b.high_evals
            assert a.rounds == b.rounds
            assert a.envelope == b.envelope
            assert a.offset_state == b.offset_state
        promotions = [
            [
                {k: v for k, v in record.items()
                 if k not in ("seq", "t_wall", "t_mono_ns")}
                for record in read_run_log(
                    tmp_path / str(n_workers) / "multi_fidelity.jsonl"
                )
                if record["type"] == "portfolio.promotion"
            ]
            for n_workers in (1, 2)
        ]
        assert promotions[0]
        assert promotions[0] == promotions[1]

    def test_empty_portfolio_rejected(self, case):
        with pytest.raises(SearchError, match="at least one"):
            run_portfolio(case, ())

    def test_resume_without_dir_rejected(self, case):
        with pytest.raises(CheckpointError, match="checkpoint_dir"):
            run_portfolio(case, ("multi_fidelity",), QUICK, resume=True)

    def test_run_logs_compare_ready(self, case, tmp_path):
        run_portfolio(
            case,
            ("multi_fidelity", "sa_4rm"),
            QUICK,
            run_log_dir=str(tmp_path),
        )
        for name in ("multi_fidelity", "sa_4rm"):
            records = read_run_log(tmp_path / f"{name}.jsonl")
            types = [r["type"] for r in records]
            assert types[0] == "run.start"
            assert types[-1] == "run.end"
            assert types.count("round.end") == QUICK.rounds
            assert types.count("portfolio.round") == QUICK.rounds
        mf = read_run_log(tmp_path / "multi_fidelity.jsonl")
        promotions = [r for r in mf if r["type"] == "portfolio.promotion"]
        assert promotions and all("offset" in r for r in promotions)

    def test_outcomes_do_not_depend_on_the_hash_seed(self):
        """Two fresh interpreters with different ``str``/``bytes`` hash
        seeds reach the same outcomes, so no result depends on set or hash
        order.  In-process tests cannot see this: every test and every
        forked pool worker shares one hash seed."""
        outputs = [
            subprocess.run(
                [sys.executable, "-c", HASH_SEED_RUN],
                env=dict(
                    os.environ,
                    PYTHONHASHSEED=str(seed),
                    PYTHONPATH=os.pathsep.join(
                        p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                        if p
                    ),
                ),
                stdout=subprocess.PIPE,
                text=True,
                timeout=120,
                check=True,
            ).stdout
            for seed in (0, 1)
        ]
        first, second = (json.loads(out) for out in outputs)
        assert sorted(first) == ["multi_fidelity", "staged_sa"]
        assert first == second


class TestCheckpointResume:
    def test_interrupted_resume_is_bitwise(self, case, tmp_path, monkeypatch):
        import repro.optimize.portfolio as pf

        opts = ("multi_fidelity", "sa_4rm")
        reference = run_portfolio(case, opts, QUICK)

        calls = {"n": 0}
        original = pf.MultiFidelityOptimizer.run_round

        def interrupted(self, ctx, state, round_i):
            original(self, ctx, state, round_i)
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt

        monkeypatch.setattr(pf.MultiFidelityOptimizer, "run_round", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_portfolio(case, opts, QUICK, checkpoint_dir=str(tmp_path))
        monkeypatch.setattr(pf.MultiFidelityOptimizer, "run_round", original)

        resumed = run_portfolio(
            case, opts, QUICK, checkpoint_dir=str(tmp_path), resume=True
        )
        for name in opts:
            assert outcomes_equal(
                reference.outcomes[name], resumed.outcomes[name]
            )

    def test_staged_sa_stops_between_stages_and_resumes_bitwise(
        self, case, tmp_path
    ):
        """The paper's flow stops at any SA-round boundary, like every other
        strategy, and the resume reaches the uninterrupted outcome."""
        opts = ("multi_fidelity", "staged_sa")
        reference = run_portfolio(case, opts, QUICK)
        polls = [0]

        def stop() -> bool:
            # Polls 1-2 are multi_fidelity's; poll 4 follows staged round 2,
            # the end of the quick schedule's first stage.
            polls[0] += 1
            return polls[0] == 4

        with pytest.raises(RunInterrupted, match="staged_sa round 2/6"):
            run_portfolio(
                case, opts, QUICK, checkpoint_dir=str(tmp_path),
                interrupt_check=stop,
            )
        resumed = run_portfolio(
            case, opts, QUICK, checkpoint_dir=str(tmp_path), resume=True
        )
        for name in opts:
            a, b = reference.outcomes[name], resumed.outcomes[name]
            assert np.array_equal(a.params, b.params) and a.score == b.score
            assert (a.low_evals, a.high_evals) == (b.low_evals, b.high_evals)
        staged = resumed.outcomes["staged_sa"]
        assert len(staged.rounds) == 6
        assert staged.flow.total_simulations == (
            staged.low_evals + staged.high_evals
        )

    def test_resumes_checkpoint_written_before_settings_became_constants(
        self, case, tmp_path
    ):
        """``data/multi_fidelity_round1.ckpt`` was written by the code in
        which the move step, cooling rate and elite count were
        ``PortfolioConfig`` fields: ``run_portfolio(generate_case(7),
        ("multi_fidelity",), QUICK, interrupt_check=lambda: True)`` after
        round 1.  Its fingerprint still matches, so the resume starts from
        its memo: the round-0 scores there came from a bisecting pressure
        search, and the round-0 record and the offset pairs they fed keep
        them.  Round 1 scores its candidates afresh: it matches an
        uninterrupted run of this code except for ``best_corrected``, whose
        offset still uses the round-0 pairs, and the run reaches the same
        design, score and evaluation counts."""
        shutil.copy(
            DATA / "multi_fidelity_round1.ckpt", tmp_path / "portfolio.ckpt"
        )
        resumed = run_portfolio(
            case, ("multi_fidelity",), QUICK,
            checkpoint_dir=str(tmp_path), resume=True,
        ).outcomes["multi_fidelity"]
        assert resumed.score.hex() == "0x1.78fc92622a529p-23"
        assert resumed.params.tolist() == [[0, 0], [0, 10]]
        assert (resumed.low_evals, resumed.high_evals) == (9, 4)
        fresh = run_portfolio(case, ("multi_fidelity",), QUICK).outcomes[
            "multi_fidelity"
        ]
        assert resumed.rounds[0] != fresh.rounds[0]  # the memo was used

        def without(record, key):
            return {k: v for k, v in record.items() if k != key}

        assert [without(r, "best_corrected") for r in resumed.rounds[1:]] == [
            without(r, "best_corrected") for r in fresh.rounds[1:]
        ]
        assert without(resumed.offset_state, "pairs") == without(
            fresh.offset_state, "pairs"
        )
        round0_pairs = resumed.rounds[0]["promotions"]
        assert resumed.offset_state["pairs"][round0_pairs:] == (
            fresh.offset_state["pairs"][round0_pairs:]
        )
        assert np.array_equal(resumed.params, fresh.params)
        assert bits(resumed.score) == bits(fresh.score)
        assert (resumed.low_evals, resumed.high_evals) == (
            fresh.low_evals,
            fresh.high_evals,
        )

    def test_resume_with_missing_checkpoint_starts_fresh(self, case, tmp_path):
        result = run_portfolio(
            case,
            ("multi_fidelity",),
            QUICK,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert "multi_fidelity" in result.outcomes

    def test_config_change_invalidates_checkpoint(self, case, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            import repro.optimize.portfolio as pf

            original = pf.MultiFidelityOptimizer.run_round

            def bomb(self, ctx, state, round_i):
                original(self, ctx, state, round_i)
                raise KeyboardInterrupt

            pf.MultiFidelityOptimizer.run_round = bomb
            try:
                run_portfolio(
                    case, ("multi_fidelity",), QUICK,
                    checkpoint_dir=str(tmp_path),
                )
            finally:
                pf.MultiFidelityOptimizer.run_round = original
        other = PortfolioConfig(
            rounds=QUICK.rounds,
            iterations=QUICK.iterations,
            batch_size=QUICK.batch_size,
            seed=QUICK.seed + 1,
        )
        with pytest.raises(CheckpointError):
            run_portfolio(
                case, ("multi_fidelity",), other,
                checkpoint_dir=str(tmp_path), resume=True,
            )


class TestConfigValidation:
    def test_rejects_unknown_problem(self):
        with pytest.raises(SearchError, match="unknown problem"):
            PortfolioConfig(problem="problem3")

    def test_rejects_nonpositive_knobs(self):
        with pytest.raises(SearchError):
            PortfolioConfig(rounds=0)
