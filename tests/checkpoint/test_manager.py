"""The design runs' one checkpoint: fresh starts, round trips, foreign
payloads, and interrupt flushing (``run_portfolio`` + ``portfolio.ckpt``)."""

import pytest

from repro import profiling
from repro.checkpoint import read_checkpoint, write_checkpoint
from repro.errors import CheckpointError, RunInterrupted
from repro.iccad2015 import load_case
from repro.optimize.portfolio import (
    PORTFOLIO_CHECKPOINT,
    PortfolioConfig,
    _portfolio_fingerprint,
    run_portfolio,
)
from repro.optimize.registry import get_optimizer
from repro.optimize.stages import METRIC_LOWEST_FEASIBLE_POWER, StageConfig

CONFIG = PortfolioConfig(
    problem="problem1",
    stages=(StageConfig("s", 2, 3, 4, METRIC_LOWEST_FEASIBLE_POWER, "2rm"),),
)
OPTIMIZERS = ("staged_sa",)


@pytest.fixture(scope="module")
def case():
    return load_case(1, grid_size=21)


def fingerprint(case):
    strategies = [get_optimizer(name).factory() for name in OPTIMIZERS]
    return _portfolio_fingerprint(case, strategies, CONFIG)


def run(case, tmp_path, **kwargs):
    return run_portfolio(
        case, OPTIMIZERS, CONFIG, checkpoint_dir=str(tmp_path), **kwargs
    )


def test_load_missing_is_fresh_run(case, tmp_path):
    profiling.reset()
    result = run(case, tmp_path, resume=True)
    assert result.outcomes["staged_sa"].rounds
    assert profiling.counter("checkpoint.resumes") == 0


def test_save_load_roundtrip(case, tmp_path):
    result = run(case, tmp_path)
    path = tmp_path / PORTFOLIO_CHECKPOINT
    payload = read_checkpoint(path, fingerprint(case))
    assert payload["active"] is None
    stored = payload["completed"]["staged_sa"]
    assert stored.score == result.outcomes["staged_sa"].score
    assert (stored.params == result.outcomes["staged_sa"].params).all()
    assert len(stored.rounds) == 3


def test_foreign_payload_rejected(case, tmp_path):
    path = tmp_path / PORTFOLIO_CHECKPOINT
    write_checkpoint(path, {"not": "a portfolio"}, fingerprint(case))
    with pytest.raises(CheckpointError, match="not a portfolio checkpoint"):
        run(case, tmp_path, resume=True)


def test_interrupt_flushes_then_raises(case, tmp_path):
    with pytest.raises(RunInterrupted) as excinfo:
        run(case, tmp_path, interrupt_check=lambda: True)
    # The state reached disk before the stop surfaced, and the exception
    # carries the path so supervisors can tell the user where to resume.
    path = tmp_path / PORTFOLIO_CHECKPOINT
    assert excinfo.value.checkpoint_path == str(path)
    payload = read_checkpoint(path, fingerprint(case))
    assert payload["active"] == "staged_sa"
    assert payload["active_state"]["round"] == 1
