"""Differential parity: ``repro.linalg.factorize`` vs a fresh-splu reference.

Each property test draws a randomized well-conditioned conductance system
(graph Laplacian plus positive grounding, the shape every matrix in this
repo has), solves it through :func:`~repro.linalg.factorize`, and demands
agreement with a freshly computed ``scipy.sparse.linalg.splu`` reference to
1e-10 relative.  Degenerate (exactly singular) systems must raise the typed
:class:`~repro.errors.LinalgError` from ``factorize`` itself, never return
a factorization that yields garbage.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, csc_matrix, identity
from scipy.sparse.linalg import splu

from repro import profiling
from repro.errors import LinalgError
from repro.linalg import LinalgConfig, factorize, use_config

PARITY_RTOL = 1e-10


def random_conductance_system(seed: int, n: int):
    """A nonsingular conductance matrix plus RHS, like the repo's systems.

    A random connected graph Laplacian (chain backbone plus random chords)
    with positive per-node grounding: symmetric, strictly diagonally
    dominant, positive definite -- the exact shape of the flow and thermal
    conduction operators.
    """
    rng = np.random.default_rng(seed)
    chain = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    n_extra = int(rng.integers(0, 2 * n))
    extra = rng.integers(0, n, size=(n_extra, 2))
    extra = extra[extra[:, 0] != extra[:, 1]]
    edges = np.vstack([chain, extra])
    g = rng.uniform(0.1, 10.0, size=edges.shape[0])
    i, j = edges[:, 0], edges[:, 1]
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    vals = np.concatenate([g, g, -g, -g])
    ground = rng.uniform(0.01, 1.0, size=n)
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, ground])
    matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    rhs = rng.uniform(-1.0, 1.0, size=n)
    return matrix, rhs


def reference_solution(matrix: csc_matrix, rhs: np.ndarray) -> np.ndarray:
    return splu(matrix.tocsc()).solve(rhs)


def assert_parity(x: np.ndarray, ref: np.ndarray) -> None:
    scale = max(float(np.max(np.abs(ref))), 1.0)
    assert float(np.max(np.abs(x - ref))) <= PARITY_RTOL * scale


# ---------------------------------------------------------------------------
# Differential parity of the factorize() front door
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60))
def test_factorize_matches_fresh_splu(seed, n):
    matrix, rhs = random_conductance_system(seed, n)
    factor = factorize(matrix)
    assert_parity(factor.solve(rhs), reference_solution(matrix, rhs))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40), k=st.integers(1, 6))
def test_factorize_multi_rhs_matches_columnwise(seed, n, k):
    matrix, _ = random_conductance_system(seed, n)
    rng = np.random.default_rng(seed ^ 0xA5A5A5)
    block = rng.uniform(-1.0, 1.0, size=(n, k))
    got = factorize(matrix).solve_many(block)
    assert got.shape == (n, k)
    lu = splu(matrix.tocsc())
    for col in range(k):
        assert_parity(got[:, col], lu.solve(block[:, col]))


def test_factorize_rejects_singular_system():
    # A pure Laplacian (no grounding) has the constant vector in its null
    # space: exactly singular.  SuperLU notices at factorization time.
    n = 12
    i = np.arange(n - 1)
    rows = np.concatenate([i, i + 1, i, i + 1])
    cols = np.concatenate([i, i + 1, i + 1, i])
    ones = np.ones(n - 1)
    vals = np.concatenate([ones, ones, -ones, -ones])
    singular = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    with pytest.raises(LinalgError, match="factorization failed"):
        factorize(singular)


def test_factorize_one_dimensional_rhs_passthrough():
    matrix, rhs = random_conductance_system(7, 15)
    factor = factorize(matrix)
    via_many = factor.solve_many(rhs)
    assert via_many.shape == (15,)
    assert_parity(via_many, factor.solve(rhs))


def test_factorize_front_door_parity():
    matrix, rhs = random_conductance_system(3, 30)
    profiling.reset()
    factor = factorize(matrix)
    assert_parity(factor.solve(rhs), reference_solution(matrix, rhs))
    assert factor.n == 30
    assert profiling.counter("linalg.factorizations") == 1
    assert profiling.timer_seconds("linalg.factorize") > 0.0


def test_factorization_type_defines_its_own_solves():
    # Benchmark tracers patch these two methods on the concrete type.
    factorization = type(factorize(identity(2, format="csc")))
    assert {"solve", "solve_many"} <= set(vars(factorization))


def test_factorize_rejects_non_sparse_input():
    with pytest.raises(LinalgError, match="sparse"):
        factorize(np.eye(4))


def test_factorize_rejects_non_square_input():
    matrix = csc_matrix(np.ones((3, 4)))
    with pytest.raises(LinalgError, match="square"):
        factorize(matrix)


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


def test_config_validation_rejects_bad_knobs():
    with pytest.raises(LinalgError):
        LinalgConfig(residual_rtol=0.0)
    with pytest.raises(LinalgError):
        LinalgConfig(residual_rtol=-1e-8)


def test_use_config_restores_previous_state():
    before = LinalgConfig.current()
    with use_config(incremental=False, residual_rtol=1e-6) as active:
        assert LinalgConfig.current() is active
        assert not active.incremental
        assert active.residual_rtol == 1e-6
    assert LinalgConfig.current() is before


def test_config_is_hashable_and_picklable():
    import pickle

    config = LinalgConfig(incremental=False, residual_rtol=1e-6)
    assert hash(config) == hash(LinalgConfig(incremental=False, residual_rtol=1e-6))
    assert pickle.loads(pickle.dumps(config)) == config
