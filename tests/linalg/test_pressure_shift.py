"""Parity of the thermal pressure-shift (Woodbury) path against exact solves.

The thermal operator is ``K + P A``: between two pressures it differs by
``(P - P0) A``, a low-rank term over the advected rows.  The incremental
path answers search probes from the base factorization plus that
correction; these tests pin it against ``exact=True`` solves on a real
stack, prove the fallback (tight residual tolerance) degrades to exact
solves rather than wrong answers, check that wide 4RM systems take the
shift path with bitwise-equal scores while systems whose advected rank
outgrows ``SHIFT_RANK_PER_SQRT_NODE * sqrt(n)`` refactorize, and check the
exact-recompute bookkeeping that keeps SA trajectories bitwise
identical.
"""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest

from repro import profiling
from repro.cases import generate_case
from repro.constants import CELL_WIDTH
from repro.cooling import evaluate_problem1, evaluate_problem2
from repro.cooling.system import CoolingSystem
from repro.geometry import build_contest_stack
from repro.iccad2015.cases import load_case
from repro.linalg import use_config
from repro.linalg.superlu import Factorization
from repro.materials import WATER
from repro.networks import serpentine_network
from repro.telemetry.promexpo import parse_prometheus_text, render_prometheus
from repro.thermal.common import SHIFT_RANK_PER_SQRT_NODE
from repro.thermal.rc2 import RC2Simulator
from repro.thermal.rc4 import RC4Simulator

PARITY_RTOL = 1e-10

PRESSURES = [800.0, 1200.0, 2000.0, 3500.0, 5000.0]


def small_stack():
    grid = serpentine_network(9, 9)
    power = np.full((9, 9), 0.01)
    return build_contest_stack(
        2, 2e-4, [power, power], lambda d: grid.copy(), 9, 9, CELL_WIDTH
    )


@pytest.fixture()
def simulator():
    return RC2Simulator(small_stack(), WATER, tile_size=4)


def thermal_system(simulator_cls):
    """A fresh thermal system of ``simulator_cls`` on the small stack."""
    if simulator_cls is RC2Simulator:
        return RC2Simulator(small_stack(), WATER, tile_size=4).system
    return simulator_cls(small_stack(), WATER).system


SIMULATORS = pytest.mark.parametrize(
    "simulator_cls", [RC2Simulator, RC4Simulator], ids=["rc2", "rc4"]
)


def generated_4rm(seed, grid):
    """Generated case ``seed`` at ``grid`` with its tree network, on 4RM."""
    case = generate_case(seed, grid_size=grid)
    system = CoolingSystem.for_network(
        case.base_stack(),
        case.tree_plan().build(),
        case.coolant,
        model="4rm",
        inlet_temperature=case.inlet_temperature,
    )
    return case, system


def case1_straight_2rm(case):
    """Case ``case``'s straight network on 2RM."""
    return CoolingSystem.for_network(
        case.base_stack(),
        case.baseline_network(),
        case.coolant,
        model="2rm",
        inlet_temperature=case.inlet_temperature,
    )


def live_factorizations():
    """Factorizations reachable in this process."""
    gc.collect()
    return sum(isinstance(obj, Factorization) for obj in gc.get_objects())


def bits(result):
    """Every field of an ``EvaluationResult``, floats as exact hex."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(result)
    )


def test_incremental_probe_matches_exact_solve(simulator):
    profiling.reset()
    system = simulator.system
    exact = {p: system.solve(p, exact=True) for p in PRESSURES}
    fresh = RC2Simulator(small_stack(), WATER, tile_size=4).system
    # Prime one base factorization, then probe the rest incrementally.
    fresh.solve(PRESSURES[0], exact=True)
    for p in PRESSURES[1:]:
        probe = fresh.solve(p)
        scale = max(float(np.max(np.abs(exact[p]))), 1.0)
        assert float(np.max(np.abs(probe - exact[p]))) <= PARITY_RTOL * scale
    counters = profiling.snapshot()["counters"]
    assert counters.get("linalg.incremental_solves", 0) >= len(PRESSURES) - 1
    assert counters.get("linalg.shift_bases", 0) >= 1


def test_incremental_disabled_never_builds_shift(simulator):
    profiling.reset()
    with use_config(incremental=False):
        for p in PRESSURES:
            simulator.system.solve(p)
    counters = profiling.snapshot()["counters"]
    assert counters.get("linalg.incremental_solves", 0) == 0
    assert counters.get("linalg.shift_bases", 0) == 0


@SIMULATORS
def test_tight_residual_tolerance_falls_back_to_exact(simulator_cls):
    """An unmeetable residual bound must reject every incremental answer."""
    profiling.reset()
    reference_system = thermal_system(simulator_cls)
    reference = {p: reference_system.solve(p, exact=True) for p in PRESSURES}
    fresh = thermal_system(simulator_cls)
    with use_config(residual_rtol=1e-300):
        for p in PRESSURES:
            result = fresh.solve(p)
            np.testing.assert_array_equal(result, reference[p])
    counters = profiling.snapshot()["counters"]
    assert counters.get("linalg.incremental_solves", 0) == 0
    assert counters.get("linalg.incremental_fallbacks", 0) >= 1


def test_wide_4rm_system_takes_shift_path():
    """A 3-die grid-9 4RM system (108 advected rows over 729 nodes) builds
    one shift base, and its search scores bitwise like exact solves."""
    case, system = generated_4rm(0, 9)
    with use_config(incremental=False):
        _, exact_system = generated_4rm(0, 9)
        expected = evaluate_problem1(
            exact_system, case.delta_t_star, case.t_max_star
        )
    profiling.reset()
    result = evaluate_problem1(system, case.delta_t_star, case.t_max_star)
    counters = profiling.snapshot()["counters"]
    assert profiling.histogram("linalg.shift_rank").vmax == 108
    assert counters.get("linalg.shift_bases", 0) == 1
    assert counters.get("thermal.factorizations", 0) <= 2
    assert counters.get("linalg.incremental_solves", 0) >= 1
    assert bits(result) == bits(expected)
    families = parse_prometheus_text(render_prometheus(profiling.snapshot()))
    assert families["repro_linalg_shift_rank"]["type"] == "histogram"


@pytest.mark.parametrize("grid, takes_shift", [(51, True), (61, False)])
def test_shift_path_follows_rank_per_sqrt_node(grid, takes_shift):
    """Case 1's straight network on 2RM sits on either side of the cut:
    rank 338 over 1352 nodes (9.2 per sqrt node) takes the shift, rank 512
    over 2016 nodes (11.4) refactorizes every probe.  Scores are bitwise
    equal to incremental-off on both sides."""
    case = load_case(1, grid_size=grid)
    with use_config(incremental=False):
        expected = evaluate_problem1(
            case1_straight_2rm(case), case.delta_t_star, case.t_max_star
        )
    system = case1_straight_2rm(case)
    thermal = system.simulator.system
    rank = thermal.advected_rows().size
    ratio = rank / np.sqrt(thermal.n_nodes)
    assert (ratio <= SHIFT_RANK_PER_SQRT_NODE) == takes_shift
    assert thermal.shift_pays() == takes_shift
    profiling.reset()
    result = evaluate_problem1(system, case.delta_t_star, case.t_max_star)
    counters = profiling.snapshot()["counters"]
    assert bits(result) == bits(expected)
    if takes_shift:
        assert counters.get("linalg.shift_bases", 0) == 1
        assert counters.get("thermal.factorizations", 0) <= 2
    else:
        assert counters.get("linalg.shift_bases", 0) == 0
        assert counters.get("linalg.incremental_solves", 0) == 0
        assert counters.get("thermal.factorizations", 0) == result.simulations


@SIMULATORS
def test_exact_solves_identical_with_and_without_incremental(simulator_cls):
    """exact=True must return bit-identical vectors either way."""
    with use_config(incremental=False):
        baseline = thermal_system(simulator_cls)
        expected = {p: baseline.solve(p, exact=True) for p in PRESSURES}
    mixed = thermal_system(simulator_cls)
    for p in PRESSURES:
        mixed.solve(p)  # warm the incremental machinery
    for p in PRESSURES:
        np.testing.assert_array_equal(mixed.solve(p, exact=True), expected[p])


@pytest.mark.parametrize("n_dies", [2, 3])
@pytest.mark.parametrize("grid", [9, 11, 13, 15])
def test_4rm_scores_match_exact_across_shift_ranks(grid, n_dies):
    """Both problems' 4RM scores equal incremental-off scores bitwise over
    advected ranks 72..246, with no fallback to an exact probe."""
    seed = {2: 3, 3: 0}[n_dies]  # generated cases with that many dies
    case, system = generated_4rm(seed, grid)
    assert case.n_dies == n_dies
    with use_config(incremental=False):
        _, exact_system = generated_4rm(seed, grid)
        expected = [
            evaluate_problem1(exact_system, case.delta_t_star, case.t_max_star),
            evaluate_problem2(exact_system, case.t_max_star, case.w_pump_star()),
        ]
    profiling.reset()
    results = [
        evaluate_problem1(system, case.delta_t_star, case.t_max_star),
        evaluate_problem2(system, case.t_max_star, case.w_pump_star()),
    ]
    counters = profiling.snapshot()["counters"]
    assert counters.get("linalg.shift_bases", 0) == 1
    assert counters.get("linalg.incremental_solves", 0) >= 1
    assert counters.get("linalg.incremental_fallbacks", 0) == 0
    assert [bits(r) for r in results] == [bits(r) for r in expected]


def test_cooling_system_exact_recompute_bookkeeping():
    profiling.reset()
    system = CoolingSystem(small_stack(), WATER, model="2rm")
    for p in PRESSURES:
        system.evaluate(p)
    sims = system.n_simulations
    assert sims == len(PRESSURES)
    result = system.evaluate(PRESSURES[-1], exact=True)
    # The exact recompute replaced the cached probe without counting as a
    # new simulation -- SA bookkeeping stays identical across modes.
    assert system.n_simulations == sims
    assert np.isfinite(result.t_max) and np.isfinite(result.delta_t)
    again = system.evaluate(PRESSURES[-1], exact=True)
    assert again is result  # now cached as exact: a plain hit
    counters = profiling.snapshot()["counters"]
    assert counters.get("cooling.exact_recomputes", 0) == 1


def test_transient_and_steady_agree_after_incremental_probes():
    """Incremental probes must leave no approximate state behind: a later
    exact solve equals one on a fresh system, bit for bit."""
    sim = RC2Simulator(small_stack(), WATER, tile_size=4)
    for p in PRESSURES:
        sim.system.solve(p)  # populate shift machinery
    exact = sim.system.solve(2000.0, exact=True)
    fresh = RC2Simulator(small_stack(), WATER, tile_size=4)
    np.testing.assert_array_equal(exact, fresh.system.solve(2000.0, exact=True))


def test_system_above_the_cut_keeps_only_its_first_factorization():
    """Case 1's straight network on 2RM at grid 61 (11.4 per sqrt node)
    factorizes every probe, keeps none but the first, and needs no exact
    recompute: every answer already came from an exact factorization."""
    case = load_case(1, grid_size=61)
    with use_config(incremental=False):
        expected = evaluate_problem1(
            case1_straight_2rm(case), case.delta_t_star, case.t_max_star
        )
    system = case1_straight_2rm(case)
    before = live_factorizations()
    profiling.reset()
    result = evaluate_problem1(system, case.delta_t_star, case.t_max_star)
    counters = profiling.snapshot()["counters"]
    assert counters.get("thermal.factorizations", 0) == result.simulations > 1
    assert live_factorizations() - before == 1
    assert counters.get("cooling.exact_recomputes", 0) == 0
    assert bits(result) == bits(expected)


def test_problem2_optimum_at_the_cap_needs_no_exact_recompute():
    """The cap is Problem 2's first probe, so its factorization is the
    exact base: an optimum there is final as probed."""
    case = load_case(1, grid_size=21)
    system = case1_straight_2rm(case)
    assert system.simulator.system.shift_pays()
    profiling.reset()
    result = evaluate_problem2(system, case.t_max_star, case.w_pump_star())
    assert result.feasible
    assert result.p_sys == system.p_sys_for_power(case.w_pump_star())
    assert profiling.counter("cooling.exact_recomputes") == 0
    with use_config(incremental=False):
        expected = evaluate_problem2(
            case1_straight_2rm(case), case.t_max_star, case.w_pump_star()
        )
    assert bits(result) == bits(expected)


def test_non_exact_solve_at_the_base_pressure_reuses_the_base(simulator):
    profiling.reset()
    system = simulator.system
    first, first_exact = system.solve_flagged(PRESSURES[0])
    again, again_exact = system.solve_flagged(PRESSURES[0])
    np.testing.assert_array_equal(again, first)
    assert first_exact and again_exact
    counters = profiling.snapshot()["counters"]
    assert counters.get("thermal.factorizations", 0) == 1
    assert counters.get("linalg.shift_bases", 0) == 0
