"""Lazy steady results: metrics from node extrema, cell maps on demand.

A 2RM or 4RM ``ThermalResult`` records per-layer node-temperature extrema
at solve time and expands the node temperatures to cell maps only when
someone reads them.  These tests pin the contract: every metric equals, bit
for bit, what the expanded maps give and what a result built from explicit
maps gives; 4RM maps equal the per-cell gather 4RM results once built
eagerly; copies carry the same maps; the search path never expands; and the
residual check's reused operator never leaks.
"""

import copy
import pickle

import numpy as np
import pytest

from repro import profiling
from repro.cases import generate_case
from repro.constants import CELL_WIDTH
from repro.cooling import CoolingSystem
from repro.geometry import build_contest_stack
from repro.iccad2015 import load_case
from repro.linalg import use_config
from repro.materials import COPPER, WATER
from repro.networks import straight_network
from repro.optimize.parallel import evaluate_population, score_batch
from repro.optimize.portfolio import ReferenceContext
from repro.optimize.stages import problem1_stages
from repro.thermal import RC2Simulator, RC4Simulator, ThermalResult
from repro.verify import verify_thermal_result


def _contest_stack(n=21):
    power = np.linspace(0.5, 1.5, n * n).reshape(n, n) / (n * n)
    grid = straight_network(n, n)
    return build_contest_stack(
        2, 200e-6, [power, power], lambda d: grid.copy(), n, n, CELL_WIDTH
    )


def _case1_stack():
    case = load_case(1, grid_size=21)
    return case.stack_with_network(case.tree_plan().build()), case.coolant


def _three_die_stack():
    case = generate_case(1)  # 3 dies, grid 9
    assert case.n_dies == 3
    return case.stack_with_network(case.baseline_network()), case.coolant


def _case1_sim():
    return RC2Simulator(*_case1_stack(), tile_size=4)


RC4_SIMULATORS = {
    "rc4_case1_grid21": lambda: RC4Simulator(*_case1_stack()),
    "rc4_generated_3die": lambda: RC4Simulator(*_three_die_stack()),
    "rc4_tsv_material": lambda: RC4Simulator(
        _contest_stack(), WATER, tsv_material=COPPER
    ),
    "rc4_top_bc": lambda: RC4Simulator(
        _contest_stack(), WATER, top_bc=(1e4, 300.0)
    ),
    "rc4_liquid_conduction": lambda: RC4Simulator(
        *_three_die_stack(), liquid_conduction=True
    ),
}

SIMULATORS = {
    "case1_grid21": _case1_sim,
    "generated_3die": lambda: RC2Simulator(*_three_die_stack(), tile_size=2),
    "tsv_material": lambda: RC2Simulator(
        _contest_stack(), WATER, tile_size=4, tsv_material=COPPER
    ),
    "top_bc": lambda: RC2Simulator(
        _contest_stack(), WATER, tile_size=3, top_bc=(1e4, 300.0)
    ),
    **RC4_SIMULATORS,
}


@pytest.fixture(params=sorted(SIMULATORS))
def sim(request):
    return SIMULATORS[request.param]()


@pytest.fixture(params=sorted(RC4_SIMULATORS))
def rc4_sim(request):
    return RC4_SIMULATORS[request.param]()


class TestExtremaParity:
    def test_metrics_equal_expanded_field_extrema(self, sim):
        result = sim.solve(2e4)
        fields = result.layer_fields
        sources = [fields[i] for i in result.source_layer_indices]
        assert result.t_max == max(float(np.nanmax(f)) for f in fields)
        assert result.delta_t_per_source_layer() == [
            float(np.nanmax(f) - np.nanmin(f)) for f in sources
        ]
        assert result.delta_t == max(result.delta_t_per_source_layer())
        assert result.t_max_source == max(float(np.nanmax(f)) for f in sources)

    def test_explicit_fields_give_the_same_metrics(self, sim):
        lazy = sim.solve(1e4)
        eager = ThermalResult(
            lazy.p_sys,
            lazy.q_sys,
            lazy.w_pump,
            layer_names=lazy.layer_names,
            source_layer_indices=lazy.source_layer_indices,
            inlet_temperature=lazy.inlet_temperature,
            total_power=lazy.total_power,
            layer_fields=lazy.layer_fields,
            liquid_fields=lazy.liquid_fields,
        )
        assert eager.t_max == lazy.t_max
        assert eager.delta_t_per_source_layer() == lazy.delta_t_per_source_layer()
        assert eager.t_max_source == lazy.t_max_source

    def test_rc4_maps_equal_the_per_cell_gather(self, rc4_sim):
        """The maps 4RM results built eagerly: each layer's node ids
        gathered per cell, coolant maps NaN outside the liquid."""
        result = rc4_sim.solve(2e4)
        temperatures = rc4_sim.system.solve(2e4)
        eager = [
            temperatures[rc4_sim._node_ids(k).ravel()].reshape(
                rc4_sim.nrows, rc4_sim.ncols
            )
            for k in range(rc4_sim.stack.n_layers)
        ]
        assert len(result.layer_fields) == len(eager)
        for field, expected in zip(result.layer_fields, eager):
            assert np.array_equal(field, expected)
        channels = rc4_sim.stack.channel_layer_indices()
        assert sorted(result.liquid_fields) == channels
        for k in channels:
            liquid = rc4_sim.stack.layers[k].grid.liquid
            assert np.array_equal(
                result.liquid_fields[k],
                np.where(liquid, eager[k], np.nan),
                equal_nan=True,
            )

    def test_channel_maps_hold_no_nan_and_liquid_maps_only_coolant(self, sim):
        result = sim.solve(2e4)
        for k, liquid in result.liquid_fields.items():
            assert not np.isnan(result.layer_fields[k]).any()
            mask = sim.stack.layers[k].grid.liquid
            assert np.isnan(liquid[~mask]).all()
            assert np.array_equal(liquid[mask], result.layer_fields[k][mask])


class TestCopies:
    @pytest.mark.parametrize(
        "clone",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_round_trip_keeps_fields(self, sim, clone):
        result = sim.solve(2e4)
        twin = clone(result)
        for a, b in zip(result.layer_fields, twin.layer_fields):
            assert np.array_equal(a, b, equal_nan=True)
        assert sorted(twin.liquid_fields) == sorted(result.liquid_fields)
        for k, field in result.liquid_fields.items():
            assert np.array_equal(field, twin.liquid_fields[k], equal_nan=True)
        assert twin.t_max == result.t_max
        assert twin.delta_t == result.delta_t


class TestFieldExpansions:
    def test_scoring_a_candidate_expands_nothing(self):
        case = load_case(1, grid_size=21)
        plan = case.tree_plan()
        profiling.reset()
        (cost,) = evaluate_population(
            case, plan, problem1_stages()[2], "problem1", [plan.params()],
            n_workers=1,
        )
        assert np.isfinite(cost)
        assert profiling.counter("search.probes") > 0
        assert profiling.counter("thermal.field_expansions") == 0

    def test_scoring_a_4rm_candidate_expands_nothing(self):
        """A 4RM reference evaluation reads extrema only; verifying the
        thermal result at its operating point then expands its maps once."""
        case = load_case(1, grid_size=21)
        plan = case.tree_plan()
        profiling.reset()
        (evaluation,) = score_batch(
            ReferenceContext(case, plan, "problem1"), [plan.params()], 1
        )
        assert evaluation.fidelity == "high"
        assert np.isfinite(evaluation.p_sys)
        assert profiling.counter("thermal.field_expansions") == 0
        system = CoolingSystem.for_network(
            case.base_stack(),
            plan.build(),
            case.coolant,
            model="4rm",
            inlet_temperature=case.inlet_temperature,
        )
        result = system.evaluate(evaluation.p_sys, exact=True)
        assert result.t_max == evaluation.t_max
        assert profiling.counter("thermal.field_expansions") == 0
        assert verify_thermal_result(result).ok
        assert profiling.counter("thermal.field_expansions") == 1

    def test_verification_expands_once(self):
        result = _case1_sim().solve(2e4)
        profiling.reset()
        report = verify_thermal_result(result)
        assert report.ok, report.violations
        assert profiling.counter("thermal.field_expansions") == 1
        verify_thermal_result(result)
        assert profiling.counter("thermal.field_expansions") == 1


#: A fixed probe sequence: the first pressure is the exact base, the rest
#: are answered by the pressure shift unless its residual check fails.
PROBES = [2e4, 5e3, 1e4, 3e4, 8e4, 1.5e5, 7.5e3, 2.5e4, 4e4, 6e5, 1e3]


def _baseline_sim():
    case = load_case(1, grid_size=21)
    stack = case.stack_with_network(case.baseline_network())
    return RC2Simulator(stack, case.coolant, tile_size=4)


def _probe_counts(sim, rtol):
    profiling.reset()
    with use_config(residual_rtol=rtol):
        temps = [sim.system.solve(p) for p in PROBES]
    counts = (
        profiling.counter("linalg.incremental_solves"),
        profiling.counter("linalg.incremental_fallbacks"),
    )
    return counts, temps


class TestResidualBuffer:
    def test_system_matrix_survives_later_probes(self):
        sim = _baseline_sim()
        system = sim.system
        system.solve(PROBES[0])
        matrix = system.system_matrix(PROBES[1])
        before = (matrix.data.copy(), matrix.indices.copy(), matrix.indptr.copy())
        for p in PROBES[1:]:
            system.solve(p)
        assert np.array_equal(matrix.data, before[0])
        assert np.array_equal(matrix.indices, before[1])
        assert np.array_equal(matrix.indptr, before[2])
        fresh = system.system_matrix(PROBES[1])
        assert np.array_equal(fresh.data, before[0])

    def test_default_counts_match_the_seed(self):
        """Every probe after the base is accepted, as before the buffer."""
        counts, _ = _probe_counts(_baseline_sim(), 1e-8)
        assert counts == (len(PROBES) - 1, 0)

    @pytest.mark.parametrize("rtol", [1e-14, 1e-15])
    def test_accept_decisions_match_the_fresh_operator_check(
        self, monkeypatch, rtol
    ):
        """Near the threshold the buffer must decide exactly as a fresh
        ``K + P A`` matrix does (the check before the buffer existed)."""
        counts, temps = _probe_counts(_baseline_sim(), rtol)
        sim = _baseline_sim()
        monkeypatch.setattr(
            sim.system, "_residual_operator", sim.system._operator
        )
        fresh_counts, fresh_temps = _probe_counts(sim, rtol)
        assert counts == fresh_counts
        assert sum(counts) == len(PROBES) - 1
        for a, b in zip(temps, fresh_temps):
            assert np.array_equal(a, b)
