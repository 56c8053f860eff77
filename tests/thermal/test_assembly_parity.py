"""Loop-free 2RM assembly is bitwise equal to the loops it replaced.

The references below are the sequential formulations of three assembly
steps, kept here only as oracles: the per-edge dictionary accumulation of
tile-pair advection flows, the per-tile-column complete-path count, and the
concatenated-triplet alignment of ``K`` and ``A``.  The production code
must reproduce them exactly -- same floats, same order -- or scores move.
"""

from typing import Dict, Tuple

import numpy as np
import pytest
from scipy.sparse import coo_matrix, csc_matrix

from repro.cases import generate_case
from repro.cases.generator import generate_grid
from repro.thermal import RC2Simulator, RC4Simulator
from repro.thermal.common import ADVECTION_SCHEMES, LinearThermalSystem
from repro.thermal.mesh import Tiling
from repro.thermal.rc2 import _complete_paths


def _reference_specs(sim):
    """The per-edge loop: (pair_nodes, pair_flows, node_ids, inlet, outlet)."""
    out = []
    t = sim.tiling
    for layer_index, field in zip(
        sim.stack.channel_layer_indices(), sim.flow_fields
    ):
        grid = sim.stack.layers[layer_index].grid
        cells = list(grid.liquid_cells())
        rows = np.array([r for r, _ in cells], dtype=np.int64)
        cols = np.array([c for _, c in cells], dtype=np.int64)
        cell_tile = t.row_of_cell[rows] * t.n_tile_cols + t.col_of_cell[cols]
        cell_node = sim._liquid_ids[layer_index].ravel()[cell_tile]
        unit = field.at_pressure(1.0)
        net: Dict[Tuple[int, int], float] = {}
        node_a = cell_node[unit.edge_cells[:, 0]]
        node_b = cell_node[unit.edge_cells[:, 1]]
        for a, b, q in zip(
            node_a.tolist(), node_b.tolist(), unit.edge_flows.tolist()
        ):
            if a == b:
                continue
            if a < b:
                net[(a, b)] = net.get((a, b), 0.0) + q
            else:
                net[(b, a)] = net.get((b, a), 0.0) - q
        if net:
            pair_nodes = np.array(list(net.keys()), dtype=np.int64)
            pair_flows = np.array(list(net.values()))
        else:
            pair_nodes = np.zeros((0, 2), dtype=np.int64)
            pair_flows = np.zeros(0)
        node_list = np.unique(cell_node)
        remap = {int(n): i for i, n in enumerate(node_list)}
        inlet = np.zeros(len(node_list))
        outlet = np.zeros(len(node_list))
        for cell_i, node in enumerate(cell_node.tolist()):
            inlet[remap[node]] += unit.inlet_flows[cell_i]
            outlet[remap[node]] += unit.outlet_flows[cell_i]
        out.append((pair_nodes, pair_flows, node_list, inlet, outlet))
    return out


def _reference_aligned(stiffness, advection):
    """Both matrices from one concatenated triplet list, summed by scipy."""
    k_coo = stiffness.tocoo()
    a_coo = advection.tocoo()
    rows = np.concatenate([k_coo.row, a_coo.row])
    cols = np.concatenate([k_coo.col, a_coo.col])
    k_data = np.concatenate([k_coo.data, np.zeros(a_coo.nnz)])
    a_data = np.concatenate([np.zeros(k_coo.nnz), a_coo.data])
    shape = stiffness.shape
    return (
        coo_matrix((k_data, (rows, cols)), shape=shape).tocsc(),
        coo_matrix((a_data, (rows, cols)), shape=shape).tocsc(),
    )


def _reference_paths(solid, tiling):
    """The per-tile-column loop, east-west direction."""
    east = np.zeros(tiling.shape, dtype=np.int64)
    west = np.zeros(tiling.shape, dtype=np.int64)
    for tile_col in range(tiling.n_tile_cols):
        c0 = int(tiling.col_starts[tile_col])
        c1 = int(tiling.col_starts[tile_col + 1])
        half = (c1 - c0 + 1) // 2
        east[:, tile_col] = np.add.reduceat(
            solid[:, c1 - half : c1].all(axis=1).astype(np.int64),
            tiling.row_starts[:-1],
        )
        west[:, tile_col] = np.add.reduceat(
            solid[:, c0 : c0 + half].all(axis=1).astype(np.int64),
            tiling.row_starts[:-1],
        )
    return east, west


def _bits(array):
    array = np.ascontiguousarray(array)
    return array.dtype.str, array.shape, array.tobytes()


#: (case seed, network seed, tile size): seed 3 is a 2-die grid-13 case,
#: seed 1 a 3-die grid-9 case; the networks are the adversarial
#: track-and-connector family, which splits flow across tile boundaries.
CONFIGS = [(3, 11, 4), (3, 5, 3), (1, 7, 2), (1, 2, 4)]


def _sim(case_seed, net_seed, tile, scheme):
    case = generate_case(case_seed)
    grid = generate_grid(net_seed, case.nrows, case.ncols)
    stack = case.stack_with_network(grid)
    return RC2Simulator(
        stack, case.coolant, tile_size=tile, advection_scheme=scheme
    )


@pytest.mark.parametrize("scheme", ADVECTION_SCHEMES)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "case%d-net%d-m%d" % c)
class TestBitwiseAssembly:
    def test_advection_specs_match_the_edge_loop(self, config, scheme):
        sim = _sim(*config, scheme)
        expected = _reference_specs(sim)
        got = sim._advection_specs()
        assert len(got) == len(expected) == len(sim.flow_fields)
        assert any(len(spec.pair_flows) for spec in got)
        for spec, (pairs, flows, nodes, inlet, outlet) in zip(got, expected):
            assert _bits(spec.pair_nodes) == _bits(pairs)
            assert _bits(spec.pair_flows) == _bits(flows)
            assert _bits(spec.node_ids) == _bits(nodes)
            assert _bits(spec.inlet_flows) == _bits(inlet)
            assert _bits(spec.outlet_flows) == _bits(outlet)

    def test_aligned_operator_matches_triplet_concatenation(self, config, scheme):
        system = _sim(*config, scheme).system
        k_ref, a_ref = _reference_aligned(system.stiffness, system.advection)
        k_al, a_al = system._aligned()
        for got, ref in ((k_al, k_ref), (a_al, a_ref)):
            assert _bits(got.indptr) == _bits(ref.indptr)
            assert _bits(got.indices) == _bits(ref.indices)
            assert _bits(got.data) == _bits(ref.data)


@pytest.mark.parametrize("scheme", ADVECTION_SCHEMES)
def test_rc4_aligned_operator_matches_triplet_concatenation(scheme):
    """4RM shares the alignment; with liquid conduction on, ``K`` and ``A``
    overlap off the diagonal too."""
    case = generate_case(1)
    stack = case.stack_with_network(generate_grid(7, case.nrows, case.ncols))
    system = RC4Simulator(
        stack, case.coolant, advection_scheme=scheme, liquid_conduction=True
    ).system
    k_ref, a_ref = _reference_aligned(system.stiffness, system.advection)
    for got, ref in zip(system._aligned(), (k_ref, a_ref)):
        assert _bits(got.indptr) == _bits(ref.indptr)
        assert _bits(got.indices) == _bits(ref.indices)
        assert _bits(got.data) == _bits(ref.data)


def test_alignment_keeps_signed_zeros_as_a_triplet_sum_would():
    """-0.0 survives where only one matrix has the entry, and becomes +0.0
    where both do (``-0.0 + 0.0``), exactly as in a summed COO list."""
    stiffness = csc_matrix(
        (np.array([1.0, -0.0, 1.0]), (np.array([0, 0, 1]), np.array([0, 1, 1]))),
        shape=(2, 2),
    )
    advection = csc_matrix(
        (np.array([2.0, -0.0, -0.0]), (np.array([0, 0, 1]), np.array([0, 1, 0]))),
        shape=(2, 2),
    )
    system = LinearThermalSystem(stiffness, advection, np.zeros(2), np.zeros(2))
    for got, ref in zip(
        system._aligned(), _reference_aligned(stiffness, advection)
    ):
        assert _bits(got.indices) == _bits(ref.indices)
        assert _bits(got.data) == _bits(ref.data)


def test_complete_paths_match_the_column_loop():
    rng = np.random.default_rng(4)
    for nrows, ncols, tile in [(9, 9, 4), (13, 11, 3), (10, 7, 2), (8, 8, 1)]:
        solid = rng.random((nrows, ncols)) < 0.8
        tiling = Tiling(nrows, ncols, tile)
        assert [_bits(a) for a in _complete_paths(solid, tiling, axis=1)] == [
            _bits(a) for a in _reference_paths(solid, tiling)
        ]
        flipped = Tiling(ncols, nrows, tile)
        assert [_bits(a.T) for a in _complete_paths(solid, tiling, axis=0)] == [
            _bits(a) for a in _reference_paths(solid.T, flipped)
        ]
