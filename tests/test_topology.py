import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tricklefair import (
    Topology,
    TopologyError,
    generate_grid,
    generate_random_udg,
    load_topology,
    save_topology,
)

from tricklefair._rng import uniform
from tricklefair.cli import main

from oracles import unit_disk_neighbors
from strategies import small_networks

# ranges scaled by these units take the rescaled path; a power of two scales exactly
EXTREME_UNITS = (2.0**600, 2.0**-600)


@st.composite
def layouts(draw):
    """(positions, radio_range) on a lattice (duplicate points, equal x, pairs exactly at the range) or off it."""
    unit = draw(st.sampled_from([1.0, 0.3, 2.0**-20, *EXTREME_UNITS]))
    coord = st.integers(-6, 6).map(lambda v: v * unit) | st.floats(-6 * unit, 6 * unit)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    # 1, sqrt(2) and 5 are exact lattice distances (5 from a 3-4-5 triangle)
    radio_range = unit * draw(st.sampled_from([1.0, math.sqrt(2.0), 5.0]) | st.floats(0.01, 8.0))
    return positions, radio_range


def test_grid_7x7_matches_reference_density(grid):
    assert grid.n == 49
    assert Counter(grid.degrees.tolist()) == {3: 4, 5: 20, 8: 25}
    assert grid.mean_degree == pytest.approx(312 / 49)


def test_grid_single_node():
    t = generate_grid(1, 1, 1.0, 1.0)
    assert t.n == 1
    assert t.num_edges == 0
    assert t.neighbor_lists[0] == ()


def test_grid_2x2_without_diagonals():
    # all 6 pairs by hand: four sides at distance 1, two diagonals at sqrt(2) > 1
    t = generate_grid(2, 2, 1.0, 1.0)
    assert t.n == 4
    assert t.edges == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_grid_range_boundary_is_inclusive():
    # spacing exactly equal to the range keeps the edge despite rounding
    t = generate_grid(1, 2, 0.3, 0.3)
    assert t.edges == [(0, 1)]


def test_grid_row_major_positions():
    t = generate_grid(2, 3, 2.0, 2.0)
    assert t.positions[0].tolist() == [0.0, 0.0]
    assert t.positions[1].tolist() == [0.0, 2.0]
    assert t.positions[3].tolist() == [2.0, 0.0]


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, -1), (2.5, 3), (3, 3.0), ("3", 3), (True, 3)])
def test_grid_rows_and_cols_must_be_positive_integers(rows, cols):
    with pytest.raises(TopologyError, match="rows and cols must be positive integers"):
        generate_grid(rows, cols)


@pytest.mark.parametrize("n", [0, 2.5, True, "3"])
def test_random_udg_node_count_must_be_a_positive_integer(n):
    with pytest.raises(TopologyError, match="n must be a positive integer"):
        generate_random_udg(n, 5.0, 1.3, seed=4)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_random_udg_seed_must_be_a_non_negative_integer(seed):
    # a ValueError, not a TopologyError: the CLI reads it as a usage error (exit 2)
    with pytest.raises(ValueError, match="seed must be an integer >= 0") as excinfo:
        generate_random_udg(5, 5.0, 1.3, seed=seed)
    assert not isinstance(excinfo.value, TopologyError)


def test_random_udg_is_deterministic():
    a = generate_random_udg(30, 5.0, 1.3, seed=4)
    b = generate_random_udg(30, 5.0, 1.3, seed=4)
    c = generate_random_udg(30, 5.0, 1.3, seed=5)
    assert a == b
    assert a != c


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70]) | st.integers(0, 2**70),
    st.sampled_from([1, 2, 512, 513, 1024, 1025, 5000]) | st.integers(1, 5000),
    st.sampled_from([5e-324, 1e-300, 44.7, 1e308]) | st.floats(min_value=5e-324, max_value=1e308),
)
def test_random_positions_equal_default_rng_uniform(seed, n, side):
    # drawn in blocks of _rng._BLOCK states, in numpy's order 0.0 + side *
    # random(): side * raw * 2**-53 would overflow at side = 1e308
    want = np.random.default_rng(seed).uniform(0.0, side, (n, 2))
    assert uniform(seed, side, (n, 2)).tobytes() == want.tobytes()


def test_random_udg_places_nodes_by_default_rng_uniform():
    t = generate_random_udg(300, 44.7, 1.22, 2**64 + 3)
    assert t.positions.tobytes() == np.random.default_rng(2**64 + 3).uniform(0.0, 44.7, (300, 2)).tobytes()


def test_random_udg_single_node():
    t = generate_random_udg(1, 10.0, 1.0, seed=0)
    assert t.n == 1 and t.num_edges == 0


def test_random_udg_range_dominates_area():
    # unit square has diameter sqrt(2) < 2, so any two nodes are linked
    t = generate_random_udg(2, 1.0, 2.0, seed=3)
    assert t.edges == [(0, 1)]


def test_adjacency_symmetric_and_irreflexive():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 15))
        edges = [
            (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(int(rng.integers(0, 25)))
        ]
        edges = [(i, j) for i, j in edges if i != j]
        t = Topology.from_edges(n, edges)
        for i in range(n):
            assert i not in t.neighbor_lists[i]
            for j in t.neighbor_lists[i]:
                assert i in t.neighbor_lists[j]


def test_from_edges_rejects_bad_input():
    with pytest.raises(TopologyError):
        Topology.from_edges(3, [(0, 0)])
    with pytest.raises(TopologyError):
        Topology.from_edges(3, [(0, 3)])
    with pytest.raises(TopologyError):
        Topology.from_edges(0, [])
    # n is an integer >= 1 and each edge a pair of integers, as in a topology file
    for n, edges in ((3, [(0, 1.5)]), (3, [(0, True)]), (3, [("0", "2")]), (3, [(0, 1, 7)]), (3, [(0,)]), (2.5, [])):
        with pytest.raises(TopologyError, match="pair of integers|positive integer"):
            Topology.from_edges(n, edges)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Topology.from_positions(np.zeros((3, 3)), 1.0), r"positions must be an \(N, 2\) array"),
        (lambda: Topology.from_positions([0.0, 1.0], 1.0), r"positions must be an \(N, 2\) array"),
        (lambda: Topology.from_edges(3, [(0, 1)], np.zeros((2, 2))), "got 2 positions for 3 nodes"),
        (lambda: Topology.from_positions(np.zeros((0, 2)), 1.0), "at least one node"),
        (lambda: Topology.from_positions([[0.0, 0.0], [math.nan, 1.0]], 1.0), "positions must be finite"),
    ],
    ids=["three-columns", "one-dimensional", "count-not-n", "no-nodes", "nan"],
)
def test_positions_are_checked(build, message):
    with pytest.raises(TopologyError, match=message):
        build()


def test_save_load_round_trip_grid(grid, tmp_path):
    path = tmp_path / "grid.json"
    save_topology(grid, path)
    again = load_topology(path)
    assert again == grid
    assert again.neighbor_lists == grid.neighbor_lists
    assert again.radio_range == grid.radio_range


def test_save_load_round_trip_edge_mode(tmp_path):
    t = Topology.from_edges(4, [(0, 1), (1, 2), (0, 3)])
    path = tmp_path / "edges.json"
    save_topology(t, path)
    again = load_topology(path)
    assert again == t
    assert again.positions is None


def test_load_normalizes_one_sided_edges(tmp_path):
    doc = {
        "nodes": [{"id": 0}, {"id": 1}],
        "range": None,
        "edges": [[1, 0], [1, 0]],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    t = load_topology(path)
    assert t.neighbor_lists[0] == (1,)
    assert t.neighbor_lists[1] == (0,)


def test_load_rejects_duplicate_id(tmp_path):
    doc = {"nodes": [{"id": 0}, {"id": 0}], "range": None, "edges": []}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match="duplicate node id"):
        load_topology(path)


def test_load_rejects_non_dense_ids(tmp_path):
    doc = {"nodes": [{"id": 0}, {"id": 2}], "range": None, "edges": []}
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match="ids must be exactly"):
        load_topology(path)


def test_load_requires_exactly_one_mode(tmp_path):
    base = [{"id": 0, "x": 0.0, "y": 0.0}]
    for extra in ({"range": 1.0, "edges": []}, {"range": None, "edges": None}):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"nodes": base, **extra}))
        with pytest.raises(TopologyError, match="exactly one"):
            load_topology(path)


def test_load_reports_json_error_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"nodes": [,]}')
    with pytest.raises(TopologyError, match=r"line 1 column"):
        load_topology(path)


def test_load_rejects_partial_positions(tmp_path):
    doc = {
        "nodes": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1}],
        "range": None,
        "edges": [[0, 1]],
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match="all nodes or for none"):
        load_topology(path)


def test_load_rejects_one_sided_coordinate(tmp_path):
    doc = {"nodes": [{"id": 0, "x": 1.0}], "range": None, "edges": []}
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match="only one of"):
        load_topology(path)


@pytest.mark.parametrize("radio_range", [math.nan, math.inf, -1.0])
def test_rejects_non_positive_or_non_finite_range(tmp_path, radio_range):
    positions = [[0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(TopologyError, match="positive and finite"):
        Topology.from_positions(positions, radio_range)
    nodes = [{"id": i, "x": x, "y": y} for i, (x, y) in enumerate(positions)]
    doc = {"nodes": nodes, "range": radio_range, "edges": None}
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc))  # writes NaN / Infinity literals
    with pytest.raises(TopologyError, match="positive and finite"):
        load_topology(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("range", [1.5], "'range' must be a positive and finite number"),
        ("range", "1.5", "'range' must be a positive and finite number"),
        ("range", True, "'range' must be a positive and finite number"),
        ("range", 10**400, "'range' must be a positive and finite number"),
        ("x", [0], "'x' and 'y' must be finite numbers"),
        ("y", "1", "'x' and 'y' must be finite numbers"),
        ("x", True, "'x' and 'y' must be finite numbers"),
        ("y", math.inf, "'x' and 'y' must be finite numbers"),
        ("x", 10**400, "'x' and 'y' must be finite numbers"),
    ],
)
def test_load_requires_json_numbers(tmp_path, field, value, message):
    doc = {"nodes": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": 1, "y": 0}], "range": 1.5, "edges": None}
    if field == "range":
        doc["range"] = value
    else:
        doc["nodes"][1][field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match=message):
        load_topology(path)


def test_load_rejects_boolean_id(tmp_path):
    doc = {"nodes": [{"id": 0}, {"id": True}], "range": None, "edges": []}
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match="is not an integer"):
        load_topology(path)


@pytest.mark.parametrize("edge", [[0.9, 1.7], [True, 2], [0, "1"]])
def test_load_rejects_non_integer_edge_endpoints(tmp_path, edge):
    doc = {"nodes": [{"id": 0}, {"id": 1}, {"id": 2}], "range": None, "edges": [[0, 2], edge]}
    path = tmp_path / "edges.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match="pair of integers"):
        load_topology(path)


@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        ([{"id": 0}, {"x": None, "y": None}], [], "every node record needs an 'id' field"),
        ([{"id": 0}, {"id": 1}], {"0": 1}, "field 'edges' must be a list of"),
        ([{"id": 0}, {"id": 1}], [[0, 1], [1, 1]], r"edge \[1, 1\] is a self loop"),
    ],
    ids=["node-without-id", "edges-not-a-list", "self-loop"],
)
def test_load_errors_name_the_file(tmp_path, nodes, edges, message):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"nodes": nodes, "range": None, "edges": edges}))
    with pytest.raises(TopologyError, match=message) as exc:
        load_topology(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"nodes": [], "range": None, "edges": []}, "field 'nodes' must be a non-empty list"),
        ({"nodes": [], "range": 1.0, "edges": None}, "field 'nodes' must be a non-empty list"),
        ({"range": None, "edges": []}, "missing field 'nodes'"),
    ],
    ids=["empty-edge-mode", "empty-range-mode", "no-nodes"],
)
def test_load_needs_nodes(tmp_path, doc, message):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match=message) as exc:
        load_topology(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert main(["solve", "--topo", str(path), "--fixed-k", "1", "-o", str(tmp_path / "sol.json")]) == 4


def test_range_mode_needs_positions(tmp_path):
    doc = {"nodes": [{"id": 0}, {"id": 1}], "range": 1.0, "edges": None}
    path = tmp_path / "nopos.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TopologyError, match="requires node positions"):
        load_topology(path)


def test_diagonal_inclusion_under_sqrt2():
    # sqrt(2) as a literal radius must include the diagonal of a unit cell
    t = generate_grid(2, 2, 1.0, math.sqrt(2.0))
    assert t.num_edges == 6


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(layouts())
def test_from_positions_matches_unit_disk_oracle(layout):
    positions, radio_range = layout
    # the oracle squares the range as given, so an extreme layout is compared rescaled exactly
    scale = next((1.0 / u for u in EXTREME_UNITS if u / 100 <= radio_range <= u * 8), 1.0)
    want = unit_disk_neighbors(np.array(positions) * scale, radio_range * scale)
    assert Topology.from_positions(positions, radio_range).neighbor_lists == want


@pytest.mark.parametrize("n, side, radio_range, seed", [(200, 8.0, 1.6, 1), (700, 26.5, 1.6, 3), (2000, 44.7, 1.22, 7)])
def test_random_udg_matches_unit_disk_oracle(n, side, radio_range, seed):
    t = generate_random_udg(n, side, radio_range, seed)
    assert t.neighbor_lists == unit_disk_neighbors(t.positions, radio_range)


def test_from_positions_duplicates_and_equal_x():
    # three copies of the origin, a column of equal x with (0, 5) exactly at the
    # range and (0, 5.5) beyond it, and a 3-4-5 pair exactly at the range
    t = Topology.from_positions([[0, 0], [0, 0], [0, 0], [0, 5], [3, 4], [0, 5.5]], 5.0)
    want = ((1, 2, 3, 4), (0, 2, 3, 4), (0, 1, 3, 4), (0, 1, 2, 4, 5), (0, 1, 2, 3, 5), (3, 4))
    assert t.neighbor_lists == want


def test_from_positions_extreme_magnitudes():
    # squared differences past 1.8e308 must neither link nor warn (warnings are errors here)
    t = Topology.from_positions([[1e308, 0.0], [-1e308, 0.0], [1e308, 1.0]], 2.0)
    assert t.edges == [(0, 2)]
    # a tiny range's square must not underflow to a limit that links pairs beyond it
    for radio_range in (1e-160, 1e-300):
        positions = [[x * radio_range, 0.0] for x in (0.0, 1.0, 1.5, 3.0)]
        assert Topology.from_positions(positions, radio_range).edges == [(0, 1), (1, 2)]


@st.composite
def topologies(draw):
    """A unit-disk topology from layouts(), or an edge-list one with or without positions."""
    if draw(st.booleans()):
        return Topology.from_positions(*draw(layouts()))
    topo, _ = draw(small_networks())
    coord = st.floats(allow_nan=False, allow_infinity=False)
    positions = draw(st.none() | st.lists(st.tuples(coord, coord), min_size=topo.n, max_size=topo.n))
    return Topology.from_edges(topo.n, topo.edges, positions)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(topologies())
def test_save_load_round_trip(topo):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "topo.json"
        save_topology(topo, path)
        assert load_topology(path) == topo


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(topologies(), st.data())
def test_load_ignores_the_order_of_node_records(topo, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "topo.json"
        save_topology(topo, path)
        doc = json.loads(path.read_text())
        doc["nodes"] = data.draw(st.permutations(doc["nodes"]))
        path.write_text(json.dumps(doc))
        assert load_topology(path) == topo
