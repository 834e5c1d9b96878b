import csv
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tricklefair import io, simulator
from tricklefair.io import Records, read_records, write_json, write_records, write_records_csv
from tricklefair.topology import generate_random_udg, save_topology

FINITE = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and +-1.8e308 included
EXTREMES = {
    "p": [5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.ulp(0.0) * 3, -0.0],
    "k": [0, -1, 2**53 + 1, 2**63, -(2**64), 10**400, 7],
    "ci": [None, 0.0, None, 1.5, -1e308, None, 5e-324],
}


@st.composite
def columns(draw):
    """Columns of one length: finite floats, integers of any size, and floats or None."""
    n = draw(st.integers(0, 12))
    return {
        "p": draw(st.lists(FINITE, min_size=n, max_size=n)),
        "k": draw(st.lists(st.integers(-(2**80), 2**80), min_size=n, max_size=n)),
        "ci": draw(st.lists(st.none() | FINITE, min_size=n, max_size=n)),
    }


@given(columns())
@example(EXTREMES)
def test_records_read_back_with_their_ids_and_values(cols):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.json"
        write_records(path, cols, params={"runs": 3}, converged=True)
        _, records = read_records(path, ("params", "converged"), ("p",), ("k",))
    assert [rec["id"] for rec in records] == list(range(len(cols["p"])))
    for name, values in cols.items():
        # repr tells 1.0 from 1 and -0.0 from 0.0
        assert [repr(rec[name]) for rec in records] == [repr(v) for v in values], name
    assert all(rec.keys() == {"id", *cols} for rec in records)


@given(columns(), st.data())
def test_records_read_back_in_id_order_whatever_the_file_order(cols, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.json"
        write_records(path, cols, params={"runs": 3})
        _, want = read_records(path, ("params",), ("p",), ("k",))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["per_node"] = data.draw(st.permutations(doc["per_node"]))
        path.write_text(json.dumps(doc), encoding="utf-8")
        _, got = read_records(path, ("params",), ("p",), ("k",))
    assert [repr(sorted(rec.items())) for rec in got] == [repr(sorted(rec.items())) for rec in want]


@given(columns())
@example(EXTREMES)
def test_csv_rows_are_the_id_then_each_column(cols):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        write_records_csv(path, cols)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows[0] == ["id", "p", "k", "ci"]
    expected = [
        [str(i), repr(p), repr(k), "" if ci is None else repr(ci)]
        for i, (p, k, ci) in enumerate(zip(cols["p"], cols["k"], cols["ci"]))
    ]
    assert rows[1:] == expected


NUMBERS = (
    st.integers()
    | st.integers(-(2**80), 2**80)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -1e308, 2**64 + 1, -(2**70)])
)
SCALARS = st.none() | st.booleans() | NUMBERS | st.floats().map(np.float64) | st.text()
FLAT_LISTS = (
    st.lists(st.integers())
    | st.lists(st.floats())
    | st.lists(st.integers() | st.booleans())
    | st.lists(NUMBERS | st.floats().map(np.float64))
)
# One key type per dict, as json's sort_keys needs keys that compare with each other.
KEYS = [st.text(max_size=3), st.integers(), st.floats(), st.integers(-2, 2) | st.booleans(), st.none()]


@st.composite
def records(draw, children):
    """A list of dicts that share one set of string keys."""
    keys = draw(st.lists(st.text(max_size=3), max_size=4, unique=True))
    n = draw(st.integers(0, 4))
    return [{key: draw(children) for key in keys} for _ in range(n)]


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.one_of(*(st.dictionaries(keys, children, max_size=4) for keys in KEYS))
        | records(children)
        | st.lists(st.dictionaries(st.text(max_size=2), children, max_size=3), max_size=4)
    )


DOCS = st.recursive(SCALARS | FLAT_LISTS, _containers, max_leaves=25)

EDGE_DOC = {
    "floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324, 1e308, -1e308],
    "ints": [0, -1, 2**64, -(2**64) - 1, 10**40],
    "bools_in_ints": [1, True, 0, False],
    "mixed": [1, 2.5, np.float64(-0.0), np.float64(math.nan), -(2**70)],
    "numpy": [np.float64(0.1), np.float64(math.inf), np.float64(-1e308)],
    "tuples": (1, (2.5, ()), [], {}),
    "text": ["h\u00e9llo", "\u2603\n\t\"\\", "\ud800", "%s", ""],
    "keys": {1: "int", 2.5: "float", np.float64(0.5): "numpy", -(2**70): "big", True: "bool"},
    "records": [{"id": i, "x": i / 3, "y": None, "runs": [i, i + 1], "%": {}} for i in range(600)],
    "ragged": [{"id": 0}, {"id": 1, "x": 2.5}, {}, {"id": 3, "x": math.nan}],
    "empty_records": [{}, {}],
    "long": list(range(-300, 700)),
}


@settings(deadline=None)
@given(DOCS)
@example(EDGE_DOC)
def test_json_bytes_are_those_of_the_json_module(doc):
    expected = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        for batch in (io._BATCH, 1, 3):  # batch boundaries fall inside every list
            with mock.patch.object(io, "_BATCH", batch):
                write_json(path, doc)
            assert path.read_bytes() == expected, batch


@pytest.mark.parametrize("doc", [
    {1: "a", "b": 2},  # keys that do not sort together
    {None: 1, 0: 2},
    {(1, 2): "tuple key"},
    [np.int64(3)],  # not a JSON type, as for json
    {"a": [1, object()]},
])
def test_json_errors_are_type_errors_like_the_json_module(doc, tmp_path):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        write_json(tmp_path / "doc.json", doc)


@st.composite
def record_columns(draw):
    """Per-node columns of one length as the writers pass them, under some of their names."""
    n = draw(st.integers(0, 8))
    runs = draw(st.integers(0, 3))
    columns = {
        "id": range(n),
        "degree": draw(st.lists(st.integers(0, 2**70), min_size=n, max_size=n)),
        "p_tx": draw(st.lists(FINITE, min_size=n, max_size=n)),
        "x": [None] * n,
        "ci95": draw(st.lists(st.none() | FINITE, min_size=n, max_size=n)),
        "counts_per_run": draw(
            st.lists(st.lists(st.integers(0, 40), min_size=runs, max_size=runs), min_size=n, max_size=n)
        ),
        "k": tuple(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))),  # as KAssignment.k
        "100%": draw(st.lists(st.text(max_size=3), min_size=n, max_size=n)),  # a name the template escapes
    }
    names = draw(st.sets(st.sampled_from(sorted(columns))))
    return {name: columns[name] for name in names}


WIDE_COLUMNS = {
    "id": range(600),
    "degree": list(range(600)),
    "p_tx": [i / 7 for i in range(600)],
    "y": [None] * 600,
    "counts_per_run": [[i % 21] * 30 for i in range(600)],
    "k": tuple(i % 6 + 1 for i in range(600)),
}


@settings(deadline=None)
@given(record_columns())
@example(WIDE_COLUMNS)
@example({"id": range(0), "p_tx": [], "k": ()})
def test_records_bytes_are_those_of_the_same_records_as_dicts(cols):
    rows = [dict(zip(cols, row)) for row in zip(*cols.values())]
    expected = json.dumps({"params": {"runs": 3}, "per_node": rows}, indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.json"
        for batch in (io._BATCH, 1, 3):  # batch boundaries fall between rows
            with mock.patch.object(io, "_BATCH", batch):
                write_json(path, {"params": {"runs": 3}, "per_node": Records(cols)})
            assert path.read_bytes() == expected.encode("utf-8"), batch


def test_saving_a_large_topology_stays_under_a_memory_ceiling(tmp_path):
    """Node records are rendered from their columns, with no dict per node: 2000 nodes peak under 0.5 MiB traced."""
    topo = generate_random_udg(2000, 44.7, 1.22, 1)
    tracemalloc.start()
    try:
        save_topology(topo, tmp_path / "topo.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "topo.json").stat().st_size > 100_000
    assert peak < 0.5 * 2**20


def test_writing_a_large_simulation_stays_under_a_memory_ceiling(tmp_path):
    """The file is written in pieces: a 0.96 MB sim.json peaks under 2 MiB of traced memory."""
    params = simulator.TrickleParams(measured_intervals=20, runs=30)
    counts = np.random.default_rng(0).integers(0, params.measured_intervals + 1, size=(params.runs, 2000))
    mean_p, ci95 = simulator._estimate(counts, params)
    result = simulator.SimulationResult(counts=counts, mean_p=mean_p, ci95=ci95, params=params)
    tracemalloc.start()
    try:
        simulator.save_result(tmp_path / "sim.json", result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "sim.json").stat().st_size > 900_000
    assert peak < 2 * 2**20
