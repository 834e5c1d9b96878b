import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tricklefair import (
    SolverConfig,
    Topology,
    TrickleParams,
    assign_k,
    generate_grid,
    heuristic_policy,
    load_topology,
    run_steady_state,
    save_topology,
)
from tricklefair import model
from tricklefair.cli import bundled_random_topology, main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    assert run_cli("gen", "grid", "--rows", 7, "--cols", 7, "--range", 1.41422, "-o", path) == 0
    return path


def test_gen_grid_file(grid_file):
    topo = load_topology(grid_file)
    assert topo.n == 49
    assert topo.mean_degree == pytest.approx(312 / 49)


def test_gen_single_node(tmp_path):
    path = tmp_path / "one.json"
    assert run_cli("gen", "grid", "--rows", 1, "--cols", 1, "-o", path) == 0
    assert load_topology(path).n == 1


def test_gen_random_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("gen", "random", "--n", 20, "--side", 5, "--range", 1.5, "--seed", 1)
    assert run_cli(*args, "-o", a) == 0
    assert run_cli(*args, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_writes_solution_and_report(tmp_path, grid_file, capsys):
    out, out_csv = tmp_path / "sol.json", tmp_path / "sol.csv"
    code = run_cli("solve", "--topo", grid_file, "--fixed-k", 1, "-o", out, "--csv", out_csv)
    assert code == 0
    stdout = capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert len(doc["per_node"]) == 49
    rep_max = max(rec["p_tx"] for rec in doc["per_node"])
    assert f"max {rep_max:.3f}" in stdout
    assert "variance" in stdout
    rows = list(csv.reader(out_csv.read_text().splitlines()))
    assert rows[0] == ["id", "degree", "k", "p_tx", "p_f", "p_lo"]
    assert len(rows) == 50
    assert doc["manifest"]["topology"]["sha256"]


def test_solve_records_what_the_solver_did(tmp_path, grid_file, capsys):
    out = tmp_path / "sol.json"
    assert run_cli("solve", "--topo", grid_file, "--fixed-k", 1, "-o", out) == 0
    doc = json.loads(out.read_text())
    solver = doc["solver"]
    assert len(solver["defects"]) == doc["iterations"] and solver["defects"][-1] == doc["residual"]
    assert len(solver["halvings"]) == len(solver["gmres_iterations"]) == doc["iterations"] - 1
    assert f"iterations={doc['iterations']} " in capsys.readouterr().out


def test_solve_single_hop_clique(tmp_path, capsys):
    # 60 nodes in a 1 x 1 square with range 10 form a clique; the damped rule
    # that preceded Newton's method diverged here and exited 3
    topo, out = tmp_path / "clique.json", tmp_path / "sol.json"
    assert run_cli("gen", "random", "--n", 60, "--side", 1, "--range", 10, "-o", topo) == 0
    assert load_topology(topo).num_edges == 60 * 59 // 2
    assert run_cli("solve", "--topo", topo, "--fixed-k", 2, "-o", out) == 0
    assert "converged=True" in capsys.readouterr().out


def test_solve_nonconvergence_exit_code(tmp_path, grid_file):
    out = tmp_path / "sol.json"
    code = run_cli("solve", "--topo", grid_file, "--fixed-k", 1, "--max-iter", 2, "-o", out)
    assert code == 3
    assert json.loads(out.read_text())["converged"] is False


@pytest.mark.parametrize("tol", ["nan", "inf", "1", "0"])
def test_solve_tolerance_outside_unit_interval_is_usage_error(tmp_path, grid_file, capsys, tol):
    out = tmp_path / "sol.json"
    assert run_cli("solve", "--topo", grid_file, "--fixed-k", 1, "--tol", tol, "-o", out) == 2
    assert not out.exists()
    assert "tolerance must lie in (0, 1)" in capsys.readouterr().err


def test_solve_isolated_node_probability_one(tmp_path, capsys):
    topo = tmp_path / "one.json"
    run_cli("gen", "grid", "--rows", 1, "--cols", 1, "-o", topo)
    out = tmp_path / "sol.json"
    assert run_cli("solve", "--topo", topo, "--fixed-k", 3, "-o", out) == 0
    doc = json.loads(out.read_text())
    assert doc["per_node"][0]["p_tx"] == 1.0


@pytest.mark.parametrize("leaves", [69, 512, 1000])
def test_solve_large_star(tmp_path, leaves):
    topo = tmp_path / "star.json"
    save_topology(Topology.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)]), topo)
    out = tmp_path / "sol.json"
    assert run_cli("solve", "--topo", topo, "--fixed-k", 1, "-o", out) == 0
    p = [rec["p_tx"] for rec in json.loads(out.read_text())["per_node"]]
    assert len(p) == leaves + 1 and all(0.0 <= v <= 1.0 for v in p)


@pytest.mark.parametrize(
    "field, value",
    [("range", [1.5]), ("range", "1.5"), ("range", True), ("x", [0]), ("y", "1"), ("x", False)],
)
def test_solve_rejects_non_numeric_topology_fields(tmp_path, capsys, grid_file, field, value):
    doc = json.loads(grid_file.read_text())
    if field == "range":
        doc["range"] = value
    else:
        doc["nodes"][3][field] = value
    grid_file.write_text(json.dumps(doc))
    out = tmp_path / "sol.json"
    assert run_cli("solve", "--topo", grid_file, "--fixed-k", 1, "-o", out) == 4
    assert "finite number" in capsys.readouterr().err
    assert not out.exists()


def test_heuristic_policy_sets_per_node_k(tmp_path, grid_file):
    grid = load_topology(grid_file)
    sol, sim = tmp_path / "sol.json", tmp_path / "sim.json"
    assert run_cli("solve", "--topo", grid_file, "--heuristic", "--step", 3, "--offset", 2, "-o", sol) == 0
    expected = assign_k(grid, heuristic_policy(step=3, offset=2))
    doc = json.loads(sol.read_text())
    assert doc["policy"] == expected.policy == {"mode": "heuristic", "step": 3, "offset": 2}
    assert [rec["k"] for rec in doc["per_node"]] == list(expected.k)
    assert set(expected.k) == {1, 2}

    # the simulation file has no per-node k: its counts show which K each node ran with
    assert run_cli("simulate", "--topo", grid_file, "--heuristic", "--runs", 3, "--intervals", 4, "-o", sim) == 0
    expected = assign_k(grid, heuristic_policy())
    doc = json.loads(sim.read_text())
    assert doc["policy"] == expected.policy == {"mode": "heuristic", "step": 3, "offset": 0}
    result = run_steady_state(grid, expected, TrickleParams(measured_intervals=4, runs=3))
    assert [rec["counts_per_run"] for rec in doc["per_node"]] == result.counts.T.tolist()


def test_simulate_defaults_and_determinism(tmp_path, grid_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("simulate", "--topo", grid_file, "--fixed-k", 2, "--seed", 42)
    assert run_cli(*args, "-o", a) == 0
    assert run_cli(*args, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["params"] == {
        "measured_intervals": 10,
        "warmup_intervals": 2,
        "runs": 30,
        "base_seed": 42,
    }


def test_simulate_single_run_has_null_ci(tmp_path, grid_file):
    out, out_csv = tmp_path / "sim.json", tmp_path / "sim.csv"
    assert run_cli("simulate", "--topo", grid_file, "--fixed-k", 1, "--runs", 1, "-o", out, "--csv", out_csv) == 0
    doc = json.loads(out.read_text())
    assert all(rec["ci95"] is None for rec in doc["per_node"])
    assert all(0.0 <= rec["mean_p"] <= 1.0 for rec in doc["per_node"])
    rows = list(csv.reader(out_csv.read_text().splitlines()))
    assert rows[0] == ["id", "mean_p", "ci95"] and len(rows) == 50
    assert all(row[2] == "" for row in rows[1:])  # no ci95, not the text None


def test_compare_pipeline(tmp_path, grid_file, capsys):
    sol, sim, cmp_csv = tmp_path / "sol.json", tmp_path / "sim.json", tmp_path / "cmp.csv"
    run_cli("solve", "--topo", grid_file, "--fixed-k", 2, "-o", sol)
    run_cli("simulate", "--topo", grid_file, "--fixed-k", 2, "--intervals", 5, "--runs", 5, "-o", sim)
    capsys.readouterr()
    assert run_cli("compare", "--model", sol, "--sim", sim, "-o", cmp_csv) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("variance") == 2  # one fairness line per source
    rows = list(csv.reader(cmp_csv.read_text().splitlines()))
    assert len(rows) == 50
    assert rows[0] == ["id", "degree", "k", "p_model", "p_sim", "abs_diff"]


def test_compare_rejects_node_count_mismatch(tmp_path, grid_file, capsys):
    one = tmp_path / "one.json"
    run_cli("gen", "grid", "--rows", 1, "--cols", 1, "-o", one)
    sol, sim = tmp_path / "sol.json", tmp_path / "sim.json"
    run_cli("solve", "--topo", grid_file, "--fixed-k", 1, "-o", sol)
    run_cli("simulate", "--topo", one, "--fixed-k", 1, "--runs", 2, "-o", sim)
    capsys.readouterr()
    out = tmp_path / "c.csv"
    assert run_cli("compare", "--model", sol, "--sim", sim, "-o", out) == 2
    assert "model has 49 nodes, simulation 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "which, mutate, message",
    [
        ("model", lambda doc: doc["per_node"][0].pop("p_tx"), "node 0: field 'p_tx' must be a finite number"),
        ("model", lambda doc: doc["per_node"][3].pop("id"), "every node record needs an 'id' field"),
        ("model", lambda doc: doc.update(per_node=5), "field 'per_node' must be a list of objects"),
        ("model", lambda doc: doc["per_node"][1].update(id=True), "node id True is not an integer"),  # True == 1
        ("sim", lambda doc: doc["per_node"][1].update(id=49), "node ids must be exactly 0..48"),
        ("sim", lambda doc: doc["per_node"][5].update(id=2), "duplicate node id 2"),
        ("sim", lambda doc: doc["per_node"][2].update(mean_p=None), "node 2: field 'mean_p' must be a finite number"),
        ("model", lambda doc: doc["per_node"][4].update(p_tx=10**400), "node 4: field 'p_tx' must be a finite number"),
    ],
    ids=[
        "no-p_tx", "no-id", "per_node-not-a-list", "boolean-id", "ids-not-dense", "duplicate-id", "null-mean_p", "huge-p_tx"
    ],
)
def test_compare_rejects_malformed_records(tmp_path, grid_file, capsys, which, mutate, message):
    files = {"model": tmp_path / "sol.json", "sim": tmp_path / "sim.json"}
    run_cli("solve", "--topo", grid_file, "--fixed-k", 2, "-o", files["model"])
    run_cli("simulate", "--topo", grid_file, "--fixed-k", 2, "--runs", 2, "--intervals", 2, "-o", files["sim"])
    doc = json.loads(files[which].read_text())
    mutate(doc)
    files[which].write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "cmp.csv"
    assert run_cli("compare", "--model", files["model"], "--sim", files["sim"], "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("degree", 2.7), ("k", 1.5), ("degree", 3.0), ("k", True)])
def test_compare_rejects_non_integer_degree_and_k(tmp_path, grid_file, capsys, field, value):
    # the comparison CSV writes degree and k as given, so a fraction must not reach it
    sol, sim, out = tmp_path / "sol.json", tmp_path / "sim.json", tmp_path / "cmp.csv"
    run_cli("solve", "--topo", grid_file, "--fixed-k", 2, "-o", sol)
    run_cli("simulate", "--topo", grid_file, "--fixed-k", 2, "--runs", 2, "--intervals", 2, "-o", sim)
    doc = json.loads(sol.read_text())
    doc["per_node"][7][field] = value
    sol.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("compare", "--model", sol, "--sim", sim, "-o", out) == 2
    assert f"node 7: field {field!r} must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(("grid", "--rows", 3, "--cols", 3, "--range", "nan"), "radio range", id="nan"),
        pytest.param(("grid", "--rows", 3, "--cols", 3, "--range", "inf"), "radio range", id="inf"),
        pytest.param(("random", "--n", 5, "--side", "nan", "--range", 1.5), "side", id="side-nan"),
        pytest.param(("random", "--n", 5, "--side", "inf", "--range", 1.5), "side", id="side-inf"),
    ],
)
def test_gen_rejects_non_finite_range(tmp_path, capsys, args, message):
    out = tmp_path / "topo.json"
    assert run_cli("gen", *args, "-o", out) == 4
    assert f"{message} must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "spacing, message",
    [("inf", "spacing must be positive and finite"), (1e308, "positions must be finite")],
    ids=["inf", "overflow"],
)
def test_gen_grid_rejects_a_spacing_past_the_doubles(tmp_path, capsys, spacing, message):
    # under filterwarnings = error a numpy warning would escape main as a traceback
    out = tmp_path / "topo.json"
    assert run_cli("gen", "grid", "--rows", 3, "--cols", 3, "--spacing", spacing, "--range", 1.5, "-o", out) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_gen_grid_with_huge_spacing_writes_true_edges(tmp_path, capsys):
    # the diagonals' squared length, 2e400, overflows a double; it must not pass the range test
    out = tmp_path / "huge.json"
    assert run_cli("gen", "grid", "--rows", 2, "--cols", 2, "--spacing", 1e200, "--range", 1e200, "-o", out) == 0
    assert load_topology(out).edges == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert "Warning" not in capsys.readouterr().err


# 100,000 levels overflow the JSON decoder's recursion guard; every file must hold an object
UNREADABLE_JSON = {
    "deeply-nested": b"[" * 100_000 + b"]" * 100_000,
    "not-utf8": b'{"nodes": "\xff"}',
    "top-level-array": b"[]",
}


@pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
def test_unreadable_topology_is_io_error(tmp_path, capsys, content):
    topo = tmp_path / "topo.json"
    topo.write_bytes(content)
    assert run_cli("solve", "--topo", topo, "--fixed-k", 1, "-o", tmp_path / "sol.json") == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {topo}: ") and "Traceback" not in err


@pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
def test_unreadable_records_are_usage_error(tmp_path, capsys, content):
    records = tmp_path / "records.json"
    records.write_bytes(content)
    assert run_cli("compare", "--model", records, "--sim", records, "-o", tmp_path / "c.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {records}: ") and "Traceback" not in err


def test_missing_topology_file_is_io_error(tmp_path):
    code = run_cli("solve", "--topo", tmp_path / "absent.json", "--fixed-k", 1, "-o", tmp_path / "s.json")
    assert code == 4


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--topo", "x.json", "-o", "y.json")  # no K policy
    assert exc.value.code == 2


def test_bundled_topology_density():
    topo = bundled_random_topology()
    assert topo.n == 49
    assert topo.mean_degree == pytest.approx(3.92, abs=0.01)


def test_reproduce_heuristic_table(tmp_path, capsys):
    out = tmp_path / "t3"
    assert run_cli("reproduce", "--table", 3, "--out", out, "--runs", 4, "--intervals", 5) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    for name in manifest["outputs"]:
        assert (out / name).exists(), name
    rep = manifest["fairness"]["offset2_step3"]
    assert set(rep) == {"model", "sim"}
    assert 0.0 <= rep["model"]["variance"] <= 1.0
    rows = list(csv.reader((out / "table3.csv").read_text().splitlines()))
    assert [r[0] for r in rows] == [
        "statistic",
        "average_message_count",
        "max_probability",
        "min_probability",
        "variance",
    ]
    assert len(rows[0]) == 1 + 4  # statistic + model/sim for two configurations
    # roll-up repeats the solution file contents
    model_doc = json.loads((out / "model_offset2_step3.json").read_text())
    msgs = sum(rec["p_tx"] for rec in model_doc["per_node"])
    assert float(rows[1][1]) == pytest.approx(msgs, abs=1e-12)
    # written by csv.writer like every other CSV file: CRLF line ends and
    # floats with the digits that read back to the manifest's values
    raw = (out / "table3.csv").read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n") == 5
    fields = {
        "average_message_count": "message_count",
        "max_probability": "max_p",
        "min_probability": "min_p",
        "variance": "variance",
    }
    for column, name in enumerate(rows[0][1:], start=1):
        source, label = name.split("_", 1)
        report = manifest["fairness"][label][source]
        assert [float(r[column]) for r in rows[1:]] == [report[fields[r[0]]] for r in rows[1:]]
    stdout = capsys.readouterr().out
    assert "average_message_count" in stdout


def test_reproduce_fixed_k_table_light(tmp_path):
    out = tmp_path / "t1"
    assert run_cli("reproduce", "--table", 1, "--out", out, "--runs", 2, "--intervals", 2) == 0
    for k in range(1, 7):
        assert (out / f"model_k{k}.json").exists()
        assert (out / f"sim_k{k}.json").exists()
    rows = list(csv.reader((out / "table1.csv").read_text().splitlines()))
    assert len(rows[0]) == 1 + 12  # statistic + model/sim per K
    assert [r[0] for r in rows][1:] == ["max_probability", "min_probability", "variance"]


def test_reproduce_random_table_uses_bundled_topology(tmp_path):
    out = tmp_path / "t2"
    assert run_cli("reproduce", "--table", 2, "--out", out, "--runs", 2, "--intervals", 2) == 0
    topo = load_topology(out / "random49.json")
    assert topo.mean_degree == pytest.approx(3.92, abs=0.01)


def test_reproduce_stops_at_the_first_configuration_that_does_not_converge(tmp_path, capsys, monkeypatch):
    solve = model.solve_fixed_point
    for failing_k in (1, 3):
        def solve_failing_k(topo, ka):
            return solve(topo, ka, SolverConfig(max_iterations=1) if ka.k[0] == failing_k else SolverConfig())

        monkeypatch.setattr(model, "solve_fixed_point", solve_failing_k)
        out = tmp_path / f"fail_k{failing_k}"
        assert run_cli("reproduce", "--table", 1, "--out", out, "--runs", 2, "--intervals", 2) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == f"configuration k{failing_k} did not converge"
        for k in range(1, failing_k + 1):
            assert json.loads((out / f"model_k{k}.json").read_text())["converged"] is (k < failing_k)
        assert not (out / f"model_k{failing_k + 1}.json").exists()
        # nothing is simulated unless every configuration converged
        assert not list(out.glob("sim_*"))
        assert "fairness" not in manifest
        assert f"error: configuration k{failing_k} did not converge" in capsys.readouterr().err


def test_reproduce_refuses_nonempty_dir(tmp_path):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "keep.txt").write_text("data")
    assert run_cli("reproduce", "--table", 3, "--out", out, "--runs", 2, "--intervals", 2) == 2
    assert run_cli("reproduce", "--table", 3, "--out", out, "--runs", 2, "--intervals", 2, "--force") == 0


def test_negative_seed_is_usage_error_and_writes_nothing(tmp_path, grid_file, capsys):
    sim = tmp_path / "sim.json"
    assert run_cli("simulate", "--topo", grid_file, "--fixed-k", 1, "--seed", -3, "-o", sim) == 2
    assert not sim.exists()
    out = tmp_path / "t1"
    assert run_cli("reproduce", "--table", 1, "--out", out, "--seed", -3) == 2
    assert not out.exists()
    assert "base_seed must be an integer >= 0" in capsys.readouterr().err


# floats for CLI options and topology fields: nan, +-inf, negatives and any other double
_floats = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0]) | st.floats() | st.integers(-3, 10)
_scalars = st.none() | st.booleans() | st.integers(-3, 40) | _floats | st.text(max_size=2)


@st.composite
def _topology_docs(draw):
    n = draw(st.integers(0, 30))
    coords = _floats | st.none()
    nodes = []
    for i in range(n):
        # mostly the dense id i, sometimes one out of range or not an integer
        node_id = draw(st.sampled_from([i, i, i, -1, n]) | _scalars)
        nodes.append({"id": node_id, "x": draw(coords), "y": draw(coords)})
    edges = st.lists(st.lists(st.integers(-1, 31) | _scalars, min_size=1, max_size=3), max_size=40)
    doc = {"nodes": nodes, "range": draw(_scalars), "edges": draw(st.none() | edges | _scalars)}
    return json.dumps(doc).encode()


_topology_files = st.one_of(
    _topology_docs(),
    st.integers(1, 100_000).map(lambda depth: b"[" * depth + b"]" * depth),
    st.binary(max_size=40),
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.tuples(st.just("grid"), st.integers(-1, 6), st.integers(-1, 6), _floats, _floats),
        st.tuples(st.just("random"), st.integers(-1, 30), _floats, _floats, st.integers(-1, 2**64)),
        st.tuples(st.just("topology"), _topology_files),
    )
)
def test_cli_fuzz_exits_with_documented_code(case):
    # A bad topology is exit 4 and a bad record file exit 2; only a negative
    # seed is a usage error for gen. --opt=value keeps -inf from reading as an option.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        if case[0] == "grid":
            _, rows, cols, spacing, radio_range = case
            argv = ["gen", "grid", f"--rows={rows}", f"--cols={cols}", f"--spacing={spacing}", f"--range={radio_range}"]
            codes = {0, 4}
        elif case[0] == "random":
            _, n, side, radio_range, seed = case
            argv = ["gen", "random", f"--n={n}", f"--side={side}", f"--range={radio_range}", f"--seed={seed}"]
            codes = {0, 4} if seed >= 0 else {2, 4}
        else:
            topo = Path(tmp) / "topo.json"
            topo.write_bytes(case[1])
            assert main(["compare", f"--model={topo}", f"--sim={topo}", f"--output={out}"]) == 2
            argv, codes = ["solve", f"--topo={topo}", "--fixed-k=1"], {0, 3, 4}
        assert main([*argv, f"--output={out}"]) in codes


# policy and seed values: small, zero, negative and past the int64 range
_policy_ints = st.sampled_from([0, -1, -(2**63) - 1, 2**63, 2**64 + 1]) | st.integers(-2, 5)
# run sizes stay tiny, so no example allocates more than a few intervals
_run_ints = st.sampled_from([-1, 0, 1, 2, 3])


@st.composite
def _policy_argv(draw):
    """Policy options and whether the library accepts them."""
    if draw(st.booleans()):
        k = draw(_policy_ints)
        return [f"--fixed-k={k}"], k >= 1
    step, offset = draw(_policy_ints), draw(_policy_ints)
    return ["--heuristic", f"--step={step}", f"--offset={offset}"], step >= 1 and offset >= 0


def _run_main(argv):
    """main's exit code and stderr; an uncaught exception fails the example."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["solve", "simulate"]), _policy_argv(), _policy_ints, _run_ints, _run_ints, _run_ints)
def test_cli_fuzz_policy_and_run_arguments(command, policy, seed, runs, intervals, warmup):
    # a K past int64 solves like any K > y; every rejected value is exit 2
    policy_argv, valid = policy
    with tempfile.TemporaryDirectory() as tmp:
        topo = Path(tmp) / "grid.json"
        save_topology(generate_grid(3, 3, 1.0, math.sqrt(2.0)), topo)
        argv = [command, f"--topo={topo}", *policy_argv, f"--output={Path(tmp) / 'out.json'}"]
        if command == "simulate":
            argv += [f"--seed={seed}", f"--runs={runs}", f"--intervals={intervals}", f"--warmup={warmup}"]
            valid = valid and seed >= 0 and runs >= 1 and intervals >= 1 and warmup >= 0
        code, err = _run_main(argv)
    assert code == (0 if valid else 2)
    assert "Traceback" not in err
    assert err == "" if valid else err.startswith("error: ")


@settings(max_examples=7, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1, 2, 3]), _policy_ints, _run_ints, _run_ints)
@example(1, 2**63, 1, 1)  # every table completes once, at a seed past int64
@example(2, 2**64 + 1, 2, 1)
@example(3, 0, 3, 2)
def test_cli_fuzz_reproduce_arguments(table, seed, runs, intervals):
    valid = seed >= 0 and runs >= 1 and intervals >= 1
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["reproduce", f"--table={table}", f"--out={Path(tmp) / 'out'}"]
        code, err = _run_main([*argv, f"--seed={seed}", f"--runs={runs}", f"--intervals={intervals}"])
    assert code == (0 if valid else 2)
    assert "Traceback" not in err
    assert err == "" if valid else err.startswith("error: ")


# Each request is petabytes, past the 128 TiB user address space, so it
# fails at allocation whatever the overcommit setting and commits nothing.
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--fixed-k=1", "--intervals=1000000000000", "--output=s.json"],
        ["gen", "random", "--n=100000000000000", "--side=10", "--range=1", "--output=r.json"],
        ["reproduce", "--table=1", "--intervals=1000000000000", "--out=rep"],
        ["gen", "grid", "--rows=100000000", "--cols=100000000", "--output=g.json"],
        ["simulate", "--fixed-k=1", "--runs=1000000000000", "--output=s.json"],  # the counts mapping
        ["simulate", "--fixed-k=1", "--runs=1000000000000000000", "--output=s.json"],  # past 2**63 bytes
    ],
)
def test_request_too_large_for_memory_is_exit_2(tmp_path, grid_file, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "simulate":
        argv = [*argv, f"--topo={grid_file}"]
    code, err = _run_main(argv)
    assert code == 2
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if argv[0] == "reproduce":
        manifest = json.loads((tmp_path / "rep" / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"]
    if argv[0] in ("simulate", "reproduce"):  # every forked span of runs is reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_reproduce_io_error_is_exit_4_and_marks_the_manifest_failed(tmp_path):
    out = tmp_path / "t1"
    (out / "model_k1.json").mkdir(parents=True)  # the solution file cannot be opened for writing
    code, err = _run_main(["reproduce", "--table=1", f"--out={out}", "--force", "--runs=2", "--intervals=2"])
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1 and "model_k1.json" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed" and "model_k1.json" in manifest["error"]


def test_solve_accepts_k_past_int64(tmp_path, grid_file, capsys):
    # every K > y acts as K = y + 1 in the model; the files keep the K given
    huge = 2**63
    out, out_csv = tmp_path / "sol.json", tmp_path / "sol.csv"
    assert run_cli("solve", "--topo", grid_file, "--fixed-k", huge, "-o", out, "--csv", out_csv) == 0
    assert capsys.readouterr().err == ""
    records = json.loads(out.read_text())["per_node"]
    assert len(records) == 49
    assert all(rec["p_tx"] == 1.0 and rec["k"] == huge for rec in records)
    with open(out_csv, newline="") as fh:
        assert {row["k"] for row in csv.DictReader(fh)} == {str(huge)}
