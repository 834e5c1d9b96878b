import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tricklefair
from tricklefair.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_API = {
    "Comparison",
    "FairnessReport",
    "KAssignment",
    "ModelSolution",
    "SimulationResult",
    "SolverConfig",
    "Topology",
    "TopologyError",
    "TrickleParams",
    "assign_k",
    "class_means",
    "compare",
    "export_surface",
    "fairness",
    "fixed_policy",
    "generate_grid",
    "generate_random_udg",
    "heuristic_policy",
    "load_topology",
    "run_steady_state",
    "save_topology",
    "solve_fixed_point",
}


def test_public_api_is_locked():
    assert len(tricklefair.__all__) == len(set(tricklefair.__all__))
    assert set(tricklefair.__all__) == PUBLIC_API
    for name in tricklefair.__all__:
        assert getattr(tricklefair, name) is not None, name


POLICY_OPTIONS = {"--fixed-k", "--heuristic", "--step", "--offset"}

# option strings of every (sub)command, -h/--help left out
CLI_OPTIONS = {
    "": {"--version"},
    "gen": set(),
    "gen grid": {"--rows", "--cols", "--spacing", "--range", "-o", "--output"},
    "gen random": {"--n", "--side", "--range", "--seed", "-o", "--output"},
    "solve": {"--topo", *POLICY_OPTIONS, "--tol", "--max-iter", "-o", "--output", "--csv"},
    "simulate": {
        "--topo", *POLICY_OPTIONS, "--intervals", "--runs", "--warmup", "--seed", "-o", "--output", "--csv"
    },
    "compare": {"--model", "--sim", "-o", "--output"},
    "reproduce": {"--table", "--out", "--force", "--intervals", "--runs", "--seed"},
}


def _cli_options(parser, command=()):
    found = {}
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_cli_options(sub, command + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            options.update(action.option_strings)
    found[" ".join(command)] = options
    return found


def test_cli_surface_is_locked():
    assert _cli_options(build_parser()) == CLI_OPTIONS


def test_cli_defaults_are_the_library_defaults():
    params, solver = tricklefair.TrickleParams(), tricklefair.SolverConfig()
    parser = build_parser()
    policy = ["--topo", "t.json", "--fixed-k", "1", "-o", "o.json"]
    sim = parser.parse_args(["simulate", *policy])
    rep = parser.parse_args(["reproduce", "--table", "1", "--out", "out"])
    solve = parser.parse_args(["solve", *policy])
    for args in (sim, rep):
        assert (args.intervals, args.runs, args.seed) == (params.measured_intervals, params.runs, params.base_seed)
    assert sim.warmup == params.warmup_intervals
    assert (solve.tol, solve.max_iter) == (solver.tolerance, solver.max_iterations)


def test_runtime_imports_are_stdlib_numpy_or_the_package():
    # numpy is the only runtime dependency
    allowed = set(sys.stdlib_module_names) | {"numpy", "tricklefair"}
    sources = sorted((ROOT / "src" / "tricklefair").rglob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative imports stay in the package
                names = [node.module]
            else:
                continue
            outside = [name for name in names if name.split(".")[0] not in allowed]
            assert not outside, f"{path.name}:{node.lineno} imports {outside}"


def test_no_command_imports_numpy_random(tmp_path):
    # _rng.py draws every random double, so no run pays numpy.random's
    # import (about 2 MiB of resident memory)
    code = """if True:
        import contextlib, io, sys
        import tricklefair, tricklefair.cli
        loaded = ["numpy.random" in sys.modules]
        commands = [
            ["gen", "random", "--n=30", "--side=5", "--range=1.5", "--seed=3", "-o", "t.json"],
            ["solve", "--topo=t.json", "--fixed-k=1", "-o", "s.json"],
            ["simulate", "--topo=t.json", "--fixed-k=1", "--runs=2", "--intervals=3", "-o", "m.json"],
            ["reproduce", "--table=2", "--out=rep", "--runs=2", "--intervals=2"],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert tricklefair.cli.main(argv) == 0, argv
            loaded.append("numpy.random" in sys.modules)
        print(loaded)
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[False,"] + ["False,"] * 3 + ["False]"]


def test_only_io_knows_the_per_node_layout():
    # every per-node file, a topology's nodes included, is written by io.write_records and read by io.read_records
    found = {
        (path.name, node.value)
        for path in (ROOT / "src" / "tricklefair").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in ("per_node", "id")
    }
    assert found == {("io.py", "per_node"), ("io.py", "id")}


def test_only_io_imports_json():
    # one I/O layer: every JSON file is written by io.write_json and read by io.read_records
    found = {
        path.name
        for path in (ROOT / "src" / "tricklefair").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "json" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "json"
    }
    assert found == {"io.py"}


@pytest.mark.parametrize(
    "script, args",
    [
        ("01_grid_unfairness.py", ["{tmp}"]),
        ("02_neighbor_scaled_k.py", []),
        ("03_model_vs_simulation.py", ["2", "5", "10"]),
    ],
)
def test_demo_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "demos" / script)] + [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
