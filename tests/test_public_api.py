import argparse
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
    "calculate_k",
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
