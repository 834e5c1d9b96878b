import os
import subprocess
import sys
from pathlib import Path

import pytest

import tricklefair

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
    "expected_message_count",
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
