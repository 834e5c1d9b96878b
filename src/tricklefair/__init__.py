"""Transmission-load fairness toolkit for steady-state Trickle networks.

Three pillars: an analytic per-node transmission-probability model that
supports a different redundancy constant on every node, an independent
discrete-event simulator used to validate the model, and a local heuristic
that picks each node's redundancy constant from its neighbor count to even
out the broadcast load.
"""

__version__ = "0.1.0"

from .metrics import (
    Comparison,
    FairnessReport,
    class_means,
    compare,
    export_surface,
    fairness,
)
from .model import (
    ModelSolution,
    SolverConfig,
    solve_fixed_point,
)
from .redundancy import (
    KAssignment,
    assign_k,
    fixed_policy,
    heuristic_policy,
)
from .simulator import (
    SimulationResult,
    TrickleParams,
    run_steady_state,
)
from .topology import (
    Topology,
    TopologyError,
    generate_grid,
    generate_random_udg,
    load_topology,
    save_topology,
)

__all__ = [
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
]
