"""The benchmark's workloads: set-up, one timed pass, and the checks on its outputs.

Each workload drives tricklefair through an entry point users call: the
`tricklefair.cli.main` function or the library API. `setup` imports the
package, so the import lands in the set-up time; nothing here imports it at
module level. `run` is the timed pass and returns raw results; `collect`,
called after the timer stops, reads them back into plain Python values that
`check` verifies against invariants and the stored reference.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"  # everything a run writes goes below here
REFERENCE_SEED = 1
P_TX_TOLERANCE = 1e-9


def use_checkout_sources() -> None:
    """Import tricklefair from this checkout's src/, ahead of any installed copy."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def import_package():
    import tricklefair
    import tricklefair.cli  # not imported by the package itself

    return tricklefair


@dataclass
class Solved:
    label: str
    topology: object
    k_assignment: object
    p_tx: list
    converged: bool


@dataclass
class Simulated:
    label: str
    counts: list  # runs x nodes
    mean_p: list
    measured_intervals: int


@dataclass
class Outputs:
    """One pass's results, as plain values; `problems` maps an operation to its failed checks."""

    solves: list = field(default_factory=list)
    sims: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)

    def problem(self, op: str, text: str) -> None:
        self.problems.setdefault(op, []).append(text)


def counts_sha256(counts) -> str:
    """SHA-256 of the runs x nodes transmission counts in compact JSON."""
    return hashlib.sha256(json.dumps(counts, separators=(",", ":")).encode()).hexdigest()


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _simulated_from_file(label, path) -> Simulated:
    doc = _read_json(path)
    per_node = sorted(doc["per_node"], key=lambda rec: rec["id"])
    counts = [list(run) for run in zip(*(rec["counts_per_run"] for rec in per_node))]
    return Simulated(label, counts, [rec["mean_p"] for rec in per_node], doc["params"]["measured_intervals"])


class GridTables:
    """`reproduce --table 1` then `--table 3` on the 7x7 grid: model-bound, small N, many iterations."""

    name = "grid49-tables"
    ops_per_pass = 2 + 8 + 8  # CLI calls, solves, simulations
    gate1 = True

    def setup(self, seed, workdir):
        tf = import_package()
        topo = tf.topology.generate_grid(7, 7, 1.0, math.sqrt(2.0))
        configs = [(1, f"k{k}", tf.redundancy.fixed_policy(k)) for k in range(1, 7)]
        configs += [
            (3, "offset2_step3", tf.redundancy.heuristic_policy(step=3, offset=2)),
            (3, "offset0_step3", tf.redundancy.heuristic_policy(step=3, offset=0)),
        ]
        kas = [(table, label, tf.redundancy.assign_k(topo, policy)) for table, label, policy in configs]
        return {"tf": tf, "seed": seed, "topology": topo, "assignments": kas}

    def run(self, ctx, out):
        main = ctx["tf"].cli.main
        return [
            (table, main(["reproduce", "--table", str(table), "--out", str(out / f"table{table}"), "--seed", str(ctx["seed"])]))
            for table in (1, 3)
        ]

    def collect(self, ctx, out, raw) -> Outputs:
        outputs = Outputs()
        for table, rc in raw:
            op = f"cli reproduce --table {table}"
            if rc != 0:
                outputs.problem(op, f"exit code {rc}")
            status = _read_json(out / f"table{table}" / "manifest.json").get("status")
            if status != "complete":
                outputs.problem(op, f"manifest status {status!r}")
        for table, label, ka in ctx["assignments"]:
            directory = out / f"table{table}"
            doc = _read_json(directory / f"model_{label}.json")
            per_node = sorted(doc["per_node"], key=lambda rec: rec["id"])
            outputs.solves.append(
                Solved(label, ctx["topology"], ka, [rec["p_tx"] for rec in per_node], doc["converged"])
            )
            outputs.sims.append(_simulated_from_file(label, directory / f"sim_{label}.json"))
        return outputs


class Udg200DenseCompare:
    """Library solve + simulate + compare on a dense 200-node random topology: DP-kernel-bound."""

    name = "udg200-dense-compare"
    ops_per_pass = 2 + 2  # solves, simulations
    gate1 = False
    # The topology stays fixed: across topology seeds the solver needs 89-137
    # iterations, a swing no bound on wall time could absorb. --seed still
    # drives the simulator.
    TOPOLOGY_SEED = 1

    def setup(self, seed, workdir):
        tf = import_package()
        topo = tf.topology.generate_random_udg(200, 8.0, 1.6, self.TOPOLOGY_SEED)
        kas = [
            ("k1", tf.redundancy.assign_k(topo, tf.redundancy.fixed_policy(1))),
            ("offset0_step3", tf.redundancy.assign_k(topo, tf.redundancy.heuristic_policy(step=3, offset=0))),
        ]
        params = tf.simulator.TrickleParams(runs=30, measured_intervals=10, base_seed=seed)
        return {"tf": tf, "topology": topo, "assignments": kas, "params": params}

    def run(self, ctx, out):
        tf, topo = ctx["tf"], ctx["topology"]
        results = []
        for label, ka in ctx["assignments"]:
            sol = tf.model.solve_fixed_point(topo, ka)
            res = tf.simulator.run_steady_state(topo, ka, ctx["params"])
            results.append((label, ka, sol, res, tf.metrics.compare(sol.p_tx, res.mean_p)))
        return results

    def collect(self, ctx, out, raw) -> Outputs:
        outputs = Outputs()
        for label, ka, sol, res, cmp_ in raw:
            p_tx, mean_p = sol.p_tx.tolist(), res.mean_p.tolist()
            outputs.solves.append(Solved(label, ctx["topology"], ka, p_tx, bool(sol.converged)))
            outputs.sims.append(Simulated(label, res.counts.tolist(), mean_p, res.params.measured_intervals))
            gap = max(abs(a - b) for a, b in zip(p_tx, mean_p))
            if abs(cmp_.max_abs_diff - gap) > 1e-12:
                outputs.problem(f"simulate {label}", f"compare max_abs_diff {cmp_.max_abs_diff} != {gap}")
        return outputs


class Udg2000Simulate:
    """`simulate` on a 2000-node random topology saved during set-up: simulator-bound, no model."""

    name = "udg2000-simulate"
    ops_per_pass = 1 + 1  # CLI call, simulation
    gate1 = False

    def setup(self, seed, workdir):
        tf = import_package()
        topo = tf.topology.generate_random_udg(2000, 44.7, 1.22, seed)
        path = Path(workdir) / "udg2000.json"
        tf.topology.save_topology(topo, path)
        tf.redundancy.assign_k(topo, tf.redundancy.fixed_policy(2))
        return {"tf": tf, "seed": seed, "path": path}

    def run(self, ctx, out):
        argv = ["simulate", "--topo", str(ctx["path"]), "--fixed-k", "2", "--runs", "30", "--intervals", "20"]
        argv += ["--seed", str(ctx["seed"]), "-o", str(out / "sim.json"), "--csv", str(out / "sim.csv")]
        return ctx["tf"].cli.main(argv)

    def collect(self, ctx, out, raw) -> Outputs:
        outputs = Outputs()
        if raw != 0:
            outputs.problem("cli simulate", f"exit code {raw}")
        sim = _simulated_from_file("k2", out / "sim.json")
        if len(sim.counts) != 30 or any(len(run) != 2000 for run in sim.counts):
            outputs.problem("simulate k2", "counts are not 30 runs x 2000 nodes")
        outputs.sims.append(sim)
        return outputs


WORKLOADS = {w.name: w for w in (GridTables(), Udg200DenseCompare(), Udg2000Simulate())}


def probe_setup(name: str, seed: str, workdir: str) -> None:
    """Entry point of a fresh interpreter that times one cold set-up and prints it."""
    use_checkout_sources()
    start = time.perf_counter()
    WORKLOADS[name].setup(int(seed), workdir)
    print(repr(time.perf_counter() - start))


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(workload, outputs: Outputs, seed: int, reference: dict) -> None:
    """Record every failed check in outputs.problems, keyed by operation.

    The solver and the simulation invariants hold for any seed. The stored
    p_tx applies to every seed because the solved topologies do not depend on
    it; the stored counts digests apply to the reference seed only.
    """
    from tricklefair import model  # already imported by set-up

    tolerance = model.SolverConfig().tolerance
    ref = reference.get(workload.name, {})
    for s in outputs.solves:
        op = f"solve {s.label}"
        if not s.converged:
            outputs.problem(op, "not converged")
        if any(not 0.0 <= p <= 1.0 for p in s.p_tx):
            outputs.problem(op, "p_tx outside [0, 1]")
        f = model.update_map(s.topology, s.k_assignment, s.p_tx).tolist()
        defect = max(abs(a - b) for a, b in zip(f, s.p_tx))
        if not defect < tolerance:
            outputs.problem(op, f"fixed-point defect {defect:.3e} >= {tolerance:.0e}")
        expected = ref.get("p_tx", {}).get(s.label)
        if expected is None:
            outputs.problem(op, "no reference p_tx")
        else:
            worst = max(abs(a - b) for a, b in zip(s.p_tx, expected))
            if len(expected) != len(s.p_tx) or worst > P_TX_TOLERANCE:
                outputs.problem(op, f"p_tx differs from the reference by {worst:.3e}")
    for s in outputs.sims:
        op = f"simulate {s.label}"
        if any(not 0 <= c <= s.measured_intervals for run in s.counts for c in run):
            outputs.problem(op, f"counts outside [0, {s.measured_intervals}]")
        if any(not 0.0 <= p <= 1.0 for p in s.mean_p):
            outputs.problem(op, "mean_p outside [0, 1]")
        if seed == REFERENCE_SEED:
            digest = counts_sha256(s.counts)
            if digest != ref.get("counts_sha256", {}).get(s.label):
                outputs.problem(op, f"counts digest {digest} differs from the reference")
