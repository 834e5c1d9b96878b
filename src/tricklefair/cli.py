"""Command-line front end.

Subcommands: gen (topologies), solve (probability model), simulate
(discrete-event runs), compare (model vs simulation), reproduce (bundled
reference scenarios). Exit codes: 0 success, 2 usage error, 3 solver
non-convergence, 4 I/O error.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

from . import __version__, io, metrics, model, redundancy, simulator
from .topology import (
    Topology,
    TopologyError,
    generate_grid,
    generate_random_udg,
    load_topology,
    save_topology,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

GRID_RANGE = math.sqrt(2.0)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _policy_from_args(args) -> dict:
    if args.fixed_k is not None:
        return redundancy.fixed_policy(args.fixed_k)
    return redundancy.heuristic_policy(args.step, args.offset)


def _add_policy_args(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixed-k", type=int, metavar="K", help="one redundancy constant for every node")
    group.add_argument(
        "--heuristic", action="store_true", help="per-node K from the neighbor count (see --step/--offset)"
    )
    parser.add_argument("--step", type=int, default=redundancy.DEFAULT_STEP, help="neighbors per K increment")
    parser.add_argument("--offset", type=int, default=redundancy.DEFAULT_OFFSET, help="neighbor count mapped to K=1")


def _manifest(topo_path, policy, outputs=None, solver=None, simulation=None) -> dict:
    doc = {
        "tool": "tricklefair",
        "version": __version__,
        "topology": {"path": str(topo_path), "sha256": _sha256(topo_path)},
        "policy": policy,
    }
    if outputs is not None:
        doc["outputs"] = [str(p) for p in outputs]
    if solver is not None:
        doc["solver"] = solver
    if simulation is not None:
        doc["simulation"] = simulation
    return doc


def _print_fairness(report: metrics.FairnessReport) -> None:
    print(
        f"fairness ({report.source}): max {report.max_p:.3f}  min {report.min_p:.3f}  "
        f"mean {report.mean_p:.3f}  variance {report.variance:.5f}  "
        f"messages/interval {report.message_count:.3f}"
    )


def cmd_gen(args) -> int:
    if args.kind == "grid":
        topo = generate_grid(args.rows, args.cols, args.spacing, args.range)
    else:
        topo = generate_random_udg(args.n, args.side, args.range, args.seed)
    save_topology(topo, args.output)
    print(
        f"wrote {args.output}: {topo.n} nodes, {topo.num_edges} edges, "
        f"mean degree {topo.mean_degree:.2f}"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    topo = load_topology(args.topo)
    assignment = redundancy.assign_k(topo, _policy_from_args(args))
    config = model.SolverConfig(tolerance=args.tol, max_iterations=args.max_iter)
    solution = model.solve_fixed_point(topo, assignment, config)
    manifest = _manifest(args.topo, assignment.policy, solver=asdict(config))
    model.save_solution(args.output, topo, assignment, solution, extra={"manifest": manifest})
    if args.csv:
        model.save_solution_csv(args.csv, topo, assignment, solution)
    _print_fairness(metrics.fairness(solution.p_tx, source="model"))
    print(
        f"solver: converged={solution.converged} iterations={solution.iterations} "
        f"residual={solution.residual:.2e}"
    )
    if not solution.converged:
        print("error: fixed-point iteration did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_simulate(args) -> int:
    topo = load_topology(args.topo)
    assignment = redundancy.assign_k(topo, _policy_from_args(args))
    params = simulator.TrickleParams(
        measured_intervals=args.intervals,
        warmup_intervals=args.warmup,
        runs=args.runs,
        base_seed=args.seed,
    )
    result = simulator.run_steady_state(topo, assignment, params)
    manifest = _manifest(args.topo, assignment.policy, simulation=asdict(params))
    simulator.save_result(args.output, result, extra={"manifest": manifest, "policy": assignment.policy})
    if args.csv:
        simulator.save_result_csv(args.csv, result)
    _print_fairness(metrics.fairness(result.mean_p, source="simulation"))
    return EXIT_OK


def cmd_compare(args) -> int:
    sol = io.read_records(args.model, ("converged", "iterations", "residual"), ("degree", "k", "p_tx"))
    res = io.read_records(args.sim, ("params",), ("mean_p",))
    p_model = [rec["p_tx"] for rec in sol]
    p_sim = [rec["mean_p"] for rec in res]
    if len(p_model) != len(p_sim):
        print(
            f"error: node count mismatch (model {len(p_model)}, simulation {len(p_sim)})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    comparison = metrics.compare(p_model, p_sim)
    degrees = [rec["degree"] for rec in sol]
    ks = [rec["k"] for rec in sol]
    metrics.save_comparison_csv(args.output, degrees, ks, comparison)
    _print_fairness(comparison.model_report)
    _print_fairness(comparison.sim_report)
    print(
        f"per-node |model - sim|: max {comparison.max_abs_diff:.4f}  "
        f"mean {float(comparison.abs_diff.mean()):.4f}"
    )
    return EXIT_OK


def bundled_random_topology() -> Topology:
    """The packaged 49-node random topology (mean degree 3.92)."""
    ref = resources.files("tricklefair").joinpath("data/random49.json")
    with resources.as_file(ref) as path:
        return load_topology(path)


def _table_configs(table: int):
    if table in (1, 2):
        return [(f"k{k}", redundancy.fixed_policy(k)) for k in range(1, 7)]
    return [
        ("offset2_step3", redundancy.heuristic_policy(step=3, offset=2)),
        ("offset0_step3", redundancy.heuristic_policy(step=3, offset=0)),
    ]


def cmd_reproduce(args) -> int:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        print(f"error: output directory {out} exists and is not empty (use --force)", file=sys.stderr)
        return EXIT_USAGE
    params = simulator.TrickleParams(measured_intervals=args.intervals, runs=args.runs, base_seed=args.seed)
    out.mkdir(parents=True, exist_ok=True)

    if args.table in (1, 3):
        topo = generate_grid(7, 7, 1.0, GRID_RANGE)
        topo_path = out / "grid7x7.json"
    else:
        topo = bundled_random_topology()
        topo_path = out / "random49.json"
    save_topology(topo, topo_path)

    configs = _table_configs(args.table)
    rollup_path = out / f"table{args.table}.csv"
    manifest_path = out / "manifest.json"
    planned = [topo_path.name, rollup_path.name]
    for label, _ in configs:
        planned += [f"model_{label}.json", f"model_{label}.csv", f"sim_{label}.json", f"sim_{label}.csv"]
    manifest = _manifest(topo_path, [p for _, p in configs], planned, simulation=asdict(params))
    manifest["table"] = args.table
    manifest["status"] = "running"
    io.write_json(manifest_path, manifest)

    stats = ["average_message_count", "max_probability", "min_probability", "variance"]
    if args.table != 3:
        stats = stats[1:]
    columns = []
    for label, policy in configs:
        assignment = redundancy.assign_k(topo, policy)
        solution = model.solve_fixed_point(topo, assignment)
        model.save_solution(out / f"model_{label}.json", topo, assignment, solution)
        model.save_solution_csv(out / f"model_{label}.csv", topo, assignment, solution)
        if not solution.converged:
            manifest["status"] = "failed"
            manifest["error"] = f"configuration {label} did not converge"
            io.write_json(manifest_path, manifest)
            print(f"error: configuration {label} did not converge", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        result = simulator.run_steady_state(topo, assignment, params)
        simulator.save_result(out / f"sim_{label}.json", result)
        simulator.save_result_csv(out / f"sim_{label}.csv", result)
        for source, probs in (("model", solution.p_tx), ("sim", result.mean_p)):
            rep = metrics.fairness(probs, source=source)
            manifest.setdefault("fairness", {}).setdefault(label, {})[source] = asdict(rep)
            values = {
                "average_message_count": rep.message_count,
                "max_probability": rep.max_p,
                "min_probability": rep.min_p,
                "variance": rep.variance,
            }
            columns.append((f"{source}_{label}", [values[s] for s in stats]))

    io.write_csv(
        rollup_path,
        ["statistic"] + [name for name, _ in columns],
        [[stat] + [vals[row] for _, vals in columns] for row, stat in enumerate(stats)],
    )

    width = max(len(s) for s in stats) + 2
    col = max(12, max(len(name) for name, _ in columns) + 2)
    print(f"{'statistic':<{width}}" + "".join(f"{name:>{col}}" for name, _ in columns))
    for row, stat in enumerate(stats):
        line = f"{stat:<{width}}"
        for _, vals in columns:
            line += f"{vals[row]:>{col}.5f}"
        print(line)

    manifest["status"] = "complete"
    io.write_json(manifest_path, manifest)
    print(f"wrote {rollup_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricklefair",
        description="Transmission-load fairness of steady-state Trickle: model, simulator, metrics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    params, solver = simulator.TrickleParams(), model.SolverConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a topology file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    grid = gen_sub.add_parser("grid", help="regular grid with unit-disk edges")
    grid.add_argument("--rows", type=int, required=True)
    grid.add_argument("--cols", type=int, required=True)
    grid.add_argument("--spacing", type=float, default=1.0)
    grid.add_argument("--range", type=float, default=GRID_RANGE, help="radio range (default sqrt(2))")
    grid.add_argument("-o", "--output", required=True)
    grid.set_defaults(func=cmd_gen)
    rand = gen_sub.add_parser("random", help="uniform random placement in a square")
    rand.add_argument("--n", type=int, required=True)
    rand.add_argument("--side", type=float, required=True)
    rand.add_argument("--range", type=float, required=True)
    rand.add_argument("--seed", type=int, default=1)
    rand.add_argument("-o", "--output", required=True)
    rand.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve the per-node probability model")
    solve.add_argument("--topo", required=True)
    _add_policy_args(solve)
    solve.add_argument("--tol", type=float, default=solver.tolerance)
    solve.add_argument("--max-iter", type=int, default=solver.max_iterations)
    solve.add_argument("-o", "--output", required=True)
    solve.add_argument("--csv", help="also write per-node CSV")
    solve.set_defaults(func=cmd_solve)

    sim = sub.add_parser("simulate", help="run the discrete-event simulation")
    sim.add_argument("--topo", required=True)
    _add_policy_args(sim)
    sim.add_argument("--intervals", type=int, default=params.measured_intervals, help="measured intervals per run")
    sim.add_argument("--runs", type=int, default=params.runs)
    sim.add_argument("--warmup", type=int, default=params.warmup_intervals)
    sim.add_argument("--seed", type=int, default=params.base_seed)
    sim.add_argument("-o", "--output", required=True)
    sim.add_argument("--csv", help="also write per-node CSV")
    sim.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare", help="compare a solution file with a simulation file")
    cmp_.add_argument("--model", required=True)
    cmp_.add_argument("--sim", required=True)
    cmp_.add_argument("-o", "--output", required=True, help="per-node comparison CSV")
    cmp_.set_defaults(func=cmd_compare)

    rep = sub.add_parser("reproduce", help="run a bundled reference scenario end to end")
    rep.add_argument("--table", type=int, choices=(1, 2, 3), required=True)
    rep.add_argument("--out", required=True, help="output directory")
    rep.add_argument("--force", action="store_true", help="write into a non-empty directory")
    rep.add_argument("--intervals", type=int, default=params.measured_intervals)
    rep.add_argument("--runs", type=int, default=params.runs)
    rep.add_argument("--seed", type=int, default=params.base_seed)
    rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
