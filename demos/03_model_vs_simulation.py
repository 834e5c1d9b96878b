#!/usr/bin/env python3
"""Cross-checking the analytic model against the event simulation.

The model couples per-node transmission probabilities through a fixed-point
system under an independence assumption. The discrete-event simulator makes
no such assumption: every run draws one phase offset per node and plays out
the suppression dynamics. This script runs both on the 7x7 grid and reports
where they agree and where they drift apart.

Run:  python demos/03_model_vs_simulation.py [K] [runs] [intervals]
"""
import math
import sys

import numpy as np

from tricklefair import (
    TrickleParams,
    assign_k,
    compare,
    fixed_policy,
    generate_grid,
    run_steady_state,
    solve_fixed_point,
)


def main():
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 30
    intervals = int(sys.argv[3]) if len(sys.argv) > 3 else 50

    grid = generate_grid(7, 7, 1.0, math.sqrt(2.0))
    ka = assign_k(grid, fixed_policy(k))

    sol = solve_fixed_point(grid, ka)
    print(f"model solved: {sol.iterations} iterations, residual {sol.residual:.1e}")
    res = run_steady_state(grid, ka, TrickleParams(measured_intervals=intervals, runs=runs))
    print(f"simulated {runs} runs x {intervals} intervals")

    cmp_ = compare(sol.p_tx, res.mean_p)
    m, s = cmp_.model_report, cmp_.sim_report
    print(f"\n{'':<12} {'max':>7} {'min':>7} {'mean':>7} {'variance':>9} {'msgs/int':>9}")
    print(f"{'model':<12} {m.max_p:>7.3f} {m.min_p:>7.3f} {m.mean_p:>7.3f} {m.variance:>9.5f} {m.message_count:>9.2f}")
    print(f"{'simulation':<12} {s.max_p:>7.3f} {s.min_p:>7.3f} {s.mean_p:>7.3f} {s.variance:>9.5f} {s.message_count:>9.2f}")

    order = np.argsort(cmp_.abs_diff)[::-1]
    print(f"\nper-node gap: max {cmp_.max_abs_diff:.4f}, mean {cmp_.abs_diff.mean():.4f}")
    print("largest gaps (node, degree, model, simulation):")
    for i in order[:5]:
        print(
            f"  node {i:>2} (degree {grid.degree(int(i))}): "
            f"{cmp_.p_model[i]:.3f} vs {cmp_.p_sim[i]:.3f}"
        )

    print("\nwhy they drift: the model treats neighbor transmissions as")
    print("independent events, and that misses two terms. Pair term: when a")
    print("neighbor fires before a node within the node's interval, the node's")
    print("current firing cannot have suppressed it, so it transmits more often")
    print("than its marginal rate. Joint term: neighbors that hear each other")
    print("suppress each other, so their transmissions are negatively")
    print("correlated and 'no earlier neighbor transmitted' is rarer than the")
    print("product of their rates. The gap tracks local clustering rather")
    print("than degree and is largest at small K. Frozen interval phases do not")
    print("explain it (see README, Validation status). On the grid at these")
    print("defaults the per-node gaps are mostly sampling noise; the")
    print("network-level statistics line up well.")


if __name__ == "__main__":
    main()
