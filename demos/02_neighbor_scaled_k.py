#!/usr/bin/env python3
"""Evening out the load with neighbor-scaled redundancy constants.

Each node picks its own K locally: K = 1 for up to `offset` neighbors, then
one more for every further `step` neighbors. On the 7x7 grid this hands the
dense interior a larger suppression budget and calms the chatty corners.
The script contrasts the two bundled configurations (step=3 with offset 2
and 0) against every fixed K in 1..4.

Run:  python demos/02_neighbor_scaled_k.py
"""
import math

from tricklefair import (
    assign_k,
    class_means,
    fairness,
    fixed_policy,
    generate_grid,
    heuristic_policy,
    solve_fixed_point,
)


def row(label, grid, policy):
    ka = assign_k(grid, policy)
    sol = solve_fixed_point(grid, ka)
    rep = fairness(sol.p_tx)
    cm = class_means(grid, sol.p_tx)
    spread = max(cm.values()) - min(cm.values())
    kset = ",".join(str(k) for k in sorted(set(ka.k)))
    print(
        f"{label:<22} {kset:>7} {rep.message_count:>9.3f} "
        f"{rep.variance:>9.5f} {cm[3]:>8.3f} {cm[5]:>8.3f} {cm[8]:>9.3f} {spread:>8.3f}"
    )
    return spread


def main():
    grid = generate_grid(7, 7, 1.0, math.sqrt(2.0))
    print(
        f"{'policy':<22} {'K set':>7} {'msgs/int':>9} {'variance':>9} "
        f"{'corner':>8} {'border':>8} {'interior':>9} {'spread':>8}"
    )
    fixed_spreads = [row(f"fixed K={k}", grid, fixed_policy(k)) for k in range(1, 5)]
    print("-" * 85)
    h1 = row("step=3 offset=2", grid, heuristic_policy(step=3, offset=2))
    h2 = row("step=3 offset=0", grid, heuristic_policy(step=3, offset=0))

    print()
    best_fixed = min(fixed_spreads)
    print(f"smallest class-mean spread with a fixed K: {best_fixed:.3f}")
    print(f"neighbor-scaled spreads: {h1:.3f} and {h2:.3f}")
    print("scaling K with the neighbor count narrows the gap between sparse")
    print("and dense neighborhoods for every fixed K tried above; offset=2")
    print("spends fewer messages, offset=0 is flatter still.")


if __name__ == "__main__":
    main()
