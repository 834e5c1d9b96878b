"""Average per-node transmission probabilities for steady-state Trickle.

A node with y neighbors and redundancy constant K transmits when fewer than
K of the neighbors that fired before it in its interval transmitted. With
unsynchronized fixed-length intervals its firing instant is uniform on the
second half of its interval, and at instant t (in intervals) each neighbor
j independently fired earlier with probability t. Treating the neighbors'
transmissions as independent events with probabilities p_j,

    F(p)_i = 2 * integral_{1/2}^{1} P(PoissonBinomial(t * p_j over neighbors j) < K) dt.

The integrand is a polynomial of degree y in t, so a Gauss-Legendre rule of
y // 2 + 1 points integrates it exactly up to rounding, at any degree. At
p = 1, F is p_first, the probability of drawing one of the first K instants,
which is kept exact. The N equations p = F(p) are solved by fixed-point
iteration; F falls as any neighbor's p rises, so plain iteration
oscillates, and every sweep moves p halfway to F(p). The discrete-event
simulator quantifies the error of the independence approximation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .io import _is_int, write_csv, write_json

_INITIAL_P = 0.5  # starting probability of every node not forced to 1
_DAMPING = 0.5  # weight of F(p) against p in every sweep


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point iteration controls: stop below tolerance or after max_iterations sweeps."""

    tolerance: float = 1e-10
    max_iterations: int = 10000

    def __post_init__(self) -> None:
        # The defect max|F(p) - p| never exceeds 1, so a tolerance of 1 or more
        # accepts any start; written so that NaN fails it too.
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must lie in (0, 1)")
        if not _is_int(self.max_iterations) or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer >= 1")


@dataclass(frozen=True)
class ModelSolution:
    """Converged (or flagged) per-node probabilities with solver diagnostics."""

    p_tx: np.ndarray
    p_f: np.ndarray
    p_lo: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _p_first(y: int, k: int) -> float:
    """P(fewer than k of y neighbors fire earlier): the integral of F at p = 1.

    With run[n] = sum_{m<=n} C(y+1, m), it is sum_{n<k} run[n] / ((y+1) 2^y),
    whose numerator sums to sum_{m<k} (k - m) C(y+1, m); Python's int / int
    division rounds the exact ratio once. Equals 1 when k > y.
    """
    if k > y:
        return 1.0
    return sum((k - m) * math.comb(y + 1, m) for m in range(k)) / ((y + 1) << y)


class _SweepPlan:
    """Nodes batched by K for the vectorized update map.

    p_f holds p_first per node; it does not depend on the iterate. For each
    distinct K, the nodes with y >= K form one batch, ordered from the
    largest degree to the smallest, ties by node id. Each node owns y // 2 + 1
    consecutive columns, one per point t of its Gauss-Legendre rule on
    [1/2, 1], with weights summing to 1. Step c of the DP takes the c-th
    neighbor of the leading nodes, the ones with y > c, into their leading
    columns, so every node takes exactly its own y steps over K states. A
    batch keeps its node ids, K, per step the slice of its neighbor ids and
    the number of columns it updates, the neighbor ids in step order, each
    column's node, point and weight, and each node's first column.
    """

    def __init__(self, topology, k_assignment) -> None:
        if len(k_assignment.k) != topology.n:
            raise ValueError("k_assignment length does not match topology")
        lists = topology.neighbor_lists
        degrees, ks = topology.degrees, np.array(k_assignment.k)
        self.p_f = np.array([_p_first(y, k) for y, k in zip(degrees.tolist(), k_assignment.k)])
        self.batches = []
        rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # Gauss-Legendre rules by size
        for k in sorted(set(ks[degrees >= ks].tolist())):
            nodes = np.flatnonzero((ks == k) & (degrees >= k))
            nodes = nodes[np.argsort(-degrees[nodes], kind="stable")].tolist()  # ties stay by id
            ys = [len(lists[i]) for i in nodes]
            sizes = [y // 2 + 1 for y in ys]
            rules.update((s, leggauss(s)) for s in set(sizes) - rules.keys())
            times = 0.75 + 0.25 * np.concatenate([rules[s][0] for s in sizes])  # [-1, 1] onto [1/2, 1]
            weights = 0.5 * np.concatenate([rules[s][1] for s in sizes])
            owner = np.repeat(np.arange(len(nodes)), sizes)
            starts = np.cumsum([0] + sizes)
            active = [sum(y > c for y in ys) for c in range(ys[0])]
            neighbors = [lists[i][c] for c, a in enumerate(active) for i in nodes[:a]]
            ends = np.cumsum(active).tolist()  # step c's neighbor ids end here
            steps = list(zip([0] + ends[:-1], ends, starts[active].tolist()))
            self.batches.append((np.array(nodes), k, steps, np.array(neighbors), owner, times, weights, starts[:-1]))

    def evaluate(self, p: np.ndarray) -> np.ndarray:
        """F(p) of every node against the iterate p; 1 where y < K."""
        out = np.ones(len(p))
        for nodes, k, steps, neighbors, owner, times, weights, starts in self.batches:
            q = p[neighbors]
            # w[j, col]: P(exactly j of its node's first c neighbors
            # transmitted earlier) at the column's t, for j < K
            w = np.zeros((k, len(times)))
            w[0] = 1.0
            for lo, hi, b in steps:
                x = q[lo:hi][owner[:b]] * times[:b]  # P(fired earlier and transmitted | t)
                if k > 1:  # with K = 1 a transmitting neighbor only leaves the state
                    fired = x * w[:-1, :b]
                    w[:, :b] *= 1.0 - x
                    w[1:, :b] += fired
                else:
                    w[0, :b] *= 1.0 - x
            out[nodes] = np.add.reduceat(weights * w.sum(axis=0), starts)
        return out


def update_map(topology, k_assignment, current_p, *, plan: _SweepPlan | None = None) -> np.ndarray:
    """One Jacobi sweep of the coupled probability equations.

    Nodes with fewer neighbors than their redundancy constant map to exactly
    1; all others map to the integral F evaluated against the previous
    iterate. Output is clipped to [0, 1] against rounding. plan holds this
    topology's nodes batched by K and sorted by degree; solve_fixed_point
    passes the one it built, and it is built here when omitted.
    """
    p = np.asarray(current_p, dtype=float)
    if p.shape != (topology.n,):
        raise ValueError(f"current_p must have shape ({topology.n},)")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails it too
        raise ValueError("current_p entries must lie in [0, 1]")
    if plan is None:
        plan = _SweepPlan(topology, k_assignment)
    return np.clip(plan.evaluate(p), 0.0, 1.0)


def solve_fixed_point(topology, k_assignment, config: SolverConfig | None = None) -> ModelSolution:
    """Solve the N-equation system by damped fixed-point iteration.

    Stops when the fixed-point defect max|F(p) - p| drops below the
    tolerance. Non-convergence is reported through the `converged` flag, not
    raised.
    """
    cfg = config or SolverConfig()
    plan = _SweepPlan(topology, k_assignment)
    degrees = topology.degrees
    ks = np.array(k_assignment.k, dtype=int)
    p = np.where(degrees < ks, 1.0, _INITIAL_P)

    defect = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        f = update_map(topology, k_assignment, p, plan=plan)
        defect = float(np.max(np.abs(f - p)))
        if defect < cfg.tolerance:
            converged = True
            break
        p = p + _DAMPING * (f - p)

    if not converged:
        f = update_map(topology, k_assignment, p, plan=plan)
    # f = F(p) = p_f + p_lo at the final p; p_f does not depend on p.
    return ModelSolution(
        p_tx=p,
        p_f=plan.p_f,
        p_lo=f - plan.p_f,
        iterations=iterations,
        residual=defect,
        converged=converged,
    )


def save_solution(path, topology, k_assignment, solution: ModelSolution, extra: dict | None = None) -> None:
    """Write a solution as JSON: per-node records plus solver diagnostics."""
    doc = {
        "converged": bool(solution.converged),
        "iterations": int(solution.iterations),
        "residual": float(solution.residual),
        "policy": k_assignment.policy,
        "per_node": [
            {
                "id": i,
                "degree": int(topology.degree(i)),
                "k": int(k_assignment.k[i]),
                "p_tx": float(solution.p_tx[i]),
                "p_f": float(solution.p_f[i]),
                "p_lo": float(solution.p_lo[i]),
            }
            for i in range(topology.n)
        ],
    }
    if extra:
        doc.update(extra)
    write_json(path, doc)


def save_solution_csv(path, topology, k_assignment, solution: ModelSolution) -> None:
    rows = zip(range(topology.n), topology.degrees, k_assignment.k, solution.p_tx, solution.p_f, solution.p_lo)
    write_csv(path, ["id", "degree", "k", "p_tx", "p_f", "p_lo"], rows)
