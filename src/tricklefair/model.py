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
    """Nodes batched by K for the vectorized update map, every index built once.

    p_f holds p_first per node; it does not depend on the iterate. forced
    marks the nodes with y < K, which map to exactly 1; every K > y acts as
    K = y + 1, so a K of any size stays out of numpy's fixed-width integers.
    For each distinct K, the other nodes form one batch, ordered from the
    largest degree to the smallest, ties by node id. Each node owns y // 2 + 1
    consecutive columns, one per point t of its Gauss-Legendre rule on
    [1/2, 1], with weights summing to 1. Step c of the DP takes the c-th
    neighbor of the leading nodes, the ones with y > c, into their leading
    columns, so every node takes exactly its own y steps over K states.

    - Gather: for every step of every batch, in order, the plan stores the
      neighbor id and the t of each column the step updates, so a sweep fills
      x = p[neighbor] * t and keep = 1 - x for all steps in three calls.
    - Views: each batch owns its DP array w and a buffer for the transitions,
      and every step's slices of them and of x and keep are made here. A step
      is then three ufunc calls with out=, or one at K = 1.
    - Row trimming: before step c at most c neighbors transmitted, so step c
      updates only the first min(K, c + 2) rows; the rows it skips hold exact
      zeros, and every cell gets the float operations of the full update.

    The plan holds 32 bytes per (step, column) pair: the neighbor id, t, x
    and keep. Its buffers make evaluate non-reentrant.
    """

    def __init__(self, topology, k_assignment) -> None:
        if len(k_assignment.k) != topology.n:
            raise ValueError("k_assignment length does not match topology")
        lists = topology.neighbor_lists
        degrees = topology.degrees
        ks = np.array([min(k, y + 1) for y, k in zip(degrees.tolist(), k_assignment.k)], dtype=np.intp)
        self.p_f = np.array([_p_first(y, k) for y, k in zip(degrees.tolist(), ks.tolist())])
        self.forced = degrees < ks
        free = degrees[~self.forced]
        cells = int(np.sum(free * (free // 2 + 1)))  # (step, column) pairs: y steps of y // 2 + 1 columns
        self.x = np.empty(cells)  # P(fired earlier and transmitted | t)
        self.keep = np.empty(cells)
        gather, col_t = [np.empty(0, dtype=np.intp)], [np.empty(0)]
        self.batches = []
        offset = 0
        rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # Gauss-Legendre rules by size
        for k in sorted(set(ks[~self.forced].tolist())):
            nodes = np.flatnonzero((ks == k) & ~self.forced)
            nodes = nodes[np.argsort(-degrees[nodes], kind="stable")]  # ties stay by id
            ys = degrees[nodes]
            sizes = ys // 2 + 1
            rules.update((s, leggauss(s)) for s in set(sizes.tolist()) - rules.keys())
            times = 0.75 + 0.25 * np.concatenate([rules[s][0] for s in sizes])  # [-1, 1] onto [1/2, 1]
            weights = 0.5 * np.concatenate([rules[s][1] for s in sizes])
            starts = np.cumsum([0, *sizes])
            # w[j, col]: P(exactly j of its node's first c neighbors
            # transmitted earlier) at the column's t, for j < K
            w = np.empty((k, len(times)))
            fired = np.empty((k - 1, len(times)))
            views = []
            for c, a in enumerate(np.count_nonzero(ys[:, None] > np.arange(ys[0]), axis=0).tolist()):
                b = int(starts[a])
                gather.append(np.repeat([lists[i][c] for i in nodes[:a].tolist()], sizes[:a]))
                col_t.append(times[:b])
                x, keep, r = self.x[offset : offset + b], self.keep[offset : offset + b], min(k, c + 2)
                if k == 1:  # a transmitting neighbor only leaves the state
                    views.append((w[0, :b], keep))
                else:
                    views.append((x, w[: r - 1, :b], fired[: r - 1, :b], w[:r, :b], keep, w[1:r, :b]))
                offset += b
            self.batches.append((nodes, w, weights, starts[:-1], views))
        self.gather = np.concatenate(gather, dtype=np.intp)
        self.col_t = np.concatenate(col_t)

    def evaluate(self, p: np.ndarray) -> np.ndarray:
        """F(p) of every node against the iterate p; 1 where y < K."""
        out = np.ones(len(p))
        np.take(p, self.gather, out=self.x, mode="clip")
        np.multiply(self.x, self.col_t, out=self.x)
        np.subtract(1.0, self.x, out=self.keep)
        multiply, add = np.multiply, np.add
        for nodes, w, weights, starts, views in self.batches:
            w.fill(0.0)
            w[0] = 1.0
            if len(w) == 1:
                for w_b, keep in views:
                    multiply(w_b, keep, out=w_b)
            else:
                for x, w_lo, fired, w_r, keep, w_hi in views:
                    multiply(x, w_lo, out=fired)
                    multiply(w_r, keep, out=w_r)
                    add(w_hi, fired, out=w_hi)
            out[nodes] = np.add.reduceat(weights * w.sum(axis=0), starts)
        return out


def update_map(topology, k_assignment, current_p, *, plan: _SweepPlan | None = None) -> np.ndarray:
    """One Jacobi sweep of the coupled probability equations.

    Nodes with fewer neighbors than their redundancy constant map to exactly
    1; all others map to the integral F evaluated against the previous
    iterate. Output is clipped to [0, 1] against rounding. plan holds this
    topology's gather indices, DP buffers and their per-step views, built
    once; solve_fixed_point passes the one it built and calls this function
    once per sweep, and the plan is built here when omitted.
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
    p = np.where(plan.forced, 1.0, _INITIAL_P)

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
