"""Average per-node transmission probabilities for steady-state Trickle.

With unsynchronized fixed-length intervals, the firing instants of a node's
neighbors land uniformly over the node's own interval, so the number of them
earlier than the node's instant T ~ U[I/2, I) is binomial with success
probability T/I. Marginalizing over T gives a closed-form mass function with
exact rational values:

    P(earlier count = n) = 2/(y+1) * 2^-(y+1) * sum_{m=0}^{n} C(y+1, m)

degree_table computes it once per degree, in exact integer arithmetic, together
with its cdf and the weights of the subset sums below, each value rounded
once; every other quantity of the model is read from that table. Degrees up
to MAX_DEGREE = 512 are supported.

A node with y neighbors and redundancy constant K transmits when it draws one
of the first K instants, or a later instant while fewer than K of the
earlier-slotted neighbors actually transmitted. Expressing that probability
through the neighbors' own transmission probabilities couples the network
into N equations p = F(p) in N unknowns, which are solved here by damped
fixed-point iteration. Each sweep evaluates the nodes in one array per
distinct K, sorted by degree so that every node does only its own y steps of
the subset DP. F falls as any neighbor's p rises, so plain iteration
oscillates; every sweep therefore moves p halfway to F(p).
Neighbor transmissions are treated as independent events; the discrete-event
simulator quantifies the error this approximation introduces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .io import _is_int, write_csv, write_json

# The largest neighbor count the model evaluates. Up to it every weight
# pmf[n] / C(y, n) is a normal float and every subset-DP entry, at most
# C(y, n) <= 2^y, is finite; the tests check the table against exact
# rational arithmetic up to here.
MAX_DEGREE = 512

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


@lru_cache(maxsize=MAX_DEGREE + 1)  # one entry per supported degree
def degree_table(y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pmf, cdf, weights) of the earlier-instant count for y neighbors, read-only.

    pmf[n] = P(count = n) and cdf[n] = P(count <= n) for n = 0..y, so that
    p_first(y, K) = cdf[K - 1] and cdf[y] = 1; weights[n] = pmf[n] / C(y, n)
    scales the subset sum over n-subsets. Each value is an exact integer ratio
    rounded once by Python's correctly rounded int / int division: with
    run[n] = sum_{m<=n} C(y+1, m), pmf[n] = run[n] / ((y+1) 2^y).
    """
    if not 0 <= y <= MAX_DEGREE:
        raise ValueError(f"degree {y} is outside the supported range 0..{MAX_DEGREE}")
    denom = (y + 1) << y
    run = list(accumulate(math.comb(y + 1, m) for m in range(y + 1)))
    columns = (
        [r / denom for r in run],
        [c / denom for c in accumulate(run)],
        [r / (denom * math.comb(y, n)) for n, r in enumerate(run)],
    )
    arrays = [np.array(col) for col in columns]
    for arr in arrays:
        arr.flags.writeable = False  # shared by every caller through the cache
    return tuple(arrays)


class _SweepPlan:
    """Nodes batched by K for the vectorized update map.

    p_f holds p_first per node; it does not depend on the iterate. For each
    distinct K, the nodes with y >= K form one batch whose columns run from
    the largest degree to the smallest, ties by node id. Step c of the subset
    DP takes the c-th neighbor of the leading active[c] columns, the ones with
    y > c, so every node takes exactly its own y steps over its own K states.
    A batch keeps its node ids, K, active, the neighbor ids in step order
    (step c's ids follow step c-1's) and a (y_max + 1, G) weight array that
    holds pmf[m] / C(y, m) at rows m = K..y of each column and 0 elsewhere.
    """

    def __init__(self, topology, k_assignment) -> None:
        if len(k_assignment.k) != topology.n:
            raise ValueError("k_assignment length does not match topology")
        members: dict[int, list[int]] = {}
        p_f = []
        for i, (neigh, k) in enumerate(zip(topology.neighbor_lists, k_assignment.k)):
            y = len(neigh)
            p_f.append(degree_table(y)[1][min(k, y + 1) - 1])  # cdf[y] = 1 covers K > y
            if y >= k:
                members.setdefault(k, []).append(i)
        self.p_f = np.array(p_f)
        self.batches = []
        for k, nodes in sorted(members.items()):
            nodes.sort(key=lambda i: -len(topology.neighbor_lists[i]))  # stable: ties stay by id
            lists = [topology.neighbor_lists[i] for i in nodes]
            ys = [len(neigh) for neigh in lists]
            active = [sum(y > c for y in ys) for c in range(ys[0])]
            neighbors = [neigh[c] for c, a in enumerate(active) for neigh in lists[:a]]
            weights = np.zeros((ys[0] + 1, len(nodes)))
            for g, y in enumerate(ys):
                weights[k : y + 1, g] = degree_table(y)[2][k:]
            self.batches.append((np.array(nodes), k, active, np.array(neighbors), weights))

    def p_lo(self, p: np.ndarray) -> np.ndarray:
        """Last-opportunity probability of every node against the iterate p; 0 where y < K."""
        out = np.zeros(len(p))
        for nodes, k, active, neighbors, weights in self.batches:
            q = p[neighbors]
            r = 1.0 - q
            # w[m, j, col] is the sum, over m-subsets of the column's first c
            # neighbors, of P(exactly j of them transmit). After c neighbors
            # only the rows m <= c can be non-zero.
            w = np.zeros((len(weights), k, len(nodes)))
            w[0, 0] = 1.0
            start = 0
            for c, a in enumerate(active):
                step = slice(start, start + a)
                start += a
                prev = w[: c + 1, :, :a]
                silent = r[step] * prev
                if k > 1:  # with K = 1 a firing neighbor only leaves the state
                    fired = q[step] * prev[:, :-1]
                    w[1 : c + 2, :, :a] += silent
                    w[1 : c + 2, 1:, :a] += fired
                else:
                    w[1 : c + 2, :, :a] += silent
            out[nodes] = np.einsum("mjg,mg->g", w, weights)
        return out


def update_map(topology, k_assignment, current_p, *, plan: _SweepPlan | None = None) -> np.ndarray:
    """One Jacobi sweep of the coupled probability equations.

    Nodes with fewer neighbors than their redundancy constant map to exactly
    1; all others map to p_first plus the last-opportunity probability
    evaluated against the previous iterate. Output is clipped to [0, 1]
    against rounding. plan holds this topology's nodes batched by K and
    sorted by degree; solve_fixed_point passes the one it built, and it is
    built here when omitted.
    """
    p = np.asarray(current_p, dtype=float)
    if p.shape != (topology.n,):
        raise ValueError(f"current_p must have shape ({topology.n},)")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails it too
        raise ValueError("current_p entries must lie in [0, 1]")
    if plan is None:
        plan = _SweepPlan(topology, k_assignment)
    return np.clip(plan.p_f + plan.p_lo(p), 0.0, 1.0)


def solve_fixed_point(topology, k_assignment, config: SolverConfig | None = None) -> ModelSolution:
    """Solve the N-equation system by damped fixed-point iteration.

    Stops when the fixed-point defect max|F(p) - p| drops below the
    tolerance. Non-convergence is reported through the `converged` flag, not
    raised; non-finite iterates abort with a diagnostic.
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
        if not np.all(np.isfinite(f)):
            raise FloatingPointError(
                f"non-finite iterate at iteration {iterations}; last residual {defect:.3e}"
            )
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
