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
which is kept exact.

The N equations p = F(p) are solved by Newton's method on G(p) = F(p) - p.
F falls as any neighbor's p rises, on dense single-hop networks with a slope
below -3, where moving p a fixed fraction toward F(p) diverges. The Jacobian
is exact, one entry per directed edge i <- j,

    dF_i/dp_j = -2 * integral_{1/2}^{1} t * P(S_{-j} = K - 1) dt,

where S_{-j} counts the transmitting earlier neighbors of i other than j; the
same Gauss rule integrates it exactly, and F and J run one DP step form for
every K, K = 1 included. Every step solves (I - J) delta = G by
restarted GMRES, then halves the step until max|F(p) - p| falls enough. The
discrete-event simulator quantifies the error of the independence
approximation.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .io import _is_int, write_records, write_records_csv

_INITIAL_P = 0.5  # starting probability of every node not forced to 1
_SUFFICIENT_DECREASE = 1e-4  # a step of length s must cut the defect by the factor 1 - 1e-4 s
_MAX_HALVINGS = 20  # shortest trial step: 2**-20 of the Newton step
_GMRES_RESTART = 30  # Krylov basis size before a restart
_GMRES_MAX_ITERATIONS = 300  # then the best iterate so far goes to the line search
_GMRES_RTOL = 1e-2  # GMRES stops once |residual| <= min(1e-2, defect) * |G|


@dataclass(frozen=True)
class SolverConfig:
    """Newton controls: stop once max|F(p) - p| < tolerance, or after max_iterations iterates."""

    tolerance: float = 1e-10
    max_iterations: int = 100

    def __post_init__(self) -> None:
        # The defect max|F(p) - p| never exceeds 1, so a tolerance of 1 or more
        # accepts any start; written so that NaN fails it too.
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must lie in (0, 1)")
        if not _is_int(self.max_iterations) or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer >= 1")


@dataclass(frozen=True)
class ModelSolution:
    """Converged (or flagged) per-node probabilities with solver diagnostics.

    defects holds max|F(p) - p| at every iterate, the start first;
    iterations is len(defects) and residual is defects[-1]. Newton step s
    rejected halvings[s] trial steps and took gmres_iterations[s] GMRES
    iterations. A halvings entry past the last step is a line search that
    found no step that lowered the defect, which ends the solve.
    """

    p_tx: np.ndarray
    p_f: np.ndarray
    p_lo: np.ndarray
    converged: bool
    defects: tuple[float, ...]
    halvings: tuple[int, ...]
    gmres_iterations: tuple[int, ...]

    @property
    def iterations(self) -> int:
        return len(self.defects)

    @property
    def residual(self) -> float:
        return self.defects[-1]


def _p_first(y: int, k: int) -> float:
    """P(fewer than k of y neighbors fire earlier): the integral of F at p = 1.

    With run[n] = sum_{m<=n} C(y+1, m), it is sum_{n<k} run[n] / ((y+1) 2^y),
    whose numerator sums to sum_{m<k} (k - m) C(y+1, m); Python's int / int
    division rounds the exact ratio once. Equals 1 when k > y.
    """
    if k > y:
        return 1.0
    return sum((k - m) * math.comb(y + 1, m) for m in range(k)) / ((y + 1) << y)


@lru_cache(maxsize=256)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], read-only.

    Newton's method on P_n, evaluated by the three-term recurrence, from the
    guesses cos(pi (i - 1/4) / (n + 1/2)); once a step moves no node by 1e-10
    the next would be below rounding, and the weights 2 / ((1 - x^2) P_n'(x)^2)
    are taken at that x. Symmetrized and scaled to sum to 2. numpy's leggauss
    would load numpy.polynomial and LAPACK (1.75 MiB resident), and its
    weights integrate t^(2n-1) 100 times less accurately at n = 500. Plans
    share cached rules: 256 of 1,001 points hold 3.9 MiB.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    step = math.inf
    while True:
        p_prev, p = np.ones(n), x
        for m in range(2, n + 1):
            p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
        slope = n * (x * p - p_prev) / (x * x - 1.0)  # P_n'(x)
        if step < 1e-10:
            break
        delta = p / slope
        x = x - delta
        step = float(np.max(np.abs(delta)))
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    w = (w + w[::-1]) / 2
    nodes, weights = (x - x[::-1]) / 2, w * (2.0 / w.sum())
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name on this platform
        return None


class _SweepPlan:
    """Nodes batched by K for the vectorized update map and its Jacobian, every index built once.

    p_f holds p_first per node; it does not depend on the iterate. forced
    marks the nodes with y < K, which map to exactly 1; every K > y acts as
    K = y + 1, so a K of any size stays out of numpy's fixed-width integers.
    For each distinct K, the other nodes form one batch, ordered from the
    largest degree to the smallest, ties by node id. Each node owns y // 2 + 1
    consecutive columns, one per point t of its Gauss-Legendre rule on
    [1/2, 1], with weights summing to 1. Step c of the DP takes the c-th
    neighbor of the leading nodes, the ones with y > c, into their leading
    columns, so every node takes exactly its own y steps over K states.

    - Gather: the neighbor id of each column of every step, in order, so a
      batch fills x = p[neighbor] for its steps in one call; each step
      scales its slice of x by its columns' t.
    - Views: the batches share the DP array w, whose row 0 stays zero below
      the K states, a difference buffer, x and the prefix, each sized for
      the batch that needs the most; every step's slices are made here. A
      step is four ufunc calls with out=, x *= t and
      w[j] -= x * (w[j] - w[j - 1]), at every K.
    - Row trimming: before step c at most c neighbors transmitted, so step c
      updates only the first min(K, c + 2) states; the states it skips hold
      exact zeros.
    - Jacobian: the edges are the (node, c-th neighbor) pairs of the steps in
      order, edge_rows and edge_cols. Before step c the forward DP copies the
      min(K, c + 1) states that can be nonzero into the step's prefix rows.
      The batch's backward pass runs the steps in reverse from -w t in place
      of 1, so that before backward step c, w holds -w t times P(exactly j
      of the neighbors after c transmitted), and the sum over m of
      prefix_c[m] * suffix[K - 1 - m] is the column's term of dF_i/dp_j.
      The terms land in x; one reduceat sums them into the batch's jac.

    The plan holds 8 bytes per (step, column) pair, the neighbor id, and
    for its largest batch 8 + 8 x min(K, c + 1) bytes per pair, x and the
    prefix. It counts them before allocating and raises MemoryError past
    physical memory. Its buffers make evaluate non-reentrant.
    """

    def __init__(self, topology, k_assignment) -> None:
        if len(k_assignment.k) != topology.n:
            raise ValueError("k_assignment length does not match topology")
        lists = topology.neighbor_lists
        degrees = topology.degrees
        ks = np.array([min(k, y + 1) for y, k in zip(degrees.tolist(), k_assignment.k)], dtype=np.intp)
        self.p_f = np.array([_p_first(y, k) for y, k in zip(degrees.tolist(), ks.tolist())])
        self.forced = degrees < ks
        layouts = []
        cells = 0  # (step, column) pairs of every batch: y steps of y // 2 + 1 columns per node
        x_size = dp_size = prefix_size = 0  # largest over the batches
        for k in sorted(set(ks[~self.forced].tolist())):
            nodes = np.flatnonzero((ks == k) & ~self.forced)
            nodes = nodes[np.argsort(-degrees[nodes], kind="stable")]  # ties stay by id
            ys = degrees[nodes]
            starts = np.cumsum([0, *(ys // 2 + 1)])
            active = np.count_nonzero(ys[:, None] > np.arange(ys[0]), axis=0)  # nodes that take step c
            layouts.append((k, nodes, starts, active))
            pairs = int(starts[active].sum())
            cells += pairs
            x_size = max(x_size, pairs)
            dp_size = max(dp_size, (k + 1) * int(starts[-1]))
            # min(K, c + 1) rows of the columns of every step c
            prefix_size = max(prefix_size, int(np.minimum(k, np.arange(1, len(active) + 1)) @ starts[active]))
        needed = 8 * (cells + x_size + 2 * dp_size + prefix_size)
        limit = _physical_memory()
        if limit is not None and needed > limit:
            raise MemoryError(f"the sweep plan needs {needed} bytes, more than the {limit} bytes of physical memory")
        self.gather = np.empty(cells, dtype=np.intp)
        self.x = np.empty(x_size)  # P(fired earlier and transmitted | t), one batch at a time
        self.prefix = np.empty(prefix_size)
        dp, diffs = np.empty(dp_size), np.empty(dp_size)
        self.jac = np.empty(int(degrees[~self.forced].sum()))
        edge_rows, edge_cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        self.batches = []
        offset = edges = 0  # of the gather and of jac
        for k, nodes, starts, active in layouts:
            sizes = np.diff(starts)
            rules = [_gauss_legendre(s) for s in sizes.tolist()]
            times = 0.75 + 0.25 * np.concatenate([t for t, _ in rules])  # [-1, 1] onto [1/2, 1]
            weights = 0.5 * np.concatenate([w for _, w in rules])
            # w[1 + j, col]: P(exactly j of its node's first c neighbors
            # transmitted earlier) at the column's t, for j < K
            w = dp[: (k + 1) * len(times)].reshape(k + 1, len(times))
            diff = diffs[: k * len(times)].reshape(k, len(times))
            forward, backward, edge_starts = [], [], []
            cell = used = 0  # of x and of the prefix, from 0 in every batch
            for c, a in enumerate(active.tolist()):
                b = int(starts[a])
                neighbors = [lists[i][c] for i in nodes[:a].tolist()]
                self.gather[offset + cell : offset + cell + b] = np.repeat(neighbors, sizes[:a])
                edge_rows.append(nodes[:a])
                edge_cols.append(neighbors)
                edge_starts.append(cell + starts[:a])
                # the suffix after backward step c spans at most y - c neighbors
                # of the batch's largest degree y, which is its step count
                r, rp, rs = min(k, c + 2), min(k, c + 1), min(k, len(active) - c + 1)
                pref = self.prefix[used : used + rp * b].reshape(rp, b)
                x = self.x[cell : cell + b]
                forward.append((times[:b], w[1 : rp + 1, :b], pref, w[1 : r + 1, :b], w[:r, :b], diff[:r, :b], x))
                backward.append((pref, w[k + 1 - rp :, :b][::-1], w[1 : rs + 1, :b], w[:rs, :b], diff[:rs, :b], x))
                cell += b
                used += rp * b
            edge_starts = np.concatenate(edge_starts)  # first cell of every edge in x
            gather, xs = self.gather[offset : offset + cell], self.x[:cell]
            jac = self.jac[edges : edges + len(edge_starts)]
            self.batches.append(
                (nodes, gather, xs, w, weights, -weights * times, starts, forward, backward[::-1], edge_starts, jac)
            )
            offset += cell
            edges += len(edge_starts)
        self.edge_rows = np.concatenate(edge_rows)
        self.edge_cols = np.concatenate(edge_cols)

    def evaluate(self, p: np.ndarray) -> np.ndarray:
        """F(p) of every node against the iterate p; 1 where y < K.

        Runs each batch's forward DP and then its backward pass, so it also
        leaves the edge Jacobian at p in jac, which jacobian returns.
        """
        out = np.ones(len(p))
        multiply, subtract, copyto = np.multiply, np.subtract, np.copyto
        for nodes, gather, xs, w, weights, neg_wt, starts, forward, backward, edge_starts, jac in self.batches:
            np.take(p, gather, out=xs, mode="clip")
            w.fill(0.0)
            w[1] = 1.0
            for t, w_p, pref, w_r, w_below, diff, x in forward:
                multiply(x, t, out=x)
                copyto(pref, w_p)
                subtract(w_r, w_below, out=diff)
                multiply(diff, x, out=diff)
                subtract(w_r, diff, out=w_r)
            out[nodes] = np.add.reduceat(weights * w.sum(axis=0), starts[:-1])
            w.fill(0.0)
            w[1] = neg_wt
            for pref, suffix, w_r, w_below, diff, x in backward:
                multiply(pref, suffix, out=pref)
                subtract(w_r, w_below, out=diff)
                multiply(diff, x, out=diff)
                subtract(w_r, diff, out=w_r)
                np.add.reduce(pref, axis=0, out=x)
            np.add.reduceat(xs, edge_starts, out=jac)
        return out

    def jacobian(self) -> np.ndarray:
        """dF_i/dp_j at the iterate of the last evaluate, for every edge (edge_rows[e], edge_cols[e]).

        Returns the plan's own buffer, which the next evaluate overwrites.
        """
        return self.jac


def update_map(topology, k_assignment, current_p, *, plan: _SweepPlan | None = None) -> np.ndarray:
    """F evaluated against the iterate: one Jacobi sweep of the coupled probability equations.

    Nodes with fewer neighbors than their redundancy constant map to exactly
    1; all others map to the integral F evaluated against current_p. Output
    is clipped to [0, 1] against rounding. plan holds this topology's gather
    indices, DP buffers and their per-step views, built once;
    solve_fixed_point passes the one it built and calls this function once
    per evaluation of F, and the plan is built here when omitted. The plan's
    jacobian() then holds the edge Jacobian at current_p.
    """
    p = np.asarray(current_p, dtype=float)
    if p.shape != (topology.n,):
        raise ValueError(f"current_p must have shape ({topology.n},)")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails it too
        raise ValueError("current_p entries must lie in [0, 1]")
    if plan is None:
        plan = _SweepPlan(topology, k_assignment)
    return np.clip(plan.evaluate(p), 0.0, 1.0)


def _gmres(apply, b: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """x with |b - apply(x)| <= rtol |b| by GMRES, and the iterations it took.

    Arnoldi runs classical Gram-Schmidt twice; Givens rotations keep the
    Hessenberg matrix triangular as it grows, so the residual norm is known at
    every iteration and the small least-squares problem ends in one back
    substitution. The basis restarts every _GMRES_RESTART iterations, and the
    solve stops after _GMRES_MAX_ITERATIONS with its best iterate.
    """
    x = np.zeros(len(b))
    target = rtol * math.sqrt(b @ b)
    r = b
    iterations = 0
    while iterations < _GMRES_MAX_ITERATIONS:
        beta = math.sqrt(r @ r)
        if beta <= target:
            break
        basis = np.empty((_GMRES_RESTART + 1, len(b)))
        basis[0] = r / beta
        columns: list[list[float]] = []  # of the rotated Hessenberg matrix, upper triangular
        cos: list[float] = []
        sin: list[float] = []
        g = [beta]  # the rotated right-hand side; |g[-1]| is the residual norm
        for j in range(min(_GMRES_RESTART, _GMRES_MAX_ITERATIONS - iterations)):
            v = apply(basis[j])
            done = basis[: j + 1]
            h = done @ v
            v -= h @ done
            again = done @ v
            v -= again @ done
            h = (h + again).tolist()
            norm = math.sqrt(v @ v)
            for i in range(j):
                h[i], h[i + 1] = cos[i] * h[i] + sin[i] * h[i + 1], cos[i] * h[i + 1] - sin[i] * h[i]
            diagonal = math.hypot(h[j], norm)
            if diagonal == 0.0:  # apply is singular on the basis: keep what it solved
                break
            cos.append(h[j] / diagonal)
            sin.append(norm / diagonal)
            h[j] = diagonal
            columns.append(h)
            g.append(-sin[j] * g[j])
            g[j] *= cos[j]
            iterations += 1
            if abs(g[j + 1]) <= target:  # also when norm == 0: the basis spans the solution
                break
            basis[j + 1] = v / norm
        y = [0.0] * len(columns)
        for i in reversed(range(len(columns))):
            y[i] = (g[i] - sum(columns[m][i] * y[m] for m in range(i + 1, len(columns)))) / columns[i][i]
        x += np.array(y) @ basis[: len(columns)]
        if not columns:
            break
        r = b - apply(x)
    return x, iterations


def solve_fixed_point(topology, k_assignment, config: SolverConfig | None = None) -> ModelSolution:
    """Solve the N-equation system p = F(p) by Newton's method with a line search.

    Each step solves (I - J) delta = F(p) - p with the exact Jacobian J,
    then tries p + s delta clipped to [0, 1] for s = 1, 1/2, ... until the
    defect max|F - p| falls below (1 - 1e-4 s) times its current value.
    Stops when the defect drops below the tolerance. Non-convergence is
    reported through the `converged` flag, not raised.
    """
    cfg = config or SolverConfig()
    plan = _SweepPlan(topology, k_assignment)
    p = np.where(plan.forced, 1.0, _INITIAL_P)
    f = update_map(topology, k_assignment, p, plan=plan)
    defects = [float(np.max(np.abs(f - p)))]
    halvings: list[int] = []
    krylov: list[int] = []
    while defects[-1] >= cfg.tolerance and len(defects) < cfg.max_iterations:
        jac = plan.jacobian()  # at p: the last evaluation of F was the accepted one
        rows, cols = plan.edge_rows, plan.edge_cols
        delta, its = _gmres(
            lambda v: v - np.bincount(rows, weights=jac * v[cols], minlength=len(v)),
            f - p,
            min(_GMRES_RTOL, defects[-1]),
        )
        krylov.append(its)
        for halved in range(_MAX_HALVINGS + 1):
            step = 0.5**halved
            trial = np.clip(p + step * delta, 0.0, 1.0)
            f_trial = update_map(topology, k_assignment, trial, plan=plan)
            defect = float(np.max(np.abs(f_trial - trial)))
            if defect < (1.0 - _SUFFICIENT_DECREASE * step) * defects[-1]:
                break
        else:
            halvings.append(_MAX_HALVINGS + 1)
            break
        halvings.append(halved)
        p, f = trial, f_trial
        defects.append(defect)

    # f = F(p) = p_f + p_lo at the final p; p_f does not depend on p.
    return ModelSolution(
        p_tx=p,
        p_f=plan.p_f,
        p_lo=f - plan.p_f,
        converged=defects[-1] < cfg.tolerance,
        defects=tuple(defects),
        halvings=tuple(halvings),
        gmres_iterations=tuple(krylov),
    )


def save_solution(path, topology, k_assignment, solution: ModelSolution, extra: dict | None = None) -> None:
    """Write a solution as JSON: per-node records plus solver diagnostics."""
    write_records(
        path,
        _solution_columns(topology, k_assignment, solution),
        converged=bool(solution.converged),
        iterations=solution.iterations,
        residual=solution.residual,
        policy=k_assignment.policy,
        solver={
            "defects": list(solution.defects),
            "halvings": list(solution.halvings),
            "gmres_iterations": list(solution.gmres_iterations),
        },
        **(extra or {}),
    )


def save_solution_csv(path, topology, k_assignment, solution: ModelSolution) -> None:
    write_records_csv(path, _solution_columns(topology, k_assignment, solution))


def _solution_columns(topology, k_assignment, solution: ModelSolution) -> dict:
    """The per-node fields of both solution files, in CSV column order."""
    return {
        "degree": topology.degrees.tolist(),
        "k": k_assignment.k,
        "p_tx": solution.p_tx.tolist(),
        "p_f": solution.p_f.tolist(),
        "p_lo": solution.p_lo.tolist(),
    }
