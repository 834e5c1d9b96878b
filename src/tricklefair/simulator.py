"""Discrete-event reference simulation of steady-state Trickle.

Every node keeps fixed-length intervals with an independent uniform phase
offset, so interval boundaries are unsynchronized across the network. Per
interval a node draws a firing instant uniformly in the second half, counts
consistent receptions since the interval began, and transmits at its instant
only while that counter is below its redundancy constant. Deliveries are
instantaneous and lossless to every radio neighbor; there is no radio or MAC
modeling. Time is measured in intervals: phases, instants and suppression
depend only on positions within an interval, so results do not depend on
the interval length. Results are deterministic for a fixed base seed: run r,
node i draws from an independent substream, the doubles of
``numpy.random.default_rng((base_seed, r, i))``, which ``_rng.py`` draws
for many nodes at once in uint64 arrays. One unstable sort orders a run's
events; only when two event times tie is the order refined, so that ties
break by node id, then interval. Interval m of a node starts at the double
phase + m, and every firing instant stays inside its own interval (one that
rounds onto the next start moves to the double below it). A reception at t
belongs to the receiver's interval that holds t, so a delivery costs one
float comparison with the start of the receiver's current interval, and a
run stops after its last measured decision.
K assignments on one topology share each run's draws and so its event
schedule (common random numbers): a run builds it once, and the decision
loop runs over it once per assignment, reading memoryviews of the sorted
times, node ids and next interval starts and a measured-flag column.

Runs are independent: ``run_steady_states`` splits them into contiguous
spans, one per CPU the process may use (``os.sched_getaffinity``), simulates
the first span itself and forks a child per other span. A child draws only
its own runs, writes its int64 counts as raw bytes to its own pipe and leaves
by ``os._exit``, so nothing it inherited (atexit handlers, buffered output)
runs twice; the parent reads the bytes into its counts array, the same bytes
as one process. A failed child's span runs again in the parent, so the
span's own exception reaches the caller, and no child outlives the call. The
parent's peak RSS does not include the children's memory.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from ._rng import substreams
from .io import _is_int, write_records, write_records_csv

CI95_Z = 1.96  # normal approximation quantile for two-sided 95%


@dataclass(frozen=True)
class TrickleParams:
    """Scenario controls; defaults match the bundled study setup."""

    measured_intervals: int = 10
    warmup_intervals: int = 2
    runs: int = 30
    base_seed: int = 1

    def __post_init__(self) -> None:
        # floats would fail deep inside a run
        for name, low in (("measured_intervals", 1), ("warmup_intervals", 0), ("runs", 1), ("base_seed", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")


@dataclass(frozen=True)
class SimulationResult:
    """Per-run transmission counts inside the measured window plus estimates."""

    counts: np.ndarray  # shape (runs, N), integer
    mean_p: np.ndarray
    ci95: np.ndarray | None  # half-widths; None when runs < 2
    params: TrickleParams


def _single_run(neighbor_lists, ks_list, params: TrickleParams, draws: np.ndarray) -> list[list[int]]:
    """Transmission counts of one run per K list; ``draws`` row i is node i's substream.

    Node i's phase is draws[i, 0]; interval m starts at the double
    phase + m, and its own event lies in [start + 0.5, next start): an
    instant that rounds onto the next start moves to the double below it.
    The schedule depends only on the draws, so it is built once, and each K
    list runs the decision loop over memoryviews of it with its own state.
    cnt[i] counts node i's receptions at t >= start[i], the start of the
    interval whose own event comes next; that event reads the counter,
    zeroes it and sets start[i] to the next start. Since no own event leaves
    its interval, every reception lands in the interval that holds it.
    """
    n, total = draws.shape[0], draws.shape[1] - 1
    first, last = params.warmup_intervals, params.warmup_intervals + params.measured_intervals
    starts = draws[:, :1] + np.arange(total + 1.0)
    # The same float operations as phase + m + offsets[m] one event at a
    # time, in row-major (node, m) order.
    times = starts[:, :-1] + (0.5 + 0.5 * draws[:, 1:])
    np.minimum(times, np.nextafter(starts[:, 1:], 0.0), out=times)
    end_time = times[:, last - 1].max()  # the last measured decision
    times = times.ravel()
    order = np.argsort(times)
    times = times[order]
    if np.any(times[1:] == times[:-1]):
        # ties (measure zero) break by row-major index: node id, then interval
        order = order[np.lexsort((order, times))]
    # no later event changes a count
    end = int(np.searchsorted(times, end_time, side="right"))
    order, times = order[:end], times[:end]

    nodes, intervals = np.divmod(order, total)
    measured = ((intervals >= first) & (intervals < last)).tobytes()
    del intervals  # one whole-run column fewer alive during the gather and the loop
    order += nodes + 1  # the flat index of starts[nodes, intervals + 1]
    events = memoryview(times), memoryview(nodes), measured, memoryview(starts.ravel()[order])
    result = []
    for ks in ks_list:
        cnt, start, counts = [0] * n, starts[:, 0].tolist(), [0] * n
        for t, i, flag, nxt in zip(*events):
            c = cnt[i]
            cnt[i] = 0
            start[i] = nxt
            if c >= ks[i]:
                continue
            if flag:
                counts[i] += 1
            for j in neighbor_lists[i]:
                if t >= start[j]:
                    cnt[j] += 1
        result.append(counts)
    return result


def _simulate_span(neighbor_lists, ks_list, params: TrickleParams, counts: np.ndarray, runs: range) -> None:
    """Fill ``counts[a, r]`` with the counts of run r under K list a, for each r in ``runs``."""
    # One trailing interval beyond the measured window keeps late-phase
    # neighbors firing while early-phase nodes finish their last measured
    # interval. Warmup intervals are discarded, but the start-up transient
    # is longer than the default of 2: on the 7x7 grid at K=1 the corner
    # rate climbs from 0.47 (interval 0) to 0.53 (interval 2) and settles
    # near 0.57 only from interval 6, so short windows read low.
    total = params.warmup_intervals + params.measured_intervals + 1
    for r, run_draws in zip(runs, substreams(params.base_seed, runs, len(neighbor_lists), total + 1)):
        for a, run_counts in enumerate(_single_run(neighbor_lists, ks_list, params, run_draws)):
            counts[a, r] = run_counts


def _fork_span(simulate, counts: np.ndarray, runs: range):
    """Fork a child that runs ``simulate(counts, runs)`` and pipes those runs' counts back; return (pid, read end)."""
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ (untested; this code has run on 3.11) warns on fork in
        # a multithreaded process, and numpy's OpenBLAS pool makes this one;
        # the child calls no BLAS and leaves by os._exit.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1  # any exception: the parent re-runs the span and raises it there
        try:
            os.close(read_end)
            simulate(counts, runs)
            with open(write_end, "wb") as pipe:
                for rows in counts[:, runs.start : runs.stop]:  # one contiguous block per K list
                    pipe.write(rows)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)  # else a later child inherits it and the read never sees EOF
    return pid, open(read_end, "rb")


def run_steady_states(topology, k_assignments, params: TrickleParams) -> list[SimulationResult]:
    """Simulate every K assignment over the same `runs` repetitions, one result each.

    Every assignment sees the same draws and event schedule, which each run
    builds once; the counts equal separate ``run_steady_state`` calls. The
    runs are split into contiguous spans, one per CPU this process may use;
    the first span runs here and each other one in a forked child.
    """
    for k_assignment in k_assignments:
        if len(k_assignment.k) != topology.n:
            raise ValueError("k_assignment length does not match topology")
    simulate = partial(_simulate_span, topology.neighbor_lists, [ka.k for ka in k_assignments], params)
    counts = np.empty((len(k_assignments), params.runs, topology.n), dtype=np.int64)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, params.runs)
    bounds = [params.runs * w // workers for w in range(workers + 1)]
    spans = [range(first, stop) for first, stop in zip(bounds, bounds[1:])]
    children = []  # (pid, read end) of each forked span not yet reaped, in run order
    try:
        for runs in spans[1:]:
            children.append(_fork_span(simulate, counts, runs))
        simulate(counts, spans[0])
        for runs in spans[1:]:
            pid, pipe = children[0]
            with pipe:
                for rows in counts[:, runs.start : runs.stop]:
                    pipe.readinto(rows)
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status:  # the child failed: its span's exception is raised here
                simulate(counts, runs)
    finally:
        for pid, pipe in children:
            os.kill(pid, 9)  # SIGKILL; importing signal would add about 1 ms to every start-up
            pipe.close()
            os.waitpid(pid, 0)
    results = []
    for assignment_counts in counts:
        mean_p, ci95 = _estimate(assignment_counts, params)
        results.append(SimulationResult(counts=assignment_counts, mean_p=mean_p, ci95=ci95, params=params))
    return results


def run_steady_state(topology, k_assignment, params: TrickleParams) -> SimulationResult:
    """Simulate `runs` independent repetitions and estimate per-node probabilities."""
    return run_steady_states(topology, [k_assignment], params)[0]


def _estimate(counts: np.ndarray, params: TrickleParams):
    freqs = counts / float(params.measured_intervals)
    mean_p = freqs.mean(axis=0)
    if params.runs < 2:
        return mean_p, None
    half = CI95_Z * freqs.std(axis=0, ddof=1) / math.sqrt(params.runs)
    return mean_p, half


def save_result(path, result: SimulationResult, extra: dict | None = None) -> None:
    """Write a simulation result as JSON: echoed parameters plus per-node records."""
    columns = {**_estimate_columns(result), "counts_per_run": result.counts.T.tolist()}
    write_records(path, columns, params=asdict(result.params), **(extra or {}))


def save_result_csv(path, result: SimulationResult) -> None:
    write_records_csv(path, _estimate_columns(result))


def _estimate_columns(result: SimulationResult) -> dict:
    """mean_p and ci95 per node; a single run has no ci95, written as null or an empty cell."""
    n = result.counts.shape[1]
    return {"mean_p": result.mean_p.tolist(), "ci95": [None] * n if result.ci95 is None else result.ci95.tolist()}
