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
break by node id, then interval. A reception at t belongs to the receiver's
interval floor(t - phase). The decision loop compares t with the exact
double where the receiver's next interval starts, so a delivery costs one
float comparison, and a run stops after its last measured decision.
Several K assignments on one topology share each run's draws, so they
share its event schedule as well (common random numbers): a run builds the
schedule once and runs the decision loop once per assignment.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._rng import substreams
from .io import _is_int, write_csv, write_json

CI95_Z = 1.96  # normal approximation quantile for two-sided 95%
_EVENT_BLOCK = 1 << 12


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


def _interval_starts(phases: np.ndarray, intervals: np.ndarray) -> np.ndarray:
    """s[i, c]: the least double s with floor(s - phases[i]) >= m = intervals[c].

    A reception at t falls in node i's interval floor(t - phases[i]) under
    float subtraction, which rises with t, so it falls in interval m or later
    exactly when t >= s[i, c]. The rounded phases[i] + m is at most one ulp
    off in either direction. Phases lie in [0, 1) and m >= 0 is an integer,
    so the starts are non-negative and one ulp up or down is one step of
    their bit patterns (below 0.0 that step gives a NaN, which never
    qualifies).
    """
    s = phases[:, None] + intervals
    bits = s.view(np.int64)
    trial = np.subtract(s, phases[:, None])
    bits += trial < intervals  # one ulp up where phases + m falls short
    np.subtract(bits, 1, out=trial.view(np.int64))
    np.subtract(trial, phases[:, None], out=trial)
    bits -= trial >= intervals  # one ulp down where the double below also qualifies
    return s


def _single_run(neighbor_lists, ks_list, params: TrickleParams, draws: np.ndarray) -> list[list[int]]:
    """Transmission counts of one run per K list; ``draws`` row i is node i's substream.

    The event schedule (times, interval starts, sort order, cuts and each
    block's unpacked lists) depends only on the draws, so it is built once
    and every K list runs the decision loop over it with its own state.
    cnt[i] counts node i's receptions at times t >= start[i], the start of
    its next own interval. Its own event reads the counter, zeroes it and
    moves start[i] to the interval after. This equals counting the
    receptions in floor(t - phase) == m, because that interval index rises
    with t, except at an own event that rounds onto its next interval's start
    (an offset that rounds to 1.0): a reception in the next interval before
    it would have reset the counter, so it reads 0 if it heard one and its
    own interval's count otherwise. Such events are found beforehand, and the
    event blocks are cut at that next start, to save and zero the counter,
    and at the own event, to restore or clear it.
    """
    n, total = draws.shape[0], draws.shape[1] - 1
    phases = draws[:, 0]
    first = params.warmup_intervals
    last = params.warmup_intervals + params.measured_intervals
    # The same float operations as phases[i] + m + offsets[m] one event at a
    # time, in row-major (node, m) order.
    times = (phases[:, None] + np.arange(total)) + (0.5 + 0.5 * draws[:, 1:])
    # Interval 0 starts at the phase itself; the own event (i, m) moves the
    # start to nexts[i, m], that of interval m + 1.
    nexts = _interval_starts(phases, np.arange(1.0, total + 1.0))
    late = np.flatnonzero(times >= nexts)
    end_time = times[:, last - 1].max()  # the last measured decision
    times, nexts = times.ravel(), nexts.ravel()
    order = np.argsort(times)
    times = times[order]
    if np.any(times[1:] == times[:-1]):
        # ties (measure zero) break by row-major index: node id, then interval
        order = order[np.lexsort((order, times))]
    # no later event changes a count
    end = int(np.searchsorted(times, end_time, side="right"))

    cut_at: dict[int, list[int]] = {}  # event position -> nodes
    own_at: dict[int, list[int]] = {}
    if late.size:
        own = np.flatnonzero(np.isin(order[:end], late))
        cuts = np.searchsorted(times, nexts[order[own]])
        for i, cut, at in zip((order[own] // total).tolist(), cuts.tolist(), own.tolist()):
            cut_at.setdefault(cut, []).append(i)
            own_at.setdefault(at, []).append(i)
    # per K list: counter, next interval start, counts, counters saved at cuts
    states = [(ks, [0] * n, phases.tolist(), [0] * n, {}) for ks in ks_list]
    # Events are unpacked into Python lists one block at a time, which keeps
    # the per-event objects of a large network from being alive all at once.
    bounds = sorted({*range(0, end, _EVENT_BLOCK), *cut_at, *own_at})
    for lo, hi in zip(bounds, bounds[1:] + [end]):
        block = order[lo:hi]
        nodes, intervals = np.divmod(block, total)
        unpacked = times[lo:hi].tolist(), nodes.tolist(), intervals.tolist(), nexts[block].tolist()
        for ks, cnt, start, counts, saved in states:
            for i in cut_at.get(lo, ()):
                saved[i], cnt[i] = cnt[i], 0
            for i in own_at.get(lo, ()):  # a node's cut comes first, at this or an earlier event
                cnt[i] = 0 if cnt[i] else saved[i]
            for t, i, m, nxt in zip(*unpacked):
                c = cnt[i]
                cnt[i] = 0
                start[i] = nxt
                if c >= ks[i]:
                    continue
                if first <= m < last:
                    counts[i] += 1
                for j in neighbor_lists[i]:
                    if t >= start[j]:
                        cnt[j] += 1
        del unpacked  # before the next block's objects are built
    return [counts for _, _, _, counts, _ in states]


def run_steady_states(topology, k_assignments, params: TrickleParams) -> list[SimulationResult]:
    """Simulate every K assignment over the same `runs` repetitions, one result each.

    Every assignment sees the same draws and event schedule, which each run
    builds once; the counts equal separate ``run_steady_state`` calls.
    """
    for k_assignment in k_assignments:
        if len(k_assignment.k) != topology.n:
            raise ValueError("k_assignment length does not match topology")
    n = topology.n
    # One trailing interval beyond the measured window keeps late-phase
    # neighbors firing while early-phase nodes finish their last measured
    # interval. Warmup intervals are discarded, but the start-up transient
    # is longer than the default of 2: on the 7x7 grid at K=1 the corner
    # rate climbs from 0.47 (interval 0) to 0.53 (interval 2) and settles
    # near 0.57 only from interval 6, so short windows read low.
    total = params.warmup_intervals + params.measured_intervals + 1
    ks_list = [k_assignment.k for k_assignment in k_assignments]
    counts = np.empty((len(ks_list), params.runs, n), dtype=np.int64)
    draws = substreams(params.base_seed, params.runs, n, total + 1)
    for r, run_draws in enumerate(draws):
        for a, run_counts in enumerate(_single_run(topology.neighbor_lists, ks_list, params, run_draws)):
            counts[a, r] = run_counts
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
    doc = {
        "params": asdict(result.params),
        "per_node": [
            {
                "id": i,
                "mean_p": float(result.mean_p[i]),
                "ci95": None if result.ci95 is None else float(result.ci95[i]),
                "counts_per_run": [int(c) for c in result.counts[:, i]],
            }
            for i in range(result.counts.shape[1])
        ],
    }
    if extra:
        doc.update(extra)
    write_json(path, doc)


def save_result_csv(path, result: SimulationResult) -> None:
    ci95 = [""] * len(result.mean_p) if result.ci95 is None else result.ci95
    write_csv(path, ["id", "mean_p", "ci95"], zip(range(len(result.mean_p)), result.mean_p, ci95))
