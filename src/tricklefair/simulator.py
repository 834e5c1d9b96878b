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
break by node id, then interval.
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


def _single_run(neighbor_lists, ks, params: TrickleParams, draws: np.ndarray) -> list[int]:
    """Transmission counts of one run; ``draws`` row i is node i's substream."""
    n, total = draws.shape[0], draws.shape[1] - 1
    phases = draws[:, 0]
    # The same float operations as phases[i] + m + offsets[m] one event at a
    # time, in row-major (node, m) order.
    times = ((phases[:, None] + np.arange(total)) + (0.5 + 0.5 * draws[:, 1:])).ravel()
    order = np.argsort(times)
    times = times[order]
    if np.any(times[1:] == times[:-1]):
        # ties (measure zero) break by row-major index: node id, then interval
        order = order[np.lexsort((order, times))]
    phases = phases.tolist()

    counter = [0] * n
    current = [-(1 << 60)] * n  # interval index the counter belongs to
    counts = [0] * n
    first = params.warmup_intervals
    last = params.warmup_intervals + params.measured_intervals
    # Events are unpacked into Python lists one block at a time, which keeps
    # the per-event objects of a large network from being alive all at once.
    for lo in range(0, order.size, _EVENT_BLOCK):
        block = slice(lo, lo + _EVENT_BLOCK)
        nodes, intervals = np.divmod(order[block], total)
        for t, i, m in zip(times[block].tolist(), nodes.tolist(), intervals.tolist()):
            if current[i] != m:
                current[i] = m
                counter[i] = 0
            if counter[i] >= ks[i]:
                continue
            if first <= m < last:
                counts[i] += 1
            for j in neighbor_lists[i]:
                mj = math.floor(t - phases[j])
                if current[j] != mj:
                    current[j] = mj
                    counter[j] = 0
                counter[j] += 1
    return counts


def run_steady_state(topology, k_assignment, params: TrickleParams) -> SimulationResult:
    """Simulate `runs` independent repetitions and estimate per-node probabilities."""
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
    counts = np.empty((params.runs, n), dtype=np.int64)
    draws = substreams(params.base_seed, params.runs, n, total + 1)
    for r, run_draws in enumerate(draws):
        counts[r] = _single_run(topology.neighbor_lists, k_assignment.k, params, run_draws)
    mean_p, ci95 = _estimate(counts, params)
    return SimulationResult(counts=counts, mean_p=mean_p, ci95=ci95, params=params)


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
