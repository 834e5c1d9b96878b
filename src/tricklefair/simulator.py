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
for many nodes at once in uint64 arrays. Interval m of a node starts at the
double phase + m, and every firing instant stays inside its own interval
(one that rounds onto the next start moves to the double below it). So a
run is drawn, scheduled and decided one time window at a time: the window
[a, a + w) holds the events of intervals a - 1 ... a + w - 1 that fall in
it, w = max(1, _WINDOW_EVENTS // n) intervals, and a run holds one window
of draws and schedule whatever its number of intervals (the runs of one
``_rng`` block, up to 1,024 rows of nodes, share one buffer of draws, so on
a tiny topology that buffer reaches 1,024 x (w + 1) doubles). One unstable sort
orders a window's events; only when two event times tie is the order
refined, so that ties break by node id, then interval, and the windows'
events in turn are the whole run's in order. A reception at t belongs to
the receiver's interval that holds t, so a delivery costs one float
comparison with the start of the receiver's current interval, and a run
stops after its last measured decision.
K assignments on one topology share each run's draws and so its event
schedule (common random numbers): a run builds each window once, and one
pass of the decision loop decides it for every assignment, reading
memoryviews of the sorted times, node ids and next interval starts and a
measured-flag column, and carrying its counters from window to window. With
two or more assignments, node i's reception counter and its count are each
one int that holds a bit field per assignment, and one subtraction from a
per-node key and one mask tell in which assignments the node transmits
(several small counters in one machine word, as in Lamport, *Multiple byte
processing with full-word instructions*, CACM 18(8), 1975); one assignment
compares its counter with K itself.

Runs are independent: ``run_steady_states`` splits them into contiguous
spans, one per CPU the process may use (``os.sched_getaffinity``) but no
more than gives each span ``_FORK_EVENTS`` decisions, simulates the first
span itself and forks a child per other span. The counts array
lives in one anonymous shared mapping made before any fork, so a child draws
only its own runs, writes their counts into its rows of that array and
leaves by ``os._exit``, and nothing it inherited (atexit handlers, buffered
output) runs twice; the array holds the same bytes as one process. A failed
child's span runs again in the parent, so the span's own exception reaches
the caller, and no child outlives the call. The parent's peak RSS does not
include the children's memory.
"""
from __future__ import annotations

import math
import mmap
import os
import warnings
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from ._rng import substreams
from .io import _is_int, write_records, write_records_csv

CI95_Z = 1.96  # normal approximation quantile for two-sided 95%
# Events per time window of a run: about 0.5 MiB of schedule. A 2000-node run
# of 2 + 20 intervals took 14.7 ms of CPU in windows of 8,192 events and
# 15.2 ms in one window; windows of 4,096 and 2,048 took 15.4 and 16.2 ms.
_WINDOW_EVENTS = 8192
# Decisions a forked worker must get to pay for its fork: forking, leaving
# and reaping a child take about 2.6 ms, two busy processes run at 1.05-1.47x
# the time of one on 2 CPUs, and a decision takes about 0.3 us. So the
# 19,110 decisions of a 7x7-grid table stay in one process, while 30 runs of
# 200 nodes (78,000) and of 2,000 nodes (1.38M) still fork.
_FORK_EVENTS = 32768


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


def _decider(neighbor_lists, ks_list, params: TrickleParams):
    """``(decide, unpack)``: the decision loop over a window for every K list, and the counts per list.

    One K list runs ``_decide``, which compares each counter with K itself
    (the packed loop alone made a 2000-node ``simulate`` 13% slower end to
    end). Two or more run ``_decide_lanes`` over one int per node that holds
    a field of ``bits`` bits per list. 2**(bits - 1) exceeds every reception
    counter (a node listens for less than one interval, and a neighbor's own
    events are more than half an interval apart, so at most 2 x degree) and
    every measured count. Key i holds 2**(bits - 1) - 1
    + min(K, 2**(bits - 1)) in each field, so the field's top bit survives
    subtracting the counter exactly when the counter is below K, and no
    field borrows from the next.
    """
    if len(ks_list) == 1:
        return partial(_decide, neighbor_lists, ks_list[0]), lambda counts: [counts]
    bits = max(2 * max(map(len, neighbor_lists), default=0), params.measured_intervals).bit_length() + 1
    top, mask = 1 << (bits - 1), (1 << bits) - 1
    shifts = range(0, len(ks_list) * bits, bits)
    keys = [sum(top - 1 + min(int(k), top) << shift for k, shift in zip(ks, shifts)) for ks in zip(*ks_list)]
    high = sum(top << shift for shift in shifts)
    return partial(_decide_lanes, neighbor_lists, keys, high, bits - 1), lambda counts: [[c >> shift & mask for c in counts] for shift in shifts]


def _simulate_block(neighbor_lists, decider, params: TrickleParams, runs: int, draw) -> list[list[list[int]]]:
    """Transmission counts [run][K list][node] of ``runs`` runs drawn side by side.

    ``decider`` is ``_decider(neighbor_lists, ks_list, params)``. ``draw(out)``
    fills ``out``, shape (runs, n, count), with the next ``count`` doubles
    of every node of every run: a node's first double is its phase, the
    next one the offset of interval 0, and so on. Node i's own event of
    interval m lies in [start + 0.5, next start), start = phase + m, so the
    time window [a, a + w) holds only events of intervals a - 1 ... a + w - 1:
    the runs advance through the windows together, each window draws the
    columns it adds into one buffer, and each run carries its decision-loop
    state from window to window.
    """
    n = len(neighbor_lists)
    decide, unpack = decider
    first, last = params.warmup_intervals, params.warmup_intervals + params.measured_intervals
    width = max(1, _WINDOW_EVENTS // n)
    phases = np.empty((runs, n))
    draw(phases[:, :, None])
    states = [([0] * n, phase.tolist(), [0] * n) for phase in phases]
    end_times = [math.inf] * runs  # the time of each run's last measured decision, once drawn
    offsets = np.empty((runs, n, min(width, last + 1) + 1))  # a window's intervals lo ... hi - 1
    cols = 0
    # One trailing interval, `last`, beyond the measured window keeps
    # late-phase neighbors firing while early-phase nodes finish their last
    # measured interval.
    for a in range(0, last + 1, width):
        if a > max(end_times):  # no later event changes a count
            break
        lo, hi = max(a - 1, 0), min(a + width, last + 1)
        if lo < a:  # interval a - 1, the previous window's last column
            offsets[:, :, 0] = offsets[:, :, cols - 1]
        cols = hi - lo
        draw(offsets[:, :, a - lo : cols])
        for r, (phase, state) in enumerate(zip(phases, states)):
            if a > end_times[r]:
                continue
            starts = phase[:, None] + np.arange(lo, hi + 1.0)
            # the same float operations as phase + m + offsets[m] one event at a time
            times = starts[:, :-1] + (0.5 + 0.5 * offsets[r, :, :cols])
            np.minimum(times, np.nextafter(starts[:, 1:], 0.0), out=times)
            if lo <= last - 1 < hi:
                end_times[r] = times[:, last - 1 - lo].max()
            times = times.ravel()
            inside = np.flatnonzero((times >= a) & (times < a + width) & (times <= end_times[r]))
            times = times[inside]
            order = np.argsort(times)
            times = times[order]
            if np.any(times[1:] == times[:-1]):
                # ties (measure zero) break by row-major index: node id, then interval
                order = order[np.lexsort((order, times))]
            index = inside[order]
            nodes, intervals = np.divmod(index, hi - lo)
            measured = ((intervals >= first - lo) & (intervals < last - lo)).tobytes()
            index += nodes + 1  # the flat index of starts[nodes, intervals + 1]
            decide(state, (memoryview(times), memoryview(nodes), measured, memoryview(starts.ravel()[index])))
    return [unpack(counts) for _, _, counts in states]


def _decide(neighbor_lists, ks, state, events) -> None:
    """The decision loop over one window's events, carrying one K list's (cnt, start, counts) on.

    cnt[i] counts node i's receptions at t >= start[i], the start of the
    interval whose own event comes next; that event reads the counter,
    zeroes it and sets start[i] to the next start. Since no own event leaves
    its interval, every reception lands in the interval that holds it.
    """
    cnt, start, counts = state
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


def _decide_lanes(neighbor_lists, keys, high, shift, state, events) -> None:
    """``_decide`` for every K list at once: cnt and counts hold one field per list (``_decider``).

    ``high`` has the top bit of each field set. That bit of keys[i] - cnt[i]
    is set exactly in the lists in which node i transmits; shifted down by
    ``shift`` to the field's lowest bit, it is the 1 that each of those
    lists adds to a count or a counter. start depends only on the schedule,
    so all lists share it.
    """
    cnt, start, counts = state
    for t, i, flag, nxt in zip(*events):
        u = (keys[i] - cnt[i]) & high
        cnt[i] = 0
        start[i] = nxt
        if not u:
            continue
        u >>= shift
        if flag:
            counts[i] += u
        for j in neighbor_lists[i]:
            if t >= start[j]:
                cnt[j] += u


def _simulate_span(neighbor_lists, ks_list, params: TrickleParams, counts: np.ndarray, runs: range) -> None:
    """Fill ``counts[a, r]`` with the counts of run r under K list a, for each r in ``runs``."""
    # Warmup intervals are discarded, but the start-up transient is longer
    # than the default of 2: on the 7x7 grid at K=1 the corner rate climbs
    # from 0.47 (interval 0) to 0.53 (interval 2) and settles near 0.57
    # only from interval 6, so short windows read low.
    decider = _decider(neighbor_lists, ks_list, params)
    for block, draw in substreams(params.base_seed, runs, len(neighbor_lists)):
        for r, run_counts in zip(block, _simulate_block(neighbor_lists, decider, params, len(block), draw)):
            for a, assignment_counts in enumerate(run_counts):
                counts[a, r] = assignment_counts


def run_steady_states(topology, k_assignments, params: TrickleParams) -> list[SimulationResult]:
    """Simulate every K assignment over the same `runs` repetitions, one result each.

    Every assignment sees the same draws and event schedule, which each run
    builds and decides once; the counts equal separate ``run_steady_state``
    calls. The runs are split into contiguous spans, one per CPU this
    process may use while each span gets ``_FORK_EVENTS`` decisions; the
    first span runs here and each other one in a forked child, which writes
    its runs' counts straight into the shared counts array.
    """
    for k_assignment in k_assignments:
        if len(k_assignment.k) != topology.n:
            raise ValueError("k_assignment length does not match topology")
    if not k_assignments:
        return []
    simulate = partial(_simulate_span, topology.neighbor_lists, [ka.k for ka in k_assignments], params)
    shape = (len(k_assignments), params.runs, topology.n)
    try:  # an anonymous mapping is shared: each child forked below writes its runs' rows in place
        counts = np.ndarray(shape, np.int64, mmap.mmap(-1, 8 * math.prod(shape)))
    except (OSError, OverflowError) as exc:  # numpy reports an allocation too large as MemoryError
        raise MemoryError(f"cannot map int64 counts of shape {shape}") from exc
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    decisions = params.runs * topology.n * (params.warmup_intervals + params.measured_intervals + 1)
    workers = max(1, min(cpus, params.runs, decisions // _FORK_EVENTS))
    bounds = [params.runs * w // workers for w in range(workers + 1)]
    spans = [range(first, stop) for first, stop in zip(bounds, bounds[1:])]
    children = []  # (pid, span) of each forked child not yet reaped, in run order
    try:
        for runs in spans[1:]:
            with warnings.catch_warnings():
                # Python 3.12+ (untested; this code has run on 3.11) warns on fork in
                # a multithreaded process, and numpy's OpenBLAS pool makes this one;
                # the child calls no BLAS and leaves by os._exit.
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                code = 1  # any exception: the parent re-runs the span and raises it there
                try:
                    simulate(counts, runs)
                    code = 0
                finally:
                    os._exit(code)
            children.append((pid, runs))
        simulate(counts, spans[0])
        while children:
            pid, runs = children[0]
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status:  # the child failed: its span's exception is raised here
                simulate(counts, runs)
    finally:
        for pid, _ in children:
            os.kill(pid, 9)  # SIGKILL; importing signal would add about 1 ms to every start-up
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
