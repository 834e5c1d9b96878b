"""Scalar reference implementations the tests compare the package against.

The model integrates over a node's firing instant with a Gauss-Legendre rule
for every node of a K batch at once; these are one-node-at-a-time versions
derived another way, written for clarity rather than speed: an exact
per-degree table of the earlier-instant count and a DP over the subsets of
neighbors that fired earlier. The simulator and the unit-disk edge search
have references here too: one generator and one sorted event tuple at a
time, and one node against all later nodes at a time.
"""
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from tricklefair.simulator import CI95_Z
from tricklefair.topology import RANGE_SLACK

# The largest neighbor count degree_table covers. Up to it every weight
# pmf[n] / C(y, n) is a normal float and every subset-DP entry, at most
# C(y, n) <= 2^y, is finite.
MAX_DEGREE = 512


def _pascal_row(y: int) -> list[int]:
    """C(y, 0..y) by the multiplicative recurrence C(y, m+1) = C(y, m) (y-m) / (m+1), exact in integers."""
    row = [1]
    for m in range(y):
        row.append(row[-1] * (y - m) // (m + 1))
    return row


@lru_cache(maxsize=MAX_DEGREE + 1)  # one entry per supported degree
def degree_table(y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pmf, cdf, weights) of the earlier-instant count for y neighbors, read-only.

    Marginalizing Binomial(y, t) over the firing instant t ~ U[1/2, 1) gives

        P(count = n) = 2/(y+1) * 2^-(y+1) * sum_{m=0}^{n} C(y+1, m).

    pmf[n] = P(count = n) and cdf[n] = P(count <= n) for n = 0..y, so that
    p_first(y, K) = cdf[K - 1] and cdf[y] = 1; weights[n] = pmf[n] / C(y, n)
    scales the subset sum over n-subsets. Each value is an exact integer ratio
    rounded once by Python's correctly rounded int / int division: with
    run[n] = sum_{m<=n} C(y+1, m), pmf[n] = run[n] / ((y+1) 2^y).
    """
    if not 0 <= y <= MAX_DEGREE:
        raise ValueError(f"degree {y} is outside the supported range 0..{MAX_DEGREE}")
    denom = (y + 1) << y
    run = list(itertools.accumulate(_pascal_row(y + 1)[: y + 1]))
    columns = (
        [r / denom for r in run],
        [c / denom for c in itertools.accumulate(run)],
        [r / (denom * c) for r, c in zip(run, _pascal_row(y))],
    )
    arrays = [np.array(col) for col in columns]
    for arr in arrays:
        arr.flags.writeable = False  # shared by every caller through the cache
    return tuple(arrays)


def integral_pmf(y: int, n: int) -> Fraction:
    """P(count = n) as the exact integral 2 * int_{1/2}^{1} C(y, n) t^n (1-t)^(y-n) dt.

    Expands (1-t)^(y-n) binomially and integrates term by term in exact
    rational arithmetic, independently of degree_table's closed form.
    """
    total = Fraction(0)
    for i in range(y - n + 1):
        e = n + i + 1  # int_{1/2}^{1} t^(e-1) dt = (1 - 2^-e) / e
        total += (-1) ** i * math.comb(y - n, i) * Fraction((1 << e) - 1, e << e)
    return 2 * math.comb(y, n) * total


def p_first(y: int, k: int) -> float:
    """Probability of drawing one of the first k instants among y+1 unordered ones.

    Equals 1 when k > y (the node always holds an early enough slot).
    """
    if y < 0:
        raise ValueError("neighbor count must be >= 0")
    if k < 1:
        raise ValueError("redundancy constant must be >= 1")
    if k > y:
        return 1.0
    acc = 0
    run = 0
    for n in range(k):
        run += math.comb(y + 1, n)
        acc += run
    return 2 * acc / ((y + 1) << (y + 1))


def gamma_exact(j: int, probs) -> float:
    """Probability that exactly j of the given independent events occur.

    Brute-force subset enumeration, exponential in len(probs); kept as the
    reference oracle for the polynomial-time path.
    """
    p = [float(v) for v in probs]
    if any(v < 0.0 or v > 1.0 for v in p):
        raise ValueError("probabilities must lie in [0, 1]")
    if not 0 <= j <= len(p):
        raise ValueError("j must lie in 0..len(probs)")
    total = 0.0
    for chosen in itertools.combinations(range(len(p)), j):
        members = set(chosen)
        term = 1.0
        for idx, v in enumerate(p):
            term *= v if idx in members else 1.0 - v
        total += term
    return total


def _subset_weights(probs: np.ndarray, cap: int) -> np.ndarray:
    """DP table W[m, j] = sum over m-subsets B of P(exactly j members of B occur).

    One pass over the neighbors; states with j >= cap are dropped since they
    can never fall back below the threshold. Cost O(len(probs) * m * cap).
    """
    y = len(probs)
    w = np.zeros((y + 1, cap))
    w[0, 0] = 1.0
    for p in probs:
        nxt = w.copy()
        nxt[1:, :] += (1.0 - p) * w[:-1, :]
        nxt[1:, 1:] += p * w[:-1, :-1]
        w = nxt
    return w


def subset_cdf_average(neighbor_probs, n: int, k: int) -> float:
    """Average, over all n-subsets B of the neighbors, of P(at most k-1 of B occur).

    Computed in polynomial time by dynamic programming over the neighbor list;
    agrees with explicit enumeration through gamma_exact.
    """
    probs = np.asarray(neighbor_probs, dtype=float)
    y = len(probs)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not k <= n <= y:
        raise ValueError("need k <= n <= len(neighbor_probs)")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    w = _subset_weights(probs, cap=k)
    return float(w[n].sum() / math.comb(y, n))


def p_last_opportunity(y: int, k: int, neighbor_probs) -> float:
    """Probability of transmitting from one of the last y+1-k slots.

    Conditions on the number n of earlier-slotted neighbors and requires that
    at most k-1 of them actually transmit, averaged uniformly over which
    neighbors hold the earlier slots.
    """
    probs = np.asarray(neighbor_probs, dtype=float)
    if len(probs) != y:
        raise ValueError("neighbor_probs must have length y")
    if k < 1:
        raise ValueError("k must be >= 1")
    if y < k:
        raise ValueError("need y >= k; nodes with y < k transmit surely")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    pmf = degree_table(y)[0]
    w = _subset_weights(probs, cap=k)
    total = 0.0
    for n in range(k, y + 1):
        total += pmf[n] * w[n].sum() / math.comb(y, n)
    return float(total)


def star_hub_k1(y: int, q: float) -> float:
    """F of a K=1 hub whose y leaves all transmit with probability q > 0.

    The closed form of 2 * int_{1/2}^{1} (1 - t q)^y dt.
    """
    return 2 * ((1 - q / 2) ** (y + 1) - (1 - q) ** (y + 1)) / (q * (y + 1))


def estimate_probabilities(result):
    """Mean per-node frequency over runs and 95% CI half-widths, from the counts alone.

    The CI is the normal approximation over the per-run frequencies and is
    None when the result holds fewer than two runs.
    """
    freqs = result.counts / result.params.measured_intervals
    runs = freqs.shape[0]
    if runs < 2:
        return freqs.mean(axis=0), None
    return freqs.mean(axis=0), CI95_Z * freqs.std(axis=0, ddof=1) / math.sqrt(runs)


def single_run(topology, ks, params, run_idx: int) -> np.ndarray:
    """Transmission counts of one simulator run, one generator and one event tuple at a time.

    Node i of run r draws from its own ``default_rng((base_seed, r, i))``:
    the phase first, then one firing offset per interval.
    """
    n = topology.n
    total = params.warmup_intervals + params.measured_intervals + 1
    phases = np.empty(n)
    offsets = np.empty((n, total))
    for i in range(n):
        rng = np.random.default_rng((params.base_seed, run_idx, i))
        phases[i] = rng.uniform(0.0, 1.0)
        offsets[i] = rng.uniform(0.5, 1.0, size=total)
    return decision_loop(topology.neighbor_lists, ks, params, phases, offsets)


def decision_loop(neighbor_lists, ks, params, phases, offsets) -> np.ndarray:
    """Transmission counts from given phases and (node, interval) firing offsets.

    The events are (t, node, interval) tuples sorted as tuples, so equal
    times break by ascending node id, then interval.
    """
    n, total = offsets.shape
    events = [(phases[i] + m + offsets[i, m], i, m) for i in range(n) for m in range(total)]
    events.sort()

    counter = [0] * n
    current = [-(1 << 60)] * n  # interval index the counter belongs to
    counts = np.zeros(n, dtype=np.int64)
    first = params.warmup_intervals
    last = params.warmup_intervals + params.measured_intervals
    for t, i, m in events:
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


def unit_disk_neighbors(positions, radio_range: float) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor tuples of the unit-disk graph, one node against all later nodes at a time."""
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    limit = radio_range * radio_range * (1.0 + RANGE_SLACK)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        d2 = np.sum((pos[i + 1 :] - pos[i]) ** 2, axis=1)
        for off in np.nonzero(d2 <= limit)[0]:
            j = i + 1 + int(off)
            adjacency[i].append(j)
            adjacency[j].append(i)
    return tuple(tuple(sorted(adj)) for adj in adjacency)
