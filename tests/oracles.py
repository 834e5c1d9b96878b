"""Scalar reference implementations the tests compare the package against.

The model evaluates its formulas for every node of a K batch at once; these
are the one-node-at-a-time versions, written for clarity rather than speed.
"""
import itertools
import math

import numpy as np

from tricklefair.model import degree_table
from tricklefair.simulator import CI95_Z


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
    events = []
    for i in range(n):
        rng = np.random.default_rng((params.base_seed, run_idx, i))
        phases[i] = rng.uniform(0.0, 1.0)
        offsets = rng.uniform(0.5, 1.0, size=total)
        for m in range(total):
            events.append((phases[i] + m + offsets[m], i, m))
    events.sort()  # ties (measure zero) break by ascending node id

    counter = [0] * n
    current = [-(1 << 60)] * n  # interval index the counter belongs to
    counts = np.zeros(n, dtype=np.int64)
    first = params.warmup_intervals
    last = params.warmup_intervals + params.measured_intervals
    neighbor_lists = topology.neighbor_lists
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
