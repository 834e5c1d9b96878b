"""numpy's ``default_rng((base_seed, run, node)).random()`` doubles, for every node of a run.

Building one ``Generator`` or ``PCG64`` per node costs microseconds each, in
``SeedSequence`` hashing and in bit-generator set-up. This module repeats
numpy's own steps with whole-array arithmetic over blocks of whole runs, so
the doubles are the same bit for bit:

1. ``SeedSequence``: the entropy words of ``(base_seed, run, node)`` (each
   integer split into little-endian 32-bit words, 0 as one zero word) are
   hashed into a pool of 4 words, which ``generate_state(4, uint64)``
   expands.
2. ``PCG64`` (O'Neill, *PCG*, 2014): a 128-bit LCG, state <- state * M + inc
   modulo 2**128, seeded as numpy's ``pcg64_set_seed`` does from those words.
   The state is a pair of (high, low) uint64 arrays; each draw is one
   multiply-add step and the XSL-RR output ``rotr(high ^ low, high >> 58)``.
3. ``Generator.random``: ``(x >> 11) * 2**-53``.
"""
from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = divmod(0x2360ED051FC65DA44385DF649FCCF645, 1 << 64)  # M, as two words
_BLOCK = 1 << 10


def _words(value: int) -> list[int]:
    """``SeedSequence``'s 32-bit entropy words of one non-negative integer."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix; its multiplier advances on every call, independent of the data."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_state(base_seed: int, runs: np.ndarray, nodes: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence((base_seed, run, node)).generate_state(8, np.uint32)``, word by word."""
    shape = np.broadcast_shapes(runs.shape, nodes.shape)
    entropy = [np.full(shape, w, dtype=np.uint64) for w in _words(base_seed)]
    entropy += [np.broadcast_to(runs, shape), np.broadcast_to(nodes, shape)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(shape, dtype=np.uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    return [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """(hi, lo) * M + (inc_hi, inc_lo) modulo 2**128; uint64 array products wrap modulo 2**64."""
    a1, a0 = lo >> 32, lo & _MASK32
    b1, b0 = _PCG_MULT_LO >> 32, _PCG_MULT_LO & _MASK32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)  # high word of lo * _PCG_MULT_LO
    new_lo = lo * _PCG_MULT_LO + inc_lo
    new_hi = carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def substreams(base_seed: int, runs: range, n: int, count: int):
    """Yield, for each run in ``runs`` (a range of step 1), an (n, count) array of doubles.

    Row i equals ``np.random.default_rng((base_seed, run, i)).random(count)``,
    so a slice of the runs draws the same rows as the whole range; only the
    runs asked for are hashed and stepped. Run and node ids must stay below
    2**32 (one entropy word each). Consecutive runs are hashed and stepped
    together in blocks of up to ``_BLOCK`` rows (always whole runs), which
    amortizes numpy call overhead on small networks and caps memory on large
    ones.
    """
    per_block = max(1, _BLOCK // n)
    nodes = np.arange(n, dtype=np.uint64)
    for first in range(runs.start, runs.stop, per_block):
        run_ids = np.arange(first, min(first + per_block, runs.stop), dtype=np.uint64)[:, None]
        w = [word.ravel() for word in _seed_state(base_seed, run_ids, nodes)]
        # generate_state(4, uint64) pairs the 32-bit words little-endian;
        # pcg64_set_seed reads words 0-1 as the seed and 2-3 as the increment
        seed_hi, seed_lo, inc_hi, inc_lo = (w[2 * k] | (w[2 * k + 1] << 32) for k in range(4))
        inc_hi, inc_lo = (inc_hi << 1) | (inc_lo >> 63), (inc_lo << 1) | 1  # PCG64 makes it odd
        lo = inc_lo + seed_lo  # state 0 stepped once is inc; then state += seed
        hi, lo = _pcg_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
        doubles = np.empty((lo.size, count))
        for k in range(count):
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            xored, rot = hi ^ lo, hi >> 58
            raw = (xored >> rot) | (xored << ((64 - rot) & 63))
            np.multiply(raw >> 11, 2.0**-53, out=doubles[:, k])
        yield from doubles.reshape(-1, n, count)
