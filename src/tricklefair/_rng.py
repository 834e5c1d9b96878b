"""numpy's ``default_rng((base_seed, run, node)).random()`` doubles, for every node of a run.

Building one ``Generator`` per node costs tens of microseconds, mostly
``SeedSequence`` hashing. This module hashes every node's seed at once with
whole-array arithmetic that repeats numpy's own steps, then lets numpy's
``PCG64`` step each stream, so the doubles are the same bit for bit:

1. ``SeedSequence``: the entropy words of ``(base_seed, run, node)`` (each
   integer split into little-endian 32-bit words, 0 as one zero word) are
   hashed into a pool of 4 words, which ``generate_state(4, uint64)``
   expands. numpy has no batched form of this step; it is the one done here.
2. ``PCG64``: seeded from those 4 words through ``_Words``, it draws
   ``random_raw(count)``.
3. ``Generator.random``: ``(x >> 11) * 2**-53``.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_BLOCK = 1 << 13


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


class _Words(ISeedSequence):
    """A seed sequence whose ``generate_state(4, uint64)`` words are already computed."""

    def __init__(self, words: np.ndarray) -> None:
        # PCG64 reads the returned buffer directly, without checking it
        if words.dtype.type is not np.uint64 or words.shape != (4,) or not words.flags.c_contiguous:
            raise ValueError("seed words must be 4 contiguous uint64")
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only generate_state(4, uint64) is precomputed, not ({n_words}, {dtype})")
        return self.words


def substreams(base_seed: int, runs: int, n: int, count: int):
    """Yield, for run = 0..runs-1, an (n, count) array of doubles.

    Row i equals ``np.random.default_rng((base_seed, run, i)).random(count)``.
    Run and node ids must stay below 2**32 (one entropy word each).
    Consecutive runs share one hash call of up to ``_BLOCK`` seeds, which
    amortizes numpy call overhead on small networks and caps memory on
    large ones.
    """
    per_call = max(1, _BLOCK // n)
    nodes = np.arange(n, dtype=np.uint64)
    for first in range(0, runs, per_call):
        run_ids = np.arange(first, min(first + per_call, runs), dtype=np.uint64)[:, None]
        w = _seed_state(base_seed, run_ids, nodes)
        # generate_state(4, uint64) pairs the 32-bit words little-endian
        seeds = np.stack([w[2 * k] | (w[2 * k + 1] << 32) for k in range(4)], axis=-1)
        for run_seeds in seeds:
            raw = np.array([np.random.PCG64(_Words(s)).random_raw(count) for s in run_seeds])
            yield (raw >> 11) * 2.0**-53
