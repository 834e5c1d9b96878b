"""numpy's ``default_rng((base_seed, run, node)).random()`` doubles, for every node at once.

Building one ``Generator`` per node costs tens of microseconds, mostly
``SeedSequence`` hashing. This module repeats numpy's own steps with
whole-array arithmetic and returns the same doubles bit for bit:

1. ``SeedSequence``: the entropy words of ``(base_seed, run, node)`` (each
   integer split into little-endian 32-bit words, 0 as one zero word) are
   hashed into a pool of 4 words, which ``generate_state(4, uint64)``
   expands.
2. ``PCG64``: those words seed a 128-bit LCG through ``srandom`` (state and
   increment); each draw steps the LCG once and outputs XSL-RR.
3. ``Generator.random``: ``(x >> 11) * 2**-53``.

The LCG is not stepped draw by draw. After ``srandom(seed, inc)`` and k
draws its state is ``A**(k+1) * (inc + seed) + (1 + A + ... + A**k) * inc``
mod 2**128, so every draw comes from one multiply-add against per-draw
constants. 128-bit numbers are four 32-bit limbs held in uint64 arrays, so
every limb product fits.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
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


def _limbs(values: list[int]) -> list[np.ndarray]:
    limbs = [np.array([(v >> (32 * i)) & _MASK32 for v in values], dtype=np.uint64) for i in range(4)]
    for limb in limbs:
        limb.flags.writeable = False  # cached and shared between calls
    return limbs


@lru_cache(maxsize=8)
def _jump_constants(count: int):
    """Limbs of A**(k+1) and 1 + A + ... + A**k for draws k = 1..count."""
    powers, sums = [], []
    power, total = _PCG_MULT, 1
    for _ in range(count):
        total = (total + power) % (1 << 128)
        power = power * _PCG_MULT % (1 << 128)
        powers.append(power)
        sums.append(total)
    return _limbs(powers), _limbs(sums)


def _mul_add(x, a, y, b) -> list[np.ndarray]:
    """Limbs of (x * a + y * b) mod 2**128."""
    out = []
    carry = 0
    for k in range(4):
        acc, carry = carry, 0
        for i in range(k + 1):
            for u, v in ((x, a), (y, b)):
                product = u[i] * v[k - i]
                acc = acc + (product & _MASK32)
                if k < 3:
                    carry = carry + (product >> 32)
        out.append(acc & _MASK32)
        carry = carry + (acc >> 32)
    return out


def _add(x, y) -> list[np.ndarray]:
    out = []
    carry = 0
    for a, b in zip(x, y):
        acc = a + b + carry
        out.append(acc & _MASK32)
        carry = acc >> 32
    return out


def _doubles(base_seed: int, runs: range, n: int, count: int) -> np.ndarray:
    """Doubles of shape (len(runs), n, count); entry [r, i] is the stream of (base_seed, runs[r], i)."""
    run_ids = np.asarray(runs, dtype=np.uint64)[:, None]
    w = [word.ravel() for word in _seed_state(base_seed, run_ids, np.arange(n, dtype=np.uint64))]
    # generate_state(4, uint64) pairs the words little-endian, and PCG64 reads
    # the first two uint64 as (high, low) of the seed, the last two of the stream.
    seed = [w[2], w[3], w[0], w[1]]
    stream = [w[6], w[7], w[4], w[5]]
    inc = [((stream[0] << 1) | 1) & _MASK32]
    inc += [((stream[i] << 1) | (stream[i - 1] >> 31)) & _MASK32 for i in range(1, 4)]
    start = _add(inc, seed)
    powers, sums = _jump_constants(count)
    out = np.empty((len(runs) * n, count))
    step = max(1, _BLOCK // count)
    for lo in range(0, len(out), step):
        rows = slice(lo, lo + step)
        s = _mul_add([v[rows, None] for v in start], powers, [v[rows, None] for v in inc], sums)
        x = ((s[3] << 32) | s[2]) ^ ((s[1] << 32) | s[0])
        rot = s[3] >> 26
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out[rows] = (x >> 11) * 2.0**-53
    return out.reshape(len(runs), n, count)


def substreams(base_seed: int, runs: int, n: int, count: int):
    """Yield, for run = 0..runs-1, an (n, count) array of doubles.

    Row i equals ``np.random.default_rng((base_seed, run, i)).random(count)``.
    Run and node ids must stay below 2**32 (one entropy word each).
    Consecutive runs share a kernel call up to ``_BLOCK`` doubles, which
    amortizes numpy call overhead on small networks, and the limb arithmetic
    works in passes of ``_BLOCK`` elements, which caps memory on large ones.
    """
    per_call = max(1, _BLOCK // (n * count))
    for first in range(0, runs, per_call):
        yield from _doubles(base_seed, range(first, min(first + per_call, runs)), n, count)
