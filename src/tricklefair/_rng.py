"""numpy's ``default_rng`` doubles, repeated bit for bit without ``numpy.random``.

Two callers need them. The simulator draws ``default_rng((base_seed, run,
node)).random()`` for every node of many runs, and building one
``Generator`` or ``PCG64`` per node would cost microseconds each in
``SeedSequence`` hashing and bit-generator set-up. ``generate_random_udg``
draws ``default_rng(seed).uniform(0.0, side, (n, 2))`` from one generator,
and importing ``numpy.random`` for it would cost about 2 MiB of resident
memory and 5 ms. This module repeats numpy's own steps with whole-array arithmetic,
so the doubles are the same bit for bit:

1. ``SeedSequence``: the entropy words of the seed (each integer split into
   little-endian 32-bit words, 0 as one zero word, a tuple's integers one
   after another) are hashed into a pool of 4 words, which
   ``generate_state(4, uint64)`` expands.
2. ``PCG64`` (O'Neill, *PCG*, 2014): a 128-bit LCG, state <- state * M + inc
   modulo 2**128, seeded as numpy's ``pcg64_set_seed`` does from those words.
   A state is a pair of (high, low) uint64 arrays; each draw is one
   multiply-add step and the XSL-RR output ``rotr(high ^ low, high >> 58)``.
3. ``Generator.random``: ``(x >> 11) * 2**-53``; ``Generator.uniform(low,
   high)``: ``low + (high - low) * random()``.

The simulator's states stay in their arrays between calls, so a caller has
each run's doubles written into its own buffer a few columns at a time, as
its time windows need them, and never holds a whole run's draws. One
generator's stream is stepped a block of consecutive states at a time:
state k + B is state k advanced by the affine map x -> M**B x + c_B, so one
multiply-add over a block's states gives the next block's.

These are numpy's streams for numpy's own ``PCG64`` and ``SeedSequence``
algorithms. NEP 19 promises no stream stability for ``Generator`` methods
across numpy releases; the tests compare these doubles with the installed
numpy's.
"""
from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # M
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

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_state(entropy: list) -> list:
    """``SeedSequence(entropy).generate_state(8, np.uint32)``, word by word.

    Each entropy word is an int below 2**32 or a uint64 array of such words;
    the arrays broadcast, so one call hashes a whole array of seeds that
    differ only in some words. With ints alone the result is ints.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    return [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi, inc_lo, mult: int = _PCG_MULT):
    """(hi, lo) * mult + (inc_hi, inc_lo) modulo 2**128; uint64 array products wrap modulo 2**64."""
    mult_hi, mult_lo = divmod(mult, 1 << 64)
    a1, a0 = lo >> 32, lo & _MASK32
    b1, b0 = mult_lo >> 32, mult_lo & _MASK32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)  # high word of lo * mult_lo
    new_lo = lo * mult_lo + inc_lo
    new_hi = carry + hi * mult_lo + lo * mult_hi + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _mantissas(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The top 53 bits of PCG64's XSL-RR output of each state, ``random()``'s numerator."""
    xored, rot = hi ^ lo, hi >> 58
    return ((xored >> rot) | (xored << ((64 - rot) & 63))) >> 11


def _stream(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """``draw(out)``: fill ``out``, shape (runs, n, count), with the next ``count`` doubles of every generator."""

    def draw(out: np.ndarray) -> None:
        nonlocal hi, lo
        for k in range(out.shape[-1]):
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            np.multiply(_mantissas(hi, lo).reshape(out.shape[:-1]), 2.0**-53, out=out[..., k])

    return draw


def _generators(entropy: list):
    """``PCG64(SeedSequence(entropy))`` stepped once, as uint64 arrays (hi, lo, inc_hi, inc_lo), one per entropy row."""
    w = [np.asarray(word, np.uint64).ravel() for word in _seed_state(entropy)]
    # generate_state(4, uint64) pairs the 32-bit words little-endian;
    # pcg64_set_seed reads words 0-1 as the seed and 2-3 as the increment
    seed_hi, seed_lo, inc_hi, inc_lo = (w[2 * k] | (w[2 * k + 1] << 32) for k in range(4))
    inc_hi, inc_lo = (inc_hi << 1) | (inc_lo >> 63), (inc_lo << 1) | 1  # PCG64 makes it odd
    lo = inc_lo + seed_lo  # state 0 stepped once is inc; then state += seed
    hi, lo = _pcg_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def substreams(base_seed: int, runs: range, n: int):
    """Yield ``(block, draw)`` for consecutive blocks of the runs in ``runs`` (a range of step 1).

    ``draw(out)`` fills ``out``, an array of shape (len(block), n, count)
    such as a view of the caller's buffer, with the next ``count`` doubles of
    every node of every run in ``block``: node i of run r continues
    ``np.random.default_rng((base_seed, r, i)).random()``, so draws taken in
    any chunks equal one ``random(total)`` call, and a slice of the runs
    draws the same rows as the whole range; only the runs asked for are
    hashed and stepped. A block keeps only its generators' states (four
    uint64 words per node), so drawing a run a time window at a time holds
    one window of doubles. Run and node ids must stay below 2**32
    (one entropy word each). Consecutive runs are hashed and stepped
    together in blocks of up to ``_BLOCK`` rows (always whole runs), which
    amortizes numpy call overhead on small networks and caps memory on large
    ones.
    """
    per_block = max(1, _BLOCK // n)
    nodes = np.arange(n, dtype=np.uint64)
    for first in range(runs.start, runs.stop, per_block):
        block = range(first, min(first + per_block, runs.stop))
        run_ids = np.arange(block.start, block.stop, dtype=np.uint64)[:, None]
        yield block, _stream(*_generators(_words(base_seed) + [run_ids, nodes]))


def uniform(seed: int, high: float, shape) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(0.0, high, shape)`` for an int seed >= 0 and a finite high > 0.

    The array is allocated before anything is drawn, so a shape too large
    for memory raises ``MemoryError`` at once. Its doubles are one
    generator's, in C order, drawn ``_BLOCK`` states at a time: the first
    block by doubling (states 1..j advanced by j give states j+1..2j), each
    later one as the block before advanced by ``_BLOCK``.
    """
    out = np.empty(shape)
    flat = out.reshape(-1)
    state_hi, state_lo, inc_hi, inc_lo = _generators(_words(seed))
    size = min(flat.size, _BLOCK)
    hi, lo = np.empty(size, np.uint64), np.empty(size, np.uint64)
    hi[:1], lo[:1] = _pcg_step(state_hi, state_lo, inc_hi, inc_lo)  # the first draw's state
    mult, add, filled = _PCG_MULT, int(inc_hi[0]) << 64 | int(inc_lo[0]), 1  # x -> mult x + add advances by `filled`
    while filled < size:
        take = min(filled, size - filled)
        hi[filled : filled + take], lo[filled : filled + take] = _pcg_step(hi[:take], lo[:take], *divmod(add, 1 << 64), mult)
        mult, add, filled = mult * mult & _MASK128, add * (mult + 1) & _MASK128, filled + take
    # _BLOCK is a power of two, so a second block finds mult and add advancing by _BLOCK
    add_hi, add_lo = divmod(add, 1 << 64)
    for first in range(0, flat.size, size):
        if first:
            hi, lo = _pcg_step(hi, lo, add_hi, add_lo, mult)
        chunk = flat[first : first + size]
        # numpy's low + range * random() in its order; low = 0.0 leaves these non-negative doubles as they are
        np.multiply(_mantissas(hi, lo)[: chunk.size], 2.0**-53, out=chunk)
        chunk *= high
    return out
