"""Deterministic child-RNG derivation.

All randomness in a run flows from the scene seed. Stochastic sub-steps
(per-pilot surface configs, fading draws, switching chains) derive child
generators from (seed, stream tag, counters...), so grid cells can be
evaluated in any order or in blocks of any size without changing results.

:func:`derived_integers` draws the same integers as :func:`derived_rng`
for many key tuples at once. It replays numpy's ``SeedSequence`` pool
mixing, PCG64 seeding and Lemire's bounded draw (``bit_generator.pyx``,
``pcg64.h``, ``distributions.c``), vectorized over the streams; a stream
whose draw would be rejected is recomputed through :func:`derived_rng`.
"""

from __future__ import annotations

import zlib

import numpy as np


def _as_entropy(key):
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    raise TypeError(f"rng key must be str or int, got {type(key).__name__}")


def derived_rng(seed, *keys) -> np.random.Generator:
    """Child generator for (seed, *keys); same tuple, same stream, always."""
    entropy = [_as_entropy(seed)] + [_as_entropy(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Hash:
    """SeedSequence's hashmix over a uint32 array; the constant steps per call."""

    def __init__(self, init: int, mult: int):
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg64_words(entropy: np.ndarray) -> np.ndarray:
    """(n, 4) uint64 ``generate_state(4, uint64)`` of SeedSequences with (n, E) uint32 entropy."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    out = _Hash(_INIT_B, _MULT_B)
    halves = [out(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    return np.stack([halves[2 * j] | (halves[2 * j + 1] << np.uint64(32)) for j in range(4)],
                    axis=1)


def derived_integers(seed, *keys, high: int, size: int) -> np.ndarray:
    """``derived_rng(seed, *key).integers(0, high, size=size)`` for many keys at once.

    ``seed`` and each of ``keys`` is a str, an int or an integer array; the
    arrays broadcast against each other and each position of their
    broadcast shape is one key tuple. Returns that shape plus ``(size,)``,
    int64, bit-identical to one :func:`derived_rng` stream per tuple.
    """
    if high < 1:
        raise ValueError(f"high must be >= 1, got {high}")
    parts = [seed, *keys]
    arrays = np.broadcast_arrays(*(
        np.asarray(_as_entropy(p) if isinstance(p, (str, int, np.integer)) else p)
        .astype(np.uint64)
        for p in parts
    ))
    shape = arrays[0].shape
    columns = [a.reshape(-1) for a in arrays]
    n = columns[0].size
    out = np.zeros((n, size), dtype=np.int64)
    if high == 1 or size == 0 or n == 0:
        return out.reshape(*shape, size)

    def key(row: int) -> list:
        return [p if isinstance(p, str) else int(c[row]) for p, c in zip(parts, columns)]

    if high > _MASK32:
        # numpy draws these from 64-bit outputs; no fast path
        for row in range(n):
            out[row] = derived_rng(*key(row)).integers(0, high, size=size)
        return out.reshape(*shape, size)

    # numpy coerces a key below 2**32 (zero included) to one uint32 word, a
    # larger one to two, low word first; streams are grouped by that layout
    wide = np.stack([c >> np.uint64(32) != 0 for c in columns], axis=1)
    layouts, layout_of = np.unique(wide, axis=0, return_inverse=True)
    words = np.zeros((n, 4), dtype=np.uint64)
    for k, layout in enumerate(layouts):
        rows = np.flatnonzero(layout_of.reshape(-1) == k)
        entropy = []
        for c, two_words in zip(columns, layout):
            entropy.append((c[rows] & np.uint64(_MASK32)).astype(np.uint32))
            if two_words:
                entropy.append((c[rows] >> np.uint64(32)).astype(np.uint32))
        words[rows] = _pcg64_words(np.stack(entropy, axis=1))

    # PCG64 seeding (pcg64_set_seed): state 0, step, add the seed, step
    pcg = np.random.PCG64()
    raws = np.empty((n, (size + 1) // 2), dtype=np.uint64)
    for row, (s_hi, s_lo, i_hi, i_lo) in enumerate(words.tolist()):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        pcg.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                     "has_uint32": 0, "uinteger": 0}
        raws[row] = pcg.random_raw(raws.shape[1])

    # Lemire's bounded draw on the 32-bit halves, low half first
    draws = np.stack([raws & np.uint64(_MASK32), raws >> np.uint64(32)], axis=-1)
    scaled = draws.reshape(n, -1)[:, :size] * np.uint64(high)
    threshold = np.uint64((2**32 - high) % high)
    out[:] = scaled >> np.uint64(32)
    for row in np.flatnonzero(np.any(scaled & np.uint64(_MASK32) < threshold, axis=1)):
        out[row] = derived_rng(*key(row)).integers(0, high, size=size)
    return out.reshape(*shape, size)
