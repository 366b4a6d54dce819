"""Deterministic child-RNG derivation.

All randomness in a run flows from the scene seed. Stochastic sub-steps
(per-pilot surface configs, fading draws, switching chains) derive child
generators from (seed, stream tag, counters...), so grid cells can be
evaluated in any order or in blocks of any size without changing results.

:func:`derived_integers` draws the same integers as :func:`derived_rng`
for many key tuples at once. It replays numpy's ``SeedSequence`` pool
mixing, PCG64 seeding and output (a 128-bit LCG with XSL-RR output) and
Lemire's bounded draw (``bit_generator.pyx``, ``pcg64.h``,
``distributions.c``), vectorized over the streams and their draws; a stream
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
_MASK64 = (1 << 64) - 1
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


def _words(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit Python ints as a (high, low) pair of (1, len) uint64 rows."""
    return (np.array([[v >> 64 for v in values]], dtype=np.uint64),
            np.array([[v & _MASK64 for v in values]], dtype=np.uint64))


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of each 128-bit product ``a * b`` of uint64 arrays."""
    low, shift = np.uint64(_MASK32), np.uint64(32)
    a0, a1, b0, b1 = a & low, a >> shift, b & low, b >> shift
    cross_a, cross_b = a0 * b1, a1 * b0
    middle = ((a0 * b0) >> shift) + (cross_a & low) + (cross_b & low)
    return a1 * b1 + (cross_a >> shift) + (cross_b >> shift) + (middle >> shift)


def _mul128(a, b):
    """``a * b`` mod 2**128 on (high, low) uint64 word pairs, broadcasting."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    return _mulhi64(a_lo, b_lo) + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _add128(a, b):
    """``a + b`` mod 2**128 on (high, low) uint64 word pairs, broadcasting."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _pcg64_raws(words: np.ndarray, count: int) -> np.ndarray:
    """(n, count) ``PCG64.random_raw`` outputs of generators seeded with (n, 4) uint64 words.

    The words are ``generate_state(4, uint64)``: state high and low, then
    stream high and low. pcg64_set_seed makes ``inc = stream << 1 | 1`` and
    ``s = (inc + state) * MULT + inc``. Draw k is the XSL-RR output of the
    state after k + 1 more LCG steps, ``s * MULT**j + inc * (1 + ... +
    MULT**(j-1))`` with j = k + 1, so every draw of every stream is one
    broadcast 128-bit multiply-add.
    """
    s_hi, s_lo, i_hi, i_lo = (words[:, j:j + 1] for j in range(4))
    one = np.uint64(1)
    inc = ((i_hi << one) | (i_lo >> np.uint64(63)), (i_lo << one) | one)
    state = _add128(_mul128(_add128(inc, (s_hi, s_lo)), _words([_PCG_MULT])), inc)
    powers, sums = [], []
    power, total = 1, 0
    for _ in range(count):
        total = (total + power) & _MASK128
        power = (power * _PCG_MULT) & _MASK128
        powers.append(power)
        sums.append(total)
    hi, lo = _add128(_mul128(state, _words(powers)), _mul128(inc, _words(sums)))
    mixed = hi ^ lo
    rot = hi >> np.uint64(58)
    return (mixed >> rot) | (mixed << ((np.uint64(64) - rot) & np.uint64(63)))


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
    # larger one to two, low word first; streams are grouped by that layout,
    # coded with bit j set when key j takes two words
    layout_of = sum((c >> np.uint64(32) != 0).astype(np.int64) << j
                    for j, c in enumerate(columns))
    words = np.zeros((n, 4), dtype=np.uint64)
    for layout in np.unique(layout_of).tolist():
        rows = np.flatnonzero(layout_of == layout)
        entropy = []
        for j, c in enumerate(columns):
            entropy.append((c[rows] & np.uint64(_MASK32)).astype(np.uint32))
            if layout >> j & 1:
                entropy.append((c[rows] >> np.uint64(32)).astype(np.uint32))
        words[rows] = _pcg64_words(np.stack(entropy, axis=1))
    raws = _pcg64_raws(words, (size + 1) // 2)

    # Lemire's bounded draw on the 32-bit halves, low half first
    draws = np.stack([raws & np.uint64(_MASK32), raws >> np.uint64(32)], axis=-1)
    scaled = draws.reshape(n, -1)[:, :size] * np.uint64(high)
    threshold = np.uint64((2**32 - high) % high)
    out[:] = scaled >> np.uint64(32)
    for row in np.flatnonzero(np.any(scaled & np.uint64(_MASK32) < threshold, axis=1)):
        out[row] = derived_rng(*key(row)).integers(0, high, size=size)
    return out.reshape(*shape, size)
