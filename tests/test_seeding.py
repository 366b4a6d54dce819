"""Many-stream integer draws against one ``derived_rng`` stream per key tuple."""

import itertools

import numpy as np
import pytest

from risplan import seeding
from risplan.seeding import derived_integers, derived_rng

SEEDS = [0, 1, 20230315, 987654321, 2**40 + 5]
LEVELS = [2, 3, 4, 5, 7, 8, 16]
SIZES = [1, 3, 16, 64]


def reference(seed, tag, cells, pilots, high, size):
    return np.array([
        [derived_rng(seed, tag, int(i), int(k)).integers(0, high, size=size) for k in pilots]
        for i in cells
    ], dtype=np.int64).reshape(len(cells), len(pilots), size)


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_derived_rng(seed):
    cells = np.array([0, 1, 7, 168])
    pilots = np.arange(3)
    for high in LEVELS:
        for size in SIZES:
            got = derived_integers(seed, "loc-pilot", cells[:, None], pilots[None, :],
                                   high=high, size=size)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(
                got, reference(seed, "loc-pilot", cells, pilots, high, size),
                err_msg=f"high={high} size={size}")


def test_one_level_is_zeros():
    got = derived_integers(20230315, "loc-pilot", np.arange(4)[:, None], np.arange(2)[None, :],
                           high=1, size=5)
    np.testing.assert_array_equal(got, np.zeros((4, 2, 5), dtype=np.int64))
    np.testing.assert_array_equal(got[3, 1], derived_rng(20230315, "loc-pilot", 3, 1)
                                  .integers(0, 1, size=5))


def test_mixed_key_widths_and_negative_keys():
    # keys of one and two uint32 words side by side, and ints that wrap
    cells = np.array([0, 5, 2**32, 2**32 + 9, 2**63 + 1], dtype=np.uint64)
    got = derived_integers(-3, "tag", cells, high=6, size=7)
    for row, cell in zip(got, cells):
        np.testing.assert_array_equal(
            row, derived_rng(-3, "tag", int(cell)).integers(0, 6, size=7))


EDGE_WORDS = [0, 2**64 - 1, 2**63]


def test_raw_outputs_match_pcg64_at_edge_words():
    # every seed word at zero, all ones and the top bit alone drives each
    # carry of the 128-bit seeding, multiply-add and rotation
    words = np.array(list(itertools.product(EDGE_WORDS, repeat=4)), dtype=np.uint64)
    got = seeding._pcg64_raws(words, 7)
    pcg = np.random.PCG64()
    mask = (1 << 128) - 1
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(got, words.tolist()):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & mask
        state = ((inc + ((s_hi << 64) | s_lo)) * seeding._PCG_MULT + inc) & mask
        pcg.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                     "has_uint32": 0, "uinteger": 0}
        np.testing.assert_array_equal(row, pcg.random_raw(7))


def test_wide_keys_in_every_layout():
    # a seed and two keys at or above 2**32, each independently one or two
    # words wide, so several layout codes share one call
    cells = np.array([0, 2**32, 2**64 - 1, 2**63, 7], dtype=np.uint64)
    pilots = np.array([1, 2**32 + 3, 2**63], dtype=np.uint64)
    for seed in (5, 2**32, 2**64 - 1):
        got = derived_integers(seed, "loc-pilot", cells[:, None], pilots[None, :],
                               high=5, size=9)
        for i, cell in enumerate(cells.tolist()):
            for k, pilot in enumerate(pilots.tolist()):
                np.testing.assert_array_equal(
                    got[i, k], derived_rng(seed, "loc-pilot", cell, pilot).integers(0, 5, size=9))


def test_rejected_draws_fall_back_to_derived_rng(monkeypatch):
    # 2**31 + 1 levels reject about half of all 32-bit draws, so most
    # streams of 3 draws take the per-stream path
    calls = []
    original = seeding.derived_rng
    monkeypatch.setattr(seeding, "derived_rng", lambda *k: calls.append(k) or original(*k))
    high = 2**31 + 1
    cells = np.arange(12)
    got = derived_integers(7, "loc-pilot", cells[:, None], np.arange(2)[None, :],
                           high=high, size=3)
    assert 0 < len(calls) < 24
    np.testing.assert_array_equal(got, reference(7, "loc-pilot", cells, range(2), high, 3))


def test_wide_range_uses_derived_rng():
    got = derived_integers(3, "x", np.arange(3), high=2**33, size=4)
    for i, row in enumerate(got):
        np.testing.assert_array_equal(row, derived_rng(3, "x", i).integers(0, 2**33, size=4))


def test_shape_and_bad_range():
    assert derived_integers(1, "t", np.zeros((2, 3), dtype=int), high=4, size=5).shape == (2, 3, 5)
    assert derived_integers(1, "t", 4, high=4, size=2).shape == (2,)
    with pytest.raises(ValueError):
        derived_integers(1, "t", 0, high=0, size=2)
