"""Monte-Carlo link adaptation under an uncoordinated switching surface.

A victim uplink transmits at fixed power while a reconfigurable surface
owned by a different operator resamples its configuration at random slot
boundaries.  The victim picks its rate from an SNR measurement that is a
few slots old; when the surface switches inside that window and the new
configuration happens to dim the combined channel, the selected rate
overshoots what the channel now carries and the block is lost.

The victim combines with maximum-ratio weights matched to the direct
channel only: it has no way to sound a surface it does not control.
Rate adaptation is idealized Shannon-with-gap.
The victim link is the grid maps' channel layer on a one-point batch; the
surface draws from ``default_codebook``, one (C, M) array of responses.
A run's options, :class:`CoexistConfig`, are defined and checked in
``scene``, which loads no numpy; this module re-exports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import default_codebook, mrc_weights, state_responses
from .errors import CoincidentNodeError, RunError
from .kernels import forward_fill
from .linkmetrics import serving_bs
from .propagation import (
    bs_leg,
    db_to_linear,
    dbm_to_watts,
    direct_channels,
    require_apart,
    ris_channels,
    station_legs,
    surface_legs,
)
from .scene import CoexistConfig, Scene
from .seeding import derived_rng

# Slots per chunk of the slot recursion and of the trace writer, where one
# ``%`` format call writes a chunk. It bounds the per-chunk arrays (the
# switching uniforms, the entry draws and the intp indices) and the text
# held at once (about 0.13 MB at 2048 rows), never the bytes written or the
# random stream, which are the same for any chunk size.
_TRACE_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class CoexistResult:
    """One run. Slot t sees codebook entry ``config_index[t]``: its SNR is
    ``snr_db[config_index[t]]`` and its capacity ``capacity[config_index[t]]``.
    The rate selected at slot t is the capacity of slot t - d, where
    d = ``len(config_index) - transmitting_slots`` is the CSI delay; the
    first d slots select no rate (NaN in the trace). Slot t's block is lost
    when ``snr[config_index[t]] < snr_floor[config_index[t - d]]``.
    """

    bler: float
    error_count: int
    config_index: np.ndarray  # (slots,) the entry each slot sees, in the
    # smallest unsigned dtype that holds C - 1 (uint8 up to 256 entries)
    snr: np.ndarray  # (C,) linear SNR of each entry
    snr_floor: np.ndarray  # (C + 1,) lowest SNR a rate selected at entry c carries; -inf at C
    snr_db: np.ndarray  # (C,) 10 log10 of each entry's SNR
    capacity: np.ndarray  # (C,) Shannon-with-gap capacity per entry, bps/Hz
    transmitting_slots: int
    ris_direct_ratio_db: float  # see _ratio_db()


def _victim_link(scene: Scene, ue_point):
    """The victim's serving link after direct-matched combining.

    Returns the combined direct amplitude, the (M,) cascade hop products of
    the gain engine's serving station and the combining weights' gain on
    that station's steering toward the surface.
    With no usable station, station 0's coincidence is the error.
    """
    point = np.asarray(ue_point, dtype=float)[None, :]
    directs = [direct_channels(scene, i, point) for i in range(len(scene.bs))]
    bs_index = max(int(serving_bs(directs, station_legs(scene))[0]), 0)
    direct = directs[bs_index]
    if direct.distance_m[0] == 0.0:
        raise CoincidentNodeError(
            f"point coincides with the base station at {scene.bs[bs_index].position_m}"
        )
    w = mrc_weights(direct.gains[0])
    base = complex(np.vdot(w, direct.gains[0]))
    leg = bs_leg(scene, bs_index)  # raises when the station's leg is degenerate
    point_gains, point_dists = surface_legs(scene, point)
    require_apart(point_dists[0], point[0].tolist())
    hops = ris_channels(leg, point_gains, point_dists).hop_products[0]
    return base, hops, complex(np.vdot(w, leg.steering))


def _combined_amplitudes(scene: Scene, link) -> np.ndarray:
    """Post-combining channel amplitude for each entry of the default codebook."""
    base, hops, steer_gain = link
    ripples = np.sum(hops * default_codebook(scene), axis=-1)
    # Python complex products: numpy's vector multiply rounds some differently
    return np.array([base + ripple * steer_gain for ripple in ripples.tolist()])


def simulate(scene: Scene, ue_point, config: CoexistConfig) -> CoexistResult:
    """Run the slot recursion; deterministic in ``config.seed``.

    The switching process is exogenous (the other operator's controller),
    so its random stream depends on the seed alone, never on the victim's
    position: two nearby UEs observe the same switching history.

    The slots run in chunks of ``_TRACE_CHUNK_ROWS``: each chunk draws its
    switching uniforms and its entry draws, forward-fills its entries from
    the previous chunk's last entry and counts its errors. The entries,
    one byte per slot up to 256 codebook entries, are the only per-slot
    array.
    """
    link = _victim_link(scene, ue_point)
    amps = _combined_amplitudes(scene, link)
    power_w = dbm_to_watts(scene.link_budget.max_tx_power_dbm)
    noise_w = dbm_to_watts(scene.noise_power_dbm)
    snr = power_w * np.abs(amps) ** 2 / noise_w
    # shannon selection: rate exceeds capacity iff the SNR dropped; a
    # warm-up slot's sentinel entry C selects no rate and tolerates any SNR
    snr_floor = np.append(snr * db_to_linear(-config.snr_margin_db), -math.inf)

    n, d, entries = config.slots, config.csi_delay_slots, snr.shape[0]
    index = _entry_array(n, entries)
    rng = derived_rng(config.seed, "coexist-switch")
    # the entry draws follow the n uniforms (one 64-bit output each) in the
    # same stream; below 2**32 numpy keeps a draw's spare 32-bit half in the
    # bit generator's state, so chunked calls give one call's values
    draws = derived_rng(config.seed, "coexist-switch")
    draws.bit_generator.advance(n)
    current, errors = 0, 0
    for start in range(0, n, _TRACE_CHUNK_ROWS):
        stop = min(start + _TRACE_CHUNK_ROWS, n)
        switch = rng.random(stop - start) < config.switch_probability
        index[start:stop] = forward_fill(switch, draws.integers(0, entries, stop - start),
                                         current)
        current = int(index[stop - 1])
        errors += int(np.count_nonzero(_chunk(index, snr, snr_floor, d, start, stop)[2]))

    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(snr)
    return CoexistResult(
        bler=errors / (n - d),
        error_count=errors,
        config_index=index,
        snr=snr,
        snr_floor=snr_floor,
        snr_db=snr_db,
        capacity=np.log2(1.0 + snr / db_to_linear(config.mcs_gap_db)),
        transmitting_slots=n - d,
        ris_direct_ratio_db=_ratio_db(scene, link),
    )


def _entry_array(slots: int, entries: int) -> np.ndarray:
    """The uninitialized (slots,) entry array, one byte per slot up to 256
    entries; the only allocation that grows with ``slots``."""
    dtype = np.min_scalar_type(entries - 1)
    try:
        return np.empty(slots, dtype=dtype)
    except MemoryError:
        raise RunError(f"cannot allocate the switching draws of {slots} slots "
                       f"({dtype.itemsize * slots} bytes)") from None


def _chunk(index, snr, snr_floor, d, start, stop):
    """Slots ``start:stop``: each one's entry, the entry one CSI delay d
    earlier (C over the first d slots) and whether its block is lost."""
    # the stored entries are as narrow as uint8, which keeps its dtype under
    # arithmetic with Python ints; the writer's keys need intp
    now = index[start:stop].astype(np.intp)
    before = np.full(stop - start, snr.shape[0], dtype=np.intp)
    warm = min(max(d - start, 0), stop - start)
    before[warm:] = index[start + warm - d:stop - d]
    return now, before, snr[now] < snr_floor[before]


def _ratio_db(scene: Scene, link) -> float:
    """Peak surface ripple over the direct amplitude after combining, in dB.

    The numerator is the best-case coherent cascade (all element phases
    aligned, at the largest state modulus), which bounds how far any
    configuration can move the combined channel; -inf when it vanishes.
    """
    base, hops, steer_gain = link
    peak = float(np.max(np.abs(state_responses(scene))))
    ripple = peak * float(np.sum(np.abs(hops))) * abs(steer_gain)
    if ripple == 0.0:
        return -math.inf
    return 20.0 * math.log10(ripple / abs(base))


class _RowTails(dict):
    """Row bytes after the slot number, keyed ``(now * (C + 1) + before) * 2 + error``.

    ``now`` is the slot's codebook entry, ``before`` the entry its rate was
    selected from (C over the warm-up slots, whose selected rate is NaN).
    A tail is formatted on first use, so only keys that occur are built.
    """

    def __init__(self, result: CoexistResult):
        super().__init__()
        self.snr = [repr(v) for v in result.snr_db.tolist()]
        self.capacity = [repr(v) for v in result.capacity.tolist()]
        self.selected = self.capacity + [repr(math.nan)]

    def __missing__(self, key: int) -> bytes:
        pair, error = divmod(key, 2)
        now, before = divmod(pair, len(self.selected))
        tail = self[key] = (
            f",{self.snr[now]},{self.selected[before]},{self.capacity[now]},{error}\n"
        ).encode()
        return tail


def write_trace_csv(result: CoexistResult, path: str) -> None:
    """Per-slot log; floats via repr, so -inf and nan survive a round trip.

    A row is fixed by its slot, its codebook entry, the entry one CSI delay
    earlier and its error flag, so each distinct row tail is formatted once
    (see ``_RowTails``) and each chunk is written by one ``%`` format call.
    Keys and error flags are built chunk by chunk from ``config_index``.
    The output is byte-identical to formatting every row with ``repr``.

    The chunks are formatted as bytes, which a text-mode write would
    encode into a second copy of each chunk.
    """
    index = result.config_index
    n = index.shape[0]
    d = n - result.transmitting_slots
    tails = _RowTails(result)
    with open(path, "wb") as fh:
        fh.write(b"slot,snr_db,selected_rate,actual_capacity,error\n")
        row_format = b"%d%s" * _TRACE_CHUNK_ROWS
        for start in range(0, n, _TRACE_CHUNK_ROWS):
            stop = min(start + _TRACE_CHUNK_ROWS, n)
            now, before, lost = _chunk(index, result.snr, result.snr_floor, d, start, stop)
            key = (now * len(tails.selected) + before) * 2 + lost
            rows = [None] * (2 * (stop - start))
            rows[0::2] = range(start, stop)
            rows[1::2] = map(tails.__getitem__, key.tolist())
            fh.write(row_format[: 4 * (stop - start)] % tuple(rows))
