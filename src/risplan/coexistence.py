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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import RisConfig, default_codebook, mrc_weights
from .errors import ConfigError
from .kernels import forward_fill
from .linkmetrics import serving_bs
from .propagation import (
    cascade,
    db_to_linear,
    dbm_to_watts,
    direct_channel,
    ris_channel,
)
from .scene import Scene
from .seeding import derived_rng

# Rows per chunk of the trace writer. It bounds the text held at once (about
# 0.5 MB at 8192 rows), never the bytes written, which are the same for any
# chunk size.
_TRACE_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class CoexistConfig:
    """Knobs of one simulation run.

    ``snr_margin_db`` is the SNR drop a block absorbs before failing; the
    default 0.1 dB keeps vanishing ripples from a far-away surface from
    registering as errors while leaving any real dip visible.  Set it to 0
    for the strict rule (any SNR decrease across the delay window fails).
    """

    slots: int
    switch_probability: float
    csi_delay_slots: int = 1
    mcs_gap_db: float = 3.0
    snr_margin_db: float = 0.1
    codebook: tuple[RisConfig, ...] | None = None
    seed: int = 1

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ConfigError("slots must be >= 1")
        if not 0.0 <= self.switch_probability <= 1.0:
            raise ConfigError("switch_probability must lie in [0, 1]")
        if self.csi_delay_slots < 1:
            raise ConfigError("csi_delay_slots must be >= 1")
        if self.csi_delay_slots >= self.slots:
            raise ConfigError(f"csi_delay_slots ({self.csi_delay_slots}) must be below "
                              f"slots ({self.slots}), or no slot transmits")
        if not (math.isfinite(self.mcs_gap_db) and self.mcs_gap_db >= 0.0):
            raise ConfigError("mcs_gap_db must be finite and >= 0")
        if not (math.isfinite(self.snr_margin_db) and self.snr_margin_db >= 0.0):
            raise ConfigError("snr_margin_db must be finite and >= 0")
        if self.codebook is not None:
            book = tuple(self.codebook)
            if not book:
                raise ConfigError("codebook must not be empty")
            object.__setattr__(self, "codebook", book)


@dataclass(frozen=True)
class CoexistResult:
    bler: float
    snr_trace_db: np.ndarray
    error_slots: tuple[int, ...]
    selected_rate_bps_hz: np.ndarray  # NaN over the warm-up slots
    capacity_bps_hz: np.ndarray
    transmitting_slots: int
    ris_direct_ratio_db: float  # see _ratio_db()


def _victim_link(scene: Scene, ue_point):
    """The victim's serving link after direct-matched combining.

    Returns the combined direct amplitude, the cascade channel of the
    serving station (None without a surface) and the combining weights'
    gain on that station's steering toward the surface.
    """
    bs_index = serving_bs(scene, ue_point)
    direct = direct_channel(scene, bs_index, ue_point)
    w = mrc_weights(direct.gains)
    base = complex(np.vdot(w, direct.gains))
    if scene.ris is None:
        return base, None, 0j
    ch = ris_channel(scene, bs_index, ue_point)
    return base, ch, complex(np.vdot(w, ch.bs_steering))


def _combined_amplitudes(scene: Scene, link, config: CoexistConfig) -> np.ndarray:
    """Post-combining channel amplitude for each codebook entry."""
    base, ch, steer_gain = link
    if ch is None:
        return np.array([base])
    book = config.codebook if config.codebook is not None else default_codebook(scene)
    out = np.empty(len(book), dtype=np.complex128)
    for c, entry in enumerate(book):
        ripple = cascade(ch, entry.phases_rad) if entry.active else 0.0
        out[c] = base + ripple * steer_gain
    return out


def simulate(scene: Scene, ue_point, config: CoexistConfig) -> CoexistResult:
    """Run the slot recursion; deterministic in ``config.seed``.

    The switching process is exogenous (the other operator's controller),
    so its random stream depends on the seed alone, never on the victim's
    position: two nearby UEs observe the same switching history.
    """
    link = _victim_link(scene, ue_point)
    amps = _combined_amplitudes(scene, link, config)
    power_w = dbm_to_watts(scene.link_budget.max_tx_power_dbm)
    noise_w = dbm_to_watts(scene.noise_power_dbm)
    snr_per_config = power_w * np.abs(amps) ** 2 / noise_w

    n = config.slots
    rng = derived_rng(config.seed, "coexist-switch")
    switch = rng.random(n) < config.switch_probability
    draws = rng.integers(0, snr_per_config.shape[0], n)
    indices = forward_fill(switch, draws.astype(np.int64))

    snr_lin = snr_per_config[indices]
    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(snr_lin)
    gap = db_to_linear(config.mcs_gap_db)
    capacity = np.log2(1.0 + snr_lin / gap)

    d = config.csi_delay_slots
    selected = np.full(n, math.nan)
    errors = np.zeros(n, dtype=bool)
    selected[d:] = capacity[:-d]
    # shannon selection: rate exceeds capacity iff the SNR dropped
    errors[d:] = snr_lin[d:] < snr_lin[:-d] * db_to_linear(-config.snr_margin_db)

    tx = n - d
    error_slots = tuple(np.flatnonzero(errors).tolist())
    bler = len(error_slots) / tx
    return CoexistResult(
        bler=bler,
        snr_trace_db=snr_db,
        error_slots=error_slots,
        selected_rate_bps_hz=selected,
        capacity_bps_hz=capacity,
        transmitting_slots=tx,
        ris_direct_ratio_db=_ratio_db(link),
    )


def _ratio_db(link) -> float:
    """Peak surface ripple over the direct amplitude after combining, in dB.

    The numerator is the best-case coherent cascade (all element phases
    aligned), which bounds how far any configuration can move the combined
    channel; -inf when the scene has no surface.
    """
    base, ch, steer_gain = link
    if ch is None:
        return -math.inf
    ripple = float(np.sum(np.abs(ch.hop_products))) * abs(steer_gain)
    if ripple == 0.0:
        return -math.inf
    return 20.0 * math.log10(ripple / abs(base))


def write_trace_csv(result: CoexistResult, path: str) -> None:
    """Per-slot log; floats via repr, so -inf and nan survive a round trip.

    Rows are formatted from per-chunk string tables: within a chunk each
    float column is coded by its float64 bit pattern, so ``-0.0`` and
    ``0.0`` stay apart; each distinct value goes through ``repr`` once and
    each distinct row tail is formatted once. The output is byte-identical
    to formatting every row with ``repr``.
    """
    n = result.snr_trace_db.shape[0]
    err = np.zeros(n, dtype=bool)
    err[np.asarray(result.error_slots, dtype=np.intp)] = True
    columns = (result.snr_trace_db, result.selected_rate_bps_hz, result.capacity_bps_hz)
    with open(path, "w", newline="") as fh:
        fh.write("slot,snr_db,selected_rate,actual_capacity,error\n")
        for start in range(0, n, _TRACE_CHUNK_ROWS):
            stop = min(start + _TRACE_CHUNK_ROWS, n)
            key = flags = err[start:stop].astype(np.int64)
            codes, texts = [], []
            for column in columns:
                bits = np.ascontiguousarray(column[start:stop], dtype=np.float64)
                values, code = np.unique(bits.view(np.uint64), return_inverse=True)
                key = key * values.shape[0] + code
                codes.append(code)
                texts.append([repr(v) for v in values.view(np.float64).tolist()])
            _, first, rows = np.unique(key, return_index=True, return_inverse=True)
            snr, sel, cap = texts
            tails = [
                f",{snr[a]},{sel[b]},{cap[c]},{e}\n"
                for a, b, c, e in zip(
                    *(code[first].tolist() for code in codes), flags[first].tolist()
                )
            ]
            lines = zip(range(start, stop), rows.tolist())
            fh.write("".join(f"{t}{tails[r]}" for t, r in lines))
