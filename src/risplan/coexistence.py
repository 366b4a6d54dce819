"""Monte-Carlo link adaptation under an uncoordinated switching surface.

A victim uplink transmits at fixed power while a reconfigurable surface
owned by a different operator resamples its configuration at random slot
boundaries.  The victim picks its rate from an SNR measurement that is a
few slots old; when the surface switches inside that window and the new
configuration happens to dim the combined channel, the selected rate
overshoots what the channel now carries and the block is lost.

The victim combines with maximum-ratio weights matched to the direct
channel only: it has no way to sound a surface it does not control.
Rate adaptation is idealized Shannon-with-gap; plug a discrete rate table
into ``rate_table`` to quantize it.
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
    rate_table: tuple[float, ...] | None = None
    seed: int = 1

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ConfigError("slots must be >= 1")
        if not 0.0 <= self.switch_probability <= 1.0:
            raise ConfigError("switch_probability must lie in [0, 1]")
        if self.csi_delay_slots < 1:
            raise ConfigError("csi_delay_slots must be >= 1")
        if self.mcs_gap_db < 0.0:
            raise ConfigError("mcs_gap_db must be >= 0")
        if self.snr_margin_db < 0.0:
            raise ConfigError("snr_margin_db must be >= 0")
        if self.codebook is not None:
            book = tuple(self.codebook)
            if not book:
                raise ConfigError("codebook must not be empty")
            object.__setattr__(self, "codebook", book)
        if self.rate_table is not None:
            table = tuple(sorted(float(r) for r in self.rate_table))
            if not table:
                raise ConfigError("rate_table must not be empty")
            if table[0] < 0.0:
                raise ConfigError("rates must be >= 0")
            object.__setattr__(self, "rate_table", table)


@dataclass(frozen=True)
class CoexistResult:
    bler: float
    snr_trace_db: np.ndarray
    error_slots: tuple[int, ...]
    selected_rate_bps_hz: np.ndarray  # NaN over the warm-up slots
    capacity_bps_hz: np.ndarray
    transmitting_slots: int
    ris_direct_ratio_db: float  # see ris_direct_ratio_db()


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


def _select_rates(capacity: np.ndarray, table: tuple[float, ...] | None) -> np.ndarray:
    if table is None:
        return capacity
    # highest table rate not above the predicted capacity; idle below the floor
    rates = np.asarray(table)
    idx = np.searchsorted(rates, capacity, side="right") - 1
    return np.where(idx >= 0, rates[np.maximum(idx, 0)], 0.0)


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
    if n > d:
        selected[d:] = _select_rates(capacity[:-d], config.rate_table)
        margin = db_to_linear(-config.snr_margin_db)
        if config.rate_table is None:
            # shannon selection: rate exceeds capacity iff the SNR dropped
            errors[d:] = snr_lin[d:] < snr_lin[:-d] * margin
        else:
            errors[d:] = capacity[d:] < selected[d:] * (1.0 - 1e-12)

    tx = max(n - d, 0)
    error_slots = tuple(int(i) for i in np.nonzero(errors)[0])
    bler = len(error_slots) / tx if tx > 0 else 0.0
    return CoexistResult(
        bler=bler,
        snr_trace_db=snr_db,
        error_slots=error_slots,
        selected_rate_bps_hz=selected,
        capacity_bps_hz=capacity,
        transmitting_slots=tx,
        ris_direct_ratio_db=_ratio_db(link),
    )


def ris_direct_ratio_db(scene: Scene, ue_point) -> float:
    """Peak surface ripple over the direct amplitude after combining, in dB.

    The numerator is the best-case coherent cascade (all element phases
    aligned), which bounds how far any configuration can move the combined
    channel; -inf when the scene has no surface.
    """
    return _ratio_db(_victim_link(scene, ue_point))


def _ratio_db(link) -> float:
    base, ch, steer_gain = link
    if ch is None:
        return -math.inf
    ripple = float(np.sum(np.abs(ch.hop_products))) * abs(steer_gain)
    if ripple == 0.0:
        return -math.inf
    return 20.0 * math.log10(ripple / abs(base))


@dataclass(frozen=True)
class OverlapRow:
    point: tuple[float, float, float]
    ris_direct_ratio_db: float
    bler: float


def bler_vs_overlap_curve(
    scene: Scene, ue_points, config: CoexistConfig
) -> tuple[OverlapRow, ...]:
    """BLER against surface-to-direct power ratio, one row per point."""
    points = [np.asarray(p, dtype=float) for p in ue_points]
    if not points:
        raise ConfigError("need at least one point")
    rows = []
    for p in points:
        result = simulate(scene, p, config)
        rows.append(
            OverlapRow(
                point=(float(p[0]), float(p[1]), float(p[2])),
                ris_direct_ratio_db=result.ris_direct_ratio_db,
                bler=result.bler,
            )
        )
    return tuple(rows)


def write_trace_csv(result: CoexistResult, path: str) -> None:
    """Per-slot log; floats via repr, so -inf and nan survive a round trip."""
    with open(path, "w", newline="") as fh:
        fh.write("slot,snr_db,selected_rate,actual_capacity,error\n")
        err = set(result.error_slots)
        for t in range(result.snr_trace_db.shape[0]):
            fh.write(
                f"{t},{float(result.snr_trace_db[t])!r},"
                f"{float(result.selected_rate_bps_hz[t])!r},"
                f"{float(result.capacity_bps_hz[t])!r},{int(t in err)}\n"
            )


def write_curve_csv(rows: tuple[OverlapRow, ...], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("x_m,y_m,z_m,ris_direct_ratio_db,bler\n")
        for row in rows:
            x, y, z = row.point
            fh.write(
                f"{x!r},{y!r},{z!r},{row.ris_direct_ratio_db!r},{row.bler!r}\n"
            )
