"""The per-slot coexistence simulator and per-row trace formatter, kept as oracles.

``simulate`` builds the victim link from the one-point channel views of
``gain_oracle``, sums the cascade entry by entry over a tuple of
:class:`~gain_oracle.RisConfig` codebook entries, evaluates ``log10`` and
``log2`` on every slot and carries three per-slot float columns;
``reference_trace`` formats each trace row with ``repr``;
``reference_summary`` is the summary line of ``risplan coexist``.
``risplan.coexistence`` works from one (C, M) response array and one SNR
and capacity per codebook entry and must reproduce these bytes exactly.

``neighbour_codebook`` is a random-phase codebook: the neighbour serving
its own moving users rather than sweeping beams.
"""

import math
from dataclasses import dataclass

import numpy as np

from gain_oracle import RisConfig, cascade, codebook, direct_channel, ris_channel, serving_station
from risplan.beamforming import mrc_weights
from risplan.kernels import forward_fill
from risplan.propagation import db_to_linear, dbm_to_watts
from risplan.seeding import derived_rng


def neighbour_codebook(scene, entries: int = 16, seed: int = 1) -> tuple[RisConfig, ...]:
    """``entries`` configurations of uniform random phases, one stream."""
    rng = derived_rng(seed, "coexist-codebook")
    m = scene.ris.element_count
    return tuple(
        RisConfig(phases_rad=tuple(float(p) for p in rng.uniform(-np.pi, np.pi, m)))
        for _ in range(entries)
    )


def victim_link(scene, ue_point):
    """(combined direct amplitude, cascade channel, steering gain)."""
    bs_index = serving_station(scene, ue_point)
    direct = direct_channel(scene, bs_index, ue_point)
    w = mrc_weights(direct.gains)
    base = complex(np.vdot(w, direct.gains))
    ch = ris_channel(scene, bs_index, ue_point)
    return base, ch, complex(np.vdot(w, ch.bs_steering))


def combined_amplitudes(link, book, efficiency: float = 1.0) -> np.ndarray:
    """Post-combining channel amplitude for each codebook entry, one at a time."""
    base, ch, steer_gain = link
    out = np.empty(len(book), dtype=np.complex128)
    for c, entry in enumerate(book):
        ripple = cascade(ch, entry.phases_rad, efficiency) if entry.active else 0.0
        out[c] = base + ripple * steer_gain
    return out


def ratio_db(scene, link) -> float:
    """Coherent surface ripple over the combined direct amplitude, in dB: the
    cascade moduli summed, scaled by the largest state response modulus."""
    base, ch, steer_gain = link
    lookup = np.asarray(scene.ris.phase_lookup_rad)
    peak = float(np.max(np.abs(scene.ris.element_efficiency * np.exp(1j * lookup))))
    ripple = peak * float(np.sum(np.abs(ch.hop_products))) * abs(steer_gain)
    if ripple == 0.0:
        return -math.inf
    return 20.0 * math.log10(ripple / abs(base))


@dataclass(frozen=True)
class SlotTrace:
    bler: float
    snr_trace_db: np.ndarray
    error_slots: tuple[int, ...]
    selected_rate_bps_hz: np.ndarray  # NaN over the warm-up slots
    capacity_bps_hz: np.ndarray
    transmitting_slots: int
    ris_direct_ratio_db: float


def simulate(scene, ue_point, config, book=None) -> SlotTrace:
    """The slot recursion with every quantity held per slot.

    ``book`` is a tuple of codebook entries, by default the scene's beams.
    """
    link = victim_link(scene, ue_point)
    if book is None:
        book = codebook(scene)
    amps = combined_amplitudes(link, book, scene.ris.element_efficiency)
    power_w = dbm_to_watts(scene.link_budget.max_tx_power_dbm)
    noise_w = dbm_to_watts(scene.noise_power_dbm)
    snr_per_config = power_w * np.abs(amps) ** 2 / noise_w

    n = config.slots
    rng = derived_rng(config.seed, "coexist-switch")
    switch = rng.random(n) < config.switch_probability
    draws = rng.integers(0, snr_per_config.shape[0], n)
    indices = forward_fill(switch, draws.astype(np.int64), 0)

    snr_lin = snr_per_config[indices]
    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(snr_lin)
    gap = db_to_linear(config.mcs_gap_db)
    capacity = np.log2(1.0 + snr_lin / gap)

    d = config.csi_delay_slots
    selected = np.full(n, math.nan)
    errors = np.zeros(n, dtype=bool)
    selected[d:] = capacity[:-d]
    errors[d:] = snr_lin[d:] < snr_lin[:-d] * db_to_linear(-config.snr_margin_db)

    tx = n - d
    error_slots = tuple(np.flatnonzero(errors).tolist())
    return SlotTrace(
        bler=len(error_slots) / tx,
        snr_trace_db=snr_db,
        error_slots=error_slots,
        selected_rate_bps_hz=selected,
        capacity_bps_hz=capacity,
        transmitting_slots=tx,
        ris_direct_ratio_db=ratio_db(scene, link),
    )


def reference_trace(snr_db, selected_rate, capacity, error_slots) -> bytes:
    """The trace CSV with every row formatted on its own."""
    lines = ["slot,snr_db,selected_rate,actual_capacity,error\n"]
    err = set(error_slots)
    for t in range(len(snr_db)):
        lines.append(
            f"{t},{float(snr_db[t])!r},{float(selected_rate[t])!r},"
            f"{float(capacity[t])!r},{int(t in err)}\n"
        )
    return "".join(lines).encode()


def reference_summary(slots, result: SlotTrace) -> bytes:
    """The summary CSV that ``risplan coexist`` writes for ``result``."""
    return (
        "slots,transmitting_slots,error_count,bler,ris_direct_ratio_db\n"
        f"{slots},{result.transmitting_slots},{len(result.error_slots)},"
        f"{result.bler!r},{result.ris_direct_ratio_db!r}\n"
    ).encode()
