"""The per-slot coexistence simulator and per-row trace formatter, kept as oracles.

``simulate`` evaluates ``log10`` and ``log2`` on every slot and carries
three per-slot float columns; ``reference_trace`` formats each trace row
with ``repr``; ``reference_summary`` is the summary line of
``risplan coexist``. ``risplan.coexistence`` works from one SNR and
capacity per codebook entry and must reproduce these bytes exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from risplan.coexistence import _combined_amplitudes, _ratio_db, _victim_link
from risplan.kernels import forward_fill
from risplan.propagation import db_to_linear, dbm_to_watts
from risplan.seeding import derived_rng


@dataclass(frozen=True)
class SlotTrace:
    bler: float
    snr_trace_db: np.ndarray
    error_slots: tuple[int, ...]
    selected_rate_bps_hz: np.ndarray  # NaN over the warm-up slots
    capacity_bps_hz: np.ndarray
    transmitting_slots: int
    ris_direct_ratio_db: float


def simulate(scene, ue_point, config) -> SlotTrace:
    """The slot recursion with every quantity held per slot."""
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
        ris_direct_ratio_db=_ratio_db(link),
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
