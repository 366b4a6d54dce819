"""Small evaluations that only tests need, kept out of the package API."""

import math

import numpy as np


def at_subcarriers(direct, count, spacing_hz):
    """(count, A) frequency-domain response of a one-point ``DirectChannel``."""
    phases = np.exp(-2j * math.pi * spacing_hz * direct.delay_s * np.arange(count))
    return direct.gains[None, :] * phases[:, None]


def contrast_at(curve, f_hz):
    """Piecewise-linear contrast of a ``ContrastCurve`` at f_hz (inside the sampled range)."""
    return float(np.interp(f_hz, curve.frequencies_hz, curve.contrast))


def trace_columns(result):
    """Per-slot SNR (dB), selected rate and capacity columns of a ``CoexistResult``.

    The selected rate of slot t is the capacity of slot t - d, with d the
    CSI delay; the first d slots select none (NaN).
    """
    index = result.config_index
    delay = index.shape[0] - result.transmitting_slots
    capacity = result.capacity[index]
    selected = np.full(index.shape[0], math.nan)
    selected[delay:] = capacity[:-delay]
    return result.snr_db[index], selected, capacity
