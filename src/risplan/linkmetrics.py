"""Link metrics: equivalent gain, voice transmit power, spectral efficiency.

All three metrics share one channel evaluation per (base station, point)
pair. The equivalent gain is the post-combining power gain averaged over
subcarriers; `required_tx_power` inverts the uplink voice budget;
`spectral_efficiency_from_gain` rate-adapts at full power. Out-of-coverage
points are reported as NaN so the mapping layer can treat them uniformly.

Grid maps go through one engine, :func:`gain_engine`, which works on
blocks of points: direct channels per base station for a whole block at
once, the base station to surface leg once per map, the surface to point
legs once per block, and the quadratic-form ascent over all points of a
block served by the same station. Its blocks, and the two maps derived
from them per block, are ``(2, k)`` arrays: row 0 without the surface, row
1 with it. ``coexistence`` picks the victim's station with the same
:func:`serving_bs`.
"""

from __future__ import annotations

import math

import numpy as np

from .beamforming import direct_gain, gain_terms, optimize_gains
from .propagation import (
    BsLeg,
    DirectChannel,
    direct_channels,
    ris_channels,
    station_legs,
    surface_legs,
)
from .scene import LinkBudgetSpec, Scene


def _to_db(power_linear: float) -> float:
    if power_linear > 0.0:
        return 10.0 * math.log10(power_linear)
    return math.nan if math.isnan(power_linear) else -math.inf


def _per_value(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` on every value as a Python float.

    For the steps that must stay on ``math``: numpy's ``log10`` and
    ``log2`` round differently from it on some inputs.
    """
    out = np.fromiter(map(fn, values.ravel().tolist()), dtype=np.float64, count=values.size)
    return out.reshape(values.shape)


def required_tx_power(gain_db, budget: LinkBudgetSpec, noise_power_dbm: float):
    """Transmit power meeting the voice SNR target, NaN when out of coverage.

    The unclamped solution is pure dB arithmetic; a device cannot go below
    its minimum power, so low demands clamp up, while demands beyond the
    maximum mean the target is unattainable. Elementwise on an array.
    """
    p = budget.target_snr_db + noise_power_dbm - np.asarray(gain_db, dtype=float)
    # the clamp keeps p unless the floor is strictly above it, as max(p, floor)
    floor = budget.min_tx_power_dbm
    return np.where(p > budget.max_tx_power_dbm, math.nan, np.where(floor > p, floor, p))[()]


def spectral_efficiency_from_gain(
    gain_db: float, budget: LinkBudgetSpec, noise_power_dbm: float
) -> float:
    """Shannon rate at full power, floored by the voice target and capped."""
    if math.isnan(gain_db):
        return math.nan
    snr_db = budget.max_tx_power_dbm + gain_db - noise_power_dbm
    if snr_db < budget.target_snr_db:
        return math.nan
    se = math.log2(1.0 + 10.0 ** (snr_db / 10.0))
    return min(se, budget.se_max_bps_hz)


def serving_bs(directs: list[DirectChannel], legs: dict[int, BsLeg]) -> np.ndarray:
    """Serving station per point by strongest direct link (c0), -1 for none.

    ``directs`` are the stations' channels at the points and ``legs`` their
    surface legs from :func:`risplan.propagation.station_legs`. Ties go to
    the lowest index. A station the point coincides with, or whose surface
    leg is degenerate, drops out. The surface is left out on purpose: a UE picks its cell
    from reference signals, before any surface optimization.
    """
    c0 = np.stack([direct_gain(d) for d in directs])
    usable = np.stack([(d.distance_m > 0.0) & (i in legs) for i, d in enumerate(directs)])
    c0 = np.where(usable, c0, -math.inf)
    best = np.argmax(c0, axis=0)
    return np.where(usable[best, np.arange(best.size)], best, -1)


def _served_gains(
    scene: Scene, direct: DirectChannel, rows: np.ndarray, leg, point_legs
) -> np.ndarray:
    """(2, len(rows)) linear without and with gains of the points ``rows`` one station serves.

    One station's channels and quadratic forms live only inside this call,
    so they are gone before the next station's are built.
    """
    sub = DirectChannel(
        gains=direct.gains[rows],
        delay_s=direct.delay_s[rows],
        distance_m=direct.distance_m[rows],
    )
    ris_ch = ris_channels(leg, point_legs[0][rows], point_legs[1][rows])
    terms = gain_terms(sub, ris_ch, scene.subcarrier_count, scene.subcarrier_spacing_hz)
    _, ascended = optimize_gains(terms, scene)
    return np.stack([terms.c0, np.maximum(ascended, terms.c0)])


def gain_engine(scene: Scene):
    """(cell bytes, block) of the ``gain_db`` map; a block is (2, k) serving-station gains in dB.

    The stations' surface legs are built once per map. A cell's bytes are
    its V matrix (complex, M x M), the largest operand. A block whose
    points one station serves peaks near twice the bytes it counts: the
    ascent kernel holds V's real and imaginary parts again as column
    arrays, and building V holds the upper-triangle pair phasors, half a
    V, next to it. A point on a base station drops that station from the
    choice; a point with no usable station, or on a surface element, reads
    NaN in both rows.
    """
    legs = station_legs(scene)
    m = scene.ris.element_count

    def block(points: np.ndarray, indices: np.ndarray) -> np.ndarray:
        directs = [direct_channels(scene, i, points) for i in range(len(scene.bs))]
        point_legs = surface_legs(scene, points)
        serving = np.where(np.all(point_legs[1] > 0.0, axis=1), serving_bs(directs, legs), -1)
        gains = np.full((2, len(points)), math.nan)
        for i, direct in enumerate(directs):
            rows = np.flatnonzero(serving == i)
            if rows.size:
                gains[:, rows] = _served_gains(scene, direct, rows, legs[i], point_legs)
        return _per_value(_to_db, gains)

    return 16 * m * m, block


def tx_power_engine(scene: Scene):
    """(cell bytes, block) of the ``tx_power_dbm`` map: the gain blocks' required power."""
    budget, noise = scene.link_budget, scene.noise_power_dbm
    cell_bytes, gain = gain_engine(scene)
    return cell_bytes, lambda *block: required_tx_power(gain(*block), budget, noise)


def se_engine(scene: Scene):
    """(cell bytes, block) of the ``se_bps_hz`` map: the gain blocks' spectral efficiency."""
    budget, noise = scene.link_budget, scene.noise_power_dbm
    cell_bytes, gain = gain_engine(scene)
    return cell_bytes, lambda *block: _per_value(
        lambda g: spectral_efficiency_from_gain(g, budget, noise), gain(*block))
