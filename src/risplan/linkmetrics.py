"""Link metrics: equivalent gain, voice transmit power, spectral efficiency.

All three metrics share one channel evaluation per (base station, point)
pair. `equivalent_gain` reports the post-combining power gain averaged
over subcarriers; `required_tx_power` inverts the uplink voice budget;
`spectral_efficiency_from_gain` rate-adapts at full power. Out-of-coverage
points are reported as NaN so the mapping layer can treat them uniformly.

Grid maps go through one engine, :func:`gain_pairs`, which works on
arrays of points: direct channels per base station for a whole block at
once, the base station to surface leg once per map, the surface to point
legs once per block, and the quadratic-form ascent over all points of a
block served by the same station. ``gain_pair``, ``tx_power_pair`` and
``se_pair`` are one-row views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import (
    direct_gain,
    gain_terms,
    optimize_gain,
    optimize_gains,
    point_gain_terms,
)
from .errors import CoincidentNodeError
from .propagation import (
    DirectChannel,
    bs_leg,
    direct_channels,
    ris_channels,
    surface_legs,
)
from .scene import Scene

RIS_MODES = ("off", "optimized")

# Memory held by one block's V matrices (complex, M x M per point). The
# block size follows from the element count; it bounds the working set,
# never the result, which is the same for any block size.
_BLOCK_BYTES = 4 * 2**20


def _to_db(power_linear: float) -> float:
    if power_linear > 0.0:
        return 10.0 * math.log10(power_linear)
    return math.nan if math.isnan(power_linear) else -math.inf


@dataclass(frozen=True)
class LinkBudget:
    """Resolved uplink budget: scene defaults plus the derived noise power."""

    target_snr_db: float
    max_tx_power_dbm: float
    min_tx_power_dbm: float
    noise_power_dbm: float
    se_max_bps_hz: float


def link_budget(scene: Scene) -> LinkBudget:
    lb = scene.link_budget
    return LinkBudget(
        target_snr_db=lb.target_snr_db,
        max_tx_power_dbm=lb.max_tx_power_dbm,
        min_tx_power_dbm=lb.min_tx_power_dbm,
        noise_power_dbm=scene.noise_power_dbm,
        se_max_bps_hz=lb.se_max_bps_hz,
    )


def equivalent_gain(scene: Scene, bs_index: int, point, ris_mode: str = "optimized") -> float:
    """Mean-subcarrier power gain in dB at a given station, NaN when the point sits on a node.

    The optimized reading is the best quantized configuration, never worse
    than leaving the surface off. Kept as a deliberate oracle of the
    serving-station readings of :func:`gain_pair`, on no command-line path.
    """
    if ris_mode not in RIS_MODES:
        raise ValueError(f"ris_mode must be one of {RIS_MODES}, got {ris_mode!r}")
    try:
        terms = point_gain_terms(scene, bs_index, point)
    except CoincidentNodeError:
        return math.nan
    if ris_mode == "off" or terms.b.shape[0] == 0:
        return _to_db(terms.c0)
    return _to_db(max(optimize_gain(terms, scene.ris.phase_lookup_rad).gain, terms.c0))


def required_tx_power(gain_db: float, budget: LinkBudget) -> float:
    """Transmit power meeting the voice SNR target, NaN when out of coverage.

    The unclamped solution is pure dB arithmetic; a device cannot go below
    its minimum power, so low demands clamp up, while demands beyond the
    maximum mean the target is unattainable.
    """
    if math.isnan(gain_db):
        return math.nan
    p = budget.target_snr_db + budget.noise_power_dbm - gain_db
    if p > budget.max_tx_power_dbm:
        return math.nan
    return max(p, budget.min_tx_power_dbm)


def spectral_efficiency_from_gain(gain_db: float, budget: LinkBudget) -> float:
    """Shannon rate at full power, floored by the voice target and capped."""
    if math.isnan(gain_db):
        return math.nan
    snr_db = budget.max_tx_power_dbm + gain_db - budget.noise_power_dbm
    if snr_db < budget.target_snr_db:
        return math.nan
    se = math.log2(1.0 + 10.0 ** (snr_db / 10.0))
    return min(se, budget.se_max_bps_hz)


def _cell_block(scene: Scene) -> int:
    m = scene.ris.element_count if scene.ris is not None else 1
    return max(1, _BLOCK_BYTES // (16 * m * m))


def _station_legs(scene: Scene) -> list:
    """Each station's surface leg, None where the station sits on the surface."""
    if scene.ris is None:
        return [None] * len(scene.bs)
    legs = []
    for i in range(len(scene.bs)):
        try:
            legs.append(bs_leg(scene, i))
        except CoincidentNodeError:
            legs.append(None)
    return legs


def _serving(scene: Scene, directs: list[DirectChannel], legs: list) -> np.ndarray:
    """Serving station per point by strongest direct link (c0), -1 for none.

    Ties go to the lowest index. A station the point coincides with, or
    whose surface leg is degenerate, drops out of the choice.
    """
    c0 = np.stack([direct_gain(d) for d in directs])
    usable = np.stack([d.distance_m > 0.0 for d in directs])
    if scene.ris is not None:
        usable &= np.array([leg is not None for leg in legs])[:, None]
    c0 = np.where(usable, c0, -math.inf)
    best = np.argmax(c0, axis=0)
    return np.where(usable[best, np.arange(best.size)], best, -1)


def _gain_block(scene: Scene, points: np.ndarray, legs: list) -> tuple[np.ndarray, np.ndarray]:
    """Linear (without, with) gains at the serving station of each point."""
    directs = [direct_channels(scene, i, points) for i in range(len(scene.bs))]
    serving = _serving(scene, directs, legs)
    off = np.full(len(points), math.nan)
    best = np.full(len(points), math.nan)
    if scene.ris is not None:
        point_gains, point_dists = surface_legs(scene, points)
        serving = np.where(np.all(point_dists > 0.0, axis=1), serving, -1)
    for i, direct in enumerate(directs):
        rows = np.flatnonzero(serving == i)
        if rows.size == 0:
            continue
        sub = DirectChannel(
            gains=direct.gains[rows],
            delay_s=direct.delay_s[rows],
            distance_m=direct.distance_m[rows],
        )
        ris_ch = (
            ris_channels(scene, legs[i], point_gains[rows], point_dists[rows])
            if scene.ris is not None
            else None
        )
        terms = gain_terms(sub, ris_ch, scene.subcarrier_count, scene.subcarrier_spacing_hz)
        off[rows] = terms.c0
        if ris_ch is None:
            best[rows] = terms.c0
        else:
            _, ascended = optimize_gains(terms, scene.ris.phase_lookup_rad)
            best[rows] = np.maximum(ascended, terms.c0)
    return off, best


def gain_pairs(scene: Scene, points) -> list[tuple[float, float]]:
    """(without, with) equivalent gain in dB at each point's serving station.

    The grid-batched engine behind every gain-family map. Points are
    processed in blocks sized so one block's V matrices stay within a
    fixed memory budget; every operation is per point, so the result does
    not depend on the block size. A point on a base station drops that
    station from the choice; a point with no usable station, or on a
    surface element, gets a NaN pair.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    legs = _station_legs(scene)
    block = _cell_block(scene)
    pairs = []
    for start in range(0, len(points), block):
        off, best = _gain_block(scene, points[start:start + block], legs)
        pairs.extend((_to_db(a), _to_db(b)) for a, b in zip(off.tolist(), best.tolist()))
    return pairs


def tx_power_pairs(scene: Scene, points) -> list[tuple[float, float]]:
    budget = link_budget(scene)
    return [
        (required_tx_power(a, budget), required_tx_power(b, budget))
        for a, b in gain_pairs(scene, points)
    ]


def se_pairs(scene: Scene, points) -> list[tuple[float, float]]:
    budget = link_budget(scene)
    return [
        (spectral_efficiency_from_gain(a, budget), spectral_efficiency_from_gain(b, budget))
        for a, b in gain_pairs(scene, points)
    ]


def serving_bs(scene: Scene, point) -> int:
    """Association by strongest direct link; ties go to the lowest index.

    The surface is excluded on purpose: a UE picks its cell from ordinary
    reference signals, before any surface optimization happens for it.
    One-row view of the engine's choice; a point with no usable station
    gets station 0.
    """
    points = np.asarray(point, dtype=float)[None, :]
    directs = [direct_channels(scene, i, points) for i in range(len(scene.bs))]
    return max(int(_serving(scene, directs, _station_legs(scene))[0]), 0)


def gain_pair(scene: Scene, point) -> tuple[float, float]:
    """(without, with) equivalent gain in dB at the serving base station.

    One-row view of :func:`gain_pairs`, kept as the per-point oracle.
    """
    return gain_pairs(scene, [point])[0]


def tx_power_pair(scene: Scene, point) -> tuple[float, float]:
    """One-row view of :func:`tx_power_pairs`, kept as the per-point oracle."""
    return tx_power_pairs(scene, [point])[0]


def se_pair(scene: Scene, point) -> tuple[float, float]:
    """One-row view of :func:`se_pairs`, kept as the per-point oracle."""
    return se_pairs(scene, [point])[0]
