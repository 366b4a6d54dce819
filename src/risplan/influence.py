"""Grid sweeps, with/without differencing, and area-of-influence maps.

A sweep evaluates one link metric on every grid cell twice, once with the
surface absent and once with it active: each metric's engine returns one
``(2, n)`` array, row 0 without the surface and row 1 with it, and
:func:`classify` labels all cells at once.  Six labels partition the grid:

``unchanged``
    both readings in coverage, difference below the unchanged threshold
``boosted``
    improvement at or above the boost threshold
``marginal``
    improvement between the two thresholds
``degraded``
    worsening at or above the unchanged threshold, or coverage lost
``enabled``
    out of coverage without the surface, in coverage with it
``infeasible_both``
    out of coverage either way

Coverage means a finite reading, plus the metric's quality gate when one is
configured (a position-error cap for localization, a minimum rate when a
``qos_min`` entry names the metric).  Differences are taken on a comparison
scale: position error bounds move to decibels (20 log10 of metres) first,
every other metric compares in its native unit.  The sign convention is
"improvement positive" regardless of whether the metric is higher-better
or lower-better.

:func:`classify` returns two arrays over the grid: ``labels``, codes into
:data:`LABELS`, and ``delta``, the improvement in dB, or in bps/Hz for the
rates, NaN unless both readings are in coverage. The area of influence is
the :data:`DESIRED` cells (enabled, boosted) and the :data:`UNDESIRED`
ones (degraded, marginal).

The exporters take the grid, the output path and one row of values or
labels. They cover CSV (bit-exact round trip of every value but a NaN's
sign) and PPM with a blue/green/red three-stop colormap; label maps export
with a fixed palette.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .linkmetrics import gain_pairs, se_pairs, tx_power_pairs
from .localization import peb_pairs
from .scene import Grid, METRIC_IDS, Scene, Thresholds
from .secrecy import sse_pairs
# not called here, but perfbench's CellTimer looks these per-cell names up
# on this module and rebinds them to time each cell, so they must stay bound
from .linkmetrics import gain_pair, se_pair, tx_power_pair  # noqa: F401
from .localization import peb_pair  # noqa: F401
from .secrecy import sse_pair  # noqa: F401

LABELS = ("unchanged", "boosted", "enabled", "degraded", "marginal", "infeasible_both")

# palette for label-map images
LABEL_COLORS = {
    "unchanged": (0, 0, 255),
    "boosted": (0, 255, 0),
    "enabled": (255, 255, 0),
    "degraded": (255, 0, 0),
    "marginal": (255, 165, 0),
    "infeasible_both": (64, 64, 64),
}

_CODE = {label: code for code, label in enumerate(LABELS)}
_PALETTE = np.array([LABEL_COLORS[label] for label in LABELS])

# the area of influence, by label code: the cells the surface helps, and
# the cells it hurts or improves by less than the boost threshold
DESIRED = (_CODE["enabled"], _CODE["boosted"])
UNDESIRED = (_CODE["degraded"], _CODE["marginal"])


@dataclass(frozen=True)
class _Metric:
    """How a metric is swept: its grid-batched (2, n) without/with engine."""

    higher_better: bool
    pairs: Callable[[Scene, np.ndarray], np.ndarray]


METRICS: dict[str, _Metric] = {
    "gain_db": _Metric(higher_better=True, pairs=gain_pairs),
    "tx_power_dbm": _Metric(higher_better=False, pairs=tx_power_pairs),
    "se_bps_hz": _Metric(higher_better=True, pairs=se_pairs),
    "peb_m": _Metric(higher_better=False, pairs=peb_pairs),
    "sse_bps_hz": _Metric(higher_better=True, pairs=sse_pairs),
}

assert set(METRICS) == set(METRIC_IDS)


def sweep(scene: Scene, metric_id: str) -> np.ndarray:
    """Evaluate a metric over the whole grid: its engine's (2, n) array, row 0 without.

    Every metric runs grid-batched in this process: the gain family
    (``gain_db``, ``tx_power_dbm``, ``se_bps_hz``) through
    :func:`risplan.linkmetrics.gain_pairs`, ``peb_m`` through
    :func:`risplan.localization.peb_pairs` and ``sse_bps_hz`` through
    :func:`risplan.secrecy.sse_pairs`. All randomness derives from the
    scene seed plus the cell index, so neither the cell order nor the
    block size changes the output. A cell on a scene node is a NaN pair
    for ``peb_m`` and ``sse_bps_hz``; the gain engine drops a station the
    cell sits on and reads NaN only on a surface element or with no
    station left. ``metric_id`` is one of :data:`METRIC_IDS`, and a
    secrecy map's scene has an eavesdropper: ``aoi`` checks both before it
    loads numpy.
    """
    return METRICS[metric_id].pairs(scene, scene.grid.points())


def comparison_value(metric_id: str, value: float) -> float:
    """Project a raw reading onto the scale differences are taken on."""
    if metric_id != "peb_m":
        return value
    if math.isnan(value):
        return math.nan
    if value == 0.0:
        return -math.inf
    return 20.0 * math.log10(value)


def in_coverage(metric_id: str, values, thresholds: Thresholds) -> np.ndarray:
    """Finite readings passing the metric's quality gate, if it has one; elementwise."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if metric_id == "peb_m":
        return finite & (values <= thresholds.peb_feasible_m)
    floor = thresholds.qos_for(metric_id)
    if floor is None:
        return finite
    if METRICS[metric_id].higher_better:
        return finite & (values >= floor)
    return finite & (values <= floor)


def classify(
    metric_id: str, pairs: np.ndarray, thresholds: Thresholds
) -> tuple[np.ndarray, np.ndarray]:
    """Label every cell by how the surface changed the metric there: (labels, delta).

    ``pairs`` is a sweep's (2, n) array, row 0 without the surface.
    """
    without, with_ = pairs
    higher_better = METRICS[metric_id].higher_better
    boost, unchanged = thresholds.for_metric(metric_id)

    cov_a = in_coverage(metric_id, without, thresholds)
    cov_b = in_coverage(metric_id, with_, thresholds)
    both = cov_a & cov_b
    a, b = without[both], with_[both]
    if metric_id == "peb_m":
        # math.log10 per value: numpy's log10 rounds differently on some inputs
        to_db = partial(comparison_value, metric_id)
        a, b = (np.fromiter(map(to_db, v.tolist()), float, v.size) for v in (a, b))
    with np.errstate(over="ignore", invalid="ignore"):
        improvement = (b - a) if higher_better else (a - b)
    # both readings pinned at the same scale extreme
    improvement[np.isnan(improvement)] = 0.0

    labels = np.full(without.shape, _CODE["infeasible_both"], dtype=np.uint8)
    labels[cov_b & ~cov_a] = _CODE["enabled"]
    labels[cov_a & ~cov_b] = _CODE["degraded"]
    labels[both] = np.select(
        [improvement >= boost, improvement <= -unchanged, improvement >= unchanged],
        [_CODE["boosted"], _CODE["degraded"], _CODE["marginal"]],
        _CODE["unchanged"],
    )
    delta = np.full(without.shape, math.nan)
    delta[both] = improvement
    return labels, delta


# ---------------------------------------------------------------------------
# file export

_PPM_LINE = 68  # characters


def _write_csv(path: str, grid: Grid, column: str, texts: Iterable[str]) -> None:
    """Header ``x_m,y_m,<column>``, then one row per cell in grid order."""
    xy = grid.points()
    with open(path, "w", newline="") as fh:
        fh.write(f"x_m,y_m,{column}\n")
        fh.writelines(map(
            "{},{},{}\n".format,
            map(repr, xy[:, 0].tolist()),
            map(repr, xy[:, 1].tolist()),
            texts,
        ))


def _write_ppm(path: str, grid: Grid, rgb: np.ndarray) -> None:
    """Plain-text image of (n, 3) colours in grid order.

    The top image row is the northernmost grid row, so files view like a
    map. Lines are filled greedily with whole tokens, none longer than
    ``_PPM_LINE`` characters.
    """
    rows = rgb.reshape(grid.ny, 3 * grid.nx)[::-1]
    # running width of each row's tokens, one separator counted after each
    ends = np.cumsum(2 + (rows >= 10) + (rows >= 100), axis=1)
    with open(path, "w", newline="") as fh:
        fh.write(f"P3\n{grid.nx} {grid.ny}\n255\n")
        for row, end in zip(rows.tolist(), ends):
            tokens = list(map(str, row))
            start = used = 0
            while start < len(tokens):
                stop = int(np.searchsorted(end, used + _PPM_LINE + 1, side="right"))
                fh.write(" ".join(tokens[start:stop]) + "\n")
                start, used = stop, end[stop - 1]


def export_csv(grid: Grid, path: str, values: np.ndarray) -> None:
    """Header ``x_m,y_m,value``, then one row per cell in grid order.

    Floats are written with ``repr``, so a re-import reproduces every bit
    of every value except a NaN's: any NaN, a sign-bit one included, is
    written ``nan`` and reads back as the canonical quiet NaN.
    """
    _write_csv(path, grid, "value", map(repr, values.tolist()))


def _finite_range(values: np.ndarray, what: str) -> tuple[float, float] | None:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        print(f"note: {what}: no finite values, image is flat", file=sys.stderr)
        return None
    vmin = float(finite.min())
    vmax = float(finite.max())
    if vmin == vmax:
        print(f"note: {what}: flat value range, rendering mid-scale", file=sys.stderr)
        return None
    return vmin, vmax


def colormap_rgb(t) -> np.ndarray:
    """Three-stop map: 0 = blue, 1/2 = green, 1 = red, linear between.

    Elementwise: ``t`` of any shape gives integer colours of shape (..., 3).
    """
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    low = t <= 0.5
    s = np.where(low, 2.0 * t, 2.0 * t - 1.0)
    rise = np.rint(255.0 * s).astype(int)
    fall = np.rint(255.0 * (1.0 - s)).astype(int)
    return np.stack(
        [np.where(low, 0, rise), np.where(low, rise, fall), np.where(low, fall, 0)], axis=-1
    )


def export_ppm(grid: Grid, path: str, values: np.ndarray) -> None:
    """Plain-text colour image on the blue/green/red map, NaN = black."""
    rng = _finite_range(values, path)
    missing = np.isnan(values)
    if rng is None:
        t = np.full(values.shape, 0.5)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            t = (values - rng[0]) / (rng[1] - rng[0])
        if np.any(np.isnan(t) & ~missing):
            raise ValueError(f"{path}: the value range overflows float64")
    rgb = colormap_rgb(np.where(missing, 0.5, t))
    rgb[missing] = 0
    _write_ppm(path, grid, rgb)


def export_labels_csv(grid: Grid, path: str, labels: np.ndarray) -> None:
    _write_csv(path, grid, "label", map(LABELS.__getitem__, labels.tolist()))


def export_labels_ppm(grid: Grid, path: str, labels: np.ndarray) -> None:
    _write_ppm(path, grid, _PALETTE[labels])
