"""Grid sweeps, with/without differencing, and area-of-influence maps.

A sweep evaluates one link metric on every grid cell twice, once with the
surface absent and once with it active, and the pair of fields is then
classified cell by cell into influence labels.  Six labels partition the
grid:

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

Exports cover CSV (bit-exact round trip of every value but a NaN's sign)
and PPM with a blue/green/red three-stop colormap; label maps export with
a fixed palette.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, RunError
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

FIELD_KINDS = ("without", "with", "delta", "labels")

_INFLUENCED = frozenset({"enabled", "boosted", "degraded", "marginal"})
_DESIRED = frozenset({"enabled", "boosted"})


@dataclass(frozen=True)
class MetricField:
    """One metric evaluated over a grid, row-major, NaN = out of coverage."""

    grid: Grid
    metric_id: str
    kind: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.cell_count:
            raise ValueError(
                f"{len(self.values)} values for a {self.grid.cell_count}-cell grid"
            )


@dataclass(frozen=True)
class InfluenceMap:
    grid: Grid
    metric_id: str
    labels: tuple[str, ...]
    delta_db: tuple[float, ...]
    aoi_cells: frozenset[int]
    desired_aoi_cells: frozenset[int]
    undesired_aoi_cells: frozenset[int]

    def delta_field(self) -> MetricField:
        return MetricField(self.grid, self.metric_id, "delta", self.delta_db)


@dataclass(frozen=True)
class _Metric:
    """How a metric is swept: its grid-batched (without, with) engine."""

    higher_better: bool
    pairs: Callable[[Scene, np.ndarray], list[tuple[float, float]]]
    needs_eve: bool = False


METRICS: dict[str, _Metric] = {
    "gain_db": _Metric(higher_better=True, pairs=gain_pairs),
    "tx_power_dbm": _Metric(higher_better=False, pairs=tx_power_pairs),
    "se_bps_hz": _Metric(higher_better=True, pairs=se_pairs),
    "peb_m": _Metric(higher_better=False, pairs=peb_pairs),
    "sse_bps_hz": _Metric(higher_better=True, pairs=sse_pairs, needs_eve=True),
}

assert set(METRICS) == set(METRIC_IDS)


def _require_metric(metric_id: str) -> _Metric:
    try:
        return METRICS[metric_id]
    except KeyError:
        raise ConfigError(
            f"unknown metric {metric_id!r}, expected one of {', '.join(METRIC_IDS)}"
        ) from None


def sweep(scene: Scene, metric_id: str) -> tuple[MetricField, MetricField]:
    """Evaluate a metric over the whole grid; returns (without, with) fields.

    Every metric runs grid-batched in this process: the gain family
    (``gain_db``, ``tx_power_dbm``, ``se_bps_hz``) through
    :func:`risplan.linkmetrics.gain_pairs`, ``peb_m`` through
    :func:`risplan.localization.peb_pairs` and ``sse_bps_hz`` through
    :func:`risplan.secrecy.sse_pairs`. All randomness derives from the
    scene seed plus the cell index, so neither the cell order nor the
    block size changes the output. A cell on a scene node is a NaN pair
    for ``peb_m`` and ``sse_bps_hz``; the gain engine drops a station the
    cell sits on and reads NaN only on a surface element or with no
    station left.
    """
    metric = _require_metric(metric_id)
    if metric.needs_eve and scene.eve is None:
        raise RunError("secrecy metrics need an eavesdropper in the scene")
    pairs = metric.pairs(scene, scene.grid.points())
    without = MetricField(
        scene.grid, metric_id, "without", tuple(float(a) for a, _ in pairs)
    )
    with_ = MetricField(scene.grid, metric_id, "with", tuple(float(b) for _, b in pairs))
    return without, with_


def comparison_value(metric_id: str, value: float) -> float:
    """Project a raw reading onto the scale differences are taken on."""
    if metric_id != "peb_m":
        return value
    if math.isnan(value):
        return math.nan
    if value == 0.0:
        return -math.inf
    return 20.0 * math.log10(value)


def in_coverage(metric_id: str, value: float, thresholds: Thresholds) -> bool:
    """Finite reading passing the metric's quality gate, if it has one."""
    if not math.isfinite(value):
        return False
    if metric_id == "peb_m":
        return value <= thresholds.peb_feasible_m
    floor = thresholds.qos_for(metric_id)
    if floor is None:
        return True
    if _require_metric(metric_id).higher_better:
        return value >= floor
    return value <= floor


def classify(
    without: MetricField,
    with_: MetricField,
    thresholds: Thresholds | None = None,
) -> InfluenceMap:
    """Label every cell by how the surface changed the metric there."""
    if without.grid != with_.grid:
        raise ValueError("fields to classify must share a grid")
    if without.metric_id != with_.metric_id:
        raise ValueError(
            f"metric mismatch: {without.metric_id!r} vs {with_.metric_id!r}"
        )
    metric_id = without.metric_id
    higher_better = _require_metric(metric_id).higher_better
    if thresholds is None:
        thresholds = Thresholds()
    boost, unchanged = thresholds.for_metric(metric_id)

    labels: list[str] = []
    deltas: list[float] = []
    for a_raw, b_raw in zip(without.values, with_.values):
        cov_a = in_coverage(metric_id, a_raw, thresholds)
        cov_b = in_coverage(metric_id, b_raw, thresholds)
        if not cov_a and not cov_b:
            labels.append("infeasible_both")
            deltas.append(math.nan)
            continue
        if not cov_a:
            labels.append("enabled")
            deltas.append(math.nan)
            continue
        if not cov_b:
            labels.append("degraded")
            deltas.append(math.nan)
            continue
        a = comparison_value(metric_id, a_raw)
        b = comparison_value(metric_id, b_raw)
        improvement = (b - a) if higher_better else (a - b)
        if math.isnan(improvement):
            # both readings pinned at the same scale extreme
            improvement = 0.0
        if improvement >= boost:
            labels.append("boosted")
        elif improvement <= -unchanged:
            labels.append("degraded")
        elif improvement >= unchanged:
            labels.append("marginal")
        else:
            labels.append("unchanged")
        deltas.append(improvement)

    aoi = frozenset(i for i, lab in enumerate(labels) if lab in _INFLUENCED)
    desired = frozenset(i for i, lab in enumerate(labels) if lab in _DESIRED)
    return InfluenceMap(
        grid=without.grid,
        metric_id=metric_id,
        labels=tuple(labels),
        delta_db=tuple(deltas),
        aoi_cells=aoi,
        desired_aoi_cells=desired,
        undesired_aoi_cells=aoi - desired,
    )


# ---------------------------------------------------------------------------
# file export


def field_filename(scene_name: str, metric_id: str, kind: str, ext: str) -> str:
    if kind not in FIELD_KINDS:
        raise ValueError(f"kind must be one of {FIELD_KINDS}, got {kind!r}")
    return f"{scene_name}_{metric_id}_{kind}.{ext}"


def export_csv(field: MetricField, path: str) -> None:
    """Header ``x_m,y_m,value``, then one row per cell in grid order.

    Floats are written with ``repr``, so a re-import reproduces every bit
    of every value except a NaN's: any NaN, a sign-bit one included, is
    written ``nan`` and reads back as the canonical quiet NaN.
    """
    with open(path, "w", newline="") as fh:
        fh.write("x_m,y_m,value\n")
        for i, v in enumerate(field.values):
            x, y = field.grid.cell_xy(i)
            fh.write(f"{x!r},{y!r},{float(v)!r}\n")


def _image_rows(grid: Grid) -> Iterable[range]:
    # top image row is the northernmost grid row, so files view like a map
    for iy in range(grid.ny - 1, -1, -1):
        start = iy * grid.nx
        yield range(start, start + grid.nx)


def _write_tokens(fh, tokens: Iterable[str], width: int = 68) -> None:
    line: list[str] = []
    used = 0
    for tok in tokens:
        if used and used + 1 + len(tok) > width:
            fh.write(" ".join(line) + "\n")
            line = []
            used = 0
        line.append(tok)
        used += len(tok) + (1 if used else 0)
    if line:
        fh.write(" ".join(line) + "\n")


def _finite_range(values: Sequence[float], what: str) -> tuple[float, float] | None:
    arr = np.asarray(values, dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        print(f"note: {what}: no finite values, image is flat", file=sys.stderr)
        return None
    vmin = float(finite.min())
    vmax = float(finite.max())
    if vmin == vmax:
        print(f"note: {what}: flat value range, rendering mid-scale", file=sys.stderr)
        return None
    return vmin, vmax


def colormap_rgb(t: float) -> tuple[int, int, int]:
    """Three-stop map: 0 = blue, 1/2 = green, 1 = red, linear between."""
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        s = 2.0 * t
        return (0, int(round(255.0 * s)), int(round(255.0 * (1.0 - s))))
    s = 2.0 * t - 1.0
    return (int(round(255.0 * s)), int(round(255.0 * (1.0 - s))), 0)


def export_ppm(field: MetricField, path: str) -> None:
    """Plain-text colour image on the blue/green/red map, NaN = black."""
    rng = _finite_range(field.values, path)

    def pixel(v: float) -> tuple[int, int, int]:
        if math.isnan(v):
            return (0, 0, 0)
        if rng is None:
            return colormap_rgb(0.5)
        return colormap_rgb((v - rng[0]) / (rng[1] - rng[0]))

    with open(path, "w", newline="") as fh:
        fh.write(f"P3\n{field.grid.nx} {field.grid.ny}\n255\n")
        for row in _image_rows(field.grid):
            tokens = (
                str(c) for i in row for c in pixel(field.values[i])
            )
            _write_tokens(fh, tokens)


def export_labels_csv(imap: InfluenceMap, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("x_m,y_m,label\n")
        for i, lab in enumerate(imap.labels):
            x, y = imap.grid.cell_xy(i)
            fh.write(f"{x!r},{y!r},{lab}\n")


def export_labels_ppm(imap: InfluenceMap, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"P3\n{imap.grid.nx} {imap.grid.ny}\n255\n")
        for row in _image_rows(imap.grid):
            tokens = (
                str(c) for i in row for c in LABEL_COLORS[imap.labels[i]]
            )
            _write_tokens(fh, tokens)
