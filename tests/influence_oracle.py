"""Per-cell influence classifier and map writers: the oracle of ``influence``.

This is how the package labelled cells and wrote map files before it
moved to whole-array operations: one Python loop over the cells, one
coordinate computation per CSV row and one colour tuple per pixel, every
value a Python float. :func:`risplan.influence.classify` and the four
``influence.export_*`` functions must give the same labels, the same delta
bits and the same file bytes, notes on stderr included.
"""

import math
import sys

import numpy as np

from risplan.influence import LABEL_COLORS, METRICS
from risplan.scene import Thresholds


def cell_xy(grid, index):
    """Centre of one cell, row-major."""
    if not 0 <= index < grid.cell_count:
        raise IndexError(f"cell index {index} outside 0..{grid.cell_count - 1}")
    iy, ix = divmod(index, grid.nx)
    return (grid.x_min + ix * grid.resolution_m, grid.y_min + iy * grid.resolution_m)


def comparison_value(metric_id, value):
    if metric_id != "peb_m":
        return value
    if math.isnan(value):
        return math.nan
    if value == 0.0:
        return -math.inf
    return 20.0 * math.log10(value)


def in_coverage(metric_id, value, thresholds):
    if not math.isfinite(value):
        return False
    if metric_id == "peb_m":
        return value <= thresholds.peb_feasible_m
    floor = thresholds.qos_for(metric_id)
    if floor is None:
        return True
    if METRICS[metric_id].higher_better:
        return value >= floor
    return value <= floor


def classify(metric_id, without, with_, thresholds=None):
    """(labels, deltas) of two sequences of readings, cell by cell."""
    higher_better = METRICS[metric_id].higher_better
    if thresholds is None:
        thresholds = Thresholds()
    boost, unchanged = thresholds.for_metric(metric_id)

    labels = []
    deltas = []
    for a_raw, b_raw in zip(without, with_):
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
    return tuple(labels), tuple(deltas)


def export_csv(grid, values, path):
    with open(path, "w", newline="") as fh:
        fh.write("x_m,y_m,value\n")
        for i, v in enumerate(values):
            x, y = cell_xy(grid, i)
            fh.write(f"{x!r},{y!r},{float(v)!r}\n")


def _image_rows(grid):
    for iy in range(grid.ny - 1, -1, -1):
        start = iy * grid.nx
        yield range(start, start + grid.nx)


def _write_tokens(fh, tokens, width=68):
    line = []
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


def _finite_range(values, what):
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


def colormap_rgb(t):
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        s = 2.0 * t
        return (0, int(round(255.0 * s)), int(round(255.0 * (1.0 - s))))
    s = 2.0 * t - 1.0
    return (int(round(255.0 * s)), int(round(255.0 * (1.0 - s))), 0)


def export_ppm(grid, values, path):
    rng = _finite_range(values, path)

    def pixel(v):
        if math.isnan(v):
            return (0, 0, 0)
        if rng is None:
            return colormap_rgb(0.5)
        return colormap_rgb((v - rng[0]) / (rng[1] - rng[0]))

    with open(path, "w", newline="") as fh:
        fh.write(f"P3\n{grid.nx} {grid.ny}\n255\n")
        for row in _image_rows(grid):
            _write_tokens(fh, (str(c) for i in row for c in pixel(values[i])))


def export_labels_csv(grid, labels, path):
    with open(path, "w", newline="") as fh:
        fh.write("x_m,y_m,label\n")
        for i, lab in enumerate(labels):
            x, y = cell_xy(grid, i)
            fh.write(f"{x!r},{y!r},{lab}\n")


def export_labels_ppm(grid, labels, path):
    with open(path, "w", newline="") as fh:
        fh.write(f"P3\n{grid.nx} {grid.ny}\n255\n")
        for row in _image_rows(grid):
            _write_tokens(fh, (str(c) for i in row for c in LABEL_COLORS[labels[i]]))
