"""Unit-cell contrast curves and the bandwidth a design can influence.

A reconfigurable cell influences a channel at frequency f only to the extent
that switching its state moves the scattered wave. The per-frequency figure
is the maximum over unordered state pairs of |S(f, x) - S(f, x')| (S11 for
reflective cells, S21 for transmissive ones), which lives in [0, 2]. The
influenced band is the set of frequencies where that contrast clears a
threshold; its widest interval defines the centre frequency used when
comparing designs on a normalized axis.

For cells that trade reflection magnitude for phase states (delay-line
switches), the loss-compensated comparison replaces S11 with
(1 - |S11|) * exp(j*angle(S11)) so that near-unit magnitudes with distinct
phases still register as contrast.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError
from .touchstone import StateRecord

# Rows per write() of the contrast and normalized writers. It bounds the text
# and the Python floats held at once, never the bytes written.
_CSV_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class SParameterTable:
    """States of one cell resampled onto a shared frequency grid."""

    name: str
    frequencies_hz: np.ndarray
    s11: np.ndarray  # (n_states, n_freq)
    s21: np.ndarray | None


@dataclass(frozen=True)
class ContrastCurve:
    frequencies_hz: np.ndarray
    contrast: np.ndarray


@dataclass(frozen=True)
class BandOfInfluence:
    """Intervals where the contrast clears c_min; the widest one is principal."""

    intervals: tuple[tuple[float, float], ...]

    @property
    def principal(self) -> tuple[float, float] | None:
        if not self.intervals:
            return None
        widths = [f2 - f1 for f1, f2 in self.intervals]
        return self.intervals[int(np.argmax(widths))]

    @property
    def f0_hz(self) -> float | None:
        p = self.principal
        return None if p is None else 0.5 * (p[0] + p[1])

    @property
    def width_hz(self) -> float | None:
        p = self.principal
        return None if p is None else p[1] - p[0]


def build_table(name: str, states: list[StateRecord]) -> SParameterTable:
    """Assemble states onto a shared grid.

    Mismatched grids are linearly resampled onto the first state's grid
    restricted to the intersection of all ranges; extrapolation is refused.
    """
    ports = {s.port_count for s in states}
    if len(ports) > 1:
        raise ConfigError(f"cell '{name}': states mix 1-port and 2-port data")
    lo = max(float(s.frequencies_hz[0]) for s in states)
    hi = min(float(s.frequencies_hz[-1]) for s in states)
    if hi <= lo:
        raise ConfigError(f"cell '{name}': state frequency ranges do not overlap")
    base = states[0].frequencies_hz
    grid = base[(base >= lo) & (base <= hi)]
    if len(grid) < 2:
        raise ConfigError(f"cell '{name}': fewer than 2 shared frequency samples after overlap")

    def onto_grid(rec, values):
        if len(rec.frequencies_hz) == len(grid) and np.array_equal(rec.frequencies_hz, grid):
            return values.astype(np.complex128)
        re = np.interp(grid, rec.frequencies_hz, values.real)
        im = np.interp(grid, rec.frequencies_hz, values.imag)
        return re + 1j * im

    s11 = np.vstack([onto_grid(s, s.s11) for s in states])
    s21 = None
    if ports == {2}:
        s21 = np.vstack([onto_grid(s, s.s21) for s in states])
    return SParameterTable(
        name=name,
        frequencies_hz=grid.astype(float),
        s11=s11,
        s21=s21,
    )


def max_contrast(table: SParameterTable, kind: str) -> ContrastCurve:
    """Per-frequency max over state pairs of |S_i - S_j| for the chosen port path.

    ``kind`` "reflection" compares S11, "transmission" S21 and "effective"
    the loss-compensated S11 of :func:`effective_s11`.
    """
    if kind == "transmission":
        if table.s21 is None:
            raise ConfigError(f"cell '{table.name}': transmission contrast needs 2-port data")
        values = table.s21
    elif kind == "effective":
        values = effective_s11(table.s11)
    else:
        values = table.s11
    contrast = kernels.max_pair_contrast(np.ascontiguousarray(values, dtype=np.complex128))
    return ContrastCurve(frequencies_hz=table.frequencies_hz, contrast=contrast)


def effective_s11(values: np.ndarray) -> np.ndarray:
    """Loss-compensated reflection: (1 - |S11|) * exp(j*angle(S11)).

    angle(0) follows the numpy convention of 0, so a perfect match maps to
    the real value 1.
    """
    values = np.asarray(values, dtype=np.complex128)
    return (1.0 - np.abs(values)) * np.exp(1j * np.angle(values))


def extract_boi(curve: ContrastCurve, c_min: float) -> BandOfInfluence:
    """Maximal intervals where the piecewise-linear contrast >= c_min.

    Interval edges falling between samples are refined by linear
    interpolation. Zero-width touches (a single sample exactly at c_min
    with both neighbours below) are dropped.
    """
    f = curve.frequencies_hz
    c = curve.contrast
    above = c >= c_min
    intervals = []
    i = 0
    n = len(f)
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        if i == 0:
            f_lo = float(f[0])
        else:
            t = (c_min - c[i - 1]) / (c[i] - c[i - 1])
            f_lo = float(f[i - 1] + t * (f[i] - f[i - 1]))
        if j == n - 1:
            f_hi = float(f[n - 1])
        else:
            t = (c[j] - c_min) / (c[j] - c[j + 1])
            f_hi = float(f[j] + t * (f[j + 1] - f[j]))
        if f_hi > f_lo:
            intervals.append((f_lo, f_hi))
        i = j + 1
    return BandOfInfluence(intervals=tuple(intervals))


def normalized_contrast_table(
    entries: list[tuple[str, ContrastCurve, float]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Long-format columns (name, f/f0, contrast) for cross-design comparison.

    The names come as one object array with a name per row; f/f0 and the
    contrast as float64 arrays of the same length.
    """
    for name, _, f0_hz in entries:
        if not f0_hz or f0_hz <= 0:
            raise ConfigError(f"design '{name}': normalization needs f0 > 0, got {f0_hz}")
    if not entries:
        return np.empty(0, dtype=object), np.empty(0), np.empty(0)
    names = np.repeat(
        np.array([name for name, _, _ in entries], dtype=object),
        [len(curve.frequencies_hz) for _, curve, _ in entries],
    )
    ratios = np.concatenate(
        [curve.frequencies_hz / f0_hz for _, curve, f0_hz in entries], dtype=np.float64
    )
    contrast = np.concatenate([curve.contrast for _, curve, _ in entries], dtype=np.float64)
    return names, ratios, contrast


# ---------------------------------------------------------------------------
# CSV writers (formats shared with the command-line front end)
# ---------------------------------------------------------------------------

def write_contrast_csv(curve: ContrastCurve, path):
    freqs = np.asarray(curve.frequencies_hz, dtype=np.float64)
    contrast = np.asarray(curve.contrast, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        fh.write("frequency_hz,contrast\r\n")
        _write_rows(fh, (freqs, contrast), lambda f, c: f"{f!r},{c!r}\r\n")


def write_boi_summary_csv(rows: list[tuple[str, BandOfInfluence]], path):
    """One row per design: name,f1_hz,f2_hz,f0_hz,width_hz (blank when empty)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "f1_hz", "f2_hz", "f0_hz", "width_hz"])
        for name, boi in rows:
            p = boi.principal
            if p is None:
                writer.writerow([name, "", "", "", ""])
            else:
                writer.writerow(
                    [name, repr(p[0]), repr(p[1]), repr(boi.f0_hz), repr(boi.width_hz)]
                )


def write_normalized_csv(table: tuple[np.ndarray, np.ndarray, np.ndarray], path):
    """The columns of ``normalized_contrast_table`` as name,f_over_f0,contrast rows.

    Each distinct name is quoted once; the columns become Python objects
    and text one ``_CSV_CHUNK_ROWS`` slice at a time, so the memory held
    does not grow with the row count.
    """
    fields = {name: _csv_field(name) for name in set(table[0])}
    with open(path, "w", newline="") as fh:
        fh.write("name,f_over_f0,contrast\r\n")
        _write_rows(fh, table, lambda name, x, c: f"{fields[name]},{x!r},{c!r}\r\n")


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it next to other fields of a row."""
    buf = io.StringIO()
    # a lone empty field would be quoted; the blank second field prevents it
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _write_rows(fh, columns, row) -> None:
    """Write ``row(*values)`` for each index of the equal-length array
    ``columns``, converting and formatting one chunk of rows per ``write``."""
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        chunk = (column[start:start + _CSV_CHUNK_ROWS].tolist() for column in columns)
        fh.write("".join(map(row, *chunk)))
