"""Touchstone v1 reader for unit-cell S-parameter sweeps.

Supports .s1p (3 columns: f, S11 pair) and .s2p (9 columns: f, then
S11 S21 S12 S22 pairs, standard column order) with RI, MA and DB value
formats. The data lines stream from the file into ``np.loadtxt``, one
chunk of rows per call, so a number follows its grammar: ASCII decimal
floats with an optional exponent, no digit-group underscores (``1_000``
is rejected, although Python's ``float`` takes it). A row holding
``nan`` or ``inf``, a frequency that overflows once scaled to Hz or lies
below 0 Hz, or a DB magnitude whose linear value overflows is rejected.
Every parse error carries the 1-based line number.

A cell manifest is a JSON file naming one or more cells and, per cell, the
state id -> Touchstone path map (paths relative to the manifest). Each
name is unique and one plain file-name component, since the ``boi``
command writes ``<name>_contrast.csv``:

    {
      "cells": [
        {
          "name": "pin_cell",
          "kind": "reflection",            # or "transmission"
          "use_effective_s11": false,       # true: the effective contrast, whatever the kind
          "states": {"on": "pin_on.s1p", "off": "pin_off.s1p"}
        }
      ]
    }

Only the Touchstone parser imports numpy, so reading a manifest loads none.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError, TouchstoneError

if TYPE_CHECKING:
    import numpy as np

_FREQ_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}

_FORMATS = ("RI", "MA", "DB")

_PASSIVITY_SLACK = 1e-6

# Data rows per ``np.loadtxt`` call. It bounds the parsed table held at once
# (about 150 kB of 9-column rows), never the values read, which are the same
# for any chunk size.
_BODY_CHUNK_ROWS = 2048

# Bytes of a Touchstone file read and decoded at once.
_READ_BYTES = 1 << 14

# Everything up to the last line break ``str.splitlines`` knows in ASCII
# text. A ``\r`` that ends the bytes read so far may be the first half of
# ``\r\n``, so it is no break yet.
_LAST_BREAK = re.compile(rb"(?s:.*)(?:[\n\v\f\x1c-\x1e]|\r(?=[^\n]))")


@dataclass(frozen=True)
class StateRecord:
    """One cell state's frequency sweep."""

    state_id: str
    frequencies_hz: np.ndarray
    s11: np.ndarray
    s21: np.ndarray | None = None

    @property
    def port_count(self) -> int:
        return 1 if self.s21 is None else 2


def _parse_option_line(tokens, line_no):
    """(unit, format) of the option line; an ``R`` resistance is checked and dropped."""
    unit = "GHZ"
    fmt = "MA"
    i = 0
    while i < len(tokens):
        tok = tokens[i].upper()
        if tok in _FREQ_UNITS:
            unit = tok
        elif tok in _FORMATS:
            fmt = tok
        elif tok == "S":
            pass
        elif tok in ("Y", "Z", "H", "G"):
            raise TouchstoneError(f"only S-parameters are supported, got '{tok}'", line_no)
        elif tok == "R":
            if i + 1 >= len(tokens):
                raise TouchstoneError("'R' must be followed by a reference resistance", line_no)
            try:
                float(tokens[i + 1])
            except ValueError:
                raise TouchstoneError(f"bad reference resistance '{tokens[i + 1]}'", line_no) from None
            i += 1
        else:
            raise TouchstoneError(f"unexpected token '{tokens[i]}' in option line", line_no)
        i += 1
    return unit, fmt


def _to_complex(fmt: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One column pair in ``fmt`` as complex values, bit-equal to scalar Python.

    DB magnitudes stay on Python's ``10.0 ** x`` (numpy's ``power`` rounds
    differently from libm's ``pow`` on some inputs), which raises
    OverflowError past the float range. The rest keeps the signs of zeros
    of ``m * cmath.exp(1j * math.radians(b))``: ``1j * r`` has imaginary
    part ``0.0 + r``, and ``m * z`` multiplies by ``m + 0j``.
    """
    import numpy as np

    out = np.empty(len(a), dtype=np.complex128)
    if fmt == "RI":
        out.real, out.imag = a, b
        return out
    if fmt == "DB":
        a = np.array([10.0 ** x for x in (a / 20.0).tolist()])
    rad = b * (math.pi / 180) + 0.0
    c, s = np.cos(rad), np.sin(rad)
    out.real = a * c - 0.0 * s
    out.imag = a * s + 0.0 * c
    return out


def _lines(fh):
    """An iterator over the lines of binary file ``fh`` from its start, split
    where ``str.splitlines`` splits the ASCII-decoded text.

    The file is decoded in blocks of whole lines (see ``_blocks``), so the
    whole text is never held. Each block ends at a line break, so splitting
    each one gives the lines of the whole text.
    """
    fh.seek(0)
    return itertools.chain.from_iterable(map(str.splitlines, _blocks(fh)))


def _blocks(fh):
    """The text of binary file ``fh`` from where it stands, decoded one
    ``_READ_BYTES`` read at a time and cut after the read's last line break."""
    tail = b""
    while block := fh.read(_READ_BYTES):
        data = tail + block
        last = _LAST_BREAK.match(data)
        cut = last.end() if last else 0
        yield data[:cut].decode("ascii", errors="replace")
        tail = data[cut:]
    yield tail.decode("ascii", errors="replace")


def parse_touchstone(fh, state_id: str) -> StateRecord:
    """Parse the Touchstone v1 text of binary file ``fh`` into a StateRecord.

    The port count is inferred from the data row arity: 3 columns for a
    1-port file, 9 for a 2-port file. ``np.loadtxt`` reads the data lines
    as they stream from ``fh``, ``_BODY_CHUNK_ROWS`` rows per call, and
    every check runs on whole columns of a chunk; only a file that fails
    one is read again line by line, for the line to report.
    """
    import numpy as np

    lines = _lines(fh)
    # only comment and blank lines may precede the option line
    for start, raw in enumerate(lines, start=1):
        line = raw.split("!", 1)[0].strip()
        if line:
            break
    else:
        raise TouchstoneError("no option line found")
    if not line.startswith("#"):
        raise TouchstoneError("data before option line", start)
    unit, fmt = _parse_option_line(line[1:].split(), start)
    chunks = ([], [], [])  # frequencies, S11 and S21 of each chunk of rows
    width, prev = None, -math.inf
    try:
        with warnings.catch_warnings():
            # loadtxt warns on an empty body, which the scan reports, and on
            # blank lines under max_rows, which are no fault
            warnings.simplefilter("ignore", UserWarning)
            while len(table := np.loadtxt(lines, comments="!", ndmin=2,
                                          max_rows=_BODY_CHUNK_ROWS)):
                width = width or table.shape[1]
                with np.errstate(over="ignore"):
                    freqs = table[:, 0] * _FREQ_UNITS[unit]
                if not (
                    width in (3, 9)
                    and table.shape[1] == width
                    and np.isfinite(freqs).all()
                    and np.isfinite(table).all()
                    and freqs[0] >= 0
                    and freqs[0] > prev
                    and np.all(np.diff(freqs) > 0)
                ):
                    raise ValueError
                prev = freqs[-1]
                chunks[0].append(freqs)
                chunks[1].append(_to_complex(fmt, table[:, 1], table[:, 2]))
                if width == 9:
                    chunks[2].append(_to_complex(fmt, table[:, 3], table[:, 4]))
        if width is None:
            raise ValueError
    except (ValueError, OverflowError):
        # a failed check, a token that is no number, rows of unequal arity,
        # a DB magnitude past the float range or no data row at all
        _raise_at_bad_line(itertools.islice(_lines(fh), start, None), start, unit, fmt)
    freqs, s11, s21 = (np.concatenate(c) if c else None for c in chunks)
    record = StateRecord(state_id, freqs, s11, s21)
    _warn_if_active(record)
    return record


def _raise_at_bad_line(body, start: int, unit: str, fmt: str):
    """Raise the error of the first line in ``body`` that ``parse_touchstone`` rejects.

    ``body`` holds the lines after the option line, which is line ``start``.
    A token must be ASCII and free of underscores: that is the number
    grammar of ``np.loadtxt``, which ``float`` alone would widen.
    """
    import numpy as np

    arity = prev = None
    for line_no, raw in enumerate(body, start=start + 1):
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            raise TouchstoneError("multiple option lines", line_no)
        parts = line.split()
        if arity is None:
            if len(parts) not in (3, 9):
                raise TouchstoneError(
                    f"expected 3 (.s1p) or 9 (.s2p) columns, got {len(parts)}", line_no
                )
            arity = len(parts)
        elif len(parts) != arity:
            raise TouchstoneError(f"expected {arity} columns, got {len(parts)}", line_no)
        try:
            if not all(p.isascii() and "_" not in p for p in parts):
                raise ValueError
            values = [float(p) for p in parts]
        except ValueError:
            raise TouchstoneError(f"non-numeric value in data row: '{line}'", line_no) from None
        f_hz = values[0] * _FREQ_UNITS[unit]
        if not all(map(math.isfinite, [f_hz, *values])):
            raise TouchstoneError(f"non-finite value in data row: '{line}'", line_no)
        if f_hz < 0:
            raise TouchstoneError(f"negative frequency in data row: '{line}'", line_no)
        if prev is not None and f_hz <= prev:
            raise TouchstoneError(
                f"frequencies must be strictly increasing ({f_hz:g} Hz after {prev:g} Hz)",
                line_no,
            )
        prev = f_hz
        try:
            _to_complex(fmt, np.array(values[1::2]), np.array(values[2::2]))
        except OverflowError:
            raise TouchstoneError(f"DB magnitude out of range in data row: '{line}'", line_no) from None
    raise TouchstoneError("no data rows found")


def _warn_if_active(record: StateRecord):
    worst = float(abs(record.s11).max())
    if record.s21 is not None:
        worst = max(worst, float(abs(record.s21).max()))
    if worst > 1.0 + _PASSIVITY_SLACK:
        warnings.warn(
            f"state '{record.state_id}': |S| reaches {worst:.6f} > 1, data looks active",
            stacklevel=3,
        )


def read_touchstone(path, state_id: str) -> StateRecord:
    try:
        with open(path, "rb") as fh:
            return parse_touchstone(fh, state_id)
    except OSError as exc:
        raise TouchstoneError(f"{path}: {exc.strerror}") from None
    except TouchstoneError as exc:
        raise TouchstoneError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class CellSpec:
    """One cell's entry from a manifest: resolved file paths per state.

    ``kind`` is the contrast kind the entry resolves to: "effective" when
    it sets ``use_effective_s11``, else its "reflection" or "transmission".
    """

    name: str
    states: tuple[tuple[str, str], ...]
    kind: str


def load_cell_manifest(path) -> list[CellSpec]:
    """Read a manifest JSON and resolve its state paths."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise ConfigError(f"{path}: manifest must be an object with a 'cells' list")
    base = os.path.dirname(os.path.abspath(path))
    cells = []
    names = {}
    for i, entry in enumerate(doc["cells"]):
        where = f"{path}: cells[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: must be an object")
        unknown = set(entry) - {"name", "kind", "use_effective_s11", "states"}
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        name = entry.get("name")
        if not name or not isinstance(name, str):
            raise ConfigError(f"{where}: 'name' is required")
        # the name is a file name under --out: no separator, no NUL, no dot entry
        if name in (".", "..") or any(c and c in name for c in ("/", "\0", os.sep, os.altsep)):
            raise ConfigError(f"{where}.name: must be one plain file-name component, got {name!r}")
        if name in names:
            raise ConfigError(f"{where}.name: {name!r} is already the name of cells[{names[name]}]")
        names[name] = i
        effective = entry.get("use_effective_s11", False)
        if not isinstance(effective, bool):
            raise ConfigError(f"{where}.use_effective_s11: must be true or false, got {effective!r}")
        kind = entry.get("kind", "reflection")
        if kind not in ("reflection", "transmission"):
            raise ConfigError(f"{where}: kind must be 'reflection' or 'transmission', got '{kind}'")
        states = entry.get("states")
        if not isinstance(states, dict) or not states or not all(
            isinstance(rel, str) for rel in states.values()
        ):
            raise ConfigError(f"{where}: 'states' must map state ids to file paths")
        resolved = tuple(
            (state_id, os.path.join(base, rel)) for state_id, rel in states.items()
        )
        for state_id, spath in resolved:
            if not os.path.exists(spath):
                raise ConfigError(f"{where}: state '{state_id}' file not found: {spath}")
        cells.append(CellSpec(name, resolved, "effective" if effective else kind))
    if not cells:
        raise ConfigError(f"{path}: manifest lists no cells")
    return cells
