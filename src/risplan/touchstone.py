"""Touchstone v1 reader for unit-cell S-parameter sweeps.

Supports .s1p (3 columns: f, S11 pair) and .s2p (9 columns: f, then
S11 S21 S12 S22 pairs, standard column order) with RI, MA and DB value
formats. The data lines stream from the file into ``np.loadtxt``, one
chunk of rows per call, so a number follows its grammar: ASCII decimal
floats with an optional exponent, no digit-group underscores (``1_000``
is rejected, although Python's ``float`` takes it). A row holding
``nan`` or ``inf``, a frequency that overflows once scaled to Hz or lies
below 0 Hz, or a DB magnitude whose linear value overflows is rejected.
Every parse error carries the 1-based line number: the chunk of rows that
breaks a rule is read again through the same checks, one line per call.

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
from operator import itemgetter
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
    1-port file, 9 for a 2-port file. The data lines stream from ``fh``
    through ``_read_rows``, ``_BODY_CHUNK_ROWS`` rows per call; only the
    chunk that breaks a rule is read again, one line per call, for the line
    to report.
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
    scale = _FREQ_UNITS[unit]
    reads = []  # (frequencies, S11, S21 or None) of each chunk of rows
    consumed = start  # lines taken from the file before the chunk being read
    with warnings.catch_warnings():
        # loadtxt warns on a read that finds no row and on blank lines under
        # max_rows, neither of which is a fault
        warnings.simplefilter("ignore", UserWarning)
        try:
            while True:
                # counts the chunk's lines in C; zip takes no count past the last line
                taken = itertools.count()
                rows = _read_rows(map(itemgetter(0), zip(lines, taken)), scale, fmt,
                                  reads[-1] if reads else None)
                if not rows:
                    break
                reads.append(rows)
                consumed += next(taken)
        except TouchstoneError:
            # read the failed chunk again, one line per call, for the line to report
            before = reads[-1] if reads else None
            body = itertools.islice(_lines(fh), consumed, None)
            for line_no, raw in enumerate(body, start=consumed + 1):
                try:
                    before = _read_rows([raw], scale, fmt, before, raw) or before
                except TouchstoneError as exc:
                    raise TouchstoneError(str(exc), line_no) from None
            raise  # every rule is a rule of one row, so the loop raised first
    if not reads:
        raise TouchstoneError("no data rows found")
    freqs, s11, s21 = (None if parts[0] is None else np.concatenate(parts)
                       for parts in zip(*reads))
    record = StateRecord(state_id, freqs, s11, s21)
    _warn_if_active(record)
    return record


def _read_rows(lines, scale: float, fmt: str, before=None, row: str = ""):
    """The next data rows of ``lines``, at most ``_BODY_CHUNK_ROWS``, read in one
    ``np.loadtxt`` call, checked and converted: (frequencies in Hz, S11, S21
    or None), or None when no row is left.

    ``before`` is what the call before returned. Rows that break a rule
    raise a TouchstoneError for the first rule they break, in the order the
    rules apply to a row. When ``lines`` is the one line ``row``, that is
    the error of that row; the message quotes ``row`` and is otherwise only
    a sign that some row breaks a rule.
    """
    import numpy as np

    width = None if before is None else 3 if before[2] is None else 9
    prev = -math.inf if before is None else before[0][-1]
    text = row.split("!", 1)[0].strip()
    try:
        table = np.loadtxt(lines, comments="!", ndmin=2, max_rows=_BODY_CHUNK_ROWS)
    except ValueError:
        # a token that is no number or, between rows, a changed column count
        if text.startswith("#"):
            raise TouchstoneError("multiple option lines") from None
        table, columns = None, len(text.split())
    else:
        if not len(table):
            return None
        columns = table.shape[1]
    if width is None and columns not in (3, 9):
        raise TouchstoneError(f"expected 3 (.s1p) or 9 (.s2p) columns, got {columns}")
    if width not in (None, columns):
        raise TouchstoneError(f"expected {width} columns, got {columns}")
    if table is None:
        raise TouchstoneError(f"non-numeric value in data row: '{text}'")
    with np.errstate(over="ignore"):
        freqs = table[:, 0] * scale
    if not (np.isfinite(freqs).all() and np.isfinite(table).all()):
        raise TouchstoneError(f"non-finite value in data row: '{text}'")
    if freqs[0] < 0:
        raise TouchstoneError(f"negative frequency in data row: '{text}'")
    if not (np.diff(freqs, prepend=prev) > 0).all():
        raise TouchstoneError(
            f"frequencies must be strictly increasing ({freqs[0]:g} Hz after {prev:g} Hz)"
        )
    try:
        s11 = _to_complex(fmt, table[:, 1], table[:, 2])
        s21 = _to_complex(fmt, table[:, 3], table[:, 4]) if columns == 9 else None
        if fmt == "DB" and columns == 9:
            # S12 and S22 are not kept: only their largest magnitude is
            # converted, which overflows when any of theirs does
            10.0 ** (float(table[:, 5::2].max()) / 20.0)
    except OverflowError:
        raise TouchstoneError(f"DB magnitude out of range in data row: '{text}'") from None
    return freqs, s11, s21


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
