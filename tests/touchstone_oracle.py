"""Line-by-line Touchstone parser: the oracle of ``risplan.touchstone.parse_touchstone``.

This is the parser the package used before the array-at-once reader: it
walks the text one line at a time, converts each token with ``float`` and
each value pair with one converter call. On every file both accept, the
records agree bit for bit; on every malformed file both reject, they raise
the same message at the same line. It accepts three inputs the package
now rejects: non-finite values (``nan``, ``inf``), numbers with
underscores (``1_000``) and negative frequencies.
"""

import cmath
import math

import numpy as np

from risplan.errors import TouchstoneError
from risplan.touchstone import StateRecord, _warn_if_active

_FREQ_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}

_CONVERTERS = {
    "RI": lambda a, b: complex(a, b),
    "MA": lambda a, b: a * cmath.exp(1j * math.radians(b)),
    "DB": lambda a, b: 10.0 ** (a / 20.0) * cmath.exp(1j * math.radians(b)),
}


def _parse_option_line(tokens, line_no):
    unit = "GHZ"
    fmt = "MA"
    i = 0
    while i < len(tokens):
        tok = tokens[i].upper()
        if tok in _FREQ_UNITS:
            unit = tok
        elif tok in _CONVERTERS:
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


def parse_touchstone(data, state_id: str) -> StateRecord:
    """Parse Touchstone v1 text (str or bytes) into a StateRecord.

    The port count is inferred from the data row arity: 3 columns for a
    1-port file, 9 for a 2-port file.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")
    unit = fmt = None
    freqs: list[float] = []
    rows: list[list[float]] = []
    arity = None
    for line_no, raw in enumerate(data.splitlines(), start=1):
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            if unit is not None:
                raise TouchstoneError("multiple option lines", line_no)
            unit, fmt = _parse_option_line(line[1:].split(), line_no)
            continue
        if unit is None:
            raise TouchstoneError("data before option line", line_no)
        parts = line.split()
        if arity is None:
            if len(parts) == 3:
                arity = 3
            elif len(parts) == 9:
                arity = 9
            else:
                raise TouchstoneError(
                    f"expected 3 (.s1p) or 9 (.s2p) columns, got {len(parts)}", line_no
                )
        elif len(parts) != arity:
            raise TouchstoneError(f"expected {arity} columns, got {len(parts)}", line_no)
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise TouchstoneError(f"non-numeric value in data row: '{line}'", line_no) from None
        f_hz = values[0] * _FREQ_UNITS[unit]
        if freqs and f_hz <= freqs[-1]:
            raise TouchstoneError(
                f"frequencies must be strictly increasing ({f_hz:g} Hz after {freqs[-1]:g} Hz)",
                line_no,
            )
        freqs.append(f_hz)
        rows.append(values[1:])
    if unit is None:
        raise TouchstoneError("no option line found")
    if not rows:
        raise TouchstoneError("no data rows found")
    convert = _CONVERTERS[fmt]
    s11 = np.array([convert(r[0], r[1]) for r in rows])
    s21 = np.array([convert(r[2], r[3]) for r in rows]) if arity == 9 else None
    record = StateRecord(
        state_id=state_id,
        frequencies_hz=np.array(freqs),
        s11=s11,
        s21=s21,
    )
    _warn_if_active(record)
    return record
