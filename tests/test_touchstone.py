import io
import json
from unittest import mock

import numpy as np
import pytest
from helpers import parse_text, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

import touchstone_oracle
from risplan import touchstone
from risplan.errors import ConfigError, TouchstoneError
from risplan.touchstone import load_cell_manifest, read_touchstone


def test_parse_ri_single_row():
    text = "# GHZ S RI R 50\n5.0  -1.0 0.0\n"
    rec = parse_text(text, "on")
    assert rec.port_count == 1
    assert rec.frequencies_hz.tolist() == [5.0e9]
    assert rec.s11[0] == -1.0 + 0.0j


def test_parse_db_ma_conversions():
    # -6.0206 dB at 90 degrees: magnitude 10**(-6.0206/20), pure imaginary
    rec = parse_text("# HZ S DB R 50\n5.3e9  -6.0206 90\n", "x")
    expect = 10 ** (-6.0206 / 20.0)
    assert abs(rec.s11[0] - expect * 1j) < 1e-12
    rec = parse_text("# MHZ S MA R 50\n5300  0.5 180\n", "y")
    assert abs(rec.s11[0] - (-0.5)) < 1e-12
    assert rec.frequencies_hz[0] == 5.3e9


def test_parse_two_port_rows():
    text = "! transmissive cell\n# GHZ S RI R 50\n"
    text += "27.0  0.1 0.0  0.9 0.1  0.9 0.1  0.1 0.0\n"
    text += "28.0  0.1 0.0  -0.9 0.0  -0.9 0.0  0.1 0.0\n"
    rec = parse_text(text, "s")
    assert rec.port_count == 2
    assert rec.s21[1] == -0.9 + 0j
    assert rec.frequencies_hz.tolist() == [27.0e9, 28.0e9]


def test_option_line_defaults_and_order():
    # Touchstone defaults: GHz, S, MA, 50 ohm; token order is free
    rec = parse_text("#\n1.0 1.0 0\n", "d")
    assert rec.frequencies_hz[0] == 1e9
    assert rec.s11[0] == 1.0 + 0j
    rec = parse_text("# R 75 S RI HZ\n10 0.5 0.5\n", "d")
    assert rec.frequencies_hz[0] == 10.0
    assert rec.s11[0] == 0.5 + 0.5j


def test_mid_line_comments_stripped():
    rec = parse_text("# GHZ S RI R 50\n1.0 0.0 1.0 ! resonance\n", "c")
    assert rec.s11[0] == 1j


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("# GHZ S XX R 50\n1 0 0\n", "unexpected token"),
        ("# GHZ Z RI R 50\n1 0 0\n", "only S-parameters"),
        ("# GHZ S RI R\n1 0 0\n", "reference resistance"),
        ("1.0 0.0 0.0\n# GHZ S RI R 50\n", "data before option line"),
        ("# GHZ S RI R 50\n1 0 0\n2 0\n", "expected 3 columns"),
        ("# GHZ S RI R 50\n1 0 0 0 0\n", "expected 3 (.s1p) or 9 (.s2p) columns"),
        ("# GHZ S RI R 50\n2.0 0 0\n1.0 0 0\n", "strictly increasing"),
        ("# GHZ S RI R 50\n2.0 0 0\n2.0 0 0\n", "strictly increasing"),
        ("# GHZ S RI R 50\n", "no data rows"),
        ("! only a comment\n", "no option line"),
        ("# GHZ S RI R 50\n1 0 0\n2 nan 0\n", "line 3: non-finite value in data row: '2 nan 0'"),
        ("# GHZ S RI R 50\nnan 0 0\n", "line 2: non-finite value"),
        ("# GHZ S RI R 50\n1 0 0\nNaN 0 0\n", "line 3: non-finite value"),
        ("# GHZ S DB R 50\n1 inf 0\n", "line 2: non-finite value"),
        ("# GHZ S MA R 50\n1 0.5 -Infinity\n", "line 2: non-finite value"),
        ("# GHZ S RI R 50\n1 0 0 0 0 0 0 0 0\n2 0 0 0 0 0 0 inf 0\n", "line 3: non-finite value"),
        ("# GHZ S RI R 50\n1e300 0 0\n", "line 2: non-finite value"),
        ("# HZ S RI R 50\n1_000 0 0\n", "line 2: non-numeric value in data row: '1_000 0 0'"),
        ("# HZ S RI R 50\n1 0 0\n2 0.1_5 0\n", "line 3: non-numeric value"),
        ("# GHZ S DB R 50\n1 -3 0\n2 7000 0\n", "line 3: DB magnitude out of range"),
        ("# GHZ S RI R 50\n! c\n-3 1 0\n-2 1 0\n",
         "line 3: negative frequency in data row: '-3 1 0'"),
        ("# MHZ S RI R 50\n-1e-9 1 0\n", "line 2: negative frequency"),
    ],
)
def test_parse_errors(body, fragment):
    with pytest.raises(TouchstoneError) as err:
        parse_text(body, "bad")
    assert fragment in str(err.value)


def test_zero_hertz_is_a_frequency():
    rec = parse_text("# HZ S RI R 50\n0 0.5 0\n1 0.5 0\n", "dc")
    assert rec.frequencies_hz.tolist() == [0.0, 1.0]


def test_error_carries_line_number():
    with pytest.raises(TouchstoneError) as err:
        parse_text("# GHZ S RI R 50\n1 0 0\n2 0 0\n1.5 0 0\n", "bad")
    assert str(err.value).startswith("line 4:")


def test_active_data_warns():
    with pytest.warns(UserWarning, match="looks active"):
        parse_text("# GHZ S RI R 50\n1 1.5 0\n", "hot")


def test_read_touchstone_records_the_given_state_id(tmp_path):
    p = tmp_path / "state_on.s1p"
    p.write_text("# GHZ S RI R 50\n1 0.3 0\n2 0.4 0\n")
    rec = read_touchstone(p, "on")
    assert rec.state_id == "on"


def test_load_cell_manifest(tmp_path):
    for name, re_part in [("a.s1p", 0.9), ("b.s1p", -0.9)]:
        (tmp_path / name).write_text(f"# GHZ S RI R 50\n1 {re_part} 0\n2 {re_part} 0\n")
    manifest = tmp_path / "cells.json"
    manifest.write_text(
        json.dumps(
            {
                "cells": [
                    {"name": "demo", "states": {"on": "a.s1p", "off": "b.s1p"}},
                    {"name": "flat", "kind": "transmission", "use_effective_s11": True,
                     "states": {"on": "a.s1p"}},
                ]
            }
        )
    )
    cells = load_cell_manifest(manifest)
    assert len(cells) == 2
    assert cells[0].name == "demo"
    assert cells[0].kind == "reflection"
    assert [sid for sid, _ in cells[0].states] == ["on", "off"]
    # use_effective_s11 wins over the cell's kind
    assert cells[1].kind == "effective"


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"cells": []}, "lists no cells"),
        ({"cells": [{"states": {"a": "x.s1p"}}]}, "'name' is required"),
        ({"cells": [{"name": "c", "states": {}}]}, "'states' must map"),
        ({"cells": [{"name": "c", "kind": "weird", "states": {"a": "x"}}]}, "kind must be"),
        ({"cells": [{"name": "c", "bogus": 1, "states": {"a": "x"}}]}, "unknown keys"),
        ({"cells": [{"name": "c", "states": {"a": "missing.s1p"}}]}, "file not found"),
        ({"cells": [{"name": "c", "states": {"a": 5}}]}, "'states' must map"),
        ({"cells": 5}, "with a 'cells' list"),
        ({"cells": None}, "with a 'cells' list"),
        ({"cells": [{"name": "a/b", "states": {"a": "x"}}]}, "cells[0].name: must be one plain"),
        ({"cells": [{"name": "../b", "states": {"a": "x"}}]}, "cells[0].name: must be one plain"),
        ({"cells": [{"name": "..", "states": {"a": "x"}}]}, "cells[0].name: must be one plain"),
        ({"cells": [{"name": ".", "states": {"a": "x"}}]}, "cells[0].name: must be one plain"),
        ({"cells": [{"name": "a\0b", "states": {"a": "x"}}]}, "cells[0].name: must be one plain"),
        ({"cells": [{"name": "c", "use_effective_s11": "false", "states": {"a": "x"}}]},
         "cells[0].use_effective_s11: must be true or false, got 'false'"),
        ({"cells": [{"name": "c", "use_effective_s11": 1, "states": {"a": "x"}}]},
         "cells[0].use_effective_s11: must be true or false, got 1"),
    ],
)
def test_manifest_errors(tmp_path, doc, fragment):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_cell_manifest(p)
    assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# the array reader against the line-by-line oracle
# ---------------------------------------------------------------------------

MUTATIONS = (
    "short_row", "long_row", "non_numeric", "repeated_frequency",
    "decreasing_frequency", "second_option_line", "data_before_option", "empty_body",
)


def _value(fmt):
    """One value pair of a passive S-parameter in ``fmt``."""
    zero = st.sampled_from([0.0, -0.0])
    angle = st.one_of(zero, st.floats(-360.0, 360.0))
    if fmt == "RI":
        part = st.one_of(zero, st.floats(-0.7, 0.7))
        return st.tuples(part, part)
    if fmt == "MA":
        return st.tuples(st.one_of(zero, st.floats(-1.0, 1.0)), angle)
    return st.tuples(st.one_of(zero, st.floats(-120.0, 0.0)), angle)


@st.composite
def touchstone_files(draw, mutation=None):
    """Touchstone text with free layout and, optionally, one defect."""
    fmt = draw(st.sampled_from(["RI", "MA", "DB"]))
    unit = draw(st.sampled_from(["HZ", "KHZ", "MHZ", "GHZ"]))
    ports = draw(st.sampled_from([1, 2]))
    groups = [["S"], [fmt], [unit]]
    if draw(st.booleans()):
        groups.append(["R", repr(draw(st.floats(1.0, 200.0)))])
    option = [tok.lower() if draw(st.booleans()) else tok
              for group in draw(st.permutations(groups)) for tok in group]
    number = draw(st.sampled_from([repr, "{:.9g}".format, "{:.6e}".format, "{:.4E}".format]))

    n_rows = draw(st.integers(2 if "frequency" in (mutation or "") else 1, 12))
    freq = draw(st.floats(1e-3, 100.0))
    rows = []
    for _ in range(n_rows):
        pairs = [draw(_value(fmt)) for _ in range(1 if ports == 1 else 4)]
        rows.append([repr(freq)] + [number(v) for pair in pairs for v in pair])
        freq += draw(st.floats(1e-3, 10.0))

    i = draw(st.integers(1, n_rows - 1)) if n_rows > 1 else 0
    extra_after = {}
    before_option = []
    if mutation == "short_row":
        rows[i] = rows[i][:-1]
    elif mutation == "long_row":
        rows[i] = rows[i] + ["0.5"]
    elif mutation == "non_numeric":
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(["abc", "1.2.3", "--1", "0x10", "1e", "+-2", "1,5"]))
    elif mutation == "repeated_frequency":
        rows[i][0] = rows[i - 1][0]
    elif mutation == "decreasing_frequency":
        rows[i][0] = repr(float(rows[i - 1][0]) / 2)
    elif mutation == "second_option_line":
        extra_after[i] = "# GHZ S RI R 50"
    elif mutation == "data_before_option":
        before_option.append(" ".join(rows[0]))
    elif mutation == "empty_body":
        rows = []

    filler = st.sampled_from(["", "   ", "\t", "! comment", "  ! indented comment", "!"])
    lines = [draw(filler) for _ in range(draw(st.integers(0, 3)))] + before_option
    lines.append(draw(st.sampled_from(["#", "# ", " \t#"])) + " ".join(option)
                 + draw(st.sampled_from(["", " ! options", "!x"])))
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    for k, tokens in enumerate(rows):
        if draw(st.booleans()):
            lines.append(draw(filler))
        text = tokens[0] + "".join(draw(gap) + tok for tok in tokens[1:])
        lines.append(draw(st.sampled_from(["", " ", "\t", "  "])) + text
                     + draw(st.sampled_from(["", " ", " ! note", "! x", "\t!"])))
        if k in extra_after:
            lines.append(extra_after[k])
    # every line break of ASCII text that str.splitlines knows
    end = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def outcome(parse, text):
    """A record as uint64 bit patterns, or the error text when parsing fails."""
    try:
        rec = parse(text, "s")
    except TouchstoneError as exc:
        return str(exc)
    fields = [rec.frequencies_hz, rec.s11] + ([] if rec.s21 is None else [rec.s21])
    return rec.state_id, [f.view(np.uint64).tolist() for f in fields]


def streamed(read_bytes, chunk_rows):
    """``parse_touchstone`` on a binary file of the text, as ``read_touchstone``
    reads one, with small reads and chunks so that their edges fall inside it."""
    def parse(text, state_id):
        with mock.patch.multiple(touchstone, _READ_BYTES=read_bytes,
                                 _BODY_CHUNK_ROWS=chunk_rows):
            return parse_text(text, state_id)
    return parse


STREAMED_PARSERS = st.builds(streamed, st.integers(1, 64), st.integers(1, 4))


@given(touchstone_files(), STREAMED_PARSERS)
@settings(max_examples=40, deadline=None)
def test_records_match_oracle_bit_for_bit(text, parse_file):
    expected = outcome(touchstone_oracle.parse_touchstone, text)
    assert not isinstance(expected, str), expected
    assert outcome(parse_text, text) == expected
    assert outcome(parse_file, text) == expected


@given(st.sampled_from(MUTATIONS).flatmap(lambda m: touchstone_files(m)), STREAMED_PARSERS)
@settings(max_examples=60, deadline=None)
def test_malformed_files_fail_like_oracle(text, parse_file):
    expected = outcome(touchstone_oracle.parse_touchstone, text)
    assert isinstance(expected, str)
    assert outcome(parse_text, text) == expected
    assert outcome(parse_file, text) == expected


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0c"])
def test_any_read_size_numbers_lines_alike(end):
    # a read may end between the two bytes of "\r\n", which still break one line
    text = end.join(["! c", "# GHZ S RI R 50", "1 0 0", "", "2 0 0", "2 0 0"]) + end
    expected = outcome(touchstone_oracle.parse_touchstone, text)
    assert expected.startswith("line 6: frequencies must be strictly increasing")
    for size in range(1, len(text) + 1):
        assert outcome(streamed(size, 1), text) == expected


# ---------------------------------------------------------------------------
# memory of a long file
# ---------------------------------------------------------------------------

LONG_ROWS = 24_000


def write_long_s2p(path, end="\n", bad_row=None):
    """A 2-port RI file of LONG_ROWS rows after a comment and the option line,
    lines ended by ``end``; row ``bad_row`` (0-based), if given, holds a
    token that is no number."""
    rng = np.random.default_rng(11)
    table = np.column_stack([np.linspace(1.0, 40.0, LONG_ROWS),
                             rng.uniform(-0.6, 0.6, (LONG_ROWS, 8))])
    text = io.StringIO()
    np.savetxt(text, table, fmt="%.17g")  # round-trips every bit
    lines = ["! generated", "# GHZ S RI R 50", *text.getvalue().splitlines()]
    if bad_row is not None:
        lines[2 + bad_row] = lines[2 + bad_row].replace(" ", " x", 1)
    path.write_bytes(end.join(lines).encode("ascii") + end.encode("ascii"))
    return table


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_long_file_memory_stays_near_its_table(tmp_path, end):
    # the file streams into loadtxt one chunk of rows at a time, whatever
    # its line breaks: no copy of its bytes, text or lines is held, and no
    # table of every row
    path = tmp_path / "long.s2p"
    table = write_long_s2p(path, end)
    traced_peak(lambda: read_touchstone(path, "long"))  # lazy imports land here
    assert traced_peak(lambda: read_touchstone(path, "long")) < 1.5 * table.nbytes
    rec = read_touchstone(path, "long")
    assert rec.frequencies_hz.tolist() == (table[:, 0] * 1e9).tolist()
    assert rec.s21.tolist() == (table[:, 3] + 1j * table[:, 4]).tolist()


@pytest.mark.parametrize("end", ["\n", "\r"])
def test_bad_row_deep_in_a_long_file_reports_its_line(tmp_path, end):
    path = tmp_path / "long.s2p"
    write_long_s2p(path, end, bad_row=LONG_ROWS - 100)
    with pytest.raises(TouchstoneError, match=f"line {LONG_ROWS - 100 + 3}: non-numeric"):
        read_touchstone(path, "long")
