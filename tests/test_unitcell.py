import csv
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import contrast_at, parse_text, traced_peak
from risplan.errors import ConfigError
from risplan.unitcell import (
    _CSV_CHUNK_ROWS,
    BandOfInfluence,
    ContrastCurve,
    SParameterTable,
    build_table,
    effective_s11,
    extract_boi,
    max_contrast,
    normalized_contrast_table,
    write_contrast_csv,
    write_normalized_csv,
)


def table_from_s11(rows, freqs=None, name="cell"):
    rows = np.asarray(rows, dtype=np.complex128)
    if freqs is None:
        freqs = np.linspace(1e9, 2e9, rows.shape[1])
    return SParameterTable(
        name=name,
        frequencies_hz=np.asarray(freqs, dtype=float),
        s11=rows,
        s21=None,
    )


def pairwise_oracle(rows):
    # independent exhaustive enumeration, kept dumb on purpose
    rows = np.asarray(rows, dtype=np.complex128)
    n, f = rows.shape
    out = np.zeros(f)
    for k in range(f):
        best = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                best = max(best, abs(rows[i, k] - rows[j, k]))
        out[k] = best
    return out


# ---------------------------------------------------------------------------
# contrast
# ---------------------------------------------------------------------------

def test_antipodal_states_hit_upper_bound():
    t = table_from_s11([[1.0, 1.0], [-1.0, -1.0]])
    c = max_contrast(t, "reflection")
    assert np.allclose(c.contrast, 2.0)


def test_single_state_zero_contrast():
    t = table_from_s11([[0.5, 0.7]])
    assert np.all(max_contrast(t, "reflection").contrast == 0.0)


def test_three_state_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(3, 11)) + 1j * rng.normal(size=(3, 11))
    rows /= np.max(np.abs(rows))
    t = table_from_s11(rows)
    assert np.allclose(max_contrast(t, "reflection").contrast, pairwise_oracle(rows), atol=1e-12)


def test_transmission_contrast_needs_two_port():
    t = table_from_s11([[0.5, 0.5]])
    with pytest.raises(ConfigError, match="2-port"):
        max_contrast(t, kind="transmission")


def test_transmission_contrast_uses_s21():
    freqs = np.array([27e9, 28e9])
    s11 = np.full((2, 2), 0.1 + 0j)
    s21 = np.array([[0.9 + 0j, 0.9j], [-0.9 + 0j, -0.9j]])
    t = SParameterTable("t", freqs, s11, s21)
    c = max_contrast(t, kind="transmission")
    assert np.allclose(c.contrast, [1.8, 1.8])
    assert np.allclose(max_contrast(t, kind="reflection").contrast, 0.0)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_contrast_bounds_and_permutation_invariance(n_states, n_freq, seed):
    rng = np.random.default_rng(seed)
    mag = rng.uniform(0, 1, size=(n_states, n_freq))
    ph = rng.uniform(-np.pi, np.pi, size=(n_states, n_freq))
    rows = mag * np.exp(1j * ph)
    c = max_contrast(table_from_s11(rows), "reflection").contrast
    assert np.all(c >= 0.0) and np.all(c <= 2.0 + 1e-12)
    perm = rng.permutation(n_states)
    c2 = max_contrast(table_from_s11(rows[perm]), "reflection").contrast
    assert np.array_equal(c, c2)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_adding_a_state_never_lowers_contrast(seed):
    rng = np.random.default_rng(seed)
    rows = 0.9 * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(4, 9)))
    c_small = max_contrast(table_from_s11(rows[:3]), "reflection").contrast
    c_full = max_contrast(table_from_s11(rows), "reflection").contrast
    assert np.all(c_full >= c_small - 1e-12)


@given(st.floats(min_value=-np.pi, max_value=np.pi))
@settings(max_examples=30, deadline=None)
def test_global_phase_invariance(phase):
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    base = max_contrast(table_from_s11(rows), "reflection").contrast
    rotated = max_contrast(table_from_s11(rows * np.exp(1j * phase)), "reflection").contrast
    assert np.allclose(base, rotated, atol=1e-12)


# ---------------------------------------------------------------------------
# loss-compensated reflection
# ---------------------------------------------------------------------------

def test_effective_s11_examples():
    assert effective_s11(np.array([0.1 + 0j]))[0] == pytest.approx(0.9 + 0j)
    v = effective_s11(np.array([0.1j]))[0]
    assert v == pytest.approx(0.9j)
    # angle(0) = 0 by convention
    assert effective_s11(np.array([0.0 + 0j]))[0] == pytest.approx(1.0 + 0j)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_effective_s11_magnitude_identity(seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0, 1, 64) * np.exp(1j * rng.uniform(-np.pi, np.pi, 64))
    out = effective_s11(v)
    assert np.all(np.abs(np.abs(out) - (1 - np.abs(v))) < 1e-12)
    keep = np.abs(v) > 1e-12
    assert np.allclose(np.angle(out[keep]), np.angle(v[keep]), atol=1e-12)


def test_seven_phase_delay_line_oracle():
    # 7 states with equal |S11| = 0.1 and phases 2*pi*k/7: after the
    # loss-compensated map each has magnitude 0.9, so the best pair is the
    # widest chord 2*sin(3*pi/7) scaled by 0.9.
    phases = 2 * np.pi * np.arange(7) / 7.0
    s11 = 0.1 * np.exp(1j * phases)
    t = table_from_s11(np.tile(s11[:, None], (1, 3)))
    c = max_contrast(t, "effective").contrast
    oracle = 0.9 * max(
        abs(np.exp(1j * a) - np.exp(1j * b)) for i, a in enumerate(phases) for b in phases[:i]
    )
    assert np.allclose(c, oracle, atol=1e-12)
    assert oracle == pytest.approx(0.9 * 2 * np.sin(3 * np.pi / 7), abs=1e-12)


# ---------------------------------------------------------------------------
# band extraction
# ---------------------------------------------------------------------------

def test_rectangular_curve_edges_exact():
    f = np.array([1.0, 2.0, 3.0, 4.0, 5.0]) * 1e9
    c = np.array([0.0, 1.5, 1.5, 0.0, 0.0])
    boi = extract_boi(ContrastCurve(f, c), c_min=1.0)
    assert len(boi.intervals) == 1
    f1, f2 = boi.intervals[0]
    # edges interpolated on the rising/falling flanks
    assert f1 == pytest.approx(1e9 + (1.0 / 1.5) * 1e9)
    assert f2 == pytest.approx(3e9 + (0.5 / 1.5) * 1e9)


def test_curve_above_threshold_everywhere():
    f = np.linspace(1e9, 2e9, 5)
    boi = extract_boi(ContrastCurve(f, np.full(5, 1.4)), c_min=1.0)
    assert boi.intervals == ((1e9, 2e9),)
    assert boi.f0_hz == pytest.approx(1.5e9)


def test_interpolated_edge_midpoint():
    f = np.array([5.0e9, 5.1e9])
    c = np.array([0.8, 1.2])
    boi = extract_boi(ContrastCurve(f, c), c_min=1.0)
    assert boi.intervals[0][0] == pytest.approx(5.05e9, abs=1.0)  # 1 Hz slack


def test_empty_boi():
    f = np.linspace(1e9, 2e9, 4)
    boi = extract_boi(ContrastCurve(f, np.full(4, 0.2)), c_min=1.0)
    assert boi.intervals == ()
    assert boi.f0_hz is None and boi.width_hz is None and boi.principal is None


def test_principal_tie_prefers_lower_frequency():
    f = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    c = np.array([0.0, 1.5, 1.5, 0.0, 0.0, 1.5, 1.5, 0.0])
    boi = extract_boi(ContrastCurve(f, c), c_min=1.0)
    widths = [b - a for a, b in boi.intervals]
    assert widths[0] == pytest.approx(widths[1])
    assert boi.principal == boi.intervals[0]


def test_isolated_touch_dropped():
    f = np.array([1.0, 2.0, 3.0])
    c = np.array([0.5, 1.0, 0.5])
    boi = extract_boi(ContrastCurve(f, c), c_min=1.0)
    assert boi.intervals == ()


def trapezoid_curve(f1_hz, f2_hz, c_min=1.0, peak=1.6):
    # piecewise-linear curve crossing c_min exactly at f1 and f2
    r = 0.1 * (f2_hz - f1_hz)
    f = np.array(
        [f1_hz - 2 * r, f1_hz - r, f1_hz, f1_hz + r, f2_hz - r, f2_hz, f2_hz + r, f2_hz + 2 * r]
    )
    c = np.array([0.2, 0.5, 1.0, peak, peak, 1.0, 0.5, 0.2]) * c_min
    c[3] = c[4] = peak
    return ContrastCurve(f, c)


@pytest.mark.parametrize(
    "f1_ghz,f2_ghz,f0_ghz,width_ghz",
    [
        (23.9, 30.6, 27.25, 6.7),
        (5.1, 6.4, 5.75, 1.3),
        (5.17, 5.44, 5.305, 0.27),
        (4.4, 5.6, 5.0, 1.2),
    ],
)
def test_reference_band_table(f1_ghz, f2_ghz, f0_ghz, width_ghz):
    curve = trapezoid_curve(f1_ghz * 1e9, f2_ghz * 1e9)
    boi = extract_boi(curve, c_min=1.0)
    assert len(boi.intervals) == 1
    assert boi.f0_hz == pytest.approx(f0_ghz * 1e9, abs=1e6)
    assert boi.width_hz == pytest.approx(width_ghz * 1e9, abs=2e6)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_interval_edges_evaluate_to_threshold(seed):
    rng = np.random.default_rng(seed)
    f = np.linspace(1e9, 3e9, 64)
    c = np.abs(np.convolve(rng.uniform(0, 2, 70), np.ones(7) / 7, mode="valid"))[:64]
    curve = ContrastCurve(f, c)
    boi = extract_boi(curve, c_min=1.0)
    for f1, f2 in boi.intervals:
        for edge in (f1, f2):
            if edge != f[0] and edge != f[-1]:
                assert contrast_at(curve, edge) == pytest.approx(1.0, abs=1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_raising_threshold_shrinks_band(seed):
    rng = np.random.default_rng(seed)
    f = np.linspace(1e9, 3e9, 48)
    c = rng.uniform(0, 2, 48)
    lo = extract_boi(ContrastCurve(f, c), c_min=0.8)
    hi = extract_boi(ContrastCurve(f, c), c_min=1.2)
    total_lo = sum(b - a for a, b in lo.intervals)
    total_hi = sum(b - a for a, b in hi.intervals)
    assert total_hi <= total_lo + 1e-6
    for a, b in hi.intervals:
        mid = 0.5 * (a + b)
        assert any(x1 - 1e-6 <= mid <= x2 + 1e-6 for x1, x2 in lo.intervals)


# ---------------------------------------------------------------------------
# table assembly and normalization
# ---------------------------------------------------------------------------

def test_build_table_resamples_onto_intersection():
    a = parse_text(
        "# GHZ S RI R 50\n1.0 0.5 0\n1.5 0.5 0\n2.0 0.5 0\n2.5 0.5 0\n3.0 0.5 0\n", "a"
    )
    b = parse_text("# GHZ S RI R 50\n1.2 -0.5 0\n3.2 -0.5 0\n", "b")
    t = build_table("mix", [a, b])
    assert t.frequencies_hz.tolist() == [1.5e9, 2.0e9, 2.5e9, 3.0e9]
    assert np.allclose(t.s11[1], -0.5 + 0j)


def test_build_table_rejects_disjoint_ranges():
    a = parse_text("# GHZ S RI R 50\n1.0 0.5 0\n2.0 0.5 0\n", "a")
    b = parse_text("# GHZ S RI R 50\n3.0 0.5 0\n4.0 0.5 0\n", "b")
    with pytest.raises(ConfigError, match="overlap"):
        build_table("mix", [a, b])


def test_build_table_interpolates_linearly():
    a = parse_text("# GHZ S RI R 50\n1.0 0.0 0\n2.0 1.0 0\n3.0 0.0 0\n", "a")
    b = parse_text("# GHZ S RI R 50\n0.5 0.0 0\n3.5 0.6 0\n", "b")
    t = build_table("mix", [a, b])
    assert t.frequencies_hz.tolist() == [1e9, 2e9, 3e9]
    # b linearly interpolated: value at 2 GHz is 0.6 * (1.5/3.0) = 0.3
    assert t.s11[1, 1] == pytest.approx(0.3 + 0j, abs=1e-12)


def test_build_table_mixed_ports_rejected():
    one = parse_text("# GHZ S RI R 50\n1 0 0\n2 0 0\n", "p1")
    two = parse_text("# GHZ S RI R 50\n1 0 0 1 0 1 0 0 0\n2 0 0 1 0 1 0 0 0\n", "p2")
    with pytest.raises(ConfigError, match="mix"):
        build_table("mix", [one, two])


def test_normalized_axis_example():
    f = np.array([4.5e9, 5.0e9, 5.5e9])
    curve = ContrastCurve(f, np.array([0.5, 1.5, 0.5]))
    names, ratios, contrast = normalized_contrast_table([("d", curve, 5.0e9)])
    assert ratios.tolist() == pytest.approx([0.9, 1.0, 1.1])
    assert names.tolist() == ["d", "d", "d"]
    assert contrast.tolist() == [0.5, 1.5, 0.5]


def test_normalized_reference_points():
    # widest-band design: edges 4.4 and 5.6 GHz around centre 5.05 GHz
    f = np.array([4.4e9, 5.6e9])
    curve = ContrastCurve(f, np.array([1.0, 1.0]))
    _, ratios, _ = normalized_contrast_table([("pin", curve, 5.05e9)])
    assert ratios[0] == pytest.approx(0.871, abs=5e-4)
    assert ratios[1] == pytest.approx(1.109, abs=5e-4)


def test_normalized_columns_follow_entry_order():
    a = ContrastCurve(np.array([1e9, 2e9]), np.array([0.5, 1.5]))
    b = ContrastCurve(np.array([3e9, 4e9, 5e9]), np.array([1.2, 1.4, 0.2]))
    names, ratios, contrast = normalized_contrast_table([("a", a, 2e9), ("b", b, 4e9)])
    assert names.tolist() == ["a", "a", "b", "b", "b"]
    assert ratios.tolist() == [0.5, 1.0, 0.75, 1.0, 1.25]
    assert contrast.tolist() == [0.5, 1.5, 1.2, 1.4, 0.2]
    assert ratios.dtype == contrast.dtype == np.float64
    names, ratios, contrast = normalized_contrast_table([])
    assert names.size == ratios.size == contrast.size == 0


def test_normalized_requires_positive_f0():
    f = np.array([1e9, 2e9])
    curve = ContrastCurve(f, np.ones(2))
    with pytest.raises(ConfigError, match="f0"):
        normalized_contrast_table([("d", curve, 0.0)])


# ---------------------------------------------------------------------------
# CSV writers against csv.writer, byte for byte
# ---------------------------------------------------------------------------

SPECIAL_FLOATS = [float("nan"), float("-inf"), float("inf"), 0.0, -0.0, 5e-324, 1.25e9]


def csv_reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def test_contrast_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * _CSV_CHUNK_ROWS + 11
    freqs = np.linspace(1e9, 2e9, n)
    contrast = rng.uniform(0.0, 2.0, n)
    contrast[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
    curve = ContrastCurve(freqs, contrast)
    write_contrast_csv(curve, tmp_path / "new.csv")
    csv_reference(
        tmp_path / "ref.csv",
        ["frequency_hz", "contrast"],
        ([repr(float(f)), repr(float(c))] for f, c in zip(freqs, contrast)),
    )
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_normalized_csv_matches_csv_writer(tmp_path):
    names = ["pin", "a,b", 'say "hi"', "", "line\nbreak", " lead"]
    rng = np.random.default_rng(4)
    rows = [
        (names[i % len(names)], float(x), float(c))
        for i, (x, c) in enumerate(rng.uniform(0.5, 1.5, (2 * _CSV_CHUNK_ROWS + 5, 2)))
    ]
    rows[: len(SPECIAL_FLOATS)] = [
        (names[i % len(names)], v, -v) for i, v in enumerate(SPECIAL_FLOATS)
    ]
    columns = [np.array(column, dtype=dtype) for column, dtype in zip(zip(*rows), (object, float, float))]
    write_normalized_csv(tuple(columns), tmp_path / "new.csv")
    csv_reference(
        tmp_path / "ref.csv",
        ["name", "f_over_f0", "contrast"],
        ([name, repr(x), repr(c)] for name, x, c in rows),
    )
    expected = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes() == expected
    assert b'"a,b",' in expected and b'"say ""hi""",' in expected


def test_normalized_csv_memory_stays_one_chunk():
    # the rows become Python objects and text one chunk at a time, so five
    # times the rows hold no more memory
    def columns(n):
        names = np.array(["pin", "a,b", "line\nbreak"], dtype=object)[np.arange(n) % 3]
        return names, np.linspace(0.5, 1.5, n), np.linspace(0.0, 2.0, n)

    def peak(table):
        return traced_peak(lambda: write_normalized_csv(table, os.devnull))

    small, large = columns(20_000), columns(100_000)
    peak(small)  # lazy imports land here
    assert peak(large) - peak(small) <= 200_000
