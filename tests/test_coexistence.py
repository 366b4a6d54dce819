"""Outdated-CSI link adaptation against an exogenously switching surface."""

import json
import math
import pathlib
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from coexist_oracle import reference_summary, reference_trace
from coexist_oracle import simulate as slot_simulate
from helpers import trace_columns
from hypothesis import given, settings
from hypothesis import strategies as st

from risplan import cli
from risplan.beamforming import RisConfig, mrc_weights
from risplan.coexistence import (
    _TRACE_CHUNK_ROWS,
    CoexistConfig,
    CoexistResult,
    simulate,
    write_trace_csv,
)
from risplan.errors import ConfigError
from risplan.linkmetrics import serving_bs
from risplan.propagation import cascade, direct_channel, ris_channel
from risplan.scene import load_scene, parse_scene
from risplan.seeding import derived_rng

COEX = {
    "spec_version": 1,
    "carrier_hz": 3.5e9,
    "bs": [{"position_m": [0, 0, 10], "antenna_count": 4}],
    "ris": {"position_m": [10, 20, 5], "element_count": 64},
    "ue_grid": {"x_min": 0, "x_max": 20, "y_min": 0, "y_max": 30, "resolution_m": 1,
                "fixed_height_m": 1.5},
}

NEAR = [11.0, 19.0, 1.5]
FAR = [200.0, 5.0, 1.5]

STREET = pathlib.Path(__file__).resolve().parent.parent / "scenes" / "street_coexistence.json"


def coex_scene(**kwargs):
    doc = json.loads(json.dumps(COEX))
    doc.update(kwargs)
    return parse_scene(json.dumps(doc))


@dataclass(frozen=True)
class OverlapRow:
    point: tuple[float, float, float]
    ris_direct_ratio_db: float
    bler: float


def bler_vs_overlap_curve(scene, ue_points, config):
    """BLER against surface-to-direct power ratio, one row per point."""
    if not ue_points:
        raise ConfigError("need at least one point")
    rows = []
    for p in ue_points:
        result = simulate(scene, p, config)
        point = tuple(float(c) for c in p)
        rows.append(OverlapRow(point, result.ris_direct_ratio_db, result.bler))
    return tuple(rows)


def write_curve_csv(rows, path):
    with open(path, "w", newline="") as fh:
        fh.write("x_m,y_m,z_m,ris_direct_ratio_db,bler\n")
        for row in rows:
            x, y, z = row.point
            fh.write(f"{x!r},{y!r},{z!r},{row.ris_direct_ratio_db!r},{row.bler!r}\n")


def ratio_from_definition(scene, point):
    """Coherent surface ripple over the combined direct amplitude, in dB."""
    bs_index = serving_bs(scene, point)
    direct = direct_channel(scene, bs_index, point)
    w = mrc_weights(direct.gains)
    ch = ris_channel(scene, bs_index, point)
    ripple = np.sum(np.abs(ch.hop_products)) * abs(np.vdot(w, ch.bs_steering))
    return 20.0 * math.log10(ripple / abs(np.vdot(w, direct.gains)))


class TestConfigValidation:
    def test_good_config(self):
        cfg = CoexistConfig(slots=10, switch_probability=0.5)
        assert cfg.csi_delay_slots == 1
        assert cfg.mcs_gap_db == 3.0
        assert cfg.snr_margin_db == 0.1

    def test_zero_slots_rejected(self):
        with pytest.raises(ConfigError, match="slots"):
            CoexistConfig(slots=0, switch_probability=0.5)

    def test_probability_range(self):
        with pytest.raises(ConfigError, match="switch_probability"):
            CoexistConfig(slots=10, switch_probability=1.5)
        with pytest.raises(ConfigError, match="switch_probability"):
            CoexistConfig(slots=10, switch_probability=-0.1)

    def test_delay_floor(self):
        with pytest.raises(ConfigError, match="csi_delay"):
            CoexistConfig(slots=10, switch_probability=0.5, csi_delay_slots=0)

    def test_empty_codebook_rejected(self):
        with pytest.raises(ConfigError, match="codebook"):
            CoexistConfig(slots=10, switch_probability=0.5, codebook=[])

    def test_codebook_list_coerced(self):
        cfg = CoexistConfig(
            slots=10, switch_probability=0.5, codebook=[RisConfig.uniform(4)]
        )
        assert isinstance(cfg.codebook, tuple)

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigError, match="margin"):
            CoexistConfig(slots=10, switch_probability=0.5, snr_margin_db=-1.0)

    @pytest.mark.parametrize("field", ["mcs_gap_db", "snr_margin_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_db_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            CoexistConfig(slots=10, switch_probability=0.5, **{field: value})


class TestSimulate:
    def test_static_surface_never_errs(self):
        res = simulate(coex_scene(), NEAR, CoexistConfig(slots=5000, switch_probability=0.0))
        assert res.bler == 0.0
        assert res.error_slots == ()

    def test_no_surface_never_errs(self):
        scene = coex_scene(ris=None)
        res = simulate(scene, NEAR, CoexistConfig(slots=5000, switch_probability=1.0))
        assert res.bler == 0.0
        snr, _, _ = trace_columns(res)
        assert np.all(np.diff(snr) == 0.0)

    def test_far_point_never_errs(self):
        res = simulate(coex_scene(), FAR, CoexistConfig(slots=5000, switch_probability=1.0))
        assert res.bler == 0.0

    def test_near_point_errs_under_switching(self):
        res = simulate(coex_scene(), NEAR, CoexistConfig(slots=2000, switch_probability=0.5))
        assert res.bler > 0.0

    def test_more_switching_more_errors(self):
        scene = coex_scene()
        busy = simulate(scene, NEAR, CoexistConfig(slots=100_000, switch_probability=0.5))
        calm = simulate(scene, NEAR, CoexistConfig(slots=100_000, switch_probability=0.05))
        assert busy.bler >= calm.bler
        assert calm.bler > 0.0

    def test_bler_definition(self):
        res = simulate(
            coex_scene(), NEAR, CoexistConfig(slots=3000, switch_probability=0.4,
                                              csi_delay_slots=3)
        )
        assert res.transmitting_slots == 2997
        assert res.bler == len(res.error_slots) / 2997
        assert 0.0 <= res.bler <= 1.0
        assert all(t >= 3 for t in res.error_slots)

    def test_deterministic_in_seed(self):
        scene = coex_scene()
        cfg = CoexistConfig(slots=4000, switch_probability=0.3, seed=7)
        a = simulate(scene, NEAR, cfg)
        b = simulate(scene, NEAR, cfg)
        assert a.error_slots == b.error_slots
        np.testing.assert_array_equal(trace_columns(a)[0], trace_columns(b)[0])
        other = simulate(scene, NEAR, CoexistConfig(slots=4000, switch_probability=0.3, seed=8))
        assert a.error_slots != other.error_slots

    def test_switching_history_shared_across_points(self):
        # the controller belongs to the other operator: one seed, one history
        scene = coex_scene()
        cfg = CoexistConfig(slots=2000, switch_probability=0.3)
        here = simulate(scene, NEAR, cfg)
        there = simulate(scene, [13.0, 17.0, 1.5], cfg)
        moved_here = set(np.nonzero(np.diff(trace_columns(here)[0]))[0])
        moved_there = set(np.nonzero(np.diff(trace_columns(there)[0]))[0])
        assert moved_here == moved_there

    @pytest.mark.parametrize("slots, delay", [(2, 5), (10, 10), (10, 100_000)])
    def test_delay_must_leave_a_transmitting_slot(self, slots, delay):
        # with no slot after the delay there is no block error rate to report
        with pytest.raises(ConfigError, match=r"csi_delay_slots \(\d+\) must be below slots \(\d+\)"):
            CoexistConfig(slots=slots, switch_probability=1.0, csi_delay_slots=delay)

    def test_one_transmitting_slot(self):
        res = simulate(coex_scene(), NEAR, CoexistConfig(slots=6, switch_probability=1.0,
                                                         csi_delay_slots=5))
        assert res.transmitting_slots == 1
        assert res.bler in (0.0, 1.0)
        _, selected, _ = trace_columns(res)
        assert np.all(np.isnan(selected[:5]))
        assert np.isfinite(selected[5])

    def test_capacity_column_follows_gap(self):
        cfg = CoexistConfig(slots=50, switch_probability=0.0, mcs_gap_db=3.0)
        res = simulate(coex_scene(), NEAR, cfg)
        snr, _, capacity = trace_columns(res)
        snr_lin = 10.0 ** (snr / 10.0)
        expected = np.log2(1.0 + snr_lin / 10.0 ** 0.3)
        np.testing.assert_allclose(capacity, expected, rtol=1e-12)

    def test_selected_rate_is_delayed_capacity(self):
        cfg = CoexistConfig(slots=200, switch_probability=0.5, csi_delay_slots=2)
        res = simulate(coex_scene(), NEAR, cfg)
        _, selected, capacity = trace_columns(res)
        assert np.all(np.isnan(selected[:2]))
        np.testing.assert_array_equal(selected[2:], capacity[:-2])

    def test_replayed_stream_oracle(self):
        # rebuild the slot recursion from the documented stream layout
        scene = coex_scene()
        cfg = CoexistConfig(slots=400, switch_probability=0.7, seed=11,
                            snr_margin_db=0.1)
        res = simulate(scene, NEAR, cfg)

        from risplan.beamforming import default_codebook

        bs_index = serving_bs(scene, NEAR)
        direct = direct_channel(scene, bs_index, NEAR)
        w = mrc_weights(direct.gains)
        ch = ris_channel(scene, bs_index, NEAR)
        steer = complex(np.vdot(w, ch.bs_steering))
        book = default_codebook(scene)
        amps = [
            complex(np.vdot(w, direct.gains))
            + (cascade(ch, c.phases_rad) if c.active else 0.0) * steer
            for c in book
        ]
        rng = derived_rng(11, "coexist-switch")
        switch = rng.random(400) < 0.7
        draws = rng.integers(0, len(book), 400)
        idx = 0
        indices = []
        for t in range(400):
            if switch[t]:
                idx = int(draws[t])
            indices.append(idx)
        snr = np.array([abs(amps[i]) ** 2 for i in indices])
        errors = [
            t
            for t in range(1, 400)
            if snr[t] < snr[t - 1] * 10.0 ** (-0.1 / 10.0)
        ]
        assert list(res.error_slots) == errors


class TestOverlapCurve:
    def test_ratio_negative_infinity_without_surface(self):
        scene = coex_scene(ris=None)
        res = simulate(scene, NEAR, CoexistConfig(slots=50, switch_probability=0.5))
        assert res.ris_direct_ratio_db == -math.inf

    @pytest.mark.parametrize("point", [NEAR, FAR, [3.0, 27.0, 1.5]])
    def test_simulate_carries_the_ratio(self, point):
        scene = load_scene(str(STREET))
        res = simulate(scene, point, CoexistConfig(slots=50, switch_probability=0.5))
        assert res.ris_direct_ratio_db == ratio_from_definition(scene, point)
        assert math.isfinite(res.ris_direct_ratio_db)

    def test_ratio_decays_along_ray(self):
        scene = coex_scene()
        config = CoexistConfig(slots=2, switch_probability=0.5)
        ratios = [
            simulate(scene, [11.0, 19.0 - 2.5 * k, 1.5], config).ris_direct_ratio_db
            for k in range(6)
        ]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_rows_follow_points(self):
        scene = coex_scene()
        pts = [NEAR, FAR]
        rows = bler_vs_overlap_curve(
            scene, pts, CoexistConfig(slots=2000, switch_probability=0.5)
        )
        assert len(rows) == 2
        assert rows[0].point == tuple(NEAR)
        assert rows[0].bler > rows[1].bler == 0.0
        assert rows[0].ris_direct_ratio_db > rows[1].ris_direct_ratio_db

    def test_empty_points_rejected(self):
        with pytest.raises(ConfigError, match="point"):
            bler_vs_overlap_curve(coex_scene(), [], CoexistConfig(slots=10, switch_probability=0.5))

    def test_bler_tracks_ratio(self):
        scene = coex_scene()
        pts = [[11.0, 19.0 - 4.0 * k, 1.5] for k in range(5)]
        rows = bler_vs_overlap_curve(
            scene, pts, CoexistConfig(slots=20_000, switch_probability=0.5)
        )
        ratios = [r.ris_direct_ratio_db for r in rows]
        blers = [r.bler for r in rows]
        # nearer points see both a larger ratio and more errors
        assert ratios == sorted(ratios, reverse=True)
        assert blers[0] > blers[-1]


class TestCsvWriters:
    def test_trace_layout(self, tmp_path):
        res = simulate(coex_scene(), NEAR, CoexistConfig(slots=50, switch_probability=0.5))
        path = tmp_path / "trace.csv"
        write_trace_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "slot,snr_db,selected_rate,actual_capacity,error"
        assert len(lines) == 51
        flagged = {
            int(line.split(",")[0]) for line in lines[1:] if line.split(",")[4] == "1"
        }
        assert flagged == set(res.error_slots)
        first = lines[1].split(",")
        assert float(first[1]) == trace_columns(res)[0][0]
        assert math.isnan(float(first[2]))

    def test_curve_formats_minus_inf(self, tmp_path):
        scene = coex_scene(ris=None)
        rows = bler_vs_overlap_curve(
            scene, [NEAR], CoexistConfig(slots=100, switch_probability=0.5)
        )
        path = tmp_path / "curve.csv"
        write_curve_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_m,y_m,z_m,ris_direct_ratio_db,bler"
        assert lines[1] == "11.0,19.0,1.5,-inf,0.0"

    def test_trace_reruns_byte_identical(self, tmp_path):
        scene = coex_scene()
        cfg = CoexistConfig(slots=200, switch_probability=0.5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(simulate(scene, NEAR, cfg), a)
        write_trace_csv(simulate(scene, NEAR, cfg), b)
        assert a.read_bytes() == b.read_bytes()


class TestTraceWriterOracle:
    """write_trace_csv against the per-row reference, byte for byte."""

    @pytest.mark.parametrize(
        "scene_kwargs, config",
        [
            ({}, CoexistConfig(slots=20_000, switch_probability=0.5)),
            ({}, CoexistConfig(slots=20_000, switch_probability=0.5, csi_delay_slots=3)),
            ({}, CoexistConfig(slots=4, switch_probability=1.0, csi_delay_slots=3)),
            ({"ris": None}, CoexistConfig(slots=20_000, switch_probability=0.5)),
        ],
        ids=["default", "csi_delay_3", "warmup_then_one_slot", "no_surface"],
    )
    def test_simulated_trace(self, tmp_path, scene_kwargs, config):
        res = simulate(coex_scene(**scene_kwargs), NEAR, config)
        path = tmp_path / "trace.csv"
        write_trace_csv(res, path)
        assert path.read_bytes() == reference_trace(*trace_columns(res), res.error_slots)

    def test_signed_zeros_and_non_finite_across_chunks(self, tmp_path):
        # per-entry tables of signed zeros, both NaN sign bits, infinities and
        # a subnormal: every tail must keep the exact repr of its entries
        n = 2 * _TRACE_CHUNK_ROWS + 37
        rng = np.random.default_rng(5)
        negative_nan = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]
        pool = np.array([np.nan, negative_nan, -np.inf, np.inf, 0.0, -0.0, 5e-324])
        entries = 9
        snr, cap = (pool[rng.integers(0, pool.size, entries)] for _ in range(2))
        snr[:3], cap[:3] = (0.0, -0.0, -np.inf), (-0.0, 0.0, np.nan)
        index = rng.integers(0, entries, n)
        index[:3] = (0, 0, 1)
        errors = np.flatnonzero(rng.random(n) < 0.3)
        res = CoexistResult(
            bler=0.0,
            config_index=index,
            snr_db=snr,
            capacity=cap,
            error_slots=tuple(errors.tolist()),
            transmitting_slots=n - 1,
            ris_direct_ratio_db=-math.inf,
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(res, path)
        expected = reference_trace(*trace_columns(res), res.error_slots)
        assert path.read_bytes() == expected
        assert b"\n1,0.0,-0.0,-0.0," in expected
        assert b"\n2,-0.0,-0.0,0.0," in expected
        assert b",-inf," in expected and b",nan," in expected


CHUNK_EDGES = st.builds(
    lambda k, offset: k * _TRACE_CHUNK_ROWS + offset, st.integers(1, 2), st.integers(-2, 2)
)


@st.composite
def coexist_runs(draw):
    delay = draw(st.integers(1, 5))
    slots = draw(st.one_of(st.just(delay + 1), st.integers(delay + 1, 300), CHUNK_EDGES))
    return {
        "delay": delay,
        "slots": slots,
        "probability": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "margin_db": draw(st.sampled_from([0.0, 0.1])),
        # None drops the surface; 200 directions make C * C far exceed the rows
        "directions": draw(st.sampled_from([None, 1, 16, 200])),
        "seed": draw(st.integers(0, 2**32)),
        "ue": draw(st.sampled_from([NEAR, FAR])),
    }


@given(coexist_runs())
@settings(max_examples=30, deadline=None)
def test_cli_files_match_slot_oracle(run):
    # the codebook-indexed path against the per-slot simulator and the
    # per-row formatter: same columns bit for bit, same trace and summary bytes
    doc = json.loads(json.dumps(COEX))
    if run["directions"] is None:
        del doc["ris"]
    else:
        doc["ris"]["codebook_directions"] = run["directions"]
    doc["seed"] = run["seed"]
    scene = parse_scene(json.dumps(doc))
    config = CoexistConfig(slots=run["slots"], switch_probability=run["probability"],
                           csi_delay_slots=run["delay"], snr_margin_db=run["margin_db"],
                           seed=run["seed"])
    oracle = slot_simulate(scene, run["ue"], config)
    res = simulate(scene, run["ue"], config)
    columns = (oracle.snr_trace_db, oracle.selected_rate_bps_hz, oracle.capacity_bps_hz)
    for got, want in zip(trace_columns(res), columns):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert res.error_slots == oracle.error_slots

    with tempfile.TemporaryDirectory() as tmp:
        scene_path = pathlib.Path(tmp) / "scene.json"
        scene_path.write_text(json.dumps(doc))
        out = pathlib.Path(tmp) / "out"
        argv = ["coexist", str(scene_path), "--switch-prob", repr(run["probability"]),
                "--slots", str(run["slots"]), "--csi-delay", str(run["delay"]),
                "--margin-db", repr(run["margin_db"]), "--ue", ",".join(map(repr, run["ue"])),
                "--out", str(out)]
        assert cli.main(argv) == 0
        assert (out / "scene_coexist_trace.csv").read_bytes() == reference_trace(
            *columns, oracle.error_slots)
        assert (out / "scene_coexist_summary.csv").read_bytes() == reference_summary(
            run["slots"], oracle)
