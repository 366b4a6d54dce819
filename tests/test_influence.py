"""Sweep orchestration, cell labelling, AoI sets, and file export."""

import contextlib
import io
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import influence_oracle as oracle
from risplan import influence, linkmetrics, localization, secrecy
from risplan.errors import ConfigError, RunError
from risplan.influence import (
    LABEL_COLORS,
    LABELS,
    InfluenceMap,
    MetricField,
    classify,
    colormap_rgb,
    comparison_value,
    export_csv,
    export_labels_csv,
    export_labels_ppm,
    export_ppm,
    field_filename,
    in_coverage,
    sweep,
)
from risplan.linkmetrics import gain_pair
from risplan.localization import peb_pair
from risplan.scene import METRIC_IDS, Grid, Thresholds, load_scene, parse_scene

SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"

SMALL = {
    "spec_version": 1,
    "carrier_hz": 3.5e9,
    "bs": [{"position_m": [0, 0, 3]}],
    "ris": {"position_m": [6, 2, 3], "element_count": 8},
    "ue_grid": {"x_min": 1, "x_max": 5, "y_min": 1, "y_max": 3, "resolution_m": 1,
                "fixed_height_m": 1.5},
}


def small_scene(**kwargs):
    doc = json.loads(json.dumps(SMALL))
    doc.update(kwargs)
    return parse_scene(json.dumps(doc))


def line_grid(n):
    return Grid(x_min=0, x_max=float(n - 1), y_min=0, y_max=0, resolution_m=1.0)


def field_of(values, metric_id="gain_db", kind="without"):
    return MetricField(line_grid(len(values)), metric_id, kind, values)


def names(imap):
    """The map's labels as a tuple of names."""
    return tuple(LABELS[code] for code in imap.labels)


def cells(mask):
    return frozenset(np.flatnonzero(mask).tolist())


class TestMetricField:
    def test_length_must_match_grid(self):
        with pytest.raises(ValueError, match="values"):
            MetricField(line_grid(3), "gain_db", "without", (1.0, 2.0))

    def test_values_are_a_read_only_copy(self):
        given = np.array([1.0, 2.0, 3.0])
        field = MetricField(line_grid(3), "gain_db", "without", given)
        given[0] = 9.0
        assert field.values.dtype == np.float64 and field.values[0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            field.values[0] = 5.0


class TestSweep:
    def test_no_surface_fields_identical(self):
        scene = small_scene(ris=None)
        without, with_ = sweep(scene, "gain_db")
        np.testing.assert_array_equal(without.values, with_.values)
        assert without.kind == "without" and with_.kind == "with"

    def test_cell_count(self):
        scene = small_scene()
        without, with_ = sweep(scene, "gain_db")
        assert len(without.values) == scene.grid.cell_count == 15
        big = Grid(x_min=0, x_max=50, y_min=0, y_max=50, resolution_m=1.0)
        assert big.cell_count == 2601

    def test_deterministic(self):
        a = sweep(small_scene(), "gain_db")
        b = sweep(small_scene(), "gain_db")
        np.testing.assert_array_equal(a[0].values, b[0].values)
        np.testing.assert_array_equal(a[1].values, b[1].values)

    def test_matches_single_point_calls(self):
        scene = small_scene()
        without, with_ = sweep(scene, "gain_db")
        for idx in (0, 7, 14):
            wo, wi = gain_pair(scene, scene.grid.points()[idx])
            assert without.values[idx] == wo
            assert with_.values[idx] == wi

    def test_cell_index_seeds_random_metrics(self):
        scene = small_scene(bs=[{"position_m": [0, 0, 3]},
                                {"position_m": [6, 0, 3]},
                                {"position_m": [3, 5, 3]}])
        without, with_ = sweep(scene, "peb_m")
        idx = 4
        wo, wi = peb_pair(scene, scene.grid.points()[idx], point_index=idx)
        assert without.values[idx] == wo
        assert with_.values[idx] == wi

    def test_cell_on_base_station_is_nan_pair_for_per_cell_metrics(self):
        # cell 6 sits at (2, 2, 1.5), exactly on base station 0
        scene = small_scene(
            bs=[{"position_m": [2, 2, 1.5]}, {"position_m": [6, 0, 3]}],
            eve={"position_m": [4, 6, 1.5]},
        )
        for metric in ("peb_m", "sse_bps_hz"):
            without, with_ = sweep(scene, metric)
            assert math.isnan(without.values[6]) and math.isnan(with_.values[6])
            others = [v for i, v in enumerate(without.values) if i != 6]
            assert not any(math.isnan(v) for v in others), metric

    def test_cell_on_base_station_is_served_by_another(self):
        scene = small_scene(bs=[{"position_m": [2, 2, 1.5]}, {"position_m": [6, 0, 3]}])
        without, with_ = sweep(scene, "gain_db")
        assert math.isfinite(without.values[6]) and math.isfinite(with_.values[6])
        assert (without.values[6], with_.values[6]) == gain_pair(scene, [2, 2, 1.5])

    def test_cell_on_surface_element_is_nan_pair_for_every_metric(self):
        # a one-element surface centred on cell 7 at (3, 2, 1.5)
        scene = small_scene(
            bs=[{"position_m": [0, 0, 3]}, {"position_m": [6, 0, 3]}],
            ris={"position_m": [3, 2, 1.5], "element_count": 1},
            eve={"position_m": [4, 6, 1.5]},
        )
        for metric in ("gain_db", "tx_power_dbm", "se_bps_hz", "peb_m", "sse_bps_hz"):
            without, with_ = sweep(scene, metric)
            assert math.isnan(without.values[7]) and math.isnan(with_.values[7]), metric

    def test_per_cell_names_stay_bound(self):
        # perfbench's CellTimer looks these up on the module and rebinds them
        for name in ("gain_pair", "tx_power_pair", "se_pair", "peb_pair", "sse_pair"):
            assert callable(getattr(influence, name)), name

    def test_unknown_metric(self):
        with pytest.raises(ConfigError, match="unknown metric"):
            sweep(small_scene(), "latency_ms")

    def test_secrecy_needs_eavesdropper(self):
        with pytest.raises(RunError, match="eavesdropper"):
            sweep(small_scene(), "sse_bps_hz")


def walled_street():
    doc = json.loads((SCENES / "street_coexistence.json").read_text())
    doc["walls"] = [{"p1_m": [8, 5], "p2_m": [12, 12], "penetration_loss_db": 12}]
    return parse_scene(json.dumps(doc))


class TestBatchedSweepInvariance:
    """Grid-batched maps do not depend on the cell block size."""

    @pytest.fixture(scope="class", params=["office_energy", "street_coexistence"])
    def scene(self, request):
        return load_scene(SCENES / f"{request.param}.json")

    @pytest.mark.parametrize("metric", ["gain_db", "tx_power_dbm", "se_bps_hz"])
    def test_block_size(self, scene, metric, monkeypatch):
        reference = sweep(scene, metric)
        assert np.isfinite(reference[1].values).any()
        m = scene.ris.element_count
        monkeypatch.setattr(linkmetrics, "_BLOCK_BYTES", 16 * m * m * 7)
        assert linkmetrics._cell_block(scene) == 7
        without, with_ = sweep(scene, metric)
        np.testing.assert_array_equal(without.values, reference[0].values)
        np.testing.assert_array_equal(with_.values, reference[1].values)

    @pytest.mark.parametrize("block", [7, 1])
    def test_peb_block_size(self, scene, block, monkeypatch):
        reference = sweep(scene, "peb_m")
        assert np.isfinite(reference[1].values).any()
        per_cell = 3 * scene.subcarrier_count * (
            scene.ris.element_count + scene.localization.pilot_count)
        monkeypatch.setattr(localization, "_BLOCK_BYTES", 16 * per_cell * block)
        assert localization._cell_block(scene) == block
        for field, ref in zip(sweep(scene, "peb_m"), reference):
            np.testing.assert_array_equal(field.values, ref.values)

    @pytest.fixture(scope="class")
    def courtyard(self):
        scene = load_scene(SCENES / "courtyard_secrecy.json")
        return scene, sweep(scene, "sse_bps_hz")

    @pytest.mark.parametrize("block", [7, 1])
    def test_secrecy_block_size(self, courtyard, block, monkeypatch):
        scene, reference = courtyard
        assert np.isfinite(reference[1].values).all()
        assert np.any(np.array(reference[1].values) > np.array(reference[0].values))
        antennas = sum(bs.antenna_count for bs in scene.bs)
        levels = len(scene.ris.phase_lookup_rad)
        per_cell = 16 * levels * scene.ris.element_count * antennas
        monkeypatch.setattr(secrecy, "_BLOCK_BYTES", per_cell * block)
        assert secrecy._cell_block(scene) == block
        run = sweep(scene, "sse_bps_hz")
        for field, ref in zip(run, reference):
            np.testing.assert_array_equal(field.values, ref.values)

    def test_secrecy_walls_single_cell_blocks(self, monkeypatch):
        doc = json.loads((SCENES / "courtyard_secrecy.json").read_text())
        doc["ue_grid"]["resolution_m"] = 4
        doc["walls"] = [{"p1_m": [5, 20], "p2_m": [5, 80], "penetration_loss_db": 20},
                        {"p1_m": [12, 35], "p2_m": [18, 45], "penetration_loss_db": 7}]
        scene = parse_scene(json.dumps(doc))
        reference = sweep(scene, "sse_bps_hz")
        monkeypatch.setattr(secrecy, "_BLOCK_BYTES", 1)
        assert secrecy._cell_block(scene) == 1
        for field, ref in zip(sweep(scene, "sse_bps_hz"), reference):
            np.testing.assert_array_equal(field.values, ref.values)

    def test_walls_single_cell_blocks(self, monkeypatch):
        scene = walled_street()
        reference = sweep(scene, "gain_db")
        monkeypatch.setattr(linkmetrics, "_BLOCK_BYTES", 1)
        assert linkmetrics._cell_block(scene) == 1
        for idx in (0, 200, 650):
            assert gain_pair(scene, scene.grid.points()[idx]) == (
                reference[0].values[idx], reference[1].values[idx])


class TestComparisonScale:
    def test_peb_to_db(self):
        assert comparison_value("peb_m", 1.0) == 0.0
        assert comparison_value("peb_m", 0.1) == pytest.approx(-20.0)
        assert comparison_value("peb_m", 0.0) == -math.inf
        assert math.isnan(comparison_value("peb_m", math.nan))

    def test_others_identity(self):
        for mid in ("gain_db", "tx_power_dbm", "se_bps_hz", "sse_bps_hz"):
            assert comparison_value(mid, -7.25) == -7.25


class TestCoverage:
    def test_non_finite_never_covered(self):
        th = Thresholds()
        assert not in_coverage("gain_db", math.nan, th)
        assert not in_coverage("peb_m", math.inf, th)

    def test_peb_cap(self):
        th = Thresholds()
        assert in_coverage("peb_m", 0.1, th)
        assert not in_coverage("peb_m", 0.100001, th)

    def test_qos_floor_higher_better(self):
        th = Thresholds(qos_min=(("sse_bps_hz", 26.0),))
        assert in_coverage("sse_bps_hz", 26.0, th)
        assert not in_coverage("sse_bps_hz", 25.9, th)

    def test_qos_cap_lower_better(self):
        th = Thresholds(qos_min=(("tx_power_dbm", 10.0),))
        assert in_coverage("tx_power_dbm", 10.0, th)
        assert not in_coverage("tx_power_dbm", 10.1, th)


class TestClassify:
    def test_identical_fields_all_unchanged(self):
        f = field_of([3.0, 4.0, 5.0])
        g = MetricField(f.grid, f.metric_id, "with", f.values)
        imap = classify(f, g)
        assert set(names(imap)) == {"unchanged"}
        assert not np.any(imap.desired | imap.undesired)

    def test_power_reduction_boosted_at_explicit_threshold(self):
        th = Thresholds(per_metric=(("tx_power_dbm", (3.0, 2.0)),))
        wo = field_of([20.0], "tx_power_dbm")
        wi = field_of([14.0], "tx_power_dbm", "with")
        imap = classify(wo, wi, th)
        assert names(imap) == ("boosted",)
        assert imap.delta[0] == pytest.approx(6.0)

    def test_power_change_floor_default(self):
        # any reduction past the floor counts; a hair under it does not
        wo = field_of([20.0, 20.0], "tx_power_dbm")
        wi = field_of([19.8, 19.95], "tx_power_dbm", "with")
        imap = classify(wo, wi)
        assert names(imap) == ("boosted", "unchanged")

    def test_outage_to_coverage_enabled(self):
        wo = field_of([math.nan], "tx_power_dbm")
        wi = field_of([10.0], "tx_power_dbm", "with")
        assert names(classify(wo, wi)) == ("enabled",)

    def test_coverage_to_outage_degraded(self):
        wo = field_of([10.0])
        wi = field_of([math.nan], kind="with")
        assert names(classify(wo, wi)) == ("degraded",)

    def test_outage_both_infeasible(self):
        wo = field_of([math.nan])
        wi = field_of([math.nan], kind="with")
        imap = classify(wo, wi)
        assert names(imap) == ("infeasible_both",)
        assert not np.any(imap.desired | imap.undesired)

    def test_higher_better_bands(self):
        wo = field_of([0.0] * 7)
        wi = field_of([3.0, 2.5, 2.0, 1.9, -1.9, -2.0, -5.0], kind="with")
        imap = classify(wo, wi)
        assert names(imap) == ("boosted", "marginal", "marginal", "unchanged",
                               "unchanged", "degraded", "degraded")

    def test_lower_better_band_edges_inclusive(self):
        # a power drop of exactly the boost or unchanged threshold lands in
        # the higher band; a rise of exactly the unchanged threshold degrades
        th = Thresholds(per_metric=(("tx_power_dbm", (3.0, 2.0)),))
        wo = field_of([20.0] * 5, "tx_power_dbm")
        wi = field_of([17.0, 18.0, 18.5, 21.5, 22.0], "tx_power_dbm", "with")
        imap = classify(wo, wi, th)
        assert names(imap) == ("boosted", "marginal", "unchanged", "unchanged",
                               "degraded")
        assert imap.delta.tolist() == [3.0, 2.0, 1.5, -1.5, -2.0]

    @given(
        st.sampled_from(["gain_db", "tx_power_dbm", "peb_m"]),
        st.data(),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_raising_thresholds_never_grows_sets(self, metric_id, data, lo, step):
        # a stricter unchanged band never adds to the AoI, and a stricter
        # boost threshold never adds a boosted cell; values stay inside the
        # feasible range so most cells reach the threshold comparison
        value = st.floats(0.01, 0.1) if metric_id == "peb_m" else st.floats(0.0, 20.0)
        reading = st.one_of(st.just(math.nan), value)
        pairs = data.draw(st.lists(st.tuples(reading, reading), min_size=1, max_size=20))
        hi = lo + step
        wo = field_of([a for a, _ in pairs], metric_id)
        wi = field_of([b for _, b in pairs], metric_id, "with")
        loose = classify(wo, wi, Thresholds(per_metric=((metric_id, (lo + 1.0, lo)),)))
        strict = classify(wo, wi, Thresholds(per_metric=((metric_id, (hi + 1.0, hi)),)))
        aoi = [cells(imap.desired | imap.undesired) for imap in (loose, strict)]
        assert aoi[1] <= aoi[0]
        boosted = [cells(imap.labels == LABELS.index("boosted")) for imap in (loose, strict)]
        assert boosted[1] <= boosted[0]

    def test_grid_mismatch(self):
        wo = field_of([0.0, 1.0])
        wi = field_of([0.0], kind="with")
        with pytest.raises(ValueError, match="grid"):
            classify(wo, wi)

    def test_metric_mismatch(self):
        wo = field_of([0.0])
        wi = field_of([0.0], "se_bps_hz", "with")
        with pytest.raises(ValueError, match="metric"):
            classify(wo, wi)

    def test_peb_compared_in_db(self):
        wo = field_of([0.1, 0.1], "peb_m")
        wi = field_of([0.05, 0.09], "peb_m", "with")
        imap = classify(wo, wi)
        assert names(imap) == ("boosted", "unchanged")
        assert imap.delta[0] == pytest.approx(20 * math.log10(2), rel=1e-12)

    def test_peb_feasibility_gates(self):
        wo = field_of([0.2, 0.2, 0.1, 0.05], "peb_m")
        wi = field_of([0.05, 0.2, 0.2, 0.0], "peb_m", "with")
        imap = classify(wo, wi)
        assert names(imap) == ("enabled", "infeasible_both", "degraded", "boosted")

    def test_qos_floor_enables(self):
        th = Thresholds(qos_min=(("sse_bps_hz", 26.0),))
        wo = field_of([20.0, 27.0], "sse_bps_hz")
        wi = field_of([30.0, 30.0], "sse_bps_hz", "with")
        imap = classify(wo, wi, th)
        assert names(imap) == ("enabled", "boosted")

    def test_desired_undesired_split(self):
        wo = field_of([0.0, 0.0, 0.0, math.nan, 5.0])
        wi = field_of([5.0, 2.5, -5.0, 1.0, math.nan], kind="with")
        imap = classify(wo, wi)
        assert names(imap) == ("boosted", "marginal", "degraded", "enabled",
                               "degraded")
        assert cells(imap.desired) == frozenset({0, 3})
        assert cells(imap.undesired) == frozenset({1, 2, 4})

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(math.nan), st.floats(-50, 50)),
                st.one_of(st.just(math.nan), st.floats(-50, 50)),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_invariants(self, pairs):
        wo = field_of([a for a, _ in pairs])
        wi = field_of([b for _, b in pairs], kind="with")
        imap = classify(wo, wi)
        assert all(0 <= code < len(LABELS) for code in imap.labels)
        assert len(imap.labels) == len(pairs)
        assert not np.any(imap.desired & imap.undesired)
        uninfluenced = ~(imap.desired | imap.undesired)
        assert set(np.asarray(LABELS)[imap.labels[uninfluenced]]) <= {
            "unchanged", "infeasible_both"}

    def test_delta_field_round_trip(self):
        wo = field_of([0.0, 1.0])
        wi = field_of([4.0, 1.5], kind="with")
        imap = classify(wo, wi)
        delta = imap.delta_field()
        assert delta.kind == "delta"
        np.testing.assert_array_equal(delta.values, imap.delta)


class TestPowerMap:
    def test_boosted_where_required_power_falls(self):
        # lower-better: a power drop past the boost threshold is a boost
        wo = field_of([20.0, 20.0, math.nan, 14.0], "tx_power_dbm")
        wi = field_of([14.0, 19.99, 10.0, 20.0], "tx_power_dbm", "with")
        imap = classify(wo, wi)
        assert names(imap) == ("boosted", "unchanged", "enabled", "degraded")
        assert cells(imap.desired) == frozenset({0, 2})


def load_field_csv(path):
    """Rows of an exported field CSV as an (n, 3) array of x, y, value."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestCsvExport:
    def test_single_cell(self, tmp_path):
        grid = Grid(x_min=2, x_max=2, y_min=3, y_max=3, resolution_m=1.0)
        f = MetricField(grid, "gain_db", "without", (5.0,))
        path = tmp_path / "one.csv"
        export_csv(f, path)
        assert path.read_text() == "x_m,y_m,value\n2.0,3.0,5.0\n"

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = Grid(x_min=0, x_max=3, y_min=0, y_max=3, resolution_m=1.0)
        vals = list(rng.standard_normal(10) * 1e3)
        vals += [math.nan, math.inf, -math.inf, -0.0, 1.5, 5e-324]
        f = MetricField(grid, "se_bps_hz", "with", tuple(float(v) for v in vals))
        path = tmp_path / "field.csv"
        export_csv(f, path)
        back = load_field_csv(path)
        np.testing.assert_array_equal(bits(back[:, :2]), bits(grid.points()[:, :2]))
        np.testing.assert_array_equal(bits(back[:, 2]), bits(f.values))

    def test_fractional_resolution_round_trip(self, tmp_path):
        grid = Grid(x_min=3.0, x_max=5.0, y_min=-2.0, y_max=-1.0,
                    resolution_m=0.25, fixed_height_m=1.5)
        vals = tuple(float(i) / 7 for i in range(grid.cell_count))
        f = MetricField(grid, "gain_db", "without", vals)
        path = tmp_path / "frac.csv"
        export_csv(f, path)
        back = load_field_csv(path)
        np.testing.assert_array_equal(bits(back[:, :2]), bits(grid.points()[:, :2]))
        np.testing.assert_array_equal(bits(back[:, 2]), bits(vals))

    def test_reruns_byte_identical(self, tmp_path):
        f = field_of([1.0, math.nan, -2.5])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export_csv(f, a)
        export_csv(f, b)
        assert a.read_bytes() == b.read_bytes()


class TestPpmExport:
    def test_colormap_stops(self):
        assert colormap_rgb(0.0).tolist() == [0, 0, 255]
        assert colormap_rgb(0.5).tolist() == [0, 255, 0]
        assert colormap_rgb(1.0).tolist() == [255, 0, 0]
        assert colormap_rgb(0.25).tolist() == [0, 128, 128]
        assert colormap_rgb([[0.0, 1.0]]).tolist() == [[[0, 0, 255], [255, 0, 0]]]

    def test_field_maps_to_stops(self, tmp_path):
        f = field_of([0.0, 5.0, 10.0, math.nan])
        path = tmp_path / "f.ppm"
        export_ppm(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P3"
        assert lines[1] == "4 1"
        pixels = " ".join(lines[3:]).split()
        assert pixels[0:3] == ["0", "0", "255"]
        assert pixels[3:6] == ["0", "255", "0"]
        assert pixels[6:9] == ["255", "0", "0"]
        assert pixels[9:12] == ["0", "0", "0"]

    def test_flat_field_green_with_note(self, tmp_path, capsys):
        f = field_of([2.0, 2.0])
        path = tmp_path / "flat.ppm"
        export_ppm(f, path)
        assert capsys.readouterr().err == (
            f"note: {path}: flat value range, rendering mid-scale\n")
        pixels = " ".join(path.read_text().splitlines()[3:]).split()
        assert pixels == ["0", "255", "0"] * 2

    def test_top_row_is_north(self, tmp_path):
        grid = Grid(x_min=0, x_max=1, y_min=0, y_max=1, resolution_m=1.0)
        # south row at the bottom of the range, north row at the top
        f = MetricField(grid, "gain_db", "without", (0.0, 0.0, 1.0, 1.0))
        path = tmp_path / "rows.ppm"
        export_ppm(f, path)
        lines = path.read_text().splitlines()
        assert lines[3] == "255 0 0 255 0 0"
        assert lines[4] == "0 0 255 0 0 255"

    def test_lines_stay_narrow(self, tmp_path):
        grid = Grid(x_min=0, x_max=39, y_min=0, y_max=0, resolution_m=1.0)
        f = MetricField(grid, "gain_db", "without",
                        tuple(float(i) for i in range(40)))
        path = tmp_path / "wide.ppm"
        export_ppm(f, path)
        lines = path.read_text().splitlines()
        assert len(lines) > 4
        assert max(len(line) for line in lines) <= 70


class TestLabelExport:
    def make_map(self):
        wo = field_of([0.0, 0.0, math.nan, math.nan, 0.0, 0.0])
        wi = field_of([5.0, 2.5, 1.0, math.nan, -5.0, 0.0], kind="with")
        return classify(wo, wi)

    def test_labels_csv(self, tmp_path):
        imap = self.make_map()
        path = tmp_path / "labels.csv"
        export_labels_csv(imap, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_m,y_m,label"
        assert lines[1] == "0.0,0.0,boosted"
        assert lines[4] == "3.0,0.0,infeasible_both"

    def test_labels_ppm_palette(self, tmp_path):
        imap = self.make_map()
        path = tmp_path / "labels.ppm"
        export_labels_ppm(imap, path)
        pixels = " ".join(path.read_text().splitlines()[3:]).split()
        expected = []
        for lab in ("boosted", "marginal", "enabled", "infeasible_both",
                    "degraded", "unchanged"):
            expected.extend(str(c) for c in LABEL_COLORS[lab])
        assert pixels == expected

    def test_every_label_has_a_colour(self):
        assert set(LABEL_COLORS) == set(LABELS)


class TestNaming:
    def test_pattern(self):
        assert field_filename("demo", "gain_db", "with", "csv") == "demo_gain_db_with.csv"
        assert field_filename("s", "peb_m", "labels", "ppm") == "s_peb_m_labels.ppm"

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            field_filename("demo", "gain_db", "optimum", "csv")


QUARTERS = st.integers(-40, 40).map(lambda k: k / 4)


@st.composite
def oracle_cases(draw):
    """A grid, two fields and thresholds, with readings on every edge the classifier has."""
    metric_id = draw(st.sampled_from(METRIC_IDS))
    unchanged = draw(st.integers(0, 12)) / 4
    boost = unchanged + draw(st.integers(0, 12)) / 4
    cap = draw(st.sampled_from([0.1, 0.5, 2.0]))
    qos = None if metric_id == "peb_m" else draw(st.none() | QUARTERS)
    thresholds = Thresholds(
        peb_feasible_m=cap,
        per_metric=((metric_id, (boost, unchanged)),),
        qos_min=() if qos is None else ((metric_id, qos),),
    )
    # rows of 20 cells and more wrap over several image lines
    nx, ny = draw(st.integers(1, 6) | st.integers(20, 40)), draw(st.integers(1, 6))
    x0, y0 = draw(st.sampled_from([0.0, -2.5, 3.0, 0.1])), draw(st.sampled_from([0.0, 1.5, -0.3]))
    res = draw(st.sampled_from([1.0, 0.25, 0.1, 2.5]))
    grid = Grid(x_min=x0, x_max=x0 + (nx - 1) * res, y_min=y0, y_max=y0 + (ny - 1) * res,
                resolution_m=res)

    edges = [math.nan, math.inf, -math.inf, 0.0, -0.0]
    if metric_id == "peb_m":
        # a bound is never negative; 0.0 reads -inf on the dB scale
        reading = st.sampled_from(edges + [cap]) | st.floats(0.0, 3 * cap)
        offset = st.sampled_from([1.0, 0.5, 2.0, 10.0]).map(lambda f: lambda a: a * f)
    else:
        # magnitudes stay below 1e300, so no image's value range overflows
        reading = (st.sampled_from(edges + ([] if qos is None else [qos]))
                   | QUARTERS | st.floats(-50, 50) | st.floats(-1e300, 1e300))
        offset = st.sampled_from([0.0, unchanged, -unchanged, boost, -boost]).map(
            lambda d: lambda a: a + d)

    def field(partner=None):
        fill = draw(st.sampled_from(["cells", "cells", "nan", "flat"]))
        if fill == "nan":
            return [math.nan] * grid.cell_count
        if fill == "flat":
            return [draw(reading)] * grid.cell_count
        if partner is None:
            return [draw(reading) for _ in range(grid.cell_count)]
        return [draw(reading | offset.map(lambda f, a=a: f(a))) for a in partner]

    without = field()
    return metric_id, thresholds, grid, without, field(without)


def write_maps(directory, writers, without, with_, delta, labels):
    """Every file of one aoi run: {name: bytes} and the notes printed."""
    export_values, export_image, export_labels, export_label_image = writers
    notes = io.StringIO()
    with contextlib.redirect_stderr(notes):
        for kind, values in (("without", without), ("with", with_), ("delta", delta)):
            export_values(values, f"{directory}/{kind}.csv")
            export_image(values, f"{directory}/{kind}.ppm")
        export_labels(labels, f"{directory}/labels.csv")
        export_label_image(labels, f"{directory}/labels.ppm")
    files = {path.name: path.read_bytes() for path in pathlib.Path(directory).iterdir()}
    assert len(files) == 8
    return files, notes.getvalue()


class TestMatchesOracle:
    """classify and the writers against the per-cell oracle, bit for bit and byte for byte."""

    @given(oracle_cases())
    @settings(max_examples=150, deadline=None)
    def test_labels_delta_and_files(self, case):
        metric_id, thresholds, grid, a, b = case
        without = MetricField(grid, metric_id, "without", a)
        with_ = MetricField(grid, metric_id, "with", b)
        imap = classify(without, with_, thresholds)
        labels, deltas = oracle.classify(metric_id, a, b, thresholds)
        assert names(imap) == labels
        assert bits(imap.delta).tolist() == bits(deltas).tolist()

        with tempfile.TemporaryDirectory() as directory:
            new = write_maps(
                directory,
                (export_csv, export_ppm, export_labels_csv, export_labels_ppm),
                without, with_, imap.delta_field(), imap,
            )
            old = write_maps(
                directory,
                tuple(lambda values, path, write=write: write(grid, values, path)
                      for write in (oracle.export_csv, oracle.export_ppm,
                                    oracle.export_labels_csv, oracle.export_labels_ppm)),
                a, b, deltas, labels,
            )
        assert new == old

    def test_overflowing_value_range_fails_as_before(self, tmp_path):
        # the span of these values exceeds the largest float64
        values = (-1e308, 1e308, 0.0)
        with pytest.raises(ValueError):
            oracle.export_ppm(line_grid(3), values, tmp_path / "old.ppm")
        with pytest.raises(ValueError, match="overflows"):
            export_ppm(field_of(values), tmp_path / "new.ppm")
