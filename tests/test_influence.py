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
from helpers import block_size
from risplan import influence
from risplan.influence import (
    LABEL_COLORS,
    LABELS,
    classify,
    colormap_rgb,
    comparison_value,
    export_csv,
    export_labels_csv,
    export_labels_ppm,
    export_ppm,
    gain_pair,
    in_coverage,
    sweep,
)
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


def pairs_of(without, with_):
    """A sweep's (2, n) array from its without and with readings."""
    return np.array([without, with_], dtype=float)


def names(labels):
    """Label codes as a tuple of names."""
    return tuple(LABELS[code] for code in labels)


def cells(mask):
    return frozenset(np.flatnonzero(mask).tolist())


def desired(labels):
    """Mask of the cells ``aoi`` counts as desired."""
    return np.isin(labels, influence.DESIRED)


def undesired(labels):
    """Mask of the cells ``aoi`` counts as undesired."""
    return np.isin(labels, influence.UNDESIRED)


class TestSweep:
    def test_dark_surface_fields_identical(self):
        scene = small_scene(ris={**SMALL["ris"], "element_efficiency": 0.0})
        without, with_ = sweep(scene, "gain_db")
        np.testing.assert_array_equal(without, with_)

    def test_cell_count(self):
        scene = small_scene()
        assert sweep(scene, "gain_db").shape == (2, scene.grid.cell_count) == (2, 15)
        big = Grid(x_min=0, x_max=50, y_min=0, y_max=50, resolution_m=1.0)
        assert big.cell_count == 2601

    def test_deterministic(self):
        np.testing.assert_array_equal(sweep(small_scene(), "gain_db"),
                                      sweep(small_scene(), "gain_db"))

    def test_matches_single_point_calls(self):
        scene = small_scene()
        without, with_ = sweep(scene, "gain_db")
        for idx in (0, 7, 14):
            wo, wi = gain_pair(scene, scene.grid.points()[idx])
            assert without[idx] == wo
            assert with_[idx] == wi

    def test_cell_index_seeds_random_metrics(self):
        scene = small_scene(bs=[{"position_m": [0, 0, 3]},
                                {"position_m": [6, 0, 3]},
                                {"position_m": [3, 5, 3]}])
        without, with_ = sweep(scene, "peb_m")
        idx = 4
        # the cell's pilots come from its index: a shorter grid ending at it agrees
        wo, wi = influence.METRICS["peb_m"].pairs(scene, scene.grid.points()[:idx + 1])[:, idx]
        assert without[idx] == wo
        assert with_[idx] == wi

    def test_cell_on_base_station_is_nan_pair_for_per_cell_metrics(self):
        # cell 6 sits at (2, 2, 1.5), exactly on base station 0
        scene = small_scene(
            bs=[{"position_m": [2, 2, 1.5]}, {"position_m": [6, 0, 3]}],
            eve={"position_m": [4, 6, 1.5]},
        )
        for metric in ("peb_m", "sse_bps_hz"):
            without, with_ = sweep(scene, metric)
            assert math.isnan(without[6]) and math.isnan(with_[6])
            others = [v for i, v in enumerate(without) if i != 6]
            assert not any(math.isnan(v) for v in others), metric

    def test_cell_on_base_station_is_served_by_another(self):
        scene = small_scene(bs=[{"position_m": [2, 2, 1.5]}, {"position_m": [6, 0, 3]}])
        without, with_ = sweep(scene, "gain_db")
        assert math.isfinite(without[6]) and math.isfinite(with_[6])
        assert (without[6], with_[6]) == gain_pair(scene, [2, 2, 1.5])

    def test_cell_on_surface_element_is_nan_pair_for_every_metric(self):
        # a one-element surface centred on cell 7 at (3, 2, 1.5)
        scene = small_scene(
            bs=[{"position_m": [0, 0, 3]}, {"position_m": [6, 0, 3]}],
            ris={"position_m": [3, 2, 1.5], "element_count": 1},
            eve={"position_m": [4, 6, 1.5]},
        )
        for metric in ("gain_db", "tx_power_dbm", "se_bps_hz", "peb_m", "sse_bps_hz"):
            without, with_ = sweep(scene, metric)
            assert math.isnan(without[7]) and math.isnan(with_[7]), metric


def walled_street():
    doc = json.loads((SCENES / "street_coexistence.json").read_text())
    doc["ue_grid"]["resolution_m"] = 2
    doc["walls"] = [{"p1_m": [8, 5], "p2_m": [12, 12], "penetration_loss_db": 12}]
    return parse_scene(json.dumps(doc))


def walled_courtyard():
    doc = json.loads((SCENES / "courtyard_secrecy.json").read_text())
    doc["ue_grid"]["resolution_m"] = 4
    doc["walls"] = [{"p1_m": [5, 20], "p2_m": [5, 80], "penetration_loss_db": 20},
                    {"p1_m": [12, 35], "p2_m": [18, 45], "penetration_loss_db": 7}]
    return parse_scene(json.dumps(doc))


def dim_office():
    """The office at -30 dBm: its spectral efficiency stays under the cap, so
    the ``se_bps_hz`` map varies from cell to cell."""
    doc = json.loads((SCENES / "office_energy.json").read_text())
    doc["link_budget"]["max_tx_power_dbm"] = -30.0
    return parse_scene(json.dumps(doc))


INVARIANCE_SCENES = {
    "office_energy": lambda: load_scene(SCENES / "office_energy.json"),
    "dim_office": dim_office,
    "street_coexistence": lambda: load_scene(SCENES / "street_coexistence.json"),
    "walled_street": walled_street,
    "courtyard_secrecy": lambda: load_scene(SCENES / "courtyard_secrecy.json"),
    "walled_courtyard": walled_courtyard,
}
GAIN_SCENES = ("office_energy", "street_coexistence", "walled_street")
# the secrecy map needs an eavesdropper, which only the courtyards place
SECRECY_SCENES = ("courtyard_secrecy", "walled_courtyard")
# (metric, scene, cells per block): each engine at blocks 1 and 7 on its
# scenes; tx_power and se transform the gain block per value, so one
# scene at block 7 each shows the transform applies per block
INVARIANCE_CASES = [
    *((metric, name, block) for metric in ("gain_db", "peb_m") for name in GAIN_SCENES
      for block in (1, 7)),
    *(("sse_bps_hz", name, block) for name in SECRECY_SCENES for block in (1, 7)),
    ("tx_power_dbm", "office_energy", 7),
    ("se_bps_hz", "dim_office", 7),
]


# cells per block of gain_db, peb_m and sse_bps_hz on each bundled scene;
# a block's size, not its values, sets a map's peak memory
BUNDLED_BLOCK_SIZES = {
    "courtyard_secrecy": (4096, 221, 2048),
    "indoor_localization": (64, 12),
    "minimal": (262144, 461),
    "office_energy": (256, 79),
    "street_coexistence": (64, 42),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_BLOCK_SIZES))
def test_bundled_block_sizes(name):
    scene = load_scene(SCENES / f"{name}.json")
    metrics = ("gain_db", "peb_m", "sse_bps_hz")[:len(BUNDLED_BLOCK_SIZES[name])]
    assert tuple(block_size(scene, m) for m in metrics) == BUNDLED_BLOCK_SIZES[name]


class TestBatchedSweepInvariance:
    """Grid-batched maps do not depend on the cell block size."""

    @pytest.fixture(scope="class")
    def reference(self):
        """(scene, sweep at the default budget) per (scene name, metric), built once."""
        cache = {}

        def get(name, metric):
            if (name, metric) not in cache:
                scene = INVARIANCE_SCENES[name]()
                cache[name, metric] = scene, sweep(scene, metric)
            return cache[name, metric]
        return get

    @pytest.mark.parametrize("metric, name, block", INVARIANCE_CASES)
    def test_block_size(self, reference, metric, name, block, monkeypatch):
        scene, expected = reference(name, metric)
        # equal maps show something only where the reference is finite and
        # the surface improves it somewhere; only PEB reads NaN on some cells
        finite = np.isfinite(expected[1])
        assert finite.all() if metric != "peb_m" else finite.mean() > 0.9
        better = np.greater if influence.METRICS[metric].higher_better else np.less
        assert np.any(better(expected[1], expected[0]) | (finite & np.isnan(expected[0])))
        assert block_size(scene, metric) > block
        cell_bytes, _ = influence.METRICS[metric].engine(scene)
        monkeypatch.setattr(influence, "_BLOCK_BYTES", cell_bytes * block)
        assert block_size(scene, metric) == block
        np.testing.assert_array_equal(sweep(scene, metric), expected)


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
    def test_identical_readings_all_unchanged(self):
        labels, _ = classify("gain_db", pairs_of([3.0, 4.0, 5.0], [3.0, 4.0, 5.0]), Thresholds())
        assert set(names(labels)) == {"unchanged"}
        assert not np.any(desired(labels) | undesired(labels))

    def test_power_reduction_boosted_at_explicit_threshold(self):
        th = Thresholds(per_metric=(("tx_power_dbm", (3.0, 2.0)),))
        labels, delta = classify("tx_power_dbm", pairs_of([20.0], [14.0]), th)
        assert names(labels) == ("boosted",)
        assert delta[0] == pytest.approx(6.0)

    def test_power_change_floor_default(self):
        # any reduction past the floor counts; a hair under it does not
        labels, _ = classify("tx_power_dbm", pairs_of([20.0, 20.0], [19.8, 19.95]), Thresholds())
        assert names(labels) == ("boosted", "unchanged")

    def test_outage_to_coverage_enabled(self):
        labels, _ = classify("tx_power_dbm", pairs_of([math.nan], [10.0]), Thresholds())
        assert names(labels) == ("enabled",)

    def test_coverage_to_outage_degraded(self):
        labels, _ = classify("gain_db", pairs_of([10.0], [math.nan]), Thresholds())
        assert names(labels) == ("degraded",)

    def test_outage_both_infeasible(self):
        labels, _ = classify("gain_db", pairs_of([math.nan], [math.nan]), Thresholds())
        assert names(labels) == ("infeasible_both",)
        assert not np.any(desired(labels) | undesired(labels))

    def test_higher_better_bands(self):
        pairs = pairs_of([0.0] * 7, [3.0, 2.5, 2.0, 1.9, -1.9, -2.0, -5.0])
        labels, _ = classify("gain_db", pairs, Thresholds())
        assert names(labels) == ("boosted", "marginal", "marginal", "unchanged",
                                 "unchanged", "degraded", "degraded")

    def test_lower_better_band_edges_inclusive(self):
        # a power drop of exactly the boost or unchanged threshold lands in
        # the higher band; a rise of exactly the unchanged threshold degrades
        th = Thresholds(per_metric=(("tx_power_dbm", (3.0, 2.0)),))
        pairs = pairs_of([20.0] * 5, [17.0, 18.0, 18.5, 21.5, 22.0])
        labels, delta = classify("tx_power_dbm", pairs, th)
        assert names(labels) == ("boosted", "marginal", "unchanged", "unchanged",
                                 "degraded")
        assert delta.tolist() == [3.0, 2.0, 1.5, -1.5, -2.0]

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
        pairs = np.array(data.draw(st.lists(st.tuples(reading, reading), min_size=1,
                                            max_size=20))).T
        hi = lo + step
        loose, _ = classify(metric_id, pairs, Thresholds(per_metric=((metric_id, (lo + 1.0, lo)),)))
        strict, _ = classify(metric_id, pairs,
                             Thresholds(per_metric=((metric_id, (hi + 1.0, hi)),)))
        aoi = [cells(desired(labels) | undesired(labels)) for labels in (loose, strict)]
        assert aoi[1] <= aoi[0]
        boosted = [cells(labels == LABELS.index("boosted")) for labels in (loose, strict)]
        assert boosted[1] <= boosted[0]

    def test_peb_compared_in_db(self):
        labels, delta = classify("peb_m", pairs_of([0.1, 0.1], [0.05, 0.09]), Thresholds())
        assert names(labels) == ("boosted", "unchanged")
        assert delta[0] == pytest.approx(20 * math.log10(2), rel=1e-12)

    def test_peb_feasibility_gates(self):
        pairs = pairs_of([0.2, 0.2, 0.1, 0.05], [0.05, 0.2, 0.2, 0.0])
        labels, _ = classify("peb_m", pairs, Thresholds())
        assert names(labels) == ("enabled", "infeasible_both", "degraded", "boosted")

    def test_qos_floor_enables(self):
        th = Thresholds(qos_min=(("sse_bps_hz", 26.0),))
        labels, _ = classify("sse_bps_hz", pairs_of([20.0, 27.0], [30.0, 30.0]), th)
        assert names(labels) == ("enabled", "boosted")

    def test_desired_undesired_split(self):
        pairs = pairs_of([0.0, 0.0, 0.0, math.nan, 5.0], [5.0, 2.5, -5.0, 1.0, math.nan])
        labels, _ = classify("gain_db", pairs, Thresholds())
        assert names(labels) == ("boosted", "marginal", "degraded", "enabled",
                                 "degraded")
        assert cells(desired(labels)) == frozenset({0, 3})
        assert cells(undesired(labels)) == frozenset({1, 2, 4})

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
        labels, _ = classify("gain_db", np.array(pairs).T, Thresholds())
        assert all(0 <= code < len(LABELS) for code in labels)
        assert len(labels) == len(pairs)
        assert not np.any(desired(labels) & undesired(labels))
        uninfluenced = ~(desired(labels) | undesired(labels))
        assert set(np.asarray(LABELS)[labels[uninfluenced]]) <= {
            "unchanged", "infeasible_both"}


class TestPowerMap:
    def test_boosted_where_required_power_falls(self):
        # lower-better: a power drop past the boost threshold is a boost
        pairs = pairs_of([20.0, 20.0, math.nan, 14.0], [14.0, 19.99, 10.0, 20.0])
        labels, _ = classify("tx_power_dbm", pairs, Thresholds())
        assert names(labels) == ("boosted", "unchanged", "enabled", "degraded")
        assert cells(desired(labels)) == frozenset({0, 2})


def load_field_csv(path):
    """Rows of an exported field CSV as an (n, 3) array of x, y, value."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestCsvExport:
    def test_single_cell(self, tmp_path):
        grid = Grid(x_min=2, x_max=2, y_min=3, y_max=3, resolution_m=1.0)
        path = tmp_path / "one.csv"
        export_csv(grid, path, np.array([5.0]))
        assert path.read_text() == "x_m,y_m,value\n2.0,3.0,5.0\n"

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = Grid(x_min=0, x_max=3, y_min=0, y_max=3, resolution_m=1.0)
        vals = list(rng.standard_normal(10) * 1e3)
        vals = np.array(vals + [math.nan, math.inf, -math.inf, -0.0, 1.5, 5e-324])
        path = tmp_path / "field.csv"
        export_csv(grid, path, vals)
        back = load_field_csv(path)
        np.testing.assert_array_equal(bits(back[:, :2]), bits(grid.points()[:, :2]))
        np.testing.assert_array_equal(bits(back[:, 2]), bits(vals))

    def test_fractional_resolution_round_trip(self, tmp_path):
        grid = Grid(x_min=3.0, x_max=5.0, y_min=-2.0, y_max=-1.0,
                    resolution_m=0.25, fixed_height_m=1.5)
        vals = np.arange(grid.cell_count) / 7
        path = tmp_path / "frac.csv"
        export_csv(grid, path, vals)
        back = load_field_csv(path)
        np.testing.assert_array_equal(bits(back[:, :2]), bits(grid.points()[:, :2]))
        np.testing.assert_array_equal(bits(back[:, 2]), bits(vals))

    def test_reruns_byte_identical(self, tmp_path):
        values = np.array([1.0, math.nan, -2.5])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export_csv(line_grid(3), a, values)
        export_csv(line_grid(3), b, values)
        assert a.read_bytes() == b.read_bytes()


class TestPpmExport:
    def test_colormap_stops(self):
        assert colormap_rgb(0.0).tolist() == [0, 0, 255]
        assert colormap_rgb(0.5).tolist() == [0, 255, 0]
        assert colormap_rgb(1.0).tolist() == [255, 0, 0]
        assert colormap_rgb(0.25).tolist() == [0, 128, 128]
        assert colormap_rgb([[0.0, 1.0]]).tolist() == [[[0, 0, 255], [255, 0, 0]]]

    def test_field_maps_to_stops(self, tmp_path):
        path = tmp_path / "f.ppm"
        export_ppm(line_grid(4), path, np.array([0.0, 5.0, 10.0, math.nan]))
        lines = path.read_text().splitlines()
        assert lines[0] == "P3"
        assert lines[1] == "4 1"
        pixels = " ".join(lines[3:]).split()
        assert pixels[0:3] == ["0", "0", "255"]
        assert pixels[3:6] == ["0", "255", "0"]
        assert pixels[6:9] == ["255", "0", "0"]
        assert pixels[9:12] == ["0", "0", "0"]

    def test_flat_field_green_with_note(self, tmp_path, capsys):
        path = tmp_path / "flat.ppm"
        export_ppm(line_grid(2), path, np.array([2.0, 2.0]))
        assert capsys.readouterr().err == (
            f"note: {path}: flat value range, rendering mid-scale\n")
        pixels = " ".join(path.read_text().splitlines()[3:]).split()
        assert pixels == ["0", "255", "0"] * 2

    def test_top_row_is_north(self, tmp_path):
        grid = Grid(x_min=0, x_max=1, y_min=0, y_max=1, resolution_m=1.0)
        # south row at the bottom of the range, north row at the top
        path = tmp_path / "rows.ppm"
        export_ppm(grid, path, np.array([0.0, 0.0, 1.0, 1.0]))
        lines = path.read_text().splitlines()
        assert lines[3] == "255 0 0 255 0 0"
        assert lines[4] == "0 0 255 0 0 255"

    def test_lines_stay_narrow(self, tmp_path):
        grid = Grid(x_min=0, x_max=39, y_min=0, y_max=0, resolution_m=1.0)
        path = tmp_path / "wide.ppm"
        export_ppm(grid, path, np.arange(40.0))
        lines = path.read_text().splitlines()
        assert len(lines) > 4
        assert max(len(line) for line in lines) <= 70


class TestLabelExport:
    def make_labels(self):
        pairs = pairs_of([0.0, 0.0, math.nan, math.nan, 0.0, 0.0],
                         [5.0, 2.5, 1.0, math.nan, -5.0, 0.0])
        return classify("gain_db", pairs, Thresholds())[0]

    def test_labels_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        export_labels_csv(line_grid(6), path, self.make_labels())
        lines = path.read_text().splitlines()
        assert lines[0] == "x_m,y_m,label"
        assert lines[1] == "0.0,0.0,boosted"
        assert lines[4] == "3.0,0.0,infeasible_both"

    def test_labels_ppm_palette(self, tmp_path):
        path = tmp_path / "labels.ppm"
        export_labels_ppm(line_grid(6), path, self.make_labels())
        pixels = " ".join(path.read_text().splitlines()[3:]).split()
        expected = []
        for lab in ("boosted", "marginal", "enabled", "infeasible_both",
                    "degraded", "unchanged"):
            expected.extend(str(c) for c in LABEL_COLORS[lab])
        assert pixels == expected

    def test_every_label_has_a_colour(self):
        assert set(LABEL_COLORS) == set(LABELS)


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


def write_maps(directory, writers, grid, without, with_, delta, labels):
    """Every file of one aoi run: {name: bytes} and the notes printed."""
    export_values, export_image, export_labels, export_label_image = writers
    notes = io.StringIO()
    with contextlib.redirect_stderr(notes):
        for kind, values in (("without", without), ("with", with_), ("delta", delta)):
            export_values(grid, f"{directory}/{kind}.csv", values)
            export_image(grid, f"{directory}/{kind}.ppm", values)
        export_labels(grid, f"{directory}/labels.csv", labels)
        export_label_image(grid, f"{directory}/labels.ppm", labels)
    files = {path.name: path.read_bytes() for path in pathlib.Path(directory).iterdir()}
    assert len(files) == 8
    return files, notes.getvalue()


class TestMatchesOracle:
    """classify and the writers against the per-cell oracle, bit for bit and byte for byte."""

    @given(oracle_cases())
    @settings(max_examples=150, deadline=None)
    def test_labels_delta_and_files(self, case):
        metric_id, thresholds, grid, a, b = case
        pairs = pairs_of(a, b)
        labels, delta = classify(metric_id, pairs, thresholds)
        want_labels, want_delta = oracle.classify(metric_id, a, b, thresholds)
        assert names(labels) == want_labels
        assert bits(delta).tolist() == bits(want_delta).tolist()

        with tempfile.TemporaryDirectory() as directory:
            new = write_maps(
                directory,
                (export_csv, export_ppm, export_labels_csv, export_labels_ppm),
                grid, *pairs, delta, labels,
            )
            old = write_maps(
                directory,
                tuple(lambda grid, path, values, write=write: write(grid, values, path)
                      for write in (oracle.export_csv, oracle.export_ppm,
                                    oracle.export_labels_csv, oracle.export_labels_ppm)),
                grid, a, b, want_delta, want_labels,
            )
        assert new == old

    def test_overflowing_value_range_fails_as_before(self, tmp_path):
        # the span of these values exceeds the largest float64
        values = (-1e308, 1e308, 0.0)
        with pytest.raises(ValueError):
            oracle.export_ppm(line_grid(3), values, tmp_path / "old.ppm")
        with pytest.raises(ValueError, match="overflows"):
            export_ppm(line_grid(3), tmp_path / "new.ppm", np.array(values))
