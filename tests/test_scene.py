"""Scene parsing, validation paths and grid indexing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from risplan.errors import SceneError
from risplan.scene import (
    DEFAULT_PHASE_LOOKUP,
    Grid,
    Scene,
    load_scene,
    parse_scene,
)

MINIMAL = {
    "spec_version": 1,
    "carrier_hz": 3.5e9,
    "bs": [{"position_m": [0, 0, 3]}],
    "ue_grid": {"x_min": 0, "x_max": 9, "y_min": 0, "y_max": 9, "resolution_m": 1},
}


def make(overrides=None, **kwargs):
    doc = json.loads(json.dumps(MINIMAL))
    if overrides:
        doc.update(overrides)
    doc.update(kwargs)
    return json.dumps(doc)


class TestParsing:
    def test_minimal_scene_defaults(self):
        scene = parse_scene(make())
        assert scene.carrier_hz == 3.5e9
        assert scene.subcarrier_count == 1
        assert scene.subcarrier_spacing_hz == 240e3
        assert scene.seed == 1
        assert scene.ris is None
        assert scene.eve is None
        assert scene.walls == ()
        assert scene.bs[0].position_m == (0.0, 0.0, 3.0)
        assert scene.bs[0].antenna_count == 1
        assert scene.link_budget.target_snr_db == 5.0
        assert scene.link_budget.se_max_bps_hz == 7.4
        assert scene.localization.pilot_count == 40
        assert scene.thresholds.boost_db == 3.0
        assert scene.thresholds.peb_feasible_m == 0.1

    def test_2d_positions_get_zero_height(self):
        scene = parse_scene(make(bs=[{"position_m": [1.5, 2.5]}]))
        assert scene.bs[0].position_m == (1.5, 2.5, 0.0)

    def test_ris_block(self):
        scene = parse_scene(
            make(
                ris={
                    "position_m": [4, 0, 2],
                    "element_count": 64,
                    "element_efficiency": 0.8,
                }
            )
        )
        assert scene.ris.element_count == 64
        assert scene.ris.phase_lookup_rad == DEFAULT_PHASE_LOOKUP
        assert scene.ris.element_spacing_m is None
        assert scene.ris.codebook_directions == 16
        # default spacing resolves to half a wavelength
        lam = 299_792_458.0 / 3.5e9
        assert scene.ris_spacing_m() == pytest.approx(lam / 2)

    def test_null_ris_means_absent(self):
        scene = parse_scene(make(ris=None))
        assert scene.ris is None

    def test_walls_and_eve(self):
        scene = parse_scene(
            make(
                walls=[{"p1_m": [0, 5], "p2_m": [10, 5], "penetration_loss_db": 10}],
                eve={"position_m": [8, 8, 1]},
            )
        )
        assert len(scene.walls) == 1
        assert scene.walls[0].penetration_loss_db == 10.0
        assert scene.eve.antenna_count == 1

    def test_noise_power_closed_form(self):
        # -174 dBm/Hz over 1 MHz with a 9 dB figure: -174 + 60 + 9 = -105 dBm
        scene = parse_scene(
            make(subcarrier_count=4, subcarrier_spacing_hz=250e3, noise_figure_db=9)
        )
        assert scene.noise_power_dbm == pytest.approx(-105.0)

    def test_nearest_bs_to_ris(self):
        scene = parse_scene(
            make(
                bs=[{"position_m": [0, 0]}, {"position_m": [3, 0]}],
                ris={"position_m": [4, 0], "element_count": 8},
            )
        )
        assert scene.nearest_bs_to_ris() == 1

    def test_thresholds_overrides(self):
        scene = parse_scene(
            make(
                thresholds={
                    "boost_db": 4.0,
                    "qos_min": {"se_bps_hz": 2.0},
                    "per_metric": {"sse_bps_hz": {"boost_db": 1.0, "unchanged_db": 0.5}},
                }
            )
        )
        assert scene.thresholds.for_metric("gain_db") == (4.0, 2.0)
        assert scene.thresholds.for_metric("sse_bps_hz") == (1.0, 0.5)
        assert scene.thresholds.qos_for("se_bps_hz") == 2.0
        assert scene.thresholds.qos_for("gain_db") is None


class TestValidation:
    @pytest.mark.parametrize(
        "doc, fragment",
        [
            (make(extra_key=1), "extra_key: unknown key"),
            (make(spec_version=2), "spec_version: unsupported"),
            (make({"carrier_hz": -1}), "carrier_hz: must be > 0"),
            (make(bs=[]), "bs: expected a non-empty list"),
            (make(bs=[{"position_m": [0, 0], "antenna_count": 0}]), "bs[0].antenna_count: must be >= 1"),
            (make(bs=[{"position_m": [0]}]), "bs[0].position_m: expected [x, y]"),
            (make(bs=[{"position_m": [0, "a"]}]), "bs[0].position_m[1]: expected a number"),
            (make(ue_grid={"x_min": 0, "x_max": 9, "y_min": 0, "y_max": 9, "resolution_m": 0}),
             "ue_grid.resolution_m: must be > 0"),
            (make(ue_grid={"x_min": 5, "x_max": 1, "y_min": 0, "y_max": 9, "resolution_m": 1}),
             "ue_grid.x_max: must be >= x_min"),
            (make(ue_grid={"x_min": 0, "x_max": 9, "y_min": 0, "resolution_m": 1}),
             "ue_grid.y_max: missing required key"),
            (make(ris={"position_m": [0, 0]}), "ris.element_count: missing"),
            (make(ris={"position_m": [0, 0], "element_count": 4, "element_efficiency": 1.5}),
             "ris.element_efficiency: must lie in [0, 1]"),
            (make(ris={"position_m": [0, 0], "element_count": 4, "element_efficiency": -0.1}),
             "ris.element_efficiency: must lie in [0, 1]"),
            (make(ris={"position_m": [0, 0], "element_count": 4, "phase_lookup_rad": []}),
             "ris.phase_lookup_rad: expected a non-empty list"),
            (make(walls=[{"p1_m": [1, 1], "p2_m": [1, 1], "penetration_loss_db": 3}]),
             "walls[0]: wall endpoints coincide"),
            (make(walls=[{"p1_m": [0, 0], "p2_m": [1, 1], "penetration_loss_db": -2}]),
             "walls[0].penetration_loss_db: must be >= 0"),
            (make(thresholds={"qos_min": {"bogus": 1}}), "thresholds.qos_min.bogus: unknown metric"),
            (make(thresholds={"per_metric": {"gain_db": {"wrong": 1}}}),
             "thresholds.per_metric.gain_db.wrong: unknown key"),
            (make(localization={"pilot_count": 0}), "localization.pilot_count: must be > 0"),
            (make(localization={"pilot_count": 2.5}), "localization.pilot_count: expected an integer"),
            (make(seed="abc"), "seed: expected an integer"),
            (make({"carrier_hz": True}), "carrier_hz: expected a number"),
        ],
    )
    def test_rejects_with_key_path(self, doc, fragment):
        with pytest.raises(SceneError) as err:
            parse_scene(doc)
        assert fragment in str(err.value)

    def test_not_json(self):
        with pytest.raises(SceneError, match="not valid JSON"):
            parse_scene("{nope")

    def test_top_level_not_object(self):
        with pytest.raises(SceneError, match="must be a JSON object"):
            parse_scene("[1, 2]")

    def test_load_scene_missing_file(self, tmp_path):
        with pytest.raises(SceneError, match="cannot read"):
            load_scene(tmp_path / "absent.json")

    def test_load_scene_prefixes_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(make({"carrier_hz": -5}))
        with pytest.raises(SceneError, match="bad.json"):
            load_scene(bad)


class TestGrid:
    def test_cell_counts(self):
        grid = Grid(x_min=0, x_max=9, y_min=0, y_max=9, resolution_m=1)
        assert (grid.nx, grid.ny, grid.cell_count) == (10, 10, 100)
        fine = Grid(x_min=0, x_max=5, y_min=0, y_max=5, resolution_m=0.25)
        assert fine.cell_count == 441
        strip = Grid(x_min=0, x_max=4, y_min=0, y_max=2, resolution_m=1)
        assert (strip.nx, strip.ny) == (5, 3)

    def test_non_multiple_extent_floors(self):
        grid = Grid(x_min=0, x_max=9.7, y_min=0, y_max=3.2, resolution_m=1)
        assert (grid.nx, grid.ny) == (10, 4)

    def test_float_resolution_is_robust(self):
        # 0.1 is inexact in binary; the epsilon guard must not drop the last cell
        grid = Grid(x_min=0, x_max=1, y_min=0, y_max=1, resolution_m=0.1)
        assert (grid.nx, grid.ny) == (11, 11)

    def test_row_major_order(self):
        grid = Grid(x_min=0, x_max=2, y_min=10, y_max=11, resolution_m=1)
        pts = grid.points()
        assert pts.shape == (6, 3)
        assert pts[0, :2].tolist() == [0, 10]
        assert pts[1, :2].tolist() == [1, 10]
        assert pts[3, :2].tolist() == [0, 11]
        np.testing.assert_allclose(pts[4], [1, 11, 0])

    def test_points_height(self):
        grid = Grid(x_min=0, x_max=1, y_min=0, y_max=1, resolution_m=1, fixed_height_m=1.5)
        assert set(grid.points()[:, 2]) == {1.5}

    @given(
        nx=st.integers(1, 40),
        ny=st.integers(1, 40),
        res=st.floats(0.05, 3.0, allow_nan=False),
    )
    def test_index_bijection(self, nx, ny, res):
        grid = Grid(
            x_min=0.0, x_max=(nx - 1) * res, y_min=0.0, y_max=(ny - 1) * res, resolution_m=res
        )
        assert (grid.nx, grid.ny) == (nx, ny)
        pts = grid.points()
        for idx in range(0, grid.cell_count, max(1, grid.cell_count // 7)):
            x, y = pts[idx, :2]
            ix = round((x - grid.x_min) / res)
            iy = round((y - grid.y_min) / res)
            assert 0 <= ix < grid.nx and 0 <= iy < grid.ny
            assert iy * grid.nx + ix == idx


def test_scene_equality_and_hash():
    a = parse_scene(make())
    b = parse_scene(make())
    assert a == b
    assert hash(a.grid) == hash(b.grid)


def test_wavelength_helper():
    scene = parse_scene(make({"carrier_hz": 299_792_458.0}))
    assert scene.wavelength_m == pytest.approx(1.0)


def test_bs_default_spacing_is_half_wavelength():
    scene = parse_scene(make({"carrier_hz": 6e9}))
    assert scene.bs_spacing_m(scene.bs[0]) == pytest.approx(299_792_458.0 / 6e9 / 2)


def test_scene_is_frozen():
    scene = parse_scene(make())
    with pytest.raises(Exception):
        scene.carrier_hz = 1.0
