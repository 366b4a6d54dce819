"""Position error bounds: Jacobians vs finite differences, the projection EFIM
against the Schur-subtraction oracle, labels."""

import json
import math
import pathlib

import numpy as np
import pytest

from helpers import traced_peak
from peb_oracle import (
    _direct_block,
    build_fim,
    equivalent_position_fim,
    ml_position_rmse,
    observation_model,
    peb_point,
    pilot_configs,
)
from risplan import localization
from risplan.errors import CoincidentNodeError
from risplan.localization import (
    PebResult,
    _path_information,
    noise_variance_w,
    peb,
    peb_pair,
    peb_pairs,
)
from risplan.influence import LABELS, classify
from risplan.scene import Thresholds, load_scene, parse_scene
from risplan.seeding import derived_rng

SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"

LOC = {
    "spec_version": 1,
    "carrier_hz": 28e9,
    "bs": [
        {"position_m": [0.5, 1]},
        {"position_m": [4.8, 4.8]},
        {"position_m": [1, 4.8]},
    ],
    "ue_grid": {"x_min": 0, "x_max": 5, "y_min": 0, "y_max": 5, "resolution_m": 0.25},
    "ris": {"position_m": [4, 0], "element_count": 16},
    "subcarrier_count": 32,
    "subcarrier_spacing_hz": 240e3,
    "localization": {"pilot_count": 8, "tx_power_dbm": 30},
}


def loc_scene(**kwargs):
    doc = json.loads(json.dumps(LOC))
    doc.update(kwargs)
    return parse_scene(json.dumps(doc))


def stacked_jacobian(blocks):
    return np.concatenate([blk.d_pos for blk in blocks], axis=0)


def stacked_mu(blocks):
    return np.concatenate([blk.mu for blk in blocks])


class TestObservationModel:
    def test_reflected_block_only_for_nearest(self):
        scene = loc_scene()
        configs = pilot_configs(scene, 0)
        assert len(observation_model(scene, 0, [2, 2, 0], configs)) == 2
        assert len(observation_model(scene, 1, [2, 2, 0], configs)) == 1
        assert len(observation_model(scene, 2, [2, 2, 0], configs)) == 1

    def test_no_configs_no_reflection(self):
        scene = loc_scene()
        assert len(observation_model(scene, 0, [2, 2, 0], None)) == 1

    def test_direct_row_count_and_weight(self):
        scene = loc_scene()
        (blk,) = observation_model(scene, 1, [2, 2, 0], None)
        assert blk.mu.shape == (32,)
        assert blk.weight == 8.0
        assert blk.gain_slot == 1

    def test_reflected_rows_cover_pilots(self):
        scene = loc_scene()
        configs = pilot_configs(scene, 0)
        _, refl = observation_model(scene, 0, [2, 2, 0], configs)
        assert refl.mu.shape == (8 * 32,)
        assert refl.weight == 1.0
        assert refl.gain_slot == 3

    def test_on_axis_point_has_zero_y_derivative(self):
        scene = loc_scene()
        (blk,) = observation_model(scene, 1, [2.0, 4.8, 0], None)
        assert np.all(blk.d_pos[:, 1] == 0)
        assert np.any(blk.d_pos[:, 0] != 0)

    def test_zero_gain_path_zero_rows(self):
        scene = loc_scene(
            ris={"position_m": [4, 0], "element_count": 16, "element_efficiency": 0.0}
        )
        configs = pilot_configs(scene, 0)
        _, refl = observation_model(scene, 0, [2, 2, 0], configs)
        assert np.all(refl.mu == 0)
        assert np.all(refl.d_pos == 0)
        assert np.all(refl.basis == 0)

    def test_basis_matches_gain_linearity(self):
        # mu is linear in the path gain, so basis * true gain == mu for the
        # reflected path whose true gain is 1 by construction
        scene = loc_scene()
        configs = pilot_configs(scene, 0)
        _, refl = observation_model(scene, 0, [2.3, 1.7, 0], configs)
        np.testing.assert_array_equal(refl.mu, refl.basis)

    @pytest.mark.parametrize("bs_index", [0, 1, 2])
    def test_jacobian_matches_finite_differences(self, bs_index):
        # the model's position dependence lives in the basis functions;
        # each path's complex gain is a nuisance held at its linearization
        # value, so the difference quotient runs over gain * basis
        scene = loc_scene()
        configs = pilot_configs(scene, 0)
        rng = np.random.default_rng(3 + bs_index)
        h = 1e-6
        for _ in range(4):
            p = [rng.uniform(0.5, 4.5), rng.uniform(0.5, 4.5), 0.0]
            blocks = observation_model(scene, bs_index, p, configs)
            gains = [blk.mu[0] / blk.basis[0] for blk in blocks]
            analytic = stacked_jacobian(blocks)
            fd = np.empty_like(analytic)
            for axis in range(2):
                lo, hi = list(p), list(p)
                lo[axis] -= h
                hi[axis] += h
                blocks_hi = observation_model(scene, bs_index, hi, configs)
                blocks_lo = observation_model(scene, bs_index, lo, configs)
                fd[:, axis] = np.concatenate(
                    [
                        g * (bh.basis - bl.basis) / (2 * h)
                        for g, bh, bl in zip(gains, blocks_hi, blocks_lo)
                    ]
                )
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
            assert rel < 1e-5


class TestDirectBlockWalls:
    # a wall across the segment from station 0 at (0.5, 1) to the point (3, 1)
    WALL = {"p1_m": [2, 0], "p2_m": [2, 2], "penetration_loss_db": 11.0}
    POINT = [3.0, 1.0, 0.0]

    def test_wall_scales_rows_by_its_loss(self):
        plain = _direct_block(loc_scene(), 0, self.POINT)
        walled = _direct_block(loc_scene(walls=[self.WALL]), 0, self.POINT)
        np.testing.assert_allclose(walled.mu, plain.mu * 10.0 ** (-11.0 / 20.0),
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(walled.d_pos, plain.d_pos * 10.0 ** (-11.0 / 20.0),
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(walled.basis, plain.basis)

    def test_wall_off_the_path_changes_nothing(self):
        plain = _direct_block(loc_scene(), 1, self.POINT)
        walled = _direct_block(loc_scene(walls=[self.WALL]), 1, self.POINT)
        np.testing.assert_array_equal(walled.mu, plain.mu)

    def test_point_on_station_raises(self):
        with pytest.raises(CoincidentNodeError):
            _direct_block(loc_scene(), 0, [0.5, 1.0, 0.0])


class TestPilotConfigs:
    def test_shape_and_range(self):
        scene = loc_scene()
        configs = pilot_configs(scene, 5)
        assert configs.shape == (8, 16)
        assert configs.min() >= 0
        assert configs.max() < 4

    def test_deterministic_and_point_dependent(self):
        scene = loc_scene()
        a = pilot_configs(scene, 2)
        b = pilot_configs(scene, 2)
        c = pilot_configs(scene, 3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_per_pilot_streams(self):
        # pilot k's row must not depend on how many pilots come after it
        scene = loc_scene()
        configs = pilot_configs(scene, 0)
        row = derived_rng(scene.seed, "loc-pilot", 0, 3).integers(0, 4, size=16)
        np.testing.assert_array_equal(configs[3], row)


class TestBuildFim:
    def test_shape_symmetry_psd(self):
        scene = loc_scene()
        f_wo = build_fim(scene, [2, 2, 0], with_ris=False)
        f_wi = build_fim(scene, [2, 2, 0], with_ris=True)
        assert f_wo.shape == (8, 8)
        assert f_wi.shape == (10, 10)
        for f in (f_wo, f_wi):
            np.testing.assert_allclose(f, f.T, rtol=0, atol=1e-9 * np.max(np.abs(f)))
            assert np.linalg.eigvalsh(f)[0] >= -1e-9 * np.max(np.abs(f))

    def test_pilot_doubling_doubles_information(self):
        base = loc_scene(localization={"pilot_count": 8, "tx_power_dbm": 30})
        double = loc_scene(localization={"pilot_count": 16, "tx_power_dbm": 30})
        f1 = build_fim(base, [2, 2, 0], with_ris=False)
        f2 = build_fim(double, [2, 2, 0], with_ris=False)
        np.testing.assert_allclose(f2, 2 * f1, rtol=1e-12)

    def test_peb_pilot_scaling_without_ris(self):
        pebs = {}
        for k in (8, 32):
            scene = loc_scene(localization={"pilot_count": k, "tx_power_dbm": 30})
            pebs[k] = peb_point(scene, [2, 2, 0], with_ris=False).peb_m
        assert pebs[32] == pytest.approx(pebs[8] / 2, rel=1e-9)

    def test_reflected_information_additive_over_repeated_pilots(self):
        # tiling the same configs four times must exactly quadruple the
        # reflected path's information term
        scene = loc_scene()
        configs = pilot_configs(scene, 0)
        point = [2.6, 1.4, 0]

        def refl_fim(cfg):
            _, blk = observation_model(scene, 0, point, cfg)
            jac = np.column_stack([blk.d_pos, blk.basis, 1j * blk.basis])
            return np.real(jac.conj().T @ jac)

        np.testing.assert_allclose(
            refl_fim(np.tile(configs, (4, 1))), 4 * refl_fim(configs), rtol=1e-12
        )

    def test_with_minus_without_is_psd(self):
        scene = loc_scene()
        for point in ([1, 1, 0], [3.2, 2.8, 0], [4.4, 0.6, 0]):
            f_wo = build_fim(scene, point, with_ris=False)
            f_wi = build_fim(scene, point, with_ris=True)
            padded = np.zeros_like(f_wi)
            padded[:8, :8] = f_wo
            diff = f_wi - padded
            assert np.linalg.eigvalsh(diff)[0] >= -1e-9 * np.max(np.abs(diff))

    def test_single_bs_range_only_is_singular(self):
        scene = loc_scene(bs=[{"position_m": [0.5, 1]}])
        result = peb_point(scene, [2, 2, 0], with_ris=False)
        assert math.isinf(result.peb_m)

    def test_zero_energy_nuisance_drops_out(self):
        # a dark surface adds an unidentifiable gain but no information;
        # the bound must equal the direct-only one, not collapse to infinity
        dark = loc_scene(
            ris={"position_m": [4, 0], "element_count": 16, "element_efficiency": 0.0}
        )
        plain = loc_scene()
        with_dark = peb_point(dark, [2, 2, 0], with_ris=True).peb_m
        without = peb_point(plain, [2, 2, 0], with_ris=False).peb_m
        assert with_dark == pytest.approx(without, rel=1e-12)


class TestPeb:
    def test_identity(self):
        assert peb(np.eye(2)).peb_m == pytest.approx(math.sqrt(2))

    def test_diag_four(self):
        assert peb(np.diag([4.0, 4.0])).peb_m == pytest.approx(math.sqrt(0.5))

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            f = a.T @ a + 0.1 * np.eye(2)
            expected = math.sqrt(np.trace(np.linalg.inv(f)))
            assert peb(f).peb_m == pytest.approx(expected, rel=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            peb(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            peb(np.eye(3))

    def test_singular_is_infinite(self):
        result = peb(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert math.isinf(result.peb_m)

    def test_condition_overflow_is_infinite(self):
        result = peb(np.diag([1.0, 1e-13]))
        assert math.isinf(result.peb_m)
        assert result.fim_condition > 1e12

    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 2, 2))
        stack = a.swapaxes(-1, -2) @ a + 0.1 * np.eye(2)
        stack[2] = np.ones((2, 2))
        stack[4] = np.diag([1.0, 1e-13])
        result = peb(stack.reshape(2, 3, 2, 2))
        assert result.peb_m.shape == (2, 3)
        for i, f in enumerate(stack):
            one = peb(f)
            assert result.peb_m.reshape(-1)[i] == one.peb_m
            assert result.fim_condition.reshape(-1)[i] == one.fim_condition


class TestEquivalentPositionFim:
    def test_no_nuisance_passthrough(self):
        f = np.diag([2.0, 3.0])
        np.testing.assert_array_equal(equivalent_position_fim(f), f)

    def test_known_schur_complement(self):
        f = np.array(
            [
                [4.0, 0.0, 1.0],
                [0.0, 5.0, 2.0],
                [1.0, 2.0, 10.0],
            ]
        )
        expected = f[:2, :2] - np.outer(f[:2, 2], f[:2, 2]) / f[2, 2]
        np.testing.assert_allclose(equivalent_position_fim(f), expected, rtol=1e-12)

    def test_collinear_paths_flagged(self):
        # two nuisance columns proportional to each other: marginalization
        # is genuinely singular no matter the scaling
        f = np.zeros((4, 4))
        f[:2, :2] = np.eye(2)
        f[2:, 2:] = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert equivalent_position_fim(f) is None


def peb_label(peb_without, peb_with, thresholds=Thresholds()):
    """Label of one cell whose PEB moves from ``peb_without`` to ``peb_with``."""
    labels, _ = classify("peb_m", np.array([[peb_without], [peb_with]]), thresholds)
    return LABELS[labels[0]]


class TestClassifyPeb:
    def test_enabled(self):
        assert peb_label(0.5, 0.05) == "enabled"

    def test_unchanged_zero_db(self):
        assert peb_label(0.05, 0.05) == "unchanged"

    def test_boosted_six_db(self):
        assert peb_label(0.08, 0.04) == "boosted"

    def test_marginal_band(self):
        # 2.5 dB improvement sits in [unchanged, boost)
        assert peb_label(0.05, 0.05 / 10 ** (2.5 / 20)) == "marginal"

    def test_degraded(self):
        assert peb_label(0.04, 0.08) == "degraded"

    def test_feasibility_lost_is_degraded(self):
        # -0.17 dB, but the bound leaves the 0.1 m feasibility cap
        assert peb_label(0.099, 0.101) == "degraded"

    def test_infeasible_both(self):
        assert peb_label(0.5, 0.3) == "infeasible_both"
        assert peb_label(math.inf, math.inf) == "infeasible_both"
        assert peb_label(math.inf, 0.2) == "infeasible_both"

    def test_enabled_from_infinite(self):
        assert peb_label(math.inf, 0.09) == "enabled"

    def test_custom_thresholds(self):
        th = Thresholds(boost_db=10.0, unchanged_db=1.0, peb_feasible_m=1.0)
        assert peb_label(0.8, 0.4, th) == "marginal"  # 6.02 dB < 10
        assert peb_label(0.8, 0.02, th) == "boosted"


class TestPebPoint:
    def test_monotone_with_surface(self):
        scene = loc_scene()
        for point in ([1, 1, 0], [2.5, 2.5, 0], [4, 1, 0], [0.6, 4.2, 0]):
            without, with_ris = peb_pair(scene, point)
            assert with_ris <= without * (1 + 1e-9)

    def test_deterministic(self):
        scene = loc_scene()
        a = peb_pair(scene, [3, 3, 0])
        b = peb_pair(scene, [3, 3, 0])
        assert a == b

    def test_pair_matches_points(self):
        scene = loc_scene()
        without, with_ris = peb_pair(scene, [2, 3, 0])
        assert without == pytest.approx(
            peb_point(scene, [2, 3, 0], False).peb_m, rel=ORACLE_RTOL)
        assert with_ris == pytest.approx(
            peb_point(scene, [2, 3, 0], True).peb_m, rel=ORACLE_RTOL)

    def test_finite_on_three_bs_scene(self):
        scene = loc_scene()
        result = peb_point(scene, [2, 2, 0], with_ris=False)
        assert isinstance(result, PebResult)
        assert 0 < result.peb_m < math.inf


# The Schur-subtraction oracle loses digits to cancellation: on
# scenes/courtyard_secrecy.json its with-surface bound is 8.4e-6 off, in
# relative terms, from an extended-precision evaluation of the same model.
ORACLE_RTOL = 1e-5


class TestPebPairs:
    POINTS = ([1, 1, 0], [2.5, 2.5, 0], [4, 1, 0], [0.6, 4.2, 0], [3.3, 0.7, 0])

    @pytest.mark.parametrize("efficiency", [1.0, 0.7])
    def test_matches_schur_oracle(self, efficiency):
        scene = loc_scene(ris={**LOC["ris"], "element_efficiency": efficiency})
        pairs = peb_pairs(scene, self.POINTS)
        assert pairs.shape == (2, len(self.POINTS))
        for idx, (point, (wo, wi)) in enumerate(zip(self.POINTS, pairs.T)):
            assert wo == pytest.approx(peb_point(scene, point, False, idx).peb_m,
                                       rel=ORACLE_RTOL)
            assert wi == pytest.approx(peb_point(scene, point, True, idx).peb_m,
                                       rel=ORACLE_RTOL)

    @pytest.mark.parametrize("name", ["indoor_localization", "courtyard_secrecy",
                                      "office_energy", "street_coexistence"])
    def test_matches_schur_oracle_on_bundled_scenes(self, name):
        scene = load_scene(SCENES / f"{name}.json")
        cells = np.arange(0, scene.grid.cell_count, scene.grid.cell_count // 10)
        points = scene.grid.points()[cells]
        finite = 0
        for i, (point, pair) in enumerate(zip(points, peb_pairs(scene, points).T)):
            for value, with_ris in zip(pair, (False, True)):
                ref = peb_point(scene, point, with_ris, i).peb_m
                if math.isinf(ref):
                    assert math.isinf(value)
                else:
                    assert value == pytest.approx(ref, rel=ORACLE_RTOL)
                    finite += 1
        assert finite >= 10

    def test_block_size_does_not_change_a_bit(self, monkeypatch):
        scene = loc_scene()
        reference = peb_pairs(scene, self.POINTS)
        monkeypatch.setattr(localization, "_BLOCK_BYTES", 1)
        assert localization._cell_block(scene) == 1
        np.testing.assert_array_equal(peb_pairs(scene, self.POINTS), reference)
        # each point alone, after the points before it
        rows = [peb_pairs(scene, self.POINTS[:i + 1])[:, i] for i in range(len(self.POINTS))]
        np.testing.assert_array_equal(np.stack(rows, axis=1), reference)
        assert peb_pair(scene, self.POINTS[0]) == tuple(reference[:, 0].tolist())

    def test_point_on_a_node_is_nan_pair(self):
        scene = loc_scene(ris={"position_m": [4, 0], "element_count": 1})
        pairs = peb_pairs(scene, [[0.5, 1, 0], [4, 0, 0], [2, 2, 0]])
        assert np.all(np.isnan(pairs[:, :2]))
        assert np.all(np.isfinite(pairs[:, 2]))

    def test_station_on_surface_centre_hands_the_surface_path_on(self):
        # the nearest station's surface leg has no direction, so the next
        # nearest carries the surface path
        scene = loc_scene(bs=[{"position_m": [4, 0]}, {"position_m": [4.8, 4.8]},
                              {"position_m": [1, 4.8]}])
        pairs = peb_pairs(scene, self.POINTS)
        for idx, (point, (wo, wi)) in enumerate(zip(self.POINTS, pairs.T)):
            assert wo == pytest.approx(peb_point(scene, point, False, idx).peb_m,
                                       rel=ORACLE_RTOL)
            assert wi == pytest.approx(peb_point(scene, point, True, idx).peb_m,
                                       rel=ORACLE_RTOL)
            assert wi < wo

    def test_no_surface_leg_leaves_the_bound_without(self):
        # every station sits on the surface, one on its centre and two on its
        # end elements: no station has a path via the surface
        scene = loc_scene(bs=[{"position_m": [3, 0]}, {"position_m": [4, 0]},
                              {"position_m": [5, 0]}],
                          ris={"position_m": [4, 0], "element_count": 3,
                               "element_spacing_m": 1.0})
        without, with_ris = peb_pairs(scene, self.POINTS)
        assert np.all(np.isfinite(without))
        np.testing.assert_array_equal(with_ris, without)

    def test_dark_surface_adds_nothing(self):
        scene = loc_scene(
            ris={"position_m": [4, 0], "element_count": 16, "element_efficiency": 0.0}
        )
        without, with_ris = peb_pairs(scene, self.POINTS)
        assert np.array_equal(with_ris, without)

    def test_one_level_lookup_is_finite_and_never_worse(self):
        scene = loc_scene(ris={"position_m": [4, 0], "element_count": 16,
                               "phase_lookup_rad": [0.0]})
        points = scene.grid.points()
        pairs = peb_pairs(scene, points)
        on_station = np.all(points[:, :2] == [0.5, 1.0], axis=1)
        assert np.all(np.isnan(pairs[:, on_station])) and on_station.sum() == 1
        without, with_ris = pairs[:, ~on_station]
        assert np.all(np.isfinite(without)) and np.all(np.isfinite(with_ris))
        assert np.all(with_ris <= without * (1 + 1e-12))

    def test_path_information_is_symmetric_psd(self):
        rng = np.random.default_rng(8)
        d_pos = rng.normal(size=(5, 2, 40)) + 1j * rng.normal(size=(5, 2, 40))
        basis = rng.normal(size=(5, 40)) + 1j * rng.normal(size=(5, 40))
        info = _path_information(d_pos, basis)
        np.testing.assert_array_equal(info, info.swapaxes(-1, -2))
        assert np.all(np.linalg.eigvalsh(info)[:, 0] >= 0.0)
        # the Schur complement of the real (position, Re g, Im g) Gram matrix
        for k in range(5):
            jac = np.column_stack([d_pos[k].T, basis[k], 1j * basis[k]])
            full = np.real(jac.conj().T @ jac)
            schur = full[:2, :2] - full[:2, 2:] @ np.linalg.solve(full[2:, 2:], full[2:, :2])
            np.testing.assert_allclose(info[k], schur, rtol=1e-10)

    def test_gain_direction_carries_no_information(self):
        # position columns along the gain column are absorbed by the gain
        rng = np.random.default_rng(9)
        basis = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        d_pos = np.stack([(1 + 2j) * basis, -0.5j * basis], axis=1)
        info = _path_information(d_pos, basis)
        scale = np.sum(np.abs(d_pos) ** 2, axis=(1, 2))
        assert np.all(np.abs(info) <= 1e-14 * scale[:, None, None])
        dark = _path_information(d_pos, np.zeros_like(basis))
        np.testing.assert_array_equal(dark, np.zeros_like(dark))


class TestNoiseVariance:
    def test_closed_form(self):
        scene = loc_scene()
        expected_dbm = -174 + 10 * math.log10(240e3) + 9
        assert noise_variance_w(scene) == pytest.approx(10 ** ((expected_dbm - 30) / 10))


class TestMlSanity:
    def test_rmse_brackets_bound(self):
        scene = loc_scene(
            carrier_hz=3.5e9,
            subcarrier_count=64,
            localization={"pilot_count": 8, "tx_power_dbm": 0.0},
        )
        point = [2.2, 2.6, 0]
        bound = peb_point(scene, point, with_ris=False).peb_m
        rmse = ml_position_rmse(scene, point, draws=60, with_ris=False)
        assert 0.9 * bound <= rmse <= 3 * bound


def test_peb_engine_memory_stays_within_the_block_budget():
    # six blocks of the 28 GHz benchmark room's shape (64 elements, 40
    # pilots, 32 subcarriers); a block sized from the surface terms and
    # pilot rows alone held 13 cells and peaked at 1.77 budgets
    scene = loc_scene(
        ris={"position_m": [3, 0, 1.2], "element_count": 64},
        localization={"tx_power_dbm": 0.0},
        ue_grid={"x_min": 0.1, "x_max": 4.9, "y_min": 0.5, "y_max": 4.9,
                 "resolution_m": 0.8, "fixed_height_m": 1.0},
    )
    points = scene.grid.points()
    assert len(points) == 6 * localization._cell_block(scene)
    peb_pairs(scene, points[:2])  # lazy imports land here
    assert traced_peak(lambda: peb_pairs(scene, points)) <= 1.2 * localization._BLOCK_BYTES
