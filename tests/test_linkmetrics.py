"""Link metrics against closed-form budgets and an exhaustive-search oracle."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gain_oracle import RisConfig, equivalent_gain, gain_config, point_gain_terms
from helpers import block_size, traced_peak
from risplan import influence
from risplan.influence import gain_pair, se_pair, sweep, tx_power_pair
from risplan.linkmetrics import (
    required_tx_power,
    serving_bs,
    spectral_efficiency_from_gain,
)
from risplan.propagation import C_LIGHT_M_S, direct_channels, station_legs
from risplan.scene import LinkBudgetSpec, parse_scene

BASE = {
    "spec_version": 1,
    "carrier_hz": 3.5e9,
    "bs": [{"position_m": [0, 0]}],
    "ue_grid": {"x_min": 0, "x_max": 9, "y_min": 0, "y_max": 9, "resolution_m": 1},
    "ris": {"position_m": [4, 0], "element_count": 8},
}


def scene_with(**kwargs):
    doc = json.loads(json.dumps(BASE))
    doc.update(kwargs)
    return parse_scene(json.dumps(doc))


BUDGET = LinkBudgetSpec(
    target_snr_db=5.0,
    max_tx_power_dbm=23.0,
    min_tx_power_dbm=-40.0,
    se_max_bps_hz=7.4,
)
NOISE_DBM = -94.0


class TestEquivalentGain:
    def test_off_is_friis(self):
        scene = scene_with()
        d = math.hypot(3.0, 4.0)
        lam = C_LIGHT_M_S / 3.5e9
        expected = 20 * math.log10(lam / (4 * math.pi * d))
        assert equivalent_gain(scene, 0, [3, 4, 0], "off") == pytest.approx(expected)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            equivalent_gain(scene_with(), 0, [1, 1, 0], "on")

    def test_optimized_never_below_off(self):
        scene = scene_with(ris={"position_m": [4, 0], "element_count": 8})
        for point in ([1, 1, 0], [4, 1, 0], [8, 7, 0], [2.5, 6.5, 0]):
            off = equivalent_gain(scene, 0, point, "off")
            opt = equivalent_gain(scene, 0, point, "optimized")
            assert opt >= off - 1e-12

    def test_coincident_point_is_nan(self):
        assert math.isnan(equivalent_gain(scene_with(), 0, [0, 0, 0]))

    def test_dark_surface_modes_agree(self):
        scene = scene_with(ris={**BASE["ris"], "element_efficiency": 0.0})
        point = [5, 5, 0]
        assert equivalent_gain(scene, 0, point, "off") == equivalent_gain(
            scene, 0, point, "optimized"
        )

    def test_matches_exhaustive_search(self):
        # M = 4 with a 2-bit lookup: 256 configurations, enumerable exactly.
        # Coordinate ascent may in principle stall on a local optimum, so a
        # small miss rate is tolerated; the exhaustive value is always an
        # upper bound.
        rng = np.random.default_rng(7)
        lookup = (0.0, math.pi / 2, math.pi, -math.pi / 2)
        hits = 0
        for _ in range(20):
            bs_xy = rng.uniform(0, 9, size=2)
            ris_xy = rng.uniform(0, 9, size=2)
            point = [*rng.uniform(0, 9, size=2), 0.0]
            scene = scene_with(
                bs=[{"position_m": bs_xy.tolist(), "antenna_count": 2}],
                ris={"position_m": ris_xy.tolist(), "element_count": 4},
                subcarrier_count=4,
            )
            terms = point_gain_terms(scene, 0, point)
            best = terms.c0
            for phases in itertools.product(lookup, repeat=4):
                best = max(best, gain_config(terms, RisConfig(phases_rad=phases)))
            got = 10 ** (equivalent_gain(scene, 0, point, "optimized") / 10)
            assert got <= best * (1 + 1e-9)
            if math.isclose(got, best, rel_tol=1e-9):
                hits += 1
        assert hits >= 18


class TestRequiredTxPower:
    def test_additive_db_arithmetic(self):
        assert required_tx_power(-100.0, BUDGET, NOISE_DBM) == pytest.approx(11.0)

    def test_gain_improvement_drops_power(self):
        assert required_tx_power(-90.0, BUDGET, NOISE_DBM) == pytest.approx(
            required_tx_power(-100.0, BUDGET, NOISE_DBM) - 10.0
        )

    def test_just_past_max_is_out_of_coverage(self):
        # unclamped power max + 0.1 dB
        gain = BUDGET.target_snr_db + NOISE_DBM - (23.0 + 0.1)
        assert math.isnan(required_tx_power(gain, BUDGET, NOISE_DBM))

    def test_exactly_max_is_served(self):
        gain = BUDGET.target_snr_db + NOISE_DBM - 23.0
        assert required_tx_power(gain, BUDGET, NOISE_DBM) == pytest.approx(23.0)

    def test_strong_gain_clamps_up_to_min(self):
        assert required_tx_power(10.0, BUDGET, NOISE_DBM) == -40.0

    def test_nan_gain_out_of_coverage(self):
        assert math.isnan(required_tx_power(math.nan, BUDGET, NOISE_DBM))

    @given(
        gain=st.floats(min_value=-120, max_value=-75),
        k=st.floats(min_value=0.1, max_value=10),
    )
    def test_db_linearity_when_unclamped(self, gain, k):
        p0 = required_tx_power(gain, BUDGET, NOISE_DBM)
        p1 = required_tx_power(gain + k, BUDGET, NOISE_DBM)
        if not math.isnan(p0) and p1 > BUDGET.min_tx_power_dbm:
            assert p1 == pytest.approx(p0 - k, abs=1e-9)


class TestSpectralEfficiency:
    def test_snr_exactly_at_target(self):
        gain = BUDGET.target_snr_db + NOISE_DBM - BUDGET.max_tx_power_dbm
        expected = math.log2(1 + 10 ** (BUDGET.target_snr_db / 10))
        assert spectral_efficiency_from_gain(gain, BUDGET, NOISE_DBM) == pytest.approx(expected)

    def test_below_target_out_of_coverage(self):
        gain = BUDGET.target_snr_db + NOISE_DBM - BUDGET.max_tx_power_dbm
        assert math.isnan(spectral_efficiency_from_gain(gain - 1e-6, BUDGET, NOISE_DBM))

    def test_cap_applies(self):
        assert spectral_efficiency_from_gain(0.0, BUDGET, NOISE_DBM) == 7.4

    def test_low_snr_doubling(self):
        # at SNR well below 0 dB, log2(1 + snr) is nearly linear in snr
        budget = LinkBudgetSpec(-60.0, 23.0, -40.0, 7.4)
        g0 = -147.0  # SNR -30 dB
        s0 = spectral_efficiency_from_gain(g0, budget, NOISE_DBM)
        s1 = spectral_efficiency_from_gain(g0 + 3.01, budget, NOISE_DBM)
        assert s0 == pytest.approx(math.log2(1 + 1e-3), rel=1e-12)
        assert s1 == pytest.approx(math.log2(1 + 1e-3 * 10 ** 0.301), rel=1e-12)
        assert s1 / s0 == pytest.approx(2.0, rel=5e-3)

    def test_nan_propagates(self):
        assert math.isnan(spectral_efficiency_from_gain(math.nan, BUDGET, NOISE_DBM))


class TestLinkBudgetFromScene:
    def test_noise_power_derived(self):
        scene = scene_with(subcarrier_count=100, subcarrier_spacing_hz=120e3)
        b = scene.link_budget
        assert scene.noise_power_dbm == pytest.approx(-174 + 10 * math.log10(12e6) + 9)
        assert b.target_snr_db == 5.0
        assert b.se_max_bps_hz == 7.4

    def test_overrides_flow_through(self):
        scene = scene_with(link_budget={"target_snr_db": 3.0, "max_tx_power_dbm": 20.0})
        b = scene.link_budget
        assert b.target_snr_db == 3.0
        assert b.max_tx_power_dbm == 20.0


def served(scene, points):
    """The engine's station choice at each of the (n, 3) points, -1 for none."""
    points = np.asarray(points, dtype=float)
    directs = [direct_channels(scene, i, points) for i in range(len(scene.bs))]
    return serving_bs(directs, station_legs(scene)).tolist()


def serving_bs_at(scene, point):
    return served(scene, [point])[0]


class TestServingBs:
    def test_nearest_direct_wins(self):
        scene = scene_with(bs=[{"position_m": [0, 0]}, {"position_m": [9, 9]}])
        assert serving_bs_at(scene, [1, 1, 0]) == 0
        assert serving_bs_at(scene, [8, 8, 0]) == 1

    def test_tie_goes_low(self):
        scene = scene_with(bs=[{"position_m": [0, 0]}, {"position_m": [9, 0]}])
        assert serving_bs_at(scene, [4.5, 2, 0]) == 0

    def test_more_antennas_beat_distance(self):
        scene = scene_with(
            bs=[{"position_m": [0, 0]}, {"position_m": [3, 0], "antenna_count": 16}]
        )
        # 16x combining gain outweighs a modest path loss difference
        assert serving_bs_at(scene, [1, 0.5, 0]) == 1

    def test_point_on_one_bs(self):
        scene = scene_with(bs=[{"position_m": [0, 0]}, {"position_m": [9, 9]}])
        assert serving_bs_at(scene, [0, 0, 0]) == 1

    def test_point_on_the_only_bs_has_none(self):
        # per point of a batch: the point on the station reads -1, its neighbour 0
        assert served(scene_with(), [[0, 0, 0], [1, 1, 0]]) == [-1, 0]

    def test_station_on_a_surface_element_is_never_served(self):
        # the one-element surface sits on station 0, so its cascade is undefined
        scene = scene_with(bs=[{"position_m": [4, 0]}, {"position_m": [9, 9]}],
                           ris={"position_m": [4, 0], "element_count": 1})
        point = [3, 1, 0]
        assert serving_bs_at(scene, point) == 1
        assert gain_pair(scene, point) == (
            equivalent_gain(scene, 1, point, "off"), equivalent_gain(scene, 1, point))


class TestPairs:
    @pytest.mark.parametrize("efficiency", [1.0, 0.7])
    def test_pairs_match_single_calls(self, efficiency):
        scene = scene_with(
            ris={"position_m": [4, 0], "element_count": 8, "element_efficiency": efficiency})
        point = [3, 2, 0]
        off, best = gain_pair(scene, point)
        assert off == pytest.approx(equivalent_gain(scene, 0, point, "off"))
        assert best == pytest.approx(equivalent_gain(scene, 0, point, "optimized"))

    def test_dark_surface_pairs_collapse(self):
        scene = scene_with(ris={**BASE["ris"], "element_efficiency": 0.0})
        off, best = gain_pair(scene, [2, 2, 0])
        assert off == best

    def test_power_never_worse_with_surface(self):
        scene = scene_with(ris={"position_m": [4, 0], "element_count": 16})
        for point in ([1, 1, 0], [4, 2, 0], [7, 7, 0]):
            p_off, p_on = tx_power_pair(scene, point)
            if not math.isnan(p_off) and not math.isnan(p_on):
                assert p_on <= p_off + 1e-12

    def test_se_never_worse_with_surface(self):
        scene = scene_with(ris={"position_m": [4, 0], "element_count": 16})
        for point in ([1, 1, 0], [4, 2, 0], [7, 7, 0]):
            s_off, s_on = se_pair(scene, point)
            if math.isnan(s_off):
                continue
            assert s_on >= s_off - 1e-12

    def test_coverage_hole_filled_by_surface(self):
        # weak direct link, strong cascade: SE goes NaN -> finite
        scene = scene_with(
            link_budget={"target_snr_db": 5.0, "max_tx_power_dbm": -28.0},
            ris={"position_m": [4, 0], "element_count": 256},
            walls=[{"p1_m": [2, -1], "p2_m": [2, 10], "penetration_loss_db": 30}],
        )
        s_off, s_on = se_pair(scene, [4, 0.2, 0])
        assert math.isnan(s_off)
        assert not math.isnan(s_on)


def test_gain_engine_memory_stays_near_two_block_budgets():
    # one station serves all 128 cells, two blocks of 64, so each block
    # builds one V of the full budget; the ascent kernel's real and
    # imaginary column copy is the second budget. Building V out of a dense
    # pair-phasor matrix and an outer-product temporary peaked at 2.67
    # budgets
    scene = parse_scene(json.dumps({
        "spec_version": 1,
        "carrier_hz": 3.5e9,
        "bs": [{"position_m": [0, 0, 3], "antenna_count": 4}],
        "ris": {"position_m": [6, 12, 2.5], "element_count": 64},
        "ue_grid": {"x_min": 0.5, "x_max": 15.5, "y_min": 1, "y_max": 8,
                    "resolution_m": 1, "fixed_height_m": 1.5},
    }))
    assert scene.grid.cell_count == 2 * block_size(scene, "gain_db")
    gain_pair(scene, scene.grid.points()[0])  # lazy imports land here
    assert traced_peak(lambda: sweep(scene, "gain_db")) <= 2.4 * influence._BLOCK_BYTES
