"""Secrecy rates: log-det oracles, trace-ball projection, alternating ascent."""

import json
import math
import pathlib

import numpy as np
import pytest

from gain_oracle import RisConfig, response
from helpers import traced_peak
from risplan.errors import CoincidentNodeError
from risplan.influence import METRICS, sse_pair, sweep
from risplan.secrecy import (
    _MATRICES,
    SecrecyChannels,
    _ascend_q,
    secrecy_links,
)
from risplan.scene import load_scene, parse_scene
from secrecy_oracle import (
    MimoLink,
    _project_trace_ball,
    optimize_q,
    optimize_sse,
    rate_difference,
    realize,
    secrecy_link,
)

SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"

sse_pairs = METRICS["sse_bps_hz"].pairs

SSE = {
    "spec_version": 1,
    "carrier_hz": 3.5e9,
    "bs": [{"position_m": [0, 0, 10], "antenna_count": 4}],
    "eve": {"position_m": [10, 25, 1.5], "antenna_count": 2},
    "ris": {"position_m": [10, 55, 5], "element_count": 8},
    "ue_grid": {"x_min": 0, "x_max": 20, "y_min": 30, "y_max": 70, "resolution_m": 2,
                "fixed_height_m": 1.5},
    "secrecy": {"rx_antenna_count": 2, "power_budget_dbm": 30},
}


def sse_scene(**kwargs):
    doc = json.loads(json.dumps(SSE))
    doc.update(kwargs)
    return parse_scene(json.dumps(doc))


def random_link(rng, n_rx=2, n_eve=2, n_bs=2, noise=1.0, power=4.0, eve_scale=0.5):
    def mat(r, c, scale):
        return scale * (rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c)))

    return MimoLink(
        h_rx=mat(n_rx, n_bs, 1.0),
        h_eve=mat(n_eve, n_bs, eve_scale),
        noise_w=noise,
        power_w=power,
    )


def isotropic(n, power):
    return power / n * np.eye(n, dtype=np.complex128)


class TestSecrecyRate:
    def test_silent_eve_gives_rx_rate(self):
        rng = np.random.default_rng(0)
        link = random_link(rng, eve_scale=0.0)
        q = isotropic(2, link.power_w)
        gram = link.h_rx @ q @ link.h_rx.conj().T / link.noise_w
        expected = sum(math.log2(1 + lam) for lam in np.linalg.eigvalsh(gram).real)
        assert max(rate_difference(link, q), 0.0) == pytest.approx(expected, rel=1e-12)

    def test_identical_channels_zero_for_any_feasible_q(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        link = MimoLink(h_rx=h, h_eve=h.copy(), noise_w=0.5, power_w=3.0)
        for _ in range(5):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q = a @ a.conj().T
            q *= link.power_w / np.real(np.trace(q)) * rng.uniform(0.2, 1.0)
            assert max(rate_difference(link, q), 0.0) == 0.0

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            link = random_link(rng)
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q = a @ a.conj().T
            q *= link.power_w / np.real(np.trace(q))

            def rate(h):
                lams = np.linalg.eigvalsh(h @ q @ h.conj().T).real / link.noise_w
                return sum(math.log2(1 + max(lam, 0.0)) for lam in lams)

            expected = max(rate(link.h_rx) - rate(link.h_eve), 0.0)
            got = max(rate_difference(link, q), 0.0)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_clamped_at_zero(self):
        rng = np.random.default_rng(3)
        link = random_link(rng, eve_scale=5.0)
        assert max(rate_difference(link, isotropic(2, link.power_w)), 0.0) == 0.0


class TestTraceBallProjection:
    def test_feasible_point_fixed(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q = a @ a.conj().T
        q *= 2.0 / np.real(np.trace(q))
        np.testing.assert_allclose(_project_trace_ball(q, 5.0), q, atol=1e-12)

    def test_trace_capped(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q = a @ a.conj().T
        proj = _project_trace_ball(q, 1.0)
        assert np.real(np.trace(proj)) == pytest.approx(1.0)
        assert np.linalg.eigvalsh(proj)[0] >= -1e-12

    def test_negative_part_removed(self):
        q = np.diag([2.0, -3.0]).astype(complex)
        proj = _project_trace_ball(q, 10.0)
        np.testing.assert_allclose(proj, np.diag([2.0, 0.0]), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        once = _project_trace_ball(h, 2.0)
        twice = _project_trace_ball(once, 2.0)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_variational_inequality(self):
        # the projection p of a satisfies <a - p, q - p> <= 0 for feasible q
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (a + a.conj().T) / 2
        p = _project_trace_ball(a, 1.5)
        for _ in range(30):
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q = b @ b.conj().T
            q *= 1.5 / np.real(np.trace(q)) * rng.uniform(0, 1)
            inner = np.real(np.trace((a - p).conj().T @ (q - p)))
            assert inner <= 1e-9


class TestOptimizeQ:
    def test_trace_non_decreasing(self):
        link = random_link(np.random.default_rng(20))
        _, _, trace = optimize_q(link)
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_beats_isotropic_start(self):
        link = random_link(np.random.default_rng(21))
        q, val, _ = optimize_q(link)
        assert val >= rate_difference(link, isotropic(2, link.power_w)) - 1e-12

    def test_constraints_respected(self):
        link = random_link(np.random.default_rng(22))
        q, _, _ = optimize_q(link)
        assert np.real(np.trace(q)) <= link.power_w * (1 + 1e-9)
        assert np.linalg.eigvalsh(q)[0] >= -1e-9

    def test_miso_capacity_closed_form(self):
        # no eavesdropper: the optimum is all power on the matched beam
        rng = np.random.default_rng(23)
        h = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
        link = MimoLink(h_rx=h, h_eve=np.zeros((1, 3), dtype=complex),
                        noise_w=0.7, power_w=2.5)
        _, val, _ = optimize_q(link)
        ideal = math.log2(1 + link.power_w * float(np.linalg.norm(h) ** 2) / link.noise_w)
        assert val == pytest.approx(ideal, rel=1e-2)
        assert val <= ideal + 1e-9

    def test_identical_channels_stay_flat(self):
        rng = np.random.default_rng(24)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        link = MimoLink(h_rx=h, h_eve=h.copy(), noise_w=1.0, power_w=1.0)
        _, val, trace = optimize_q(link)
        assert val == 0.0
        assert trace == (0.0,)


class TestSecrecyLinkBuilder:
    def test_shapes(self):
        scene = sse_scene()
        ch = secrecy_link(scene, [10, 50, 1.5])
        assert ch.direct_rx.shape == (2, 4)
        assert ch.direct_eve.shape == (2, 4)
        assert ch.bs_to_ris.shape == (8, 4)
        assert ch.ris_to_rx.shape == (2, 8)
        assert ch.ris_to_eve.shape == (2, 8)

    def test_deterministic_per_point_and_draw(self):
        scene = sse_scene()
        a = secrecy_link(scene, [10, 50, 1.5], point_index=3, draw=1)
        b = secrecy_link(scene, [10, 50, 1.5], point_index=3, draw=1)
        c = secrecy_link(scene, [10, 50, 1.5], point_index=3, draw=2)
        np.testing.assert_array_equal(a.direct_rx, b.direct_rx)
        np.testing.assert_array_equal(a.ris_to_rx, b.ris_to_rx)
        assert not np.array_equal(a.direct_rx, c.direct_rx)

    def test_wall_scales_only_blocked_link(self):
        # a wall across the BS-RX segment: identical fading, scaled amplitude
        walls = [{"p1_m": [5, 20], "p2_m": [5, 80], "penetration_loss_db": 20}]
        plain = secrecy_link(sse_scene(), [10, 50, 1.5])
        shadowed = secrecy_link(sse_scene(walls=walls), [10, 50, 1.5])
        np.testing.assert_allclose(shadowed.direct_rx, 0.1 * plain.direct_rx, rtol=1e-12)
        np.testing.assert_allclose(shadowed.bs_to_ris, 0.1 * plain.bs_to_ris, rtol=1e-12)
        # BS-eve passes south of the wall span; RIS-RX is entirely east of it
        np.testing.assert_array_equal(shadowed.direct_eve, plain.direct_eve)
        np.testing.assert_array_equal(shadowed.ris_to_rx, plain.ris_to_rx)

    def test_link_realization(self):
        scene = sse_scene()
        ch = secrecy_link(scene, [10, 50, 1.5])
        config = RisConfig.uniform(8, phase=0.5)
        link = realize(ch, config)
        manual = ch.direct_rx + ch.ris_to_rx @ np.diag(response(config)) @ ch.bs_to_ris
        np.testing.assert_allclose(link.h_rx, manual, rtol=1e-12)

    def test_off_config_is_direct_only(self):
        scene = sse_scene()
        ch = secrecy_link(scene, [10, 50, 1.5])
        link = realize(ch, RisConfig.off(8))
        np.testing.assert_array_equal(link.h_rx, ch.direct_rx)

    @pytest.mark.parametrize("changes", [{}, {"walls": [
        {"p1_m": [5, 20], "p2_m": [5, 80], "penetration_loss_db": 20}]}],
        ids=["surface", "walled"])
    def test_block_rows_are_one_point_channels(self, changes):
        # one block's channels hold, row by row, the channels each point gets alone
        scene = sse_scene(**changes)
        points = scene.grid.points()[4:11]
        indices = range(4, 11)
        block, on_node = secrecy_links(scene, points, indices, 1)
        assert not on_node.any()
        for row, (point, i) in enumerate(zip(points, indices)):
            alone = secrecy_link(scene, point, i, 1)
            for name in _MATRICES:
                want = getattr(alone, name)
                got = getattr(block, name)
                np.testing.assert_array_equal(got[row].view(np.uint64), want.view(np.uint64))

    def test_node_mask(self):
        # the station sits on cell 12, the surface centre on cell 24; Eve on
        # the station puts every cell on a node
        doc = json.loads(json.dumps(SSE))
        points = parse_scene(json.dumps(doc)).grid.points()
        doc["bs"][0]["position_m"] = points[12].tolist()
        doc["ris"]["position_m"] = points[24].tolist()
        _, on_node = secrecy_links(parse_scene(json.dumps(doc)), points, range(len(points)), 0)
        assert np.flatnonzero(on_node).tolist() == [12, 24]
        doc["eve"]["position_m"] = points[12].tolist()
        _, on_node = secrecy_links(parse_scene(json.dumps(doc)), points, range(len(points)), 0)
        assert on_node.all()
        with pytest.raises(CoincidentNodeError):
            secrecy_link(parse_scene(json.dumps(doc)), points[0])


class TestOptimizeSse:
    def test_with_never_below_without(self):
        scene = sse_scene()
        for i, point in enumerate(([10, 50, 1.5], [4, 40, 1.5], [16, 62, 1.5])):
            result = optimize_sse(scene, point, point_index=i)
            assert result.sse_with >= result.sse_without - 1e-12

    def test_trace_non_decreasing(self):
        scene = sse_scene()
        result = optimize_sse(scene, [10, 50, 1.5])
        trace = result.trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        scene = sse_scene()
        a = optimize_sse(scene, [10, 50, 1.5], point_index=2)
        b = optimize_sse(scene, [10, 50, 1.5], point_index=2)
        assert a.sse_with == b.sse_with
        assert a.sse_without == b.sse_without
        assert a.config == b.config

    def test_identical_channels_zero_both_ways(self):
        # hand-built channels where Eve sees exactly what the RX sees
        rng = np.random.default_rng(30)
        d = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        a = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        ch = SecrecyChannels(
            direct_rx=d, direct_eve=d.copy(),
            bs_to_ris=g, ris_to_rx=a, ris_to_eve=a.copy(),
            noise_w=1.0, power_w=2.0,
        )
        for config in (None, RisConfig.uniform(4), RisConfig.off(4)):
            link = realize(ch, config)
            _, val, _ = optimize_q(link)
            assert max(val, 0.0) == 0.0

    def test_distant_surface_changes_nothing(self):
        # residual delta is optimizer convergence slack, not surface influence
        scene = sse_scene(ris={"position_m": [1e6, 1e6, 5], "element_count": 8})
        result = optimize_sse(scene, [10, 50, 1.5])
        assert result.sse_with == pytest.approx(result.sse_without, abs=1e-3)
        assert result.sse_with >= result.sse_without

    def test_dark_surface_scene(self):
        # the without value never reads the surface; the with value can only add
        # the ascent steps that a dark surface leaves on the direct channel alone
        dark = optimize_sse(sse_scene(ris={**SSE["ris"], "element_efficiency": 0.0}),
                            [10, 50, 1.5])
        bright = optimize_sse(sse_scene(), [10, 50, 1.5])
        assert dark.sse_without == bright.sse_without
        assert dark.sse_with >= dark.sse_without

    def test_q_respects_budget(self):
        scene = sse_scene()
        result = optimize_sse(scene, [10, 50, 1.5])
        budget = 10 ** ((30 - 30) / 10)
        assert np.real(np.trace(result.q)) <= budget * (1 + 1e-9)

    def test_pair_averages_draws(self):
        scene = sse_scene(secrecy={"rx_antenna_count": 2, "power_budget_dbm": 30,
                                   "fading_draws": 2})
        without, with_ris = sse_pair(scene, [10, 50, 1.5])
        parts = [optimize_sse(scene, [10, 50, 1.5], draw=d) for d in (0, 1)]
        assert without == pytest.approx(np.mean([p.sse_without for p in parts]))
        assert with_ris == pytest.approx(np.mean([p.sse_with for p in parts]))


class TestUnitaryInvariance:
    def test_rate_exactly_invariant_per_q(self):
        rng = np.random.default_rng(40)
        link = random_link(rng)
        u_r, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u_e, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rotated = MimoLink(h_rx=u_r @ link.h_rx, h_eve=u_e @ link.h_eve,
                           noise_w=link.noise_w, power_w=link.power_w)
        q = isotropic(2, link.power_w)
        assert max(rate_difference(rotated, q), 0.0) == pytest.approx(
            max(rate_difference(link, q), 0.0), rel=1e-12)

    def test_achieved_optimum_invariant(self):
        rng = np.random.default_rng(41)
        link = random_link(rng)
        u_r, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u_e, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rotated = MimoLink(h_rx=u_r @ link.h_rx, h_eve=u_e @ link.h_eve,
                           noise_w=link.noise_w, power_w=link.power_w)
        _, val_a, _ = optimize_q(link)
        _, val_b, _ = optimize_q(rotated)
        assert val_b == pytest.approx(val_a, abs=1e-6)


class TestTinyInstanceOracle:
    def test_heuristic_near_exhaustive(self):
        doc = {
            "spec_version": 1,
            "carrier_hz": 3.5e9,
            "bs": [{"position_m": [0, 0, 3], "antenna_count": 2}],
            "eve": {"position_m": [6, 10, 1.5], "antenna_count": 1},
            "ris": {"position_m": [8, 14, 3], "element_count": 2},
            "ue_grid": {"x_min": 0, "x_max": 16, "y_min": 4, "y_max": 20,
                        "resolution_m": 2, "fixed_height_m": 1.5},
            "secrecy": {"rx_antenna_count": 1, "power_budget_dbm": 30},
        }
        scene = parse_scene(json.dumps(doc))
        point = [9, 12, 1.5]
        channels = secrecy_link(scene, point)
        lookup = scene.ris.phase_lookup_rad
        rng = np.random.default_rng(5)

        # enumerate the full configuration lattice; per configuration the
        # covariance ascent runs to convergence from several starts, so a
        # shallow local optimum on one start cannot depress the oracle
        def solved(link):
            value = optimize_q(link, max_iters=400, rel_tol=1e-9)[1]
            for _ in range(4):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                q0 = link.power_w * np.outer(v, v.conj()) / np.linalg.norm(v) ** 2
                value = max(
                    value, optimize_q(link, q0=q0, max_iters=400, rel_tol=1e-9)[1]
                )
            return max(value, 0.0)

        best = solved(realize(channels, None))
        for i0 in range(4):
            for i1 in range(4):
                config = RisConfig(phases_rad=(lookup[i0], lookup[i1]))
                best = max(best, solved(realize(channels, config)))

        assert best > 0
        result = optimize_sse(scene, point)
        assert result.sse_with >= 0.95 * best


def per_cell_map(scene, points=None):
    """The oracle: :func:`optimize_sse` cell by cell, draws summed in draw order,
    over the grid or the given points, each seeded by its row."""
    pairs = []
    for i, point in enumerate(scene.grid.points() if points is None else points):
        without = with_ris = 0.0
        try:
            for draw in range(scene.secrecy.fading_draws):
                result = optimize_sse(scene, point, point_index=i, draw=draw)
                without += result.sse_without
                with_ris += result.sse_with
        except CoincidentNodeError:
            pairs.append((math.nan, math.nan))
            continue
        draws = scene.secrecy.fading_draws
        pairs.append((without / draws, with_ris / draws))
    return pairs


def assert_same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    differ = np.flatnonzero(np.any(got.view(np.uint64) != want.view(np.uint64), axis=-1))
    assert differ.size == 0, f"cells {differ.tolist()}: {got[differ]} vs {want[differ]}"


def courtyard_doc():
    return json.loads((SCENES / "courtyard_secrecy.json").read_text())


def coarse_courtyard(**changes):
    """The bundled courtyard on a 6 x 6 grid, with top-level entries replaced."""
    doc = courtyard_doc()
    doc["ue_grid"]["resolution_m"] = 4
    for key, value in changes.items():
        doc[key] = value
    return parse_scene(json.dumps(doc))


def benchmark_courtyard():
    """A 7 x 7 courtyard shaped like the benchmark's: M=16, 4/2/2 antennas, 4 levels."""
    return parse_scene(json.dumps({
        "spec_version": 1,
        "carrier_hz": 3.5e9,
        "seed": 1234567,
        "bs": [{"position_m": [-2.5, 0.0, 10.0], "antenna_count": 4}],
        "ris": {"position_m": [14.5, 55.0, 5.0], "element_count": 16},
        "eve": {"position_m": [11.0, 24.0, 1.5], "antenna_count": 2},
        "ue_grid": {"x_min": 3.5, "x_max": 23.5, "y_min": 30.0, "y_max": 50.0,
                    "resolution_m": 3.0, "fixed_height_m": 1.5},
        "secrecy": {"rx_antenna_count": 2, "power_budget_dbm": 30.0},
    }))


class TestBatchedOracle:
    """``sse_pairs`` reproduces per-cell ``optimize_sse`` bit for bit."""

    def test_bundled_courtyard(self):
        scene = load_scene(SCENES / "courtyard_secrecy.json")
        assert_same_bits(sse_pairs(scene, scene.grid.points()).T, per_cell_map(scene))

    def test_benchmark_shaped_courtyard(self):
        scene = benchmark_courtyard()
        assert scene.grid.cell_count == 49
        assert_same_bits(sse_pairs(scene, scene.grid.points()).T, per_cell_map(scene))

    @pytest.mark.parametrize("variant", [
        "two_draws", "one_element", "one_level_lookup", "lookup_without_zero", "walled",
        "dark_surface", "unequal_antennas", "efficiency",
    ])
    def test_variants(self, variant):
        doc = courtyard_doc()
        changes = {
            "two_draws": {"secrecy": {**doc["secrecy"], "fading_draws": 2}},
            "one_element": {"ris": {**doc["ris"], "element_count": 1}},
            "one_level_lookup": {"ris": {**doc["ris"], "phase_lookup_rad": [0.5]}},
            "lookup_without_zero": {"ris": {**doc["ris"], "phase_lookup_rad": [0.5, 2.0]}},
            "walled": {"walls": [
                {"p1_m": [5, 20], "p2_m": [5, 80], "penetration_loss_db": 20},
                {"p1_m": [12, 35], "p2_m": [18, 45], "penetration_loss_db": 7},
            ]},
            "dark_surface": {"ris": {**doc["ris"], "element_efficiency": 0.0}},
            # RX and Eve products of different shapes, which no step may stack
            "unequal_antennas": {"secrecy": {**doc["secrecy"], "rx_antenna_count": 3},
                                 "eve": {**doc["eve"], "antenna_count": 1}},
            "efficiency": {"ris": {**doc["ris"], "element_efficiency": 0.7}},
        }[variant]
        scene = coarse_courtyard(**changes)
        got = sse_pairs(scene, scene.grid.points()).T
        assert np.all(np.isfinite(got))
        assert_same_bits(got, per_cell_map(scene))

    def test_cells_on_nodes_are_nan_pairs(self):
        # cell 7 sits on the station, cell 14 on the surface centre
        doc = courtyard_doc()
        scene = coarse_courtyard(
            bs=[{"position_m": [4, 34, 1.5], "antenna_count": 4}],
            ris={**doc["ris"], "position_m": [8, 38, 1.5]},
        )
        got = sse_pairs(scene, scene.grid.points()).T
        assert [i for i, pair in enumerate(got) if math.isnan(pair[0])] == [7, 14]
        assert all(math.isnan(pair[1]) for pair in (got[7], got[14]))
        assert_same_bits(got, per_cell_map(scene))

    @pytest.mark.parametrize("phase", [0.5, -2.0])
    def test_one_level_lookup_holds_every_element_at_its_phase(self, phase):
        # a surface with one state can take no other configuration, so the
        # with-surface reading is the alternating covariance ascent with
        # every element held there, never one read at phase 0
        doc = courtyard_doc()
        scene = coarse_courtyard(ris={**doc["ris"], "phase_lookup_rad": [phase]})
        held = RisConfig.uniform(scene.ris.element_count, phase)
        want = []
        for i, point in enumerate(scene.grid.points()):
            channels = secrecy_link(scene, point, i)
            without = max(optimize_q(realize(channels, None))[1], 0.0)
            q, val = None, -math.inf
            for _ in range(5):
                start = val
                q, val, _ = optimize_q(realize(channels, held), q0=q)
                if math.isfinite(start) and val - start < 1e-5 * max(abs(start), 1e-12):
                    break
            want.append(max(without, max(val, 0.0)))
        assert_same_bits(sse_pairs(scene, scene.grid.points())[1], want)

    def test_pair_is_one_row_view(self):
        scene = coarse_courtyard()
        points = scene.grid.points()
        batched = sse_pairs(scene, points).T
        assert_same_bits([sse_pair(scene, points[0])], [batched[0]])
        for i in (13, 20):
            # a point's fading comes from its row, so a batch ending at it agrees
            assert_same_bits([sse_pairs(scene, points[:i + 1]).T[i]], [batched[i]])

    def test_rows_seed_the_fading(self):
        scene = coarse_courtyard()
        points = scene.grid.points()[:10]
        got = sse_pairs(scene, points).T
        assert_same_bits(got, per_cell_map(scene, points))
        assert not np.array_equal(got[[3, 9]], sse_pairs(scene, points[[3, 9]]).T)

    @pytest.mark.parametrize("warm", [False, True])
    def test_covariance_ascent_matches_optimize_q(self, warm):
        # a regime where cells need different numbers of step halvings
        # (up to three here) and stop at different iterations
        rng = np.random.default_rng(7)
        links = [random_link(rng, n_rx=3, n_eve=1, n_bs=3, noise=0.1, power=1.0,
                             eve_scale=scale)
                 for scale in rng.uniform(0.3, 3.0, size=40)]
        starts = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
        h_rx = np.stack([link.h_rx for link in links])
        h_eve = np.stack([link.h_eve for link in links])
        q, val = _ascend_q(h_rx, h_eve, starts if warm else None, 0.1, 1.0)
        for k, link in enumerate(links):
            want_q, want_val, _ = optimize_q(link, q0=starts[k] if warm else None)
            assert_same_bits(q[k].view(np.float64), want_q.view(np.float64))
            assert_same_bits([val[k]], [want_val])

    def test_capped_covariance_ascent_matches_optimize_q(self):
        # the regime the maps spend their time in: every cell of the block
        # still gains at the 100-step cap
        rng = np.random.default_rng(3)
        links = [random_link(rng, n_bs=4, noise=1e-3, power=1.0, eve_scale=1.0)
                 for _ in range(40)]
        capped = [(link, q, val) for link in links
                  for q, val, trace in [optimize_q(link)] if len(trace) == 101]
        assert len(capped) >= 20
        q, val = _ascend_q(np.stack([link.h_rx for link, _, _ in capped]),
                           np.stack([link.h_eve for link, _, _ in capped]), None, 1e-3, 1.0)
        for k, (_, want_q, want_val) in enumerate(capped):
            assert_same_bits(q[k].view(np.float64), want_q.view(np.float64))
            assert_same_bits([val[k]], [want_val])

    def test_map_memory_stays_bounded(self):
        # products carried between ascent steps must not lift the map's
        # temporaries: the bound sits about 10% over the 0.96 MB the map
        # peaked at when every step formed its products afresh
        scene = benchmark_courtyard()
        points = scene.grid.points()
        sse_pairs(scene, points[:2])  # lazy imports land here
        assert traced_peak(lambda: sweep(scene, "sse_bps_hz")) <= 1_050_000
