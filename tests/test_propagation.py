"""Channel synthesis: Friis legs, walls, steering, near-field cascade."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import at_subcarriers
from risplan.errors import CoincidentNodeError, RunError
from risplan.propagation import (
    C_LIGHT_M_S,
    cascade,
    direct_channel,
    direct_channels,
    element_positions,
    ray_amplitudes,
    ris_channel,
    surface_element_positions,
    surface_legs,
    wall_factors,
)
from risplan.scene import parse_scene

BASE = {
    "spec_version": 1,
    "carrier_hz": 3.5e9,
    "bs": [{"position_m": [0, 0]}],
    "ue_grid": {"x_min": 0, "x_max": 9, "y_min": 0, "y_max": 9, "resolution_m": 1},
}


def scene_with(**kwargs):
    doc = json.loads(json.dumps(BASE))
    doc.update(kwargs)
    return parse_scene(json.dumps(doc))


def amplitude(scene, a, b):
    amp, _ = ray_amplitudes(scene, a, b)
    return float(amp)


def wall_factor(scene, a, b):
    """A ray's amplitude over the same ray's amplitude with the walls taken out."""
    return amplitude(scene, a, b) / amplitude(scene_with(carrier_hz=scene.carrier_hz), a, b)


class TestRayAmplitudes:
    def test_inverse_distance_law(self):
        scene = scene_with(carrier_hz=1e9)
        a1 = amplitude(scene, [0, 0, 0], [10, 0, 0])
        a2 = amplitude(scene, [0, 0, 0], [20, 0, 0])
        assert a1 / a2 == pytest.approx(2.0)

    def test_28ghz_one_meter_reference(self):
        # oracle: 20 log10(lambda / 4 pi) with lambda = c / 28e9 gives -61.391
        amp = amplitude(scene_with(carrier_hz=28e9), [0, 0, 0], [0, 0, 1])
        assert 20 * math.log10(amp) == pytest.approx(
            20 * math.log10(C_LIGHT_M_S / 28e9 / (4 * math.pi))
        )
        assert 20 * math.log10(amp) == pytest.approx(-61.39, abs=0.01)

    def test_returns_distance(self):
        _, dist = ray_amplitudes(scene_with(), [1, 2, 3], [4, 6, 3])
        assert dist == 5.0

    def test_zero_length_ray_has_distance_zero(self):
        # a zero-length ray does not raise; callers mask it or raise themselves
        amp, dist = ray_amplitudes(scene_with(), [2, 1, 0], [[2, 1, 0], [5, 5, 0]])
        assert dist[0] == 0.0
        assert not np.isfinite(amp[0])
        assert np.isfinite(amp[1]) and dist[1] == 5.0

    def test_broadcast_shape(self):
        amp, dist = ray_amplitudes(scene_with(), np.zeros((4, 1, 3)) + 1.0,
                                   np.zeros((1, 5, 3)) + [3.0, 0.0, 0.0])
        assert amp.shape == dist.shape == (4, 5)

    def test_reciprocity(self):
        scene = scene_with(walls=[TestWalls.WALL])
        a = np.array([[0, 0, 1.5], [1, -2, 0.5]])
        b = np.array([[10, 3, 2.0], [9, 4, 1.0]])
        for x, y in zip(ray_amplitudes(scene, a, b), ray_amplitudes(scene, b, a)):
            np.testing.assert_array_equal(x, y)


class TestWalls:
    WALL = {"p1_m": [5, -5], "p2_m": [5, 5], "penetration_loss_db": 20}

    def test_no_walls(self):
        assert wall_factor(scene_with(), [0, 0, 0], [10, 0, 0]) == 1.0

    def test_single_crossing(self):
        scene = scene_with(walls=[self.WALL])
        assert wall_factor(scene, [0, 0, 0], [10, 0, 0]) == pytest.approx(0.1)

    def test_miss(self):
        scene = scene_with(walls=[self.WALL])
        assert wall_factor(scene, [0, 6, 0], [10, 6, 0]) == 1.0

    def test_two_parallel_walls(self):
        scene = scene_with(
            walls=[
                {"p1_m": [3, -5], "p2_m": [3, 5], "penetration_loss_db": 10},
                {"p1_m": [7, -5], "p2_m": [7, 5], "penetration_loss_db": 10},
            ]
        )
        assert wall_factor(scene, [0, 0, 0], [10, 0, 0]) == pytest.approx(0.1)

    def test_endpoint_touch_counts(self):
        scene = scene_with(walls=[{"p1_m": [5, 0], "p2_m": [5, 5], "penetration_loss_db": 20}])
        # ray passes exactly through the wall's lower endpoint
        assert wall_factor(scene, [0, 0, 0], [10, 0, 0]) == pytest.approx(0.1)

    def test_collinear_overlap_counts_once(self):
        scene = scene_with(walls=[{"p1_m": [2, 0], "p2_m": [8, 0], "penetration_loss_db": 20}])
        assert wall_factor(scene, [0, 0, 0], [10, 0, 0]) == pytest.approx(0.1)

    def test_symmetry(self):
        scene = scene_with(walls=[self.WALL])
        for p, q in [([0, 0, 0], [10, 3, 0]), ([1, -2, 1], [9, 4, 2])]:
            assert wall_factor(scene, p, q) == wall_factor(scene, q, p)

    def test_segment_not_infinite_line(self):
        scene = scene_with(walls=[{"p1_m": [5, 10], "p2_m": [5, 20], "penetration_loss_db": 20}])
        assert wall_factor(scene, [0, 0, 0], [10, 0, 0]) == 1.0

    def test_amplitude_is_friis_times_wall_factors(self):
        scene = scene_with(walls=[self.WALL, {"p1_m": [0, 4], "p2_m": [10, 4],
                                              "penetration_loss_db": 3}])
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([[10, 0, 1], [10, 6, 2], [1, 1, 1], [4, 9, 0]], dtype=float)
        amp, dist = ray_amplitudes(scene, a, b)
        friis = scene.wavelength_m / (4 * math.pi * dist)
        np.testing.assert_array_equal(amp, friis * wall_factors(a, b, scene.walls))


class TestChannelsUseThePrimitive:
    """The direct and surface legs carry the primitive's amplitudes and lengths."""

    def scene(self, antennas=1):
        return scene_with(
            bs=[{"position_m": [0, 0, 3], "antenna_count": antennas}],
            ris={"position_m": [6, 2, 3], "element_count": 8},
            walls=[{"p1_m": [3, -5], "p2_m": [3, 5], "penetration_loss_db": 9},
                   {"p1_m": [4, 0.5], "p2_m": [9, 0.5], "penetration_loss_db": 4}],
        )

    POINTS = np.array([[5, 0, 1.5], [1, 4, 1.5], [8, -2, 1.0], [2, 1, 1.5], [7, 4, 1.5]])

    def test_direct_channels(self):
        scene = self.scene()
        amp, dist = ray_amplitudes(scene, scene.bs[0].position_m, self.POINTS)
        factors = wall_factors(scene.bs[0].position_m, self.POINTS, scene.walls)
        assert np.any(factors < 1.0) and np.any(factors == 1.0)
        ch = direct_channels(scene, 0, self.POINTS)
        np.testing.assert_array_equal(ch.distance_m, dist)
        # one antenna: no steering, the gain is the amplitude times the carrier phase
        np.testing.assert_array_equal(
            ch.gains[:, 0], amp * np.exp(-2j * math.pi * dist / scene.wavelength_m))
        wide = direct_channels(self.scene(antennas=4), 0, self.POINTS)
        np.testing.assert_allclose(np.abs(wide.gains), amp[:, None] * np.ones(4), rtol=1e-13)

    def test_surface_legs(self):
        scene = self.scene()
        elems = surface_element_positions(scene)
        amp, dist = ray_amplitudes(scene, elems[None, :, :], self.POINTS[:, None, :])
        gains, dists = surface_legs(scene, self.POINTS)
        np.testing.assert_array_equal(dists, dist)
        np.testing.assert_array_equal(
            gains, amp * np.exp(-2j * math.pi * dist / scene.wavelength_m))
        factors = wall_factors(elems[None, :, :], self.POINTS[:, None, :], scene.walls)
        assert np.any(factors < 1.0) and np.any(factors == 1.0)


def reference_wall_attenuation(p1, p2, walls):
    """Scalar segment test, one ray and one wall at a time (reference)."""

    def ccw(ax, ay, bx, by, cx, cy):
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    def on_segment(ax, ay, bx, by, px, py):
        return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)

    def cross(ax, ay, bx, by, cx, cy, dx, dy):
        d1, d2 = ccw(cx, cy, dx, dy, ax, ay), ccw(cx, cy, dx, dy, bx, by)
        d3, d4 = ccw(ax, ay, bx, by, cx, cy), ccw(ax, ay, bx, by, dx, dy)
        if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
            (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
        ):
            return True
        return (
            (d1 == 0 and on_segment(cx, cy, dx, dy, ax, ay))
            or (d2 == 0 and on_segment(cx, cy, dx, dy, bx, by))
            or (d3 == 0 and on_segment(ax, ay, bx, by, cx, cy))
            or (d4 == 0 and on_segment(ax, ay, bx, by, dx, dy))
        )

    factor = 1.0
    for wall in walls:
        if cross(float(p1[0]), float(p1[1]), float(p2[0]), float(p2[1]),
                 wall.p1_m[0], wall.p1_m[1], wall.p2_m[0], wall.p2_m[1]):
            factor *= 10.0 ** (-wall.penetration_loss_db / 20.0)
    return factor


class TestWallFactors:
    def test_matches_scalar_reference(self):
        # integer coordinates make touching and collinear cases common
        rng = np.random.default_rng(4)
        walls = [
            {"p1_m": rng.integers(0, 6, 2).tolist(), "p2_m": rng.integers(0, 6, 2).tolist(),
             "penetration_loss_db": float(rng.uniform(1, 20))}
            for _ in range(5)
        ]
        walls.append({"p1_m": [1, 1], "p2_m": [4, 4], "penetration_loss_db": 7.0})
        scene = scene_with(walls=walls)
        p1 = rng.integers(0, 6, (400, 3)).astype(float)
        p2 = rng.integers(0, 6, (400, 3)).astype(float)
        got = wall_factors(p1, p2, scene.walls)
        expect = [reference_wall_attenuation(a, b, scene.walls) for a, b in zip(p1, p2)]
        np.testing.assert_array_equal(got, expect)
        assert len(set(expect)) > 3

    def test_broadcasts_one_origin_over_many_targets(self):
        scene = scene_with(walls=[TestWalls.WALL])
        targets = np.array([[10.0, 0.0], [0.0, 3.0], [10.0, 4.9]])
        got = wall_factors([0.0, 0.0], targets, scene.walls)
        np.testing.assert_allclose(got, [0.1, 1.0, 0.1])

    def test_no_walls_is_all_ones(self):
        np.testing.assert_array_equal(wall_factors(np.zeros((2, 3, 2)), [1.0, 1.0], ()),
                                      np.ones((2, 3)))


class TestElementPositions:
    def test_centering_and_spacing(self):
        pts = element_positions([2, 3, 1], 4, 0.5, 0.0)
        np.testing.assert_allclose(pts[:, 0], [1.25, 1.75, 2.25, 2.75])
        np.testing.assert_allclose(pts[:, 1], 3.0)
        np.testing.assert_allclose(pts[:, 2], 1.0)
        np.testing.assert_allclose(pts.mean(axis=0), [2, 3, 1])

    def test_orientation(self):
        pts = element_positions([0, 0, 0], 2, 1.0, math.pi / 2)
        np.testing.assert_allclose(pts[:, 1], [-0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(pts[:, 0], 0.0, atol=1e-12)


class TestDirectChannel:
    def test_single_antenna_amplitude(self):
        scene = scene_with()
        ch = direct_channel(scene, 0, [3, 4, 0])
        assert abs(ch.gains[0]) == pytest.approx(C_LIGHT_M_S / 3.5e9 / (4 * math.pi * 5.0))
        assert ch.delay_s == pytest.approx(5.0 / C_LIGHT_M_S)

    def test_broadside_in_phase(self):
        scene = scene_with(bs=[{"position_m": [0, 0], "antenna_count": 4}])
        # array along +x; broadside direction is +y
        ch = direct_channel(scene, 0, [0, 7, 0])
        np.testing.assert_allclose(ch.gains, ch.gains[0], rtol=1e-12)

    def test_30_degree_steering_step(self):
        # half-wavelength ULA, theta = 30 deg off broadside -> step -pi/2
        scene = scene_with(bs=[{"position_m": [0, 0], "antenna_count": 4}])
        d = 100.0
        theta = math.radians(30)
        ch = direct_channel(scene, 0, [d * math.sin(theta), d * math.cos(theta), 0])
        steps = np.angle(ch.gains[1:] / ch.gains[:-1])
        np.testing.assert_allclose(steps, -math.pi / 2, rtol=1e-12)

    def test_coincident_point(self):
        scene = scene_with()
        with pytest.raises(CoincidentNodeError):
            direct_channel(scene, 0, [0, 0, 0])

    def test_subcarrier_phase_slope(self):
        scene = scene_with(subcarrier_count=64, subcarrier_spacing_hz=240e3)
        ch = direct_channel(scene, 0, [40, 9, 0])
        resp = at_subcarriers(ch, 64, 240e3)[:, 0]
        slope = np.polyfit(np.arange(64), np.unwrap(np.angle(resp)), 1)[0]
        assert slope == pytest.approx(-2 * math.pi * 240e3 * ch.delay_s, abs=1e-9)

    def test_wall_on_direct_path(self):
        walls = [{"p1_m": [2, -1], "p2_m": [2, 1], "penetration_loss_db": 6}]
        plain = direct_channel(scene_with(), 0, [5, 0, 0])
        lossy = direct_channel(scene_with(walls=walls), 0, [5, 0, 0])
        assert abs(lossy.gains[0]) / abs(plain.gains[0]) == pytest.approx(10 ** (-6 / 20))


class TestRisChannel:
    def ris_scene(self, m=8, **kwargs):
        return scene_with(ris={"position_m": [4, 0], "element_count": m}, **kwargs)

    def test_requires_surface(self):
        with pytest.raises(RunError):
            ris_channel(scene_with(), 0, [1, 1, 0])

    def test_perpendicular_bisector_symmetry(self):
        scene = self.ris_scene(m=2)
        # surface along x centred at [4, 0]; points with x = 4 are equidistant
        ch = ris_channel(scene, 0, [4, 3, 0])
        assert ch.elements_to_point[0] == pytest.approx(ch.elements_to_point[1])

    def test_delays_are_summed_legs(self):
        scene = self.ris_scene(m=3)
        point = [1, 2, 0]
        ch = ris_channel(scene, 0, point)
        elems = surface_element_positions(scene)
        for m in range(3):
            d1 = np.linalg.norm(elems[m] - np.array([0, 0, 0.0]))
            d2 = np.linalg.norm(elems[m] - np.array(point, dtype=float))
            assert ch.element_delays_s[m] == pytest.approx((d1 + d2) / C_LIGHT_M_S)

    def test_far_point_matches_plane_wave(self):
        scene = self.ris_scene(m=8)
        elems = surface_element_positions(scene)
        aperture = np.linalg.norm(elems[-1] - elems[0])
        theta = math.radians(25)
        # far enough that the quadratic wavefront term is well under the tolerance
        dist = 1e4 * aperture
        point = np.array([4 + dist * math.sin(theta), dist * math.cos(theta), 0.0])
        ch = ris_channel(scene, 0, point)
        lam = scene.wavelength_m
        # receive phasor: elements closer to the wavefront lead in phase
        offsets = (np.arange(8) - 3.5) * scene.ris_spacing_m()
        plane = 2 * math.pi * offsets * math.sin(theta) / lam
        center_dist = np.linalg.norm(point - np.array([4, 0, 0.0]))
        measured = np.angle(ch.elements_to_point * np.exp(2j * math.pi * center_dist / lam))
        err = np.angle(np.exp(1j * (measured - plane)))
        assert np.max(np.abs(err)) < 1e-3

    def test_efficiency_scales_hops(self):
        full = ris_channel(self.ris_scene(), 0, [1, 2, 0])
        half_scene = scene_with(
            ris={"position_m": [4, 0], "element_count": 8, "element_efficiency": 0.5}
        )
        half = ris_channel(half_scene, 0, [1, 2, 0])
        np.testing.assert_allclose(half.hop_products, 0.5 * full.hop_products)

    def test_point_on_element(self):
        scene = self.ris_scene(m=1)
        with pytest.raises(CoincidentNodeError):
            ris_channel(scene, 0, [4, 0, 0])


class TestCascade:
    def test_two_element_cancellation(self):
        # both the base station and the point sit on the array's bisector,
        # so the two hops are bit-identical and opposite phases cancel
        scene = scene_with(
            bs=[{"position_m": [4, -3]}],
            ris={"position_m": [4, 0], "element_count": 2},
        )
        ch = ris_channel(scene, 0, [4, 3, 0])
        residual = abs(cascade(ch, [0.0, math.pi]))
        assert residual <= np.sum(np.abs(ch.hop_products)) * 1e-15

    def test_matches_loop_oracle(self):
        scene = scene_with(ris={"position_m": [4, 0], "element_count": 8})
        ch = ris_channel(scene, 0, [1, 5, 0])
        rng = np.random.default_rng(7)
        phases = rng.uniform(-math.pi, math.pi, 8)
        expected = sum(
            ch.hop_products[m] * np.exp(1j * phases[m]) for m in range(8)
        )
        assert cascade(ch, phases) == pytest.approx(expected)

    def test_length_mismatch(self):
        scene = scene_with(ris={"position_m": [4, 0], "element_count": 4})
        ch = ris_channel(scene, 0, [1, 5, 0])
        with pytest.raises(ValueError):
            cascade(ch, [0.0, 0.0])

    def test_triangle_bound(self):
        scene = scene_with(ris={"position_m": [4, 0], "element_count": 6})
        ch = ris_channel(scene, 0, [2, 2, 0])
        direct = direct_channel(scene, 0, [2, 2, 0]).gains[0]
        bound = abs(direct) + np.sum(np.abs(ch.hop_products))
        rng = np.random.default_rng(11)
        for _ in range(20):
            phases = rng.uniform(-math.pi, math.pi, 6)
            assert abs(direct + cascade(ch, phases)) <= bound + 1e-18


@settings(max_examples=30)
@given(
    d=st.floats(0.5, 500.0),
    f=st.floats(1e9, 1e11),
)
def test_reciprocity_and_positivity(d, f):
    scene = scene_with(carrier_hz=f)
    amp = amplitude(scene, [0, 0, 0], [d, 0, 0])
    assert amp > 0
    assert amplitude(scene, [d, 0, 0], [0, 0, 0]) == amp
    assert amplitude(scene, [0, 0, 0], [2 * d, 0, 0]) == pytest.approx(amp / 2)
