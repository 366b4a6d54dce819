"""Phase control: quantization, combining, the quadratic gain form, sweeps."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import at_subcarriers
from risplan import kernels
from risplan.beamforming import (
    GainTerms,
    RisConfig,
    codebook_sweep,
    coordinate_ascent,
    default_codebook,
    gain_terms,
    mean_subcarrier_phasor,
    mrc_weights,
    optimal_phases_continuous,
    optimize_gain,
    point_gain_terms,
    quantize_config,
    quantize_indices,
    steering_config,
    wrap_phase,
)
from risplan.propagation import direct_channel, ris_channel
from risplan.scene import DEFAULT_PHASE_LOOKUP, parse_scene

TWO_BIT = DEFAULT_PHASE_LOOKUP


def scene_with(**kwargs):
    doc = {
        "spec_version": 1,
        "carrier_hz": 3.5e9,
        "bs": [{"position_m": [0, 0]}],
        "ue_grid": {"x_min": 0, "x_max": 9, "y_min": 0, "y_max": 9, "resolution_m": 1},
    }
    doc.update(kwargs)
    return parse_scene(json.dumps(doc))


def ris_scene(m=8, **kwargs):
    return scene_with(ris={"position_m": [4, 0], "element_count": m}, **kwargs)


class TestWrapAndQuantize:
    def test_wrap_inside_untouched(self):
        x = np.array([0.0, 1.0, -3.0, math.pi / 4])
        np.testing.assert_array_equal(wrap_phase(x), x)

    def test_wrap_reduces(self):
        assert wrap_phase(3 * math.pi) == pytest.approx(-math.pi)
        assert wrap_phase(2 * math.pi + 0.3) == pytest.approx(0.3)

    def test_nearest_entry(self):
        # pi/5 is closer to 0 than to pi/2
        idx = quantize_indices([math.pi / 5], TWO_BIT)
        assert idx[0] == 0

    def test_tie_prefers_smaller_index(self):
        # pi/4 sits exactly between lookup entries 0 and pi/2
        idx = quantize_indices([math.pi / 4], TWO_BIT)
        assert idx[0] == 0

    def test_circular_distance(self):
        # -3 pi/4 wraps: closest entry is pi (index 2) at distance pi/4
        idx = quantize_indices([-3 * math.pi / 4 - 0.1], TWO_BIT)
        assert TWO_BIT[idx[0]] == math.pi

    def test_identity_on_lookup_values(self):
        config = quantize_config(list(TWO_BIT), TWO_BIT)
        assert config.phases_rad == TWO_BIT

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    def test_quantized_within_half_step(self, phases):
        config = quantize_config(phases, TWO_BIT)
        err = np.abs(wrap_phase(np.array(phases) - np.array(config.phases_rad)))
        assert np.all(err <= math.pi / 4 + 1e-12)


class TestRisConfig:
    def test_response(self):
        config = RisConfig(phases_rad=(0.0, math.pi / 2))
        np.testing.assert_allclose(config.response(), [1, 1j], atol=1e-15)

    def test_off_is_dark(self):
        config = RisConfig.off(3)
        np.testing.assert_array_equal(config.response(), np.zeros(3))
        assert not config.active

    def test_hashable(self):
        assert RisConfig.uniform(4) == RisConfig.uniform(4)
        assert len({RisConfig.uniform(4), RisConfig.uniform(4)}) == 1


class TestMrc:
    def test_unit_basis(self):
        w = mrc_weights(np.array([1.0 + 0j, 0.0]))
        np.testing.assert_allclose(w, [1, 0])

    def test_scaling_invariance(self):
        h = np.array([1 + 2j, -0.5j, 0.3])
        w1 = mrc_weights(h)
        w3 = mrc_weights(3 * h)
        np.testing.assert_allclose(w1, w3)
        assert abs(np.vdot(w3, 3 * h)) ** 2 == pytest.approx(9 * np.linalg.norm(h) ** 2)

    def test_random_search_never_beats_mrc(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=8) + 1j * rng.normal(size=8)
        best = np.linalg.norm(h) ** 2
        for _ in range(2000):
            w = rng.normal(size=8) + 1j * rng.normal(size=8)
            w /= np.linalg.norm(w)
            assert abs(np.vdot(w, h)) ** 2 <= best + 1e-12

    def test_random_search_approaches_mrc_dim2(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=2) + 1j * rng.normal(size=2)
        target = np.linalg.norm(h) ** 2
        found = 0.0
        for _ in range(100_000):
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            w /= np.linalg.norm(w)
            found = max(found, abs(np.vdot(w, h)) ** 2)
        assert found <= target + 1e-12
        assert found >= 0.99 * target

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            mrc_weights(np.zeros(3, dtype=complex))


class TestContinuousAlignment:
    def test_single_element_counter_phase(self):
        scene = ris_scene(m=1)
        ch = ris_channel(scene, 0, [2, 3, 0])
        config = optimal_phases_continuous(ch, 0.0)
        assert config.phases_rad[0] == pytest.approx(-np.angle(ch.hop_products[0]))

    def test_triangle_equality(self):
        scene = ris_scene(m=16)
        point = [2, 4, 0]
        ch = ris_channel(scene, 0, point)
        direct = complex(direct_channel(scene, 0, point).gains[0])
        config = optimal_phases_continuous(ch, direct)
        total = direct + np.sum(ch.hop_products * config.response())
        expected = abs(direct) + np.sum(np.abs(ch.hop_products))
        assert abs(total) == pytest.approx(expected, rel=1e-12)

    def test_real_positive_case(self):
        hops = np.array([0.5, 2.0, 1.0])
        ch_like = type("X", (), {"hop_products": hops})
        config = optimal_phases_continuous(ch_like, 1.0)
        np.testing.assert_allclose(config.phases_rad, 0.0)


class TestMeanSubcarrierPhasor:
    def test_zero_delay(self):
        assert mean_subcarrier_phasor(0.0, 64, 240e3) == 1.0 + 0j

    def test_single_subcarrier(self):
        assert mean_subcarrier_phasor(1e-7, 1, 240e3) == pytest.approx(1.0 + 0j)

    @pytest.mark.parametrize("count", [1, 2, 7, 64])
    def test_matches_explicit_mean(self, count):
        rng = np.random.default_rng(3)
        taus = np.concatenate([rng.uniform(-1e-6, 1e-6, 40), [0.0, 1e-12, -3e-9]])
        spacing = 240e3
        got = mean_subcarrier_phasor(taus, count, spacing)
        n = np.arange(count)
        want = np.mean(np.exp(2j * math.pi * n[:, None] * spacing * taus[None, :]), axis=0)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_magnitude_bounded(self):
        taus = np.linspace(-1e-5, 1e-5, 1001)
        assert np.all(np.abs(mean_subcarrier_phasor(taus, 16, 240e3)) <= 1 + 1e-12)


def brute_force_gain(scene, bs_index, point, z):
    """Explicit per-subcarrier, per-antenna evaluation of the mean gain."""
    n, df = scene.subcarrier_count, scene.subcarrier_spacing_hz
    direct = direct_channel(scene, bs_index, point)
    d = at_subcarriers(direct, n, df)  # (n, A)
    ch = ris_channel(scene, bs_index, point)
    sub = np.exp(
        -2j * math.pi * df * np.arange(n)[:, None] * ch.element_delays_s[None, :]
    )  # (n, M)
    casc = (sub * ch.hop_products[None, :]) @ z  # (n,)
    total = d + casc[:, None] * ch.bs_steering[None, :]
    return float(np.mean(np.sum(np.abs(total) ** 2, axis=1)))


class TestGainTerms:
    @pytest.mark.parametrize(
        "bs, subcarriers",
        [
            ({"position_m": [0, 0]}, 1),
            ({"position_m": [0, 0]}, 16),
            ({"position_m": [1, 2], "antenna_count": 4, "orientation_rad": 0.7}, 8),
        ],
    )
    def test_matches_brute_force(self, bs, subcarriers):
        scene = scene_with(
            bs=[bs],
            subcarrier_count=subcarriers,
            ris={"position_m": [4, 0], "element_count": 6},
        )
        terms = point_gain_terms(scene, 0, [2, 5, 0])
        rng = np.random.default_rng(9)
        for _ in range(5):
            z = np.exp(1j * rng.uniform(-math.pi, math.pi, 6))
            got = terms.gain(z)
            want = brute_force_gain(scene, 0, [2, 5, 0], z)
            assert got == pytest.approx(want, rel=1e-10)

    def test_off_equals_direct_only(self):
        scene = ris_scene(m=12)
        terms = point_gain_terms(scene, 0, [3, 3, 0])
        assert terms.gain_config(RisConfig.off(12)) == terms.c0

    def test_without_surface_constant(self):
        scene = scene_with()
        terms = point_gain_terms(scene, 0, [3, 3, 0])
        assert terms.b.shape == (0,)
        d = direct_channel(scene, 0, [3, 3, 0])
        assert terms.c0 == pytest.approx(float(np.abs(d.gains[0]) ** 2))

    def test_hermitian_v(self):
        scene = ris_scene(m=5, subcarrier_count=32)
        terms = point_gain_terms(scene, 0, [1, 6, 0])
        np.testing.assert_allclose(terms.V, terms.V.conj().T, atol=1e-20)


class TestOptimizeGain:
    def test_improves_on_initial(self):
        scene = ris_scene(m=16)
        terms = point_gain_terms(scene, 0, [3, 2, 0])
        init = np.zeros(16, dtype=np.int64)
        result = optimize_gain(terms, TWO_BIT, init_indices=init)
        start = terms.gain_config(RisConfig.uniform(16))
        assert result.gain >= start - 1e-15

    def test_matches_exhaustive_m4(self):
        scene = ris_scene(m=4)
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            point = [rng.uniform(0.5, 9), rng.uniform(0.5, 9), 0]
            terms = point_gain_terms(scene, 0, point)
            best_gain = -np.inf
            for combo in itertools.product(range(4), repeat=4):
                z = np.exp(1j * np.array([TWO_BIT[c] for c in combo]))
                g = terms.gain(z)
                if g > best_gain:
                    best_gain = g
                    best_combo = combo
            result = optimize_gain(terms, TWO_BIT)
            assert result.gain <= best_gain * (1 + 1e-12)
            assert result.gain == pytest.approx(best_gain, rel=1e-9)
            if result.indices == best_combo:
                hits += 1
        assert hits >= 38

    def test_constant_objective_keeps_init(self):
        terms = GainTerms(
            b=np.zeros(3, dtype=complex), V=np.zeros((3, 3), dtype=complex), c0=5.0
        )
        init = np.array([1, 2, 3 % 4], dtype=np.int64) % 4
        result = optimize_gain(terms, TWO_BIT, init_indices=init)
        assert result.indices == tuple(init)
        assert result.gain == 5.0

    def test_quantization_loss_bound_no_direct(self):
        # direct = 0: quantized coherent sum keeps >= cos^2(pi/4) of the power
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = rng.integers(2, 12)
            hops = rng.normal(size=m) + 1j * rng.normal(size=m)
            cont = float(np.sum(np.abs(hops)) ** 2)
            config = quantize_config(-np.angle(hops), TWO_BIT)
            quant = abs(np.sum(hops * config.response())) ** 2
            assert quant >= math.cos(math.pi / 4) ** 2 * cont - 1e-12

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.1, 1e6), seed=st.integers(0, 1000))
    def test_argmax_invariant_under_channel_scaling(self, scale, seed):
        rng = np.random.default_rng(seed)
        m = 6
        b = rng.normal(size=m) + 1j * rng.normal(size=m)
        root = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        V = root @ root.conj().T
        terms = GainTerms(b=b, V=V, c0=1.0)
        scaled = GainTerms(b=scale * b, V=scale * V, c0=scale * 1.0)
        r1 = optimize_gain(terms, TWO_BIT)
        r2 = optimize_gain(scaled, TWO_BIT)
        assert r1.indices == r2.indices


class TestGenericAscent:
    def test_m1_exhaustive(self):
        values = {0.0: 1.0, math.pi / 2: 5.0, math.pi: 2.0, -math.pi / 2: 0.5}

        def objective(config):
            return values[config.phases_rad[0]]

        config, value, trace = coordinate_ascent(objective, 1, TWO_BIT)
        assert config.phases_rad == (math.pi / 2,)
        assert value == 5.0

    def test_constant_objective_one_round(self):
        calls = []

        def objective(config):
            calls.append(config)
            return 1.0

        init = RisConfig(phases_rad=(math.pi, 0.0))
        config, value, trace = coordinate_ascent(objective, 2, TWO_BIT, init=init)
        assert config == init
        assert trace == (1.0, 1.0)

    def test_trace_non_decreasing(self):
        scene = ris_scene(m=5)
        terms = point_gain_terms(scene, 0, [2, 2, 0])

        def objective(config):
            return terms.gain_config(config)

        _, _, trace = coordinate_ascent(objective, 5, TWO_BIT, max_rounds=10)
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_agrees_with_quadratic_path(self):
        scene = ris_scene(m=6)
        terms = point_gain_terms(scene, 0, [1, 7, 0])
        fast = optimize_gain(terms, TWO_BIT, init_indices=np.zeros(6, dtype=np.int64))

        def objective(config):
            return terms.gain_config(config)

        slow_config, slow_value, _ = coordinate_ascent(
            objective, 6, TWO_BIT, init=RisConfig.uniform(6), max_rounds=20, rel_tol=1e-9
        )
        assert slow_value == pytest.approx(fast.gain, rel=1e-12)
        assert slow_config.phases_rad == fast.config.phases_rad


class TestCodebook:
    def test_structure(self):
        scene = ris_scene(m=8)
        book = default_codebook(scene)
        assert len(book) == 2 + 16
        assert not book[0].active
        assert book[1] == RisConfig.uniform(8)
        lookup = set(TWO_BIT)
        for entry in book[2:]:
            assert set(entry.phases_rad) <= lookup

    def test_single_direction(self):
        scene = scene_with(
            ris={"position_m": [4, 0], "element_count": 4, "codebook_directions": 1}
        )
        book = default_codebook(scene)
        assert len(book) == 3
        assert book[2] == steering_config(scene, 0.0)

    def test_broadside_beam_is_uniform(self):
        scene = ris_scene(m=6)
        assert steering_config(scene, 0.0).phases_rad == (0.0,) * 6

    def test_sweep_never_below_dark_entry(self):
        scene = ris_scene(m=8)
        for point in ([1, 1, 0], [4, 2, 0], [8, 8, 0]):
            terms = point_gain_terms(scene, 0, point)
            _, best = codebook_sweep(scene, 0, point)
            assert best >= terms.c0

    def test_sweep_matches_brute_force(self):
        scene = ris_scene(m=8)
        book = default_codebook(scene)
        point = [3, 1, 0]
        terms = point_gain_terms(scene, 0, point)
        gains = [terms.gain_config(c) for c in book]
        config, best = codebook_sweep(scene, 0, point, book)
        assert best == max(gains)
        assert config == book[int(np.argmax(gains))]

    def test_sweep_tie_prefers_first(self):
        scene = ris_scene(m=4)
        book = (RisConfig.off(4), RisConfig.off(4))
        config, _ = codebook_sweep(scene, 0, [5, 5, 0], book)
        assert config is book[0]
