"""Each kernel against an independent oracle, tie-breaks included."""

import numpy as np
import pytest

from risplan import kernels
from risplan.beamforming import RisConfig, coordinate_ascent
from risplan.kernels import ascent_quadratic, eval_quadratic_gain, forward_fill, max_pair_contrast


def random_quadratic(rng, m_count=12, n_lookup=4, k_count=1):
    b = rng.standard_normal((k_count, m_count)) + 1j * rng.standard_normal((k_count, m_count))
    a = rng.standard_normal((k_count, m_count, m_count)) + 1j * rng.standard_normal(
        (k_count, m_count, m_count)
    )
    V = a.conj().transpose(0, 2, 1) @ a  # Hermitian PSD by construction
    lookup = np.exp(2j * np.pi * np.arange(n_lookup) / n_lookup)
    init = rng.integers(0, n_lookup, (k_count, m_count))
    c0 = rng.uniform(0.1, 2.0, k_count)
    return b, V, c0, lookup, init


class TestMaxPairContrast:
    def test_single_state_is_zero(self):
        values = np.ones((1, 6), dtype=np.complex128)
        np.testing.assert_array_equal(max_pair_contrast(values), np.zeros(6))

    @pytest.mark.parametrize("n_states,n_freq", [(5, 11), (2, 5), (3, 17), (7, 64), (1, 9)])
    def test_matches_exhaustive(self, n_states, n_freq):
        rng = np.random.default_rng(n_states * 100 + n_freq)
        values = rng.standard_normal((n_states, n_freq)) + 1j * rng.standard_normal(
            (n_states, n_freq)
        )
        brute = np.zeros(n_freq)
        for i in range(n_states):
            for j in range(i + 1, n_states):
                brute = np.maximum(brute, np.abs(values[i] - values[j]))
        # brute force uses hypot-based abs, the kernel a naive modulus
        np.testing.assert_allclose(max_pair_contrast(values), brute, rtol=1e-14)


def mixed_block(seed):
    """Cells of different sizes of coupling, so they converge at different rounds."""
    rng = np.random.default_rng(seed)
    b, V, c0, lookup, init = random_quadratic(rng, m_count=10, n_lookup=8, k_count=6)
    V[1] *= 1e-3  # nearly separable: settles almost at once
    V[2] *= 30.0  # strongly coupled: takes more rounds
    b[3] *= 0.0  # no direct path: pure phase alignment
    return b, V, c0, lookup, init


def rounds_to_converge(b, V, c0, lookup, init, k):
    final = ascent_quadratic(b[k:k + 1], V[k:k + 1], c0[k:k + 1], lookup, init[k:k + 1], 50, 1e-12)
    for r in range(51):
        idx, _ = ascent_quadratic(b[k:k + 1], V[k:k + 1], c0[k:k + 1], lookup, init[k:k + 1], r,
                                  1e-12)
        if np.array_equal(idx, final[0]):
            return r
    raise AssertionError("did not converge")


def ascend_alone(b, V, c0, lookup, init, max_rounds, rel_tol):
    """beamforming.coordinate_ascent on G(z) for one cell; lookup positions stand in for phases."""
    labels = np.arange(len(lookup), dtype=float)

    def objective(config):
        return eval_quadratic_gain(b, V, c0, lookup[np.asarray(config.phases_rad, dtype=np.int64)])

    config, value, _ = coordinate_ascent(objective, len(b), labels, RisConfig(tuple(labels[init])),
                                         max_rounds, rel_tol)
    return np.asarray(config.phases_rad, dtype=np.int64), value


ROUNDS_AND_TOLERANCES = [(0, 1e-12), (1, 1e-12), (2, 1e-12), (50, 1e-12), (50, 0.05)]


def assert_matches_oracle(b, V, c0, lookup, init, max_rounds, rel_tol):
    idx, gain = ascent_quadratic(b, V, c0, lookup, init, max_rounds, rel_tol)
    for k in range(b.shape[0]):
        idx_k, gain_k = ascend_alone(b[k], V[k], c0[k], lookup, init[k], max_rounds, rel_tol)
        np.testing.assert_array_equal(idx[k], idx_k)
        assert gain[k] == pytest.approx(gain_k, rel=1e-12, abs=0.0)


class TestAscentQuadratic:
    @pytest.mark.parametrize("max_rounds,rel_tol", ROUNDS_AND_TOLERANCES)
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_coordinate_ascent(self, seed, max_rounds, rel_tol):
        rng = np.random.default_rng(seed)
        assert_matches_oracle(*random_quadratic(rng, k_count=3), max_rounds, rel_tol)

    @pytest.mark.parametrize("max_rounds,rel_tol", ROUNDS_AND_TOLERANCES)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_coordinate_ascent_cells_converging_at_different_rounds(
        self, seed, max_rounds, rel_tol
    ):
        b, V, c0, lookup, init = mixed_block(seed)
        rounds = {rounds_to_converge(b, V, c0, lookup, init, k) for k in range(b.shape[0])}
        assert len(rounds) > 1
        assert_matches_oracle(b, V, c0, lookup, init, max_rounds, rel_tol)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rel_tol", [1e-12, 0.05])
    def test_block_equals_cells_alone(self, seed, rel_tol):
        # a loose tolerance stops cells short of a fixed point, so a cell
        # that kept sweeping with its block mates would end elsewhere
        b, V, c0, lookup, init = mixed_block(seed)
        idx, gain = ascent_quadratic(b, V, c0, lookup, init, 50, rel_tol)
        for k in range(b.shape[0]):
            one = slice(k, k + 1)
            idx_k, gain_k = ascent_quadratic(b[one], V[one], c0[one], lookup, init[one], 50, rel_tol)
            np.testing.assert_array_equal(idx_k[0], idx[k])
            assert gain_k[0] == gain[k]

    def test_reaches_fixed_point_no_single_swap_helps(self):
        rng = np.random.default_rng(11)
        b, V, c0, lookup, init = random_quadratic(rng, m_count=8, k_count=2)
        idx, gain = ascent_quadratic(b, V, c0, lookup, init, 100, 0.0)
        for k in range(2):
            z = lookup[idx[k]]
            for m in range(8):
                for c in range(len(lookup)):
                    trial = z.copy()
                    trial[m] = lookup[c]
                    assert eval_quadratic_gain(b[k], V[k], c0[k], trial) <= gain[k] + 1e-9

    def test_never_below_start(self):
        rng = np.random.default_rng(21)
        b, V, c0, lookup, init = random_quadratic(rng, m_count=6, k_count=5)
        _, gain = ascent_quadratic(b, V, c0, lookup, init, 30, 1e-12)
        for k in range(5):
            start = eval_quadratic_gain(b[k], V[k], c0[k], lookup[init[k]])
            assert gain[k] >= start - 1e-9

    def test_zero_rounds_returns_start(self):
        rng = np.random.default_rng(5)
        b, V, c0, lookup, init = random_quadratic(rng, m_count=4, k_count=2)
        idx, gain = ascent_quadratic(b, V, c0, lookup, init, 0, 1e-12)
        np.testing.assert_array_equal(idx, init)
        for k in range(2):
            assert gain[k] == pytest.approx(
                eval_quadratic_gain(b[k], V[k], c0[k], lookup[init[k]]), rel=1e-12
            )


class TestForwardFill:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = 500
        switch = rng.random(n) < 0.3
        draws = rng.integers(0, 7, n)
        expect, cur = [], 0
        for t in range(n):
            if switch[t]:
                cur = draws[t]
            expect.append(cur)
        np.testing.assert_array_equal(forward_fill(switch, draws), expect)

    def test_no_switch_stays_at_zero(self):
        out = forward_fill(np.zeros(10, dtype=bool), np.full(10, 5, dtype=np.int64))
        np.testing.assert_array_equal(out, np.zeros(10, dtype=np.int64))

    def test_hand_worked_chain(self):
        switch = np.array([False, True, False, False, True, False])
        draws = np.array([9, 3, 9, 9, 1, 9], dtype=np.int64)
        np.testing.assert_array_equal(forward_fill(switch, draws), [0, 3, 3, 3, 1, 1])

    def test_switch_every_slot_copies_draws(self):
        draws = np.array([4, 0, 2, 2, 6], dtype=np.int64)
        np.testing.assert_array_equal(forward_fill(np.ones(5, dtype=bool), draws), draws)


def test_numpy_backend_binding_kept():
    # the benchmark names the kernel backend by this identity
    assert kernels.ascent_quadratic is kernels.ascent_quadratic_numpy
