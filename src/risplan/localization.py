"""Fisher-information position error bounds with and without the surface path.

The unknown vector is the 2D position plus one complex gain per
propagation path: each base station's direct path, and (when enabled)
the aggregate reflected path of the surface. Position information enters
through subcarrier delay slopes for direct paths and additionally
through per-element wavefront curvature for the reflected path, whose
element phases are resolved at carrier scale.

Paths contribute information additively: each path forms its own block
of observation rows, so switching the surface on adds a positive
semidefinite term to the information matrix and can never worsen the
bound. Base stations transmit orthogonally; the reflected path is
carried only by the station nearest the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentNodeError
from .propagation import C_LIGHT_M_S, dbm_to_watts, ray_amplitudes, ris_channel
from .scene import Scene
from .seeding import derived_rng

PEB_CONDITION_LIMIT = 1e12


def noise_variance_w(scene: Scene) -> float:
    """Per-sample complex noise power: one subcarrier's bandwidth plus figure."""
    per_sample_dbm = (
        scene.noise_psd_dbm_hz
        + 10.0 * math.log10(scene.subcarrier_spacing_hz)
        + scene.noise_figure_db
    )
    return dbm_to_watts(per_sample_dbm)


def pilot_amplitude(scene: Scene) -> float:
    """Transmit amplitude per subcarrier, total power split evenly."""
    total_w = dbm_to_watts(scene.localization.tx_power_dbm)
    return math.sqrt(total_w / scene.subcarrier_count)


def pilot_configs(scene: Scene, point_index: int) -> np.ndarray:
    """(pilot_count, element_count) lookup indices, one derived stream per pilot."""
    level_count = len(scene.ris.phase_lookup_rad)
    m = scene.ris.element_count
    rows = [
        derived_rng(scene.seed, "loc-pilot", point_index, k).integers(0, level_count, size=m)
        for k in range(scene.localization.pilot_count)
    ]
    return np.asarray(rows, dtype=np.int64)


@dataclass(frozen=True)
class PathBlock:
    """Observation rows of one path with their position Jacobian.

    ``weight`` is the pilot multiplicity: direct-path rows repeat
    unchanged every pilot, so they are stored once. ``gain_slot`` says
    which complex-gain nuisance the rows belong to (base station index,
    or the station count for the reflected path); ``basis`` is the
    derivative of the rows with respect to that gain's real part.
    """

    mu: np.ndarray  # (rows,) complex, noise-free
    d_pos: np.ndarray  # (rows, 2) complex
    basis: np.ndarray  # (rows,) complex
    gain_slot: int
    weight: float


def _direct_block(scene: Scene, bs_index: int, point) -> PathBlock:
    bs = scene.bs[bs_index]
    p = np.asarray(point, dtype=float)
    q = np.asarray(bs.position_m, dtype=float)
    amp, d = (float(v) for v in ray_amplitudes(scene, p, q))
    if d == 0.0:
        raise CoincidentNodeError(f"point coincides with the base station at {bs.position_m}")
    gamma = pilot_amplitude(scene) * amp * np.exp(-2j * math.pi * d / scene.wavelength_m)
    tau = d / C_LIGHT_M_S
    d_tau = (p - q)[:2] / (C_LIGHT_M_S * d)
    n = np.arange(scene.subcarrier_count)
    phi = np.exp(-2j * math.pi * n * scene.subcarrier_spacing_hz * tau)
    slope = gamma * (-2j * math.pi * scene.subcarrier_spacing_hz) * n * phi
    return PathBlock(
        mu=gamma * phi,
        d_pos=slope[:, None] * d_tau[None, :],
        basis=phi,
        gain_slot=bs_index,
        weight=float(scene.localization.pilot_count),
    )


def _reflected_block(scene: Scene, bs_index: int, point, configs: np.ndarray) -> PathBlock:
    ch = ris_channel(scene, bs_index, point)
    p = np.asarray(point, dtype=float)
    g = pilot_amplitude(scene) * ch.hop_products  # (M,)
    d2 = ch.element_to_point_m
    d_dist = (p[None, :] - ch.element_positions_m)[:, :2] / d2[:, None]  # (M, 2)
    lam = scene.wavelength_m
    dg = g[:, None] * (-1.0 / d2 - 2j * math.pi / lam)[:, None] * d_dist
    taus = ch.element_delays_s
    d_tau = d_dist / C_LIGHT_M_S

    n = np.arange(scene.subcarrier_count)
    eps = np.exp(-2j * math.pi * np.outer(n, scene.subcarrier_spacing_hz * taus))  # (N, M)
    lookup = np.asarray(scene.ris.phase_lookup_rad, dtype=float)
    resp = np.exp(1j * lookup[configs])  # (K, M)

    mu = resp @ (eps * g[None, :]).T  # (K, N)
    # d/dp splits into a gain part and a delay part, the latter n-scaled
    gain_x = resp @ (eps * dg[:, 0][None, :]).T
    gain_y = resp @ (eps * dg[:, 1][None, :]).T
    phase_x = resp @ (eps * (g * d_tau[:, 0])[None, :]).T
    phase_y = resp @ (eps * (g * d_tau[:, 1])[None, :]).T
    n_scale = -2j * math.pi * scene.subcarrier_spacing_hz * n[None, :]
    d_pos = np.stack(
        [gain_x + n_scale * phase_x, gain_y + n_scale * phase_y], axis=-1
    )  # (K, N, 2)
    flat = mu.reshape(-1)
    return PathBlock(
        mu=flat,
        d_pos=d_pos.reshape(-1, 2),
        basis=flat.copy(),
        gain_slot=len(scene.bs),
        weight=1.0,
    )


def observation_model(scene: Scene, bs_index: int, point, ris_configs=None):
    """Path blocks for one transmitting base station.

    ``ris_configs`` (pilot-indexed lookup rows) activates the reflected
    path, which only the station nearest the surface carries.
    """
    blocks = [_direct_block(scene, bs_index, point)]
    if (
        ris_configs is not None
        and scene.ris is not None
        and bs_index == scene.nearest_bs_to_ris()
    ):
        blocks.append(_reflected_block(scene, bs_index, point, np.asarray(ris_configs)))
    return tuple(blocks)


def build_fim(scene: Scene, point, with_ris: bool, point_index: int = 0) -> np.ndarray:
    """Stack all stations' path blocks into the full information matrix."""
    bs_count = len(scene.bs)
    use_ris = with_ris and scene.ris is not None
    dim = 2 + 2 * bs_count + (2 if use_ris else 0)
    configs = pilot_configs(scene, point_index) if use_ris else None
    fim = np.zeros((dim, dim))
    scale = 2.0 / noise_variance_w(scene)
    for b in range(bs_count):
        for blk in observation_model(scene, b, point, configs):
            cols = [0, 1, 2 + 2 * blk.gain_slot, 3 + 2 * blk.gain_slot]
            jac = np.column_stack([blk.d_pos, blk.basis, 1j * blk.basis])
            fim[np.ix_(cols, cols)] += blk.weight * scale * np.real(jac.conj().T @ jac)
    return fim


def equivalent_position_fim(fim: np.ndarray) -> np.ndarray | None:
    """Marginalize the gain nuisances; None flags a singular nuisance block.

    The nuisance block is Jacobi-scaled before the condition test so the
    verdict reflects collinearity between paths, not their wildly
    different gain magnitudes. A path with exactly zero energy has no
    rows at all and drops out instead of flagging.
    """
    pos = fim[:2, :2]
    if fim.shape[0] == 2:
        return pos
    diag = np.diag(fim)[2:]
    keep = diag > 0.0
    if not np.any(keep):
        return pos
    cross = fim[:2, 2:][:, keep]
    nuis = fim[2:, 2:][np.ix_(keep, keep)]
    d = 1.0 / np.sqrt(diag[keep])
    nuis_scaled = nuis * d[:, None] * d[None, :]
    eig = np.linalg.eigvalsh(nuis_scaled)
    if eig[0] <= 0 or eig[-1] / eig[0] > PEB_CONDITION_LIMIT:
        return None
    cross_scaled = cross * d[None, :]
    return pos - cross_scaled @ np.linalg.solve(nuis_scaled, cross_scaled.T)


@dataclass(frozen=True)
class PebResult:
    peb_m: float
    fim_condition: float


def peb(fim_2x2) -> PebResult:
    """Root-trace of the inverse 2x2 position information."""
    f = np.asarray(fim_2x2, dtype=float)
    if f.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {f.shape}")
    scale = np.max(np.abs(f))
    if abs(f[0, 1] - f[1, 0]) > 1e-9 * max(scale, 1.0):
        raise ValueError("position information matrix must be symmetric")
    eig = np.linalg.eigvalsh(f)
    if eig[0] <= 0:
        return PebResult(peb_m=math.inf, fim_condition=math.inf)
    condition = eig[-1] / eig[0]
    if condition > PEB_CONDITION_LIMIT:
        return PebResult(peb_m=math.inf, fim_condition=condition)
    det = f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0]
    return PebResult(peb_m=math.sqrt((f[0, 0] + f[1, 1]) / det), fim_condition=condition)


def peb_point(scene: Scene, point, with_ris: bool, point_index: int = 0) -> PebResult:
    fim = build_fim(scene, point, with_ris, point_index)
    pos = equivalent_position_fim(fim)
    if pos is None:
        return PebResult(peb_m=math.inf, fim_condition=math.inf)
    return peb(pos)


def peb_pair(scene: Scene, point, point_index: int = 0) -> tuple[float, float]:
    """(without, with) bound in metres for one grid point."""
    without = peb_point(scene, point, with_ris=False, point_index=point_index).peb_m
    with_ris = peb_point(scene, point, with_ris=True, point_index=point_index).peb_m
    return without, with_ris


def _stacked_observation(scene: Scene, point, with_ris: bool, point_index: int):
    """Blocks with direct rows expanded to per-pilot copies (for simulation)."""
    use_ris = with_ris and scene.ris is not None
    configs = pilot_configs(scene, point_index) if use_ris else None
    expanded = []
    for b in range(len(scene.bs)):
        for blk in observation_model(scene, b, point, configs):
            reps = int(round(blk.weight))
            expanded.append(np.tile(blk.mu, reps))
    return expanded


def _concentrated_cost(scene: Scene, xy, fixed_z, observations, with_ris, point_index):
    """Negative log-likelihood with per-path gains profiled out."""
    point = [float(xy[0]), float(xy[1]), fixed_z]
    try:
        blocks = _stacked_observation(scene, point, with_ris, point_index)
    except CoincidentNodeError:
        return math.inf
    cost = 0.0
    for y, mu in zip(observations, blocks):
        energy = float(np.vdot(mu, mu).real)
        if energy == 0.0:
            cost += float(np.vdot(y, y).real)
            continue
        cost += float(np.vdot(y, y).real) - abs(np.vdot(mu, y)) ** 2 / energy
    return cost


def ml_position_rmse(
    scene: Scene,
    point,
    draws: int = 200,
    with_ris: bool = False,
    point_index: int = 0,
    grid_half_span_m: float = 1.0,
    grid_steps: int = 21,
) -> float:
    """Monte-Carlo RMSE of the concentrated least-squares position estimate.

    A local grid around the true point picks the likelihood basin, a
    simplex polish finds the minimum. Intended for high-SNR sanity runs
    against the bound, not as a practical estimator: kept as a deliberate
    oracle for the tests, on no command-line path, so scipy loads only
    when it runs.
    """
    from scipy.optimize import minimize

    p_true = np.asarray(point, dtype=float)
    clean = _stacked_observation(scene, p_true, with_ris, point_index)
    sigma = math.sqrt(noise_variance_w(scene))

    offsets = np.linspace(-grid_half_span_m, grid_half_span_m, grid_steps)
    gx, gy = np.meshgrid(p_true[0] + offsets, p_true[1] + offsets, indexing="ij")
    candidates = np.column_stack([gx.ravel(), gy.ravel()])
    cand_blocks = []
    for xy in candidates:
        blocks = _stacked_observation(
            scene, [xy[0], xy[1], p_true[2]], with_ris, point_index
        )
        cand_blocks.append([mu / max(np.linalg.norm(mu), 1e-300) for mu in blocks])

    rng = derived_rng(scene.seed, "ml-noise", point_index)
    errors = np.empty(draws)
    for t in range(draws):
        obs = [
            mu
            + sigma
            / math.sqrt(2)
            * (rng.standard_normal(mu.shape) + 1j * rng.standard_normal(mu.shape))
            for mu in clean
        ]
        scores = np.empty(len(candidates))
        for i, unit_blocks in enumerate(cand_blocks):
            s = 0.0
            for u, y in zip(unit_blocks, obs):
                s += abs(np.vdot(u, y)) ** 2
            scores[i] = s
        start = candidates[int(np.argmax(scores))]
        res = minimize(
            lambda xy: _concentrated_cost(
                scene, xy, p_true[2], obs, with_ris, point_index
            ),
            x0=start,
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 400},
        )
        errors[t] = np.linalg.norm(res.x - p_true[:2])
    return float(np.sqrt(np.mean(errors**2)))
