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

The gain nuisances are marginalized by projection (Shen & Win,
"Fundamental limits of wideband localization, Part I", IEEE TIT 2010):
a path's gain columns touch only that path's rows, so the equivalent
position information is the sum over paths of Re(D⊥ᴴD⊥), where D⊥ is the
path's position Jacobian with its gain direction projected out. Nothing
is subtracted after the Gram product, so every term is symmetric positive
semidefinite by construction. :func:`peb_pairs` evaluates this for blocks
of grid points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentNodeError
from .propagation import (
    C_LIGHT_M_S,
    BsLeg,
    bs_leg,
    dbm_to_watts,
    ray_amplitudes,
    ris_channels,
    surface_legs,
)
from .scene import Scene
from .seeding import derived_integers, derived_rng

PEB_CONDITION_LIMIT = 1e12

# Memory held by one block's reflected-row operands (complex: the M x 3N
# element terms and the K x 3N pilot rows per cell). It bounds the working
# set, never the result, which is the same for any block size.
_BLOCK_BYTES = 2 * 2**20


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


def _pilot_configs(scene: Scene, point_indices) -> np.ndarray:
    """(n, pilot_count, element_count) lookup indices, one derived stream per point and pilot."""
    return derived_integers(
        scene.seed,
        "loc-pilot",
        np.asarray(point_indices, dtype=np.int64)[:, None],
        np.arange(scene.localization.pilot_count)[None, :],
        high=len(scene.ris.phase_lookup_rad),
        size=scene.ris.element_count,
    )


def pilot_configs(scene: Scene, point_index: int) -> np.ndarray:
    """(pilot_count, element_count) lookup indices, one derived stream per pilot."""
    return _pilot_configs(scene, [point_index])[0]


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


def _direct_rows(scene: Scene, bs_index: int, points: np.ndarray):
    """A station's direct path at (n, 3) points.

    Returns mu (n, N), d_pos (n, 2, N), basis (n, N) and the distance (n,).
    A point on the station comes back with distance 0 and non-finite rows;
    callers mask it or raise.
    """
    q = np.asarray(scene.bs[bs_index].position_m, dtype=float)
    amp, d = ray_amplitudes(scene, points, q)
    n = np.arange(scene.subcarrier_count)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = pilot_amplitude(scene) * amp * np.exp(-2j * math.pi * d / scene.wavelength_m)
        tau = d / C_LIGHT_M_S
        d_tau = (points - q)[:, :2] / (C_LIGHT_M_S * d)[:, None]
        phi = np.exp(-2j * math.pi * n * scene.subcarrier_spacing_hz * tau[:, None])
        slope = gamma[:, None] * (-2j * math.pi * scene.subcarrier_spacing_hz) * n * phi
        d_pos = slope[:, None, :] * d_tau[:, :, None]
        return gamma[:, None] * phi, d_pos, phi, d


def _reflected_rows(scene: Scene, leg: BsLeg, points: np.ndarray, configs: np.ndarray):
    """The surface path at (n, 3) points under (n, K, M) pilot configs.

    Returns mu (n, K N) and d_pos (n, 2, K N), rows pilot-major, and the
    (n, M) point-to-element distances; a point on an element has distance
    0 there and non-finite rows. Every pilot's rows come out of one
    batched product of the pilot responses with the element terms.
    """
    gains, dists = surface_legs(scene, points)
    ch = ris_channels(scene, leg, gains, dists)
    count, m = dists.shape
    n = np.arange(scene.subcarrier_count)
    n_scale = -2j * math.pi * scene.subcarrier_spacing_hz * n
    phasors = np.exp(1j * np.asarray(scene.ris.phase_lookup_rad, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = pilot_amplitude(scene) * ch.hop_products  # (n, M)
        d2 = ch.element_to_point_m
        d_dist = (points[:, None, :] - ch.element_positions_m[None])[..., :2] / d2[..., None]
        dg = g[..., None] * (-1.0 / d2 - 2j * math.pi / scene.wavelength_m)[..., None] * d_dist
        g_tau = g[..., None] * (d_dist / C_LIGHT_M_S)
        # (n, M, N) subcarrier phasors of each element's two-leg delay
        delays = scene.subcarrier_spacing_hz * ch.element_delays_s
        eps = np.exp(-2j * math.pi * (delays[..., None] * n))
        # d/dp splits into a gain part and a delay part, the latter n-scaled
        terms = np.stack([
            g[..., None] * eps,
            (dg[..., 0, None] + g_tau[..., 0, None] * n_scale) * eps,
            (dg[..., 1, None] + g_tau[..., 1, None] * n_scale) * eps,
        ], axis=2).reshape(count, m, -1)  # (n, M, 3 N)
        rows = (phasors[configs] @ terms).reshape(count, -1, 3, n.size)  # (n, K, 3, N)
    mu = rows[:, :, 0].reshape(count, -1)
    d_pos = np.moveaxis(rows[:, :, 1:], 2, 1).reshape(count, 2, -1)
    return mu, d_pos, dists


def _direct_block(scene: Scene, bs_index: int, point) -> PathBlock:
    mu, d_pos, basis, dist = _direct_rows(scene, bs_index, np.asarray(point, dtype=float)[None, :])
    if dist[0] == 0.0:
        raise CoincidentNodeError(
            f"point coincides with the base station at {scene.bs[bs_index].position_m}"
        )
    return PathBlock(
        mu=mu[0],
        d_pos=d_pos[0].T,
        basis=basis[0],
        gain_slot=bs_index,
        weight=float(scene.localization.pilot_count),
    )


def _reflected_block(scene: Scene, bs_index: int, point, configs: np.ndarray) -> PathBlock:
    p = np.asarray(point, dtype=float)
    mu, d_pos, dists = _reflected_rows(scene, bs_leg(scene, bs_index), p[None, :], configs[None])
    if np.any(dists == 0.0):
        raise CoincidentNodeError(
            f"point {p.tolist()} coincides with surface element {int(np.argmin(dists[0]))}"
        )
    return PathBlock(
        mu=mu[0],
        d_pos=d_pos[0].T,
        basis=mu[0].copy(),
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


def _path_information(d_pos: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(n, 2, 2) Re(D⊥ᴴD⊥) of one path: its position information, gain marginalized.

    ``d_pos`` (n, 2, R) holds the path's position columns, ``basis`` (n, R)
    its gain column. The gain's real and imaginary columns span the complex
    line of ``basis``, so projecting them out is the rank-one complex
    projection D⊥ = D - v (vᴴD) / (vᴴv). A path with vᴴv == 0 carries no
    energy and adds nothing.
    """
    energy = np.sum(basis.real**2 + basis.imag**2, axis=-1)
    live = energy > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.sum(np.conj(basis)[:, None, :] * d_pos, axis=-1) / energy[:, None]
    coef = np.where(live[:, None], coef, 0.0)
    proj = d_pos - coef[..., None] * basis[:, None, :]
    re, im = proj.real, proj.imag
    xx = np.sum(re[:, 0] ** 2 + im[:, 0] ** 2, axis=-1)
    yy = np.sum(re[:, 1] ** 2 + im[:, 1] ** 2, axis=-1)
    xy = np.sum(re[:, 0] * re[:, 1] + im[:, 0] * im[:, 1], axis=-1)
    info = np.stack([np.stack([xx, xy], axis=-1), np.stack([xy, yy], axis=-1)], axis=-2)
    return np.where(live[:, None, None], info, 0.0)


@dataclass(frozen=True)
class PebResult:
    peb_m: float | np.ndarray
    fim_condition: float | np.ndarray


def peb(fim_2x2) -> PebResult:
    """Root-trace of the inverse 2x2 position information, for one matrix or a (..., 2, 2) stack.

    A matrix that is not positive definite, or whose condition number
    exceeds ``PEB_CONDITION_LIMIT``, has an infinite bound.
    """
    f = np.asarray(fim_2x2, dtype=float)
    if f.ndim < 2 or f.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {f.shape}")
    scale = np.max(np.abs(f), axis=(-2, -1))
    if np.any(np.abs(f[..., 0, 1] - f[..., 1, 0]) > 1e-9 * np.maximum(scale, 1.0)):
        raise ValueError("position information matrix must be symmetric")
    eig = np.linalg.eigvalsh(f)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = np.where(eig[..., 0] > 0, eig[..., -1] / eig[..., 0], math.inf)
        det = f[..., 0, 0] * f[..., 1, 1] - f[..., 0, 1] * f[..., 1, 0]
        bound = np.where(
            condition > PEB_CONDITION_LIMIT, math.inf, np.sqrt((f[..., 0, 0] + f[..., 1, 1]) / det)
        )
    return PebResult(peb_m=bound[()], fim_condition=condition[()])


def _cell_block(scene: Scene) -> int:
    per_cell = 3 * scene.subcarrier_count
    if scene.ris is not None:
        per_cell *= scene.ris.element_count + scene.localization.pilot_count
    return max(1, _BLOCK_BYTES // (16 * per_cell))


def _peb_block(scene: Scene, points: np.ndarray, indices: np.ndarray, leg: BsLeg | None):
    """(2, n) without and with bounds at a block of points, NaN on a scene node."""
    scale = 2.0 / noise_variance_w(scene)
    weight = float(scene.localization.pilot_count)
    on_node = np.zeros(len(points), dtype=bool)
    without = np.zeros((len(points), 2, 2))
    for b in range(len(scene.bs)):
        _, d_pos, basis, dist = _direct_rows(scene, b, points)
        on_node |= dist == 0.0
        without += weight * scale * _path_information(d_pos, basis)
    with_ = without
    if leg is not None:
        mu, d_pos, dists = _reflected_rows(scene, leg, points, _pilot_configs(scene, indices))
        on_node |= np.any(dists == 0.0, axis=1)
        with_ = without + scale * _path_information(d_pos, mu)
    bounds = np.full((2, len(points)), math.nan)
    ok = ~on_node
    if np.any(ok):
        bounds[:, ok] = peb(np.stack([without[ok], with_[ok]])).peb_m
    return bounds


def peb_pairs(scene: Scene, points, point_indices=None) -> np.ndarray:
    """(2, n) without and with position error bound in metres at each point.

    The grid-batched engine behind the ``peb_m`` map. Each point's pilot
    configs derive from its index (``point_indices``, by default its
    position in ``points``), and blocks of points are processed together,
    sized so one block's reflected-row operands stay within a fixed memory
    budget; every operation is per point, so the result does not depend on
    the block size. A point on a base station or a surface element reads
    NaN in both rows, and so does every point when the surface leg of the
    station nearest the surface is degenerate.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    indices = np.arange(len(points)) if point_indices is None else np.asarray(point_indices)
    bounds = np.full((2, len(points)), math.nan)
    leg = None
    if scene.ris is not None:
        try:
            leg = bs_leg(scene, scene.nearest_bs_to_ris())
        except CoincidentNodeError:
            return bounds
    block = _cell_block(scene)
    for start in range(0, len(points), block):
        stop = start + block
        bounds[:, start:stop] = _peb_block(scene, points[start:stop], indices[start:stop], leg)
    return bounds


def peb_pair(scene: Scene, point, point_index: int = 0) -> tuple[float, float]:
    """(without, with) bound in metres for one grid point: a one-row view of :func:`peb_pairs`."""
    return tuple(peb_pairs(scene, [point], [point_index])[:, 0].tolist())


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
