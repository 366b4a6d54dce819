"""Per-cell localization paths: the oracles of ``peb_pairs``.

The package builds observation rows and position information only for
blocks of grid cells (:func:`risplan.localization.peb_pairs`). This module
keeps the per-cell paths it is checked against, with their arithmetic
unchanged:

* the observation model, one path block per station and pilot set;
* the bound by Schur subtraction, which the package computed before the
  projection EFIM: stack every path's Jacobian columns into one full
  information matrix over the position and all gain nuisances, then
  marginalize the nuisances by a Schur complement of the Jacobi-scaled
  nuisance block. On well-conditioned cells it agrees with ``peb_pairs`` to
  rounding, amplified by the cancellation in the subtraction;
* a Monte-Carlo maximum-likelihood position estimate, whose RMSE the
  acceptance test compares with the bound.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from risplan.errors import CoincidentNodeError
from risplan.localization import (
    PEB_CONDITION_LIMIT,
    PebResult,
    _direct_rows,
    _pilot_configs,
    _reflected_rows,
    noise_variance_w,
    peb,
    pilot_amplitude,
)
from risplan.propagation import bs_leg, ray_amplitudes, surface_legs
from risplan.seeding import derived_rng


def pilot_configs(scene, point_index: int) -> np.ndarray:
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


def _direct_block(scene, bs_index: int, point) -> PathBlock:
    points = np.asarray(point, dtype=float)[None, :]
    d_pos, basis, dist = _direct_rows(scene, bs_index, points)
    if dist[0] == 0.0:
        raise CoincidentNodeError(
            f"point coincides with the base station at {scene.bs[bs_index].position_m}"
        )
    # the noise-free rows: the path gain times the subcarrier phasors of the basis
    amp, d = ray_amplitudes(scene, points, np.asarray(scene.bs[bs_index].position_m, dtype=float))
    gamma = pilot_amplitude(scene) * amp * np.exp(-2j * math.pi * d / scene.wavelength_m)
    return PathBlock(
        mu=(gamma[:, None] * basis)[0],
        d_pos=d_pos[0].T,
        basis=basis[0],
        gain_slot=bs_index,
        weight=float(scene.localization.pilot_count),
    )


def _reflected_block(scene, bs_index: int, point, configs: np.ndarray) -> PathBlock:
    p = np.asarray(point, dtype=float)
    legs = surface_legs(scene, p[None, :])
    dists = legs[1]
    if np.any(dists == 0.0):
        raise CoincidentNodeError(
            f"point {p.tolist()} coincides with surface element {int(np.argmin(dists[0]))}"
        )
    mu, d_pos = _reflected_rows(scene, bs_leg(scene, bs_index), p[None, :], legs, configs[None])
    return PathBlock(
        mu=mu[0],
        d_pos=d_pos[0].T,
        basis=mu[0].copy(),
        gain_slot=len(scene.bs),
        weight=1.0,
    )


def surface_station(scene):
    """Index of the station that carries the reflected path, None for none.

    It is the station nearest the surface centre among those whose surface
    leg exists, the lowest index on a tie.
    """
    best = None
    centre = np.array(scene.ris.position_m)
    for b, bs in enumerate(scene.bs):
        try:
            bs_leg(scene, b)
        except CoincidentNodeError:
            continue
        dist = float(np.linalg.norm(np.array(bs.position_m) - centre))
        if best is None or dist < best[0]:
            best = (dist, b)
    return None if best is None else best[1]


def observation_model(scene, bs_index: int, point, ris_configs=None):
    """Path blocks for one transmitting base station.

    ``ris_configs`` (pilot-indexed lookup rows) activates the reflected
    path, which only the station :func:`surface_station` names carries.
    """
    blocks = [_direct_block(scene, bs_index, point)]
    if ris_configs is not None and bs_index == surface_station(scene):
        blocks.append(_reflected_block(scene, bs_index, point, np.asarray(ris_configs)))
    return tuple(blocks)


def _stacked_observation(scene, point, with_ris: bool, point_index: int):
    """Blocks with direct rows expanded to per-pilot copies (for simulation)."""
    configs = pilot_configs(scene, point_index) if with_ris else None
    expanded = []
    for b in range(len(scene.bs)):
        for blk in observation_model(scene, b, point, configs):
            reps = int(round(blk.weight))
            expanded.append(np.tile(blk.mu, reps))
    return expanded


def _concentrated_cost(scene, xy, fixed_z, observations, with_ris, point_index):
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
    scene,
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
    against the bound, not as a practical estimator.
    """
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


def build_fim(scene, point, with_ris, point_index=0):
    """Stack all stations' path blocks into the full information matrix."""
    bs_count = len(scene.bs)
    dim = 2 + 2 * bs_count + (2 if with_ris else 0)
    configs = pilot_configs(scene, point_index) if with_ris else None
    fim = np.zeros((dim, dim))
    scale = 2.0 / noise_variance_w(scene)
    for b in range(bs_count):
        for blk in observation_model(scene, b, point, configs):
            cols = [0, 1, 2 + 2 * blk.gain_slot, 3 + 2 * blk.gain_slot]
            jac = np.column_stack([blk.d_pos, blk.basis, 1j * blk.basis])
            fim[np.ix_(cols, cols)] += blk.weight * scale * np.real(jac.conj().T @ jac)
    return fim


def equivalent_position_fim(fim):
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


def peb_point(scene, point, with_ris, point_index=0):
    fim = build_fim(scene, point, with_ris, point_index)
    pos = equivalent_position_fim(fim)
    if pos is None:
        return PebResult(peb_m=math.inf, fim_condition=math.inf)
    return peb(pos)
