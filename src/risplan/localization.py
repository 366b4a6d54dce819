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
carried only by the station nearest the surface centre among those with a
surface leg (:func:`risplan.propagation.station_legs`), the lowest index
on a tie. With no such station the bound with the surface is the one
without.

The gain nuisances are marginalized by projection (Shen & Win,
"Fundamental limits of wideband localization, Part I", IEEE TIT 2010):
a path's gain columns touch only that path's rows, so the equivalent
position information is the sum over paths of Re(D⊥ᴴD⊥), where D⊥ is the
path's position Jacobian with its gain direction projected out. Nothing
is subtracted after the Gram product, so every term is symmetric positive
semidefinite by construction. :func:`peb_pairs` evaluates this for blocks
of grid points at once; the tests keep the per-point observation model,
the bound by Schur subtraction and a maximum-likelihood position estimate
it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import state_responses
from .propagation import (
    BsLeg,
    dbm_to_watts,
    ray_amplitudes,
    ris_channels,
    station_legs,
    surface_legs,
)
from .scene import C_LIGHT_M_S, Scene
from .seeding import derived_integers

PEB_CONDITION_LIMIT = 1e12

# Budget for the reflected-path operands one block holds at once, counted
# per cell by :func:`_cell_bytes`: the element phasors and terms, the pilot
# responses, the pilot rows and their mu and d_pos copies. It bounds
# memory, never the result, which is the same for any block size.
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
    """(n, pilot_count, element_count) state indices, one derived stream per point and pilot."""
    return derived_integers(
        scene.seed,
        "loc-pilot",
        np.asarray(point_indices, dtype=np.int64)[:, None],
        np.arange(scene.localization.pilot_count)[None, :],
        high=state_responses(scene).size,
        size=scene.ris.element_count,
    )


def _direct_rows(scene: Scene, bs_index: int, points: np.ndarray):
    """A station's direct path at (n, 3) points.

    Returns d_pos (n, 2, N), the gain basis (n, N) and the distance (n,).
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
        return d_pos, phi, d


def _reflected_rows(
    scene: Scene, leg: BsLeg, points: np.ndarray, legs: tuple, configs: np.ndarray
):
    """The surface path at (n, 3) points under (n, K, M) pilot configs.

    ``legs`` is :func:`risplan.propagation.surface_legs` at the points.
    Returns mu (n, K N) and d_pos (n, 2, K N), rows pilot-major; a point on
    an element has non-finite rows. Every pilot's rows come out of one
    batched product of the pilot responses with the element terms.
    """
    gains, dists = legs
    ch = ris_channels(leg, gains, dists)
    count, m = dists.shape
    n = np.arange(scene.subcarrier_count)
    n_scale = -2j * math.pi * scene.subcarrier_spacing_hz * n
    responses = state_responses(scene)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = pilot_amplitude(scene) * ch.hop_products  # (n, M)
        d2 = ch.element_to_point_m
        d_dist = (points[:, None, :] - ch.element_positions_m[None])[..., :2] / d2[..., None]
        dg = g[..., None] * (-1.0 / d2 - 2j * math.pi / scene.wavelength_m)[..., None] * d_dist
        g_tau = g[..., None] * (d_dist / C_LIGHT_M_S)
        # (n, M, N) subcarrier phasors of each element's two-leg delay
        delays = scene.subcarrier_spacing_hz * ch.element_delays_s
        eps = np.exp(-2j * math.pi * (delays[..., None] * n))
        # d/dp splits into a gain part and a delay part, the latter n-scaled;
        # the three parts go straight into one (n, M, 3, N) array. Each
        # derivative part is summed in the gain part's slot, which is
        # filled last, so no complex product runs in place: numpy takes an
        # in-place multiply of one element for a reduction, whose scalar
        # loop rounds differently from the vector loop
        terms = np.empty((count, m, 3, n.size), dtype=np.complex128)
        scratch = terms[:, :, 0]
        for axis in (1, 0):
            np.multiply(g_tau[..., axis, None], n_scale, out=scratch)
            np.add(dg[..., axis, None], scratch, out=scratch)
            np.multiply(scratch, eps, out=terms[:, :, 1 + axis])
        np.multiply(g[..., None], eps, out=scratch)
        del eps
        rows = (responses[configs] @ terms.reshape(count, m, -1)).reshape(count, -1, 3, n.size)
    mu = rows[:, :, 0].reshape(count, -1)
    d_pos = np.moveaxis(rows[:, :, 1:], 2, 1).reshape(count, 2, -1)
    return mu, d_pos


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


def _cell_bytes(scene: Scene) -> int:
    """Bytes one cell adds to a block's largest operands, all complex.

    eps (M N), terms (M 3N), the pilot responses (K M), rows (K 3N) and
    the mu and d_pos copies of rows (K 3N).
    """
    n = scene.subcarrier_count
    m, k = scene.ris.element_count, scene.localization.pilot_count
    return 16 * (4 * m * n + k * m + 6 * k * n)


def _cell_block(scene: Scene) -> int:
    return max(1, _BLOCK_BYTES // _cell_bytes(scene))


def _peb_block(scene: Scene, points: np.ndarray, indices: np.ndarray, leg: BsLeg | None):
    """(2, n) without and with bounds at a block of points, NaN on a scene node.

    ``leg`` is the surface leg of the station carrying the reflected path;
    with none, the bound with the surface is the one without.
    """
    scale = 2.0 / noise_variance_w(scene)
    weight = float(scene.localization.pilot_count)
    on_node = np.zeros(len(points), dtype=bool)
    without = np.zeros((len(points), 2, 2))
    for b in range(len(scene.bs)):
        d_pos, basis, dist = _direct_rows(scene, b, points)
        on_node |= dist == 0.0
        without += weight * scale * _path_information(d_pos, basis)
    legs = surface_legs(scene, points)
    on_node |= np.any(legs[1] == 0.0, axis=1)
    with_ = without
    if leg is not None:
        mu, d_pos = _reflected_rows(scene, leg, points, legs, _pilot_configs(scene, indices))
        with_ = without + scale * _path_information(d_pos, mu)
    bounds = np.full((2, len(points)), math.nan)
    ok = ~on_node
    if np.any(ok):
        bounds[:, ok] = peb(np.stack([without[ok], with_[ok]])).peb_m
    return bounds


def peb_pairs(scene: Scene, points) -> np.ndarray:
    """(2, n) without and with position error bound in metres at each point.

    The grid-batched engine behind the ``peb_m`` map. Each point's pilot
    configs derive from its index, its row in ``points``, and blocks of
    points are processed together, sized so one block's reflected-row
    operands stay within a fixed memory budget; every operation is per
    point, so the result does not depend on the block size. A point on a
    base station or a surface element reads NaN in both rows.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    legs = station_legs(scene)
    leg = None
    if legs:
        # min keeps the first of equals, so a tie goes to the lowest index
        nearest = min(legs, key=lambda i: math.dist(scene.bs[i].position_m, scene.ris.position_m))
        leg = legs[nearest]
    bounds = np.empty((2, len(points)))
    block = _cell_block(scene)
    for start in range(0, len(points), block):
        stop = min(start + block, len(points))
        bounds[:, start:stop] = _peb_block(scene, points[start:stop], np.arange(start, stop), leg)
    return bounds


def peb_pair(scene: Scene, point) -> tuple[float, float]:
    """(without, with) bound in metres for one grid point: a one-row view of :func:`peb_pairs`.

    Bound in ``influence`` for perfbench's per-cell timer, like
    :func:`risplan.linkmetrics.gain_pair`; no command calls it.
    """
    return tuple(peb_pairs(scene, [point])[:, 0].tolist())
