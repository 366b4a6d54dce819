"""Per-cell position error bound by Schur subtraction: the oracle of ``peb_pairs``.

This is the bound the package computed before the projection EFIM: stack
every path's Jacobian columns into one full information matrix over the
position and all gain nuisances, then marginalize the nuisances by a
Schur complement of the Jacobi-scaled nuisance block. On well-conditioned
cells it agrees with :func:`risplan.localization.peb_pairs` to rounding,
amplified by the cancellation in the subtraction.
"""

import math

import numpy as np

from risplan.localization import (
    PEB_CONDITION_LIMIT,
    PebResult,
    noise_variance_w,
    observation_model,
    peb,
    pilot_configs,
)


def build_fim(scene, point, with_ris, point_index=0):
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
