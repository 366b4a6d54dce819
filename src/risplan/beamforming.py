"""Phase control of the surface and base-station combining.

The central object is the mean-over-subcarriers combined-channel power
gain, which is an exact quadratic form in the per-element responses z_m,
each an entry of the surface's table of state responses:

    G(z) = c0 + 2 Re( sum_m conj(b_m) z_m ) + z^H V z

c0 is the direct-only gain, b couples each element to the direct path and
V couples element pairs, both weighted by the Dirichlet phasor that a
uniform subcarrier comb produces for a delay offset. The ascent,
:func:`optimize_gains`, works on (b, V, c0) for a block of grid points at
once, so one point costs one channel synthesis regardless of how many
configurations get probed. The tests keep the one-point evaluation and the
generic coordinate ascent it is checked against.

:func:`state_responses` is that table, eta exp(j phi) per lookup state: the
one reader of ``element_efficiency`` and of the lookup phases, so the
channels carry geometry only and a phase snaps to the angle of a table
entry. Snapping breaks ties toward the smaller index, and the ascent
switches only on strict improvement, so results are deterministic and
order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .propagation import DirectChannel, RisChannel
from .scene import Scene


def wrap_phase(x):
    """Map angles into [-pi, pi]; values already inside are untouched."""
    x = np.asarray(x, dtype=float)
    return x - 2.0 * math.pi * np.round(x / (2.0 * math.pi))


def quantize_indices(phases_rad, responses) -> np.ndarray:
    """Per phase, the state of :func:`state_responses` whose angle is nearest
    on the circle; ties -> smaller index."""
    phases = np.asarray(phases_rad, dtype=float)
    # math.atan2 per state, not np.angle: numpy's vector arctan2 may round
    # differently, and paging its code in costs a process that runs no other
    angles = np.array([math.atan2(z.imag, z.real) for z in np.asarray(responses).tolist()])
    dist = np.abs(wrap_phase(phases[..., None] - angles))
    return np.argmin(dist, axis=-1)


def mrc_weights(h: np.ndarray) -> np.ndarray:
    """w = h / ||h||; the combined gain |w^H h|^2 equals ||h||^2."""
    h = np.asarray(h, dtype=np.complex128)
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise ValueError("cannot combine an all-zero channel")
    return h / norm


def mean_subcarrier_phasor(tau_s, count: int, spacing_hz: float):
    """Mean over n = 0..count-1 of exp(j 2 pi n spacing tau).

    Closed form via the Dirichlet kernel; tau = 0 gives exactly 1. The
    formula runs in place over two float buffers and the complex result,
    each step one ufunc, so it rounds as exp(j pi (count-1) x) *
    sin(count pi x) / (count sin(pi x)) does out of place. Its in-place
    complex product takes a float operand, which numpy casts through a
    buffer, so a single element runs the same loop as many (see
    :func:`gain_terms`); the tests check both bit for bit.
    """
    tau = np.asarray(tau_s, dtype=float)
    x = np.multiply(spacing_hz, tau, out=np.empty(tau.shape))
    den = np.multiply(math.pi, x, out=np.empty(tau.shape))
    np.sin(den, out=den)
    zero = den == 0.0
    np.copyto(den, 1.0, where=zero)
    np.multiply(count, den, out=den)
    val = np.multiply(1j * math.pi * (count - 1), x, out=np.empty(tau.shape, np.complex128))
    np.exp(val, out=val)
    np.multiply(count * math.pi, x, out=x)
    np.sin(x, out=x)
    np.multiply(val, x, out=val)
    np.divide(val, den, out=val)
    np.copyto(val, 1.0 + 0.0j, where=zero)
    return val


@dataclass(frozen=True)
class GainTerms:
    """Quadratic form of the mean-subcarrier post-combining power gain.

    One point holds b (M,), V (M, M) and a float c0; a block of K points
    holds b (K, M), V (K, M, M) and c0 (K,).
    """

    b: np.ndarray  # (M,) or (K, M) complex
    V: np.ndarray  # (M, M) or (K, M, M) complex Hermitian
    c0: float | np.ndarray  # direct-only gain


def direct_gain(direct: DirectChannel):
    """Direct-only post-combining gain ||h||^2 at each point: (n,)."""
    return np.sum(np.abs(direct.gains) ** 2, axis=-1)


def gain_terms(
    direct: DirectChannel, ris_ch: RisChannel, count: int, spacing_hz: float
) -> GainTerms:
    """Build (b, V, c0) for one base station at a batch of points.

    The antenna dimension collapses analytically: the direct and cascade
    paths share per-antenna steering structure, so only the steering
    correlation rho and the antenna count survive. Every operation is per
    point, so a point's terms do not depend on the batch it was built in.
    """
    c0 = direct_gain(direct)
    hops = ris_ch.hop_products
    taus = ris_ch.element_delays_s
    rho = np.sum(direct.gains * np.conj(ris_ch.bs_steering), axis=-1)
    delay = np.asarray(direct.delay_s)[..., None]
    b = np.conj(hops) * rho[..., None] * mean_subcarrier_phasor(taus - delay, count, spacing_hz)
    ant = ris_ch.bs_steering.shape[0]
    # the pair phasor is Hermitian: flipping a delay difference conjugates
    # it (sin is odd), so only the upper triangle is evaluated; the diagonal
    # is exactly 1. V is allocated once, as the outer product, and then
    # scaled a row of the upper triangle and a column of the lower one at a
    # time. Each product goes through a small temporary: numpy takes an
    # in-place multiply of one element for a reduction, whose scalar loop
    # rounds differently from the vector loop every other product runs on
    m = taus.shape[-1]
    iu, ju = np.triu_indices(m, 1)
    upper = mean_subcarrier_phasor(taus[..., iu] - taus[..., ju], count, spacing_hz)
    V = (ant * np.conj(hops))[..., :, None] * hops[..., None, :]
    diag = np.einsum("...ii->...i", V)
    diag[...] = diag * (1.0 + 0.0j)
    start = 0
    for i in range(m - 1):
        row = upper[..., start:start + m - 1 - i]
        start += m - 1 - i
        V[..., i, i + 1:] = V[..., i, i + 1:] * row
        V[..., i + 1:, i] = V[..., i + 1:, i] * np.conj(row)
    return GainTerms(b=np.ascontiguousarray(b), V=np.ascontiguousarray(V), c0=c0)


def state_responses(scene: Scene) -> np.ndarray:
    """(L,) complex response eta exp(j phi_l) of each surface state l.

    The constant-modulus case of a per-state response (Abeywickrama et al.,
    IEEE TCOM 2020), which the ascent kernel's best response relies on.
    """
    lookup = np.asarray(scene.ris.phase_lookup_rad, dtype=float)
    return scene.ris.element_efficiency * np.exp(1j * lookup)


def optimize_gains(terms: GainTerms, scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Quantized coordinate ascent on a block of K quadratic forms at once.

    ``terms`` holds b (K, M), V (K, M, M) and c0 (K,); returns state
    indices (K, M) and gains (K,). Each point starts from its per-element
    alignment snapped to the state table and ends where it would if ascended
    alone (Wu & Zhang, IEEE TCOM 2020, best response per element over the
    states). Entirely deterministic; a constant objective returns the start.
    """
    b = np.asarray(terms.b, dtype=np.complex128)
    responses = state_responses(scene)
    return kernels.ascent_quadratic(
        b,
        np.asarray(terms.V, dtype=np.complex128),
        np.asarray(terms.c0, dtype=np.float64),
        responses,
        quantize_indices(np.angle(b), responses),
        20,  # rounds at most
        1e-6,  # a cell stops once a round gains less, relative
    )


# ---------------------------------------------------------------------------
# codebooks
# ---------------------------------------------------------------------------

def default_codebook(scene: Scene) -> np.ndarray:
    """(C, M) element responses: dark, specular, then a fan of quantized beams.

    Row 0 is the dark (absorbing) entry, all zeros, so a sweep can never do
    worse than no surface at all; row 1 is the specular entry, phase 0. The
    fan spans +-75 degrees off broadside. Every phase is snapped to the
    state table, so every row but the dark one is a state the surface can take.
    """
    m = scene.ris.element_count
    k = scene.ris.codebook_directions
    limit = math.radians(75.0)
    angles = [0.0] if k == 1 else np.linspace(-limit, limit, k).tolist()
    # math.sin, not np.sin: numpy's vector sine may round differently
    sines = np.array([math.sin(a) for a in angles])
    offsets = (np.arange(m) - (m - 1) / 2.0) * scene.ris_spacing_m()
    phases = -2.0 * math.pi * offsets * sines[:, None] / scene.wavelength_m
    responses = state_responses(scene)
    states = quantize_indices(np.vstack([np.zeros(m), wrap_phase(phases)]), responses)
    return np.concatenate([np.zeros((1, m)), responses[states]])
