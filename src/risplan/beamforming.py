"""Phase control of the surface and base-station combining.

The central object is the mean-over-subcarriers combined-channel power
gain, which is an exact quadratic form in the per-element unit phasors
z_m = exp(j phi_m):

    G(z) = c0 + 2 Re( sum_m conj(b_m) z_m ) + z^H V z

c0 is the direct-only gain, b couples each element to the direct path and
V couples element pairs, both weighted by the Dirichlet phasor that a
uniform subcarrier comb produces for a delay offset. Optimizers work on
(b, V, c0) so one grid point costs one channel synthesis regardless of
how many configurations get probed.

Discrete phases come from the scene's lookup. Conventions used
throughout: snapping to the lookup breaks ties toward the smaller index,
and every sweep switches only on strict improvement, so results are
deterministic and order-independent across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import RunError
from .propagation import DirectChannel, RisChannel, direct_channel, ris_channel
from .scene import Scene


@dataclass(frozen=True)
class RisConfig:
    """One surface setting: per-element phases, or dark (absorbing).

    An inactive config models the surface's contribution removed entirely
    (matched absorption): its element response is zero, which is also how
    "no surface deployed" enters every with/without comparison.
    """

    phases_rad: tuple[float, ...]
    active: bool = True

    @property
    def element_count(self) -> int:
        return len(self.phases_rad)

    def response(self) -> np.ndarray:
        """(M,) complex element phasors."""
        if not self.active:
            return np.zeros(len(self.phases_rad), dtype=np.complex128)
        return np.exp(1j * np.asarray(self.phases_rad))

    @classmethod
    def uniform(cls, count: int, phase: float = 0.0) -> "RisConfig":
        return cls(phases_rad=(phase,) * count)

    @classmethod
    def off(cls, count: int) -> "RisConfig":
        return cls(phases_rad=(0.0,) * count, active=False)


def wrap_phase(x):
    """Map angles into [-pi, pi]; values already inside are untouched."""
    x = np.asarray(x, dtype=float)
    return x - 2.0 * math.pi * np.round(x / (2.0 * math.pi))


def quantize_indices(phases_rad, lookup_rad) -> np.ndarray:
    """Nearest lookup entry on the circle per phase; ties -> smaller index."""
    phases = np.asarray(phases_rad, dtype=float)
    lookup = np.asarray(lookup_rad, dtype=float)
    dist = np.abs(wrap_phase(phases[..., None] - lookup))
    return np.argmin(dist, axis=-1)


def quantize_config(phases_rad, lookup_rad) -> RisConfig:
    lookup = np.asarray(lookup_rad, dtype=float)
    idx = quantize_indices(phases_rad, lookup)
    return RisConfig(phases_rad=tuple(float(p) for p in lookup[idx]))


def mrc_weights(h: np.ndarray) -> np.ndarray:
    """w = h / ||h||; the combined gain |w^H h|^2 equals ||h||^2."""
    h = np.asarray(h, dtype=np.complex128)
    norm = np.linalg.norm(h)
    if norm == 0.0:
        raise ValueError("cannot combine an all-zero channel")
    return h / norm


def optimal_phases_continuous(ris_ch: RisChannel, direct: complex) -> RisConfig:
    """Coherent alignment of every cascade hop with the direct path.

    phi_m = arg(direct) - arg(hop_m), so |direct + cascade| becomes
    |direct| + sum_m |hop_m| (the triangle bound with equality). A zero
    direct path aligns the hops with each other (arg 0 by convention).
    Kept as a deliberate oracle (the unquantized optimum), on no
    command-line path.
    """
    hops = ris_ch.hop_products
    phases = wrap_phase(np.angle(complex(direct)) - np.angle(hops))
    return RisConfig(phases_rad=tuple(float(p) for p in phases))


def mean_subcarrier_phasor(tau_s, count: int, spacing_hz: float):
    """Mean over n = 0..count-1 of exp(j 2 pi n spacing tau).

    Closed form via the Dirichlet kernel; tau = 0 gives exactly 1.
    """
    x = np.asarray(spacing_hz * np.asarray(tau_s, dtype=float))
    den = np.sin(math.pi * x)
    safe = np.where(den == 0.0, 1.0, den)
    val = np.exp(1j * math.pi * (count - 1) * x) * np.sin(count * math.pi * x) / (count * safe)
    return np.where(den == 0.0, 1.0 + 0.0j, val)


@dataclass(frozen=True)
class GainTerms:
    """Quadratic form of the mean-subcarrier post-combining power gain.

    One point holds b (M,), V (M, M) and a float c0; a block of K points
    holds b (K, M), V (K, M, M) and c0 (K,).
    """

    b: np.ndarray  # (M,) or (K, M) complex
    V: np.ndarray  # (M, M) or (K, M, M) complex Hermitian
    c0: float | np.ndarray  # direct-only gain

    def gain(self, z) -> float:
        return kernels.eval_quadratic_gain(self.b, self.V, self.c0, z)

    def gain_config(self, config: RisConfig) -> float:
        return self.gain(config.response())


def direct_gain(direct: DirectChannel):
    """Direct-only post-combining gain ||h||^2: float, or (n,) for a batch."""
    c0 = np.sum(np.abs(direct.gains) ** 2, axis=-1)
    return float(c0) if c0.ndim == 0 else c0


def gain_terms(
    direct: DirectChannel, ris_ch: RisChannel | None, count: int, spacing_hz: float
) -> GainTerms:
    """Build (b, V, c0) for one base station at one point or at a batch of points.

    With no surface the form degenerates to the constant c0. The antenna
    dimension collapses analytically: the direct and cascade paths share
    per-antenna steering structure, so only the steering correlation rho
    and the antenna count survive. Every operation is per point, so a
    point's terms do not depend on the batch it was built in.
    """
    c0 = direct_gain(direct)
    if ris_ch is None:
        lead = np.shape(c0)
        return GainTerms(
            b=np.zeros((*lead, 0), dtype=np.complex128),
            V=np.zeros((*lead, 0, 0), dtype=np.complex128),
            c0=c0,
        )
    hops = ris_ch.hop_products
    taus = ris_ch.element_delays_s
    rho = np.sum(direct.gains * np.conj(ris_ch.bs_steering), axis=-1)
    delay = np.asarray(direct.delay_s)[..., None]
    b = np.conj(hops) * rho[..., None] * mean_subcarrier_phasor(taus - delay, count, spacing_hz)
    ant = ris_ch.bs_steering.shape[0]
    # the pair phasor is Hermitian: flipping a delay difference conjugates
    # it (sin is odd), so only the upper triangle is evaluated; the diagonal
    # is exactly 1
    m = taus.shape[-1]
    iu, ju = np.triu_indices(m, 1)
    upper = mean_subcarrier_phasor(taus[..., iu] - taus[..., ju], count, spacing_hz)
    pair_phasor = np.ones((*taus.shape, m), dtype=np.complex128)
    pair_phasor[..., iu, ju] = upper
    pair_phasor[..., ju, iu] = np.conj(upper)
    V = ant * np.conj(hops)[..., :, None] * hops[..., None, :] * pair_phasor
    return GainTerms(b=np.ascontiguousarray(b), V=np.ascontiguousarray(V), c0=c0)


def point_gain_terms(scene: Scene, bs_index: int, point) -> GainTerms:
    """Terms for a grid point, using the scene's surface when present."""
    direct = direct_channel(scene, bs_index, point)
    ris_ch = ris_channel(scene, bs_index, point) if scene.ris is not None else None
    return gain_terms(direct, ris_ch, scene.subcarrier_count, scene.subcarrier_spacing_hz)


@dataclass(frozen=True)
class AscentResult:
    config: RisConfig
    indices: tuple[int, ...]
    gain: float


def optimize_gains(
    terms: GainTerms,
    lookup_rad,
    init_indices=None,
    max_rounds: int = 20,
    rel_tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Quantized coordinate ascent on a block of K quadratic forms at once.

    ``terms`` holds b (K, M), V (K, M, M) and c0 (K,); returns lookup
    indices (K, M) and gains (K,). Each point starts from its quantized
    per-element alignment unless explicit (K, M) indices are given, and
    ends where it would if ascended alone (Wu & Zhang, IEEE TCOM 2020,
    best response per element over the discrete phases). Entirely
    deterministic; a constant objective returns the initial configuration.
    """
    lookup = np.asarray(lookup_rad, dtype=float)
    b = np.asarray(terms.b, dtype=np.complex128)
    if init_indices is None:
        init = quantize_indices(np.angle(b), lookup)
    else:
        init = np.asarray(init_indices, dtype=np.int64)
        if init.shape != b.shape:
            raise ValueError(f"expected initial indices of shape {b.shape}, got {init.shape}")
    return kernels.ascent_quadratic(
        b,
        np.asarray(terms.V, dtype=np.complex128),
        np.asarray(terms.c0, dtype=np.float64),
        np.exp(1j * lookup).astype(np.complex128),
        init.astype(np.int64),
        max_rounds,
        rel_tol,
    )


def optimize_gain(
    terms: GainTerms,
    lookup_rad,
    init_indices=None,
    max_rounds: int = 20,
    rel_tol: float = 1e-6,
) -> AscentResult:
    """One-point view of :func:`optimize_gains`, with the configuration spelled out."""
    lookup = np.asarray(lookup_rad, dtype=float)
    m_count = terms.b.shape[0]
    if m_count == 0:
        return AscentResult(config=RisConfig(phases_rad=()), indices=(), gain=terms.c0)
    if init_indices is not None:
        init_indices = np.asarray(init_indices, dtype=np.int64)
        if init_indices.shape != (m_count,):
            raise ValueError(
                f"expected {m_count} initial indices, got {init_indices.shape}"
            )
        init_indices = init_indices[None, :]
    block = GainTerms(b=terms.b[None, :], V=terms.V[None, :, :], c0=np.array([terms.c0]))
    idx, gain = optimize_gains(block, lookup, init_indices, max_rounds, rel_tol)
    config = RisConfig(phases_rad=tuple(float(lookup[i]) for i in idx[0]))
    return AscentResult(config=config, indices=tuple(int(i) for i in idx[0]), gain=float(gain[0]))


def coordinate_ascent(
    objective,
    element_count: int,
    lookup_rad,
    init: RisConfig | None = None,
    max_rounds: int = 20,
    rel_tol: float = 1e-6,
):
    """Generic element-by-element best-response sweep over the lookup.

    ``objective(config) -> float`` may be any deterministic function.
    Returns (best_config, best_value, trace) where trace holds the value
    after each completed round; the trace is non-decreasing because every
    switch requires strict improvement. Kept as a deliberate oracle, on no
    command-line path: ``kernels.ascent_quadratic`` and the batched phase
    search of ``secrecy.sse_pairs`` are tested against it.
    """
    lookup = [float(p) for p in np.asarray(lookup_rad, dtype=float)]
    if init is None:
        config = RisConfig(phases_rad=(lookup[0],) * element_count)
    else:
        if init.element_count != element_count:
            raise ValueError("initial config does not match element count")
        config = init
    phases = list(config.phases_rad)
    value = float(objective(config))
    trace = [value]
    for _ in range(max_rounds):
        before = value
        for m in range(element_count):
            best_phase = phases[m]
            best_value = value
            for cand in lookup:
                if cand == phases[m]:
                    continue
                trial = phases.copy()
                trial[m] = cand
                v = float(objective(RisConfig(phases_rad=tuple(trial), active=config.active)))
                if v > best_value:
                    best_value = v
                    best_phase = cand
            if best_value > value:
                phases[m] = best_phase
                value = best_value
        trace.append(value)
        if value - before < rel_tol * max(abs(before), 1.0):
            break
    return RisConfig(phases_rad=tuple(phases), active=config.active), value, tuple(trace)


# ---------------------------------------------------------------------------
# codebooks and the sounding sweep
# ---------------------------------------------------------------------------

def steering_config(scene: Scene, angle_rad: float) -> RisConfig:
    """Quantized plane-wave beam of the surface toward a broadside angle."""
    if scene.ris is None:
        raise RunError("scene has no surface")
    m = scene.ris.element_count
    offsets = (np.arange(m) - (m - 1) / 2.0) * scene.ris_spacing_m()
    phases = -2.0 * math.pi * offsets * math.sin(angle_rad) / scene.wavelength_m
    return quantize_config(wrap_phase(phases), scene.ris.phase_lookup_rad)


def default_codebook(scene: Scene) -> tuple[RisConfig, ...]:
    """Dark entry, specular all-zero entry, then a fan of quantized beams.

    The dark (absorbing) entry guarantees a sweep can never do worse than
    no surface at all; the fan spans +-75 degrees off broadside.
    """
    if scene.ris is None:
        raise RunError("scene has no surface")
    m = scene.ris.element_count
    entries = [RisConfig.off(m), RisConfig.uniform(m)]
    k = scene.ris.codebook_directions
    limit = math.radians(75.0)
    if k == 1:
        angles = [0.0]
    else:
        angles = list(np.linspace(-limit, limit, k))
    entries.extend(steering_config(scene, a) for a in angles)
    return tuple(entries)


def codebook_sweep(scene: Scene, bs_index: int, point, codebook=None):
    """(best_config, best_gain): post-combining gain argmax, ties -> first.

    Kept as a deliberate oracle of the codebook, on no command-line path.
    """
    if codebook is None:
        codebook = default_codebook(scene)
    if not codebook:
        raise ValueError("codebook is empty")
    terms = point_gain_terms(scene, bs_index, point)
    best_config = codebook[0]
    best_gain = terms.gain_config(best_config)
    for config in codebook[1:]:
        g = terms.gain_config(config)
        if g > best_gain:
            best_gain = g
            best_config = config
    return best_config, best_gain
