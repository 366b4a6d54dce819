"""Per-point gain paths: the oracles of the grid-batched gain engine and ascent kernel.

The package evaluates gains only on blocks of grid cells
(:func:`risplan.linkmetrics.gain_pairs`,
:func:`risplan.beamforming.optimize_gains`,
:func:`risplan.kernels.ascent_quadratic`) and describes a surface setting
only as an array of element responses. These are the one-point paths it
used to carry next to them: the one-point channel views and the per-entry
cascade, the one-row station choice, a surface setting as a
:class:`RisConfig` of phases, the per-angle beam codebook, a quadratic form
evaluated at explicit phasors, the generic element-by-element coordinate
ascent over any objective, the codebook sweep, the unquantized coherent
alignment, and the equivalent gain at one point and station. The
out-of-place Dirichlet formula and the dense pair-phasor construction of V
check the in-place ones of :mod:`risplan.beamforming` bit for bit. Their
arithmetic is unchanged, so the bit-for-bit comparisons against the batched
engines keep their meaning.
"""

import math
from dataclasses import dataclass

import numpy as np

from risplan import kernels
from risplan.beamforming import (
    GainTerms,
    gain_terms,
    quantize_indices,
    wrap_phase,
)
from risplan.errors import CoincidentNodeError
from risplan.linkmetrics import _to_db, serving_bs
from risplan.propagation import (
    DirectChannel,
    RisChannel,
    bs_leg,
    direct_channels,
    require_apart,
    ris_channels,
    station_legs,
    surface_legs,
)


@dataclass(frozen=True)
class RisConfig:
    """One surface setting: per-element phases, or dark (absorbing).

    An inactive config models the surface's contribution removed entirely
    (matched absorption): its element response is zero, which is also how
    "no surface deployed" enters every with/without comparison.
    """

    phases_rad: tuple[float, ...]
    active: bool = True

    @classmethod
    def uniform(cls, count: int, phase: float = 0.0) -> "RisConfig":
        return cls(phases_rad=(phase,) * count)

    @classmethod
    def off(cls, count: int) -> "RisConfig":
        return cls(phases_rad=(0.0,) * count, active=False)


def state_table(lookup_rad, efficiency: float = 1.0) -> np.ndarray:
    """The responses eta exp(j phi) of :func:`risplan.beamforming.state_responses`,
    whose angles every phase snaps to."""
    return efficiency * np.exp(1j * np.asarray(lookup_rad, dtype=float))


def quantize_config(phases_rad, lookup_rad, efficiency: float = 1.0) -> RisConfig:
    lookup = np.asarray(lookup_rad, dtype=float)
    idx = quantize_indices(phases_rad, state_table(lookup, efficiency))
    return RisConfig(phases_rad=tuple(float(p) for p in lookup[idx]))


def steering_config(scene, angle_rad: float) -> RisConfig:
    """Quantized plane-wave beam of the surface toward a broadside angle."""
    m = scene.ris.element_count
    offsets = (np.arange(m) - (m - 1) / 2.0) * scene.ris_spacing_m()
    phases = -2.0 * math.pi * offsets * math.sin(angle_rad) / scene.wavelength_m
    return quantize_config(wrap_phase(phases), scene.ris.phase_lookup_rad,
                           scene.ris.element_efficiency)


def specular_phase(lookup_rad, efficiency: float = 1.0) -> float:
    """The lookup phase whose state is nearest phase 0: the specular state, and
    the secrecy ascent's start."""
    lookup = np.asarray(lookup_rad, dtype=float)
    return float(lookup[quantize_indices(0.0, state_table(lookup, efficiency))])


def codebook(scene) -> tuple[RisConfig, ...]:
    """Dark entry, specular entry, then a fan of quantized beams, one angle at a time.

    The specular entry holds every element at the lookup phase nearest 0.

    The entries of :func:`risplan.beamforming.default_codebook`, whose rows
    are their responses.
    """
    m = scene.ris.element_count
    entries = [RisConfig.off(m), RisConfig.uniform(
        m, specular_phase(scene.ris.phase_lookup_rad, scene.ris.element_efficiency))]
    k = scene.ris.codebook_directions
    limit = math.radians(75.0)
    if k == 1:
        angles = [0.0]
    else:
        angles = list(np.linspace(-limit, limit, k))
    entries.extend(steering_config(scene, a) for a in angles)
    return tuple(entries)


def direct_channel(scene, bs_index: int, point) -> DirectChannel:
    """One-point view of :func:`risplan.propagation.direct_channels`; raises on the station."""
    batch = direct_channels(scene, bs_index, np.asarray(point, dtype=float)[None, :])
    if batch.distance_m[0] == 0.0:
        raise CoincidentNodeError(
            f"point coincides with the base station at {scene.bs[bs_index].position_m}"
        )
    return DirectChannel(
        gains=batch.gains[0],
        delay_s=float(batch.delay_s[0]),
        distance_m=float(batch.distance_m[0]),
    )


def ris_channel(scene, bs_index: int, point) -> RisChannel:
    """One-point cascade channel; raises when the point sits on an element."""
    leg = bs_leg(scene, bs_index)
    point = np.asarray(point, dtype=float)
    gains, dists = surface_legs(scene, point[None, :])
    require_apart(dists[0], point.tolist())
    return ris_channels(leg, gains[0], dists[0])


def cascade(ris_ch: RisChannel, phases, efficiency: float = 1.0) -> complex:
    """Scalar cascade sum_m hop_m eta exp(j phi_m); linear in every hop."""
    phases = np.asarray(phases, dtype=float)
    m = ris_ch.hop_products.shape[-1]
    if phases.shape != (m,):
        raise ValueError(f"expected {m} phases, got shape {phases.shape}")
    return complex(np.sum(ris_ch.hop_products * (efficiency * np.exp(1j * phases))))


def serving_station(scene, point) -> int:
    """One-row view of :func:`risplan.linkmetrics.serving_bs`; station 0 when none is usable."""
    points = np.asarray(point, dtype=float)[None, :]
    directs = [direct_channels(scene, i, points) for i in range(len(scene.bs))]
    return max(int(serving_bs(directs, station_legs(scene))[0]), 0)


RIS_MODES = ("off", "optimized")


def response(config: RisConfig, efficiency: float = 1.0) -> np.ndarray:
    """(M,) complex element responses eta exp(j phi) of a configuration; zero when dark."""
    if not config.active:
        return np.zeros(len(config.phases_rad), dtype=np.complex128)
    return efficiency * np.exp(1j * np.asarray(config.phases_rad))


def eval_quadratic_gain(b, V, c0, z):
    """G(z) for explicit phasors z (not restricted to a lookup)."""
    z = np.asarray(z, dtype=np.complex128)
    return float(c0 + 2.0 * np.sum(np.conj(b) * z).real + np.vdot(z, V @ z).real)


def gain(terms: GainTerms, z) -> float:
    """One point's quadratic form at phasors z."""
    return eval_quadratic_gain(terms.b, terms.V, terms.c0, z)


def gain_config(terms: GainTerms, config: RisConfig, efficiency: float = 1.0) -> float:
    return gain(terms, response(config, efficiency))


def optimal_phases_continuous(ris_ch: RisChannel, direct: complex) -> RisConfig:
    """Coherent alignment of every cascade hop with the direct path.

    phi_m = arg(direct) - arg(hop_m), so |direct + cascade| becomes
    |direct| + sum_m |hop_m| (the triangle bound with equality). A zero
    direct path aligns the hops with each other (arg 0 by convention).
    """
    hops = ris_ch.hop_products
    phases = wrap_phase(np.angle(complex(direct)) - np.angle(hops))
    return RisConfig(phases_rad=tuple(float(p) for p in phases))


def point_gain_terms(scene, bs_index: int, point) -> GainTerms:
    """Terms for a grid point and the scene's surface."""
    direct = direct_channel(scene, bs_index, point)
    ris_ch = ris_channel(scene, bs_index, point)
    return gain_terms(direct, ris_ch, scene.subcarrier_count, scene.subcarrier_spacing_hz)


def dirichlet_phasor(tau_s, count: int, spacing_hz: float):
    """Mean subcarrier phasor by the Dirichlet closed form, every step out of place.

    :func:`risplan.beamforming.mean_subcarrier_phasor` runs the same
    formula in place and must agree bit for bit.
    """
    x = np.asarray(spacing_hz * np.asarray(tau_s, dtype=float))
    den = np.sin(math.pi * x)
    safe = np.where(den == 0.0, 1.0, den)
    val = np.exp(1j * math.pi * (count - 1) * x) * np.sin(count * math.pi * x) / (count * safe)
    return np.where(den == 0.0, 1.0 + 0.0j, val)


def dense_pair_matrix(ris_ch: RisChannel, count: int, spacing_hz: float) -> np.ndarray:
    """V of :func:`risplan.beamforming.gain_terms` through a dense pair-phasor matrix.

    The (..., M, M) pair phasors hold the upper triangle, its conjugate
    below and exactly 1 on the diagonal; V is the outer product of the hops
    scaled by the antenna count, times that matrix.
    """
    hops = ris_ch.hop_products
    taus = ris_ch.element_delays_s
    ant = ris_ch.bs_steering.shape[0]
    m = taus.shape[-1]
    iu, ju = np.triu_indices(m, 1)
    upper = dirichlet_phasor(taus[..., iu] - taus[..., ju], count, spacing_hz)
    pair_phasor = np.ones((*taus.shape, m), dtype=np.complex128)
    pair_phasor[..., iu, ju] = upper
    pair_phasor[..., ju, iu] = np.conj(upper)
    return ant * np.conj(hops)[..., :, None] * hops[..., None, :] * pair_phasor


@dataclass(frozen=True)
class AscentResult:
    config: RisConfig
    indices: tuple[int, ...]
    gain: float


def optimize_gain(
    terms: GainTerms,
    lookup_rad,
    init_indices=None,
    max_rounds: int = 20,
    rel_tol: float = 1e-6,
    efficiency: float = 1.0,
) -> AscentResult:
    """One-point view of :func:`risplan.beamforming.optimize_gains`, with the
    configuration spelled out: the ascent kernel on the responses
    eta exp(j phi), from the snapped alignment unless indices are given."""
    lookup = np.asarray(lookup_rad, dtype=float)
    responses = state_table(lookup, efficiency)
    m_count = terms.b.shape[0]
    if m_count == 0:
        return AscentResult(config=RisConfig(phases_rad=()), indices=(), gain=terms.c0)
    if init_indices is None:
        init_indices = quantize_indices(np.angle(terms.b), responses)
    init_indices = np.asarray(init_indices, dtype=np.int64)
    if init_indices.shape != (m_count,):
        raise ValueError(f"expected {m_count} initial indices, got {init_indices.shape}")
    idx, gains = kernels.ascent_quadratic(
        terms.b[None, :], terms.V[None, :, :], np.array([terms.c0]),
        responses, init_indices[None, :], max_rounds, rel_tol,
    )
    config = RisConfig(phases_rad=tuple(float(lookup[i]) for i in idx[0]))
    return AscentResult(config=config, indices=tuple(int(i) for i in idx[0]), gain=float(gains[0]))


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
    switch requires strict improvement. ``kernels.ascent_quadratic`` and
    the batched phase search of ``secrecy.sse_pairs`` are tested against it.
    """
    lookup = [float(p) for p in np.asarray(lookup_rad, dtype=float)]
    if init is None:
        config = RisConfig(phases_rad=(lookup[0],) * element_count)
    else:
        if len(init.phases_rad) != element_count:
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


def codebook_sweep(scene, bs_index: int, point, book=None):
    """(best_config, best_gain): post-combining gain argmax, ties -> first."""
    if book is None:
        book = codebook(scene)
    if not book:
        raise ValueError("codebook is empty")
    terms = point_gain_terms(scene, bs_index, point)
    efficiency = scene.ris.element_efficiency
    best_config = book[0]
    best_gain = gain_config(terms, best_config, efficiency)
    for config in book[1:]:
        g = gain_config(terms, config, efficiency)
        if g > best_gain:
            best_gain = g
            best_config = config
    return best_config, best_gain


def equivalent_gain(scene, bs_index: int, point, ris_mode: str = "optimized") -> float:
    """Mean-subcarrier power gain in dB at a given station, NaN when the point sits on a node.

    The optimized reading is the best quantized configuration, never worse
    than leaving the surface off: the serving-station readings of
    ``linkmetrics.gain_pairs`` one point at a time.
    """
    if ris_mode not in RIS_MODES:
        raise ValueError(f"ris_mode must be one of {RIS_MODES}, got {ris_mode!r}")
    try:
        terms = point_gain_terms(scene, bs_index, point)
    except CoincidentNodeError:
        return math.nan
    if ris_mode == "off":
        return _to_db(terms.c0)
    optimized = optimize_gain(terms, scene.ris.phase_lookup_rad,
                              efficiency=scene.ris.element_efficiency)
    return _to_db(max(optimized.gain, terms.c0))
