"""Secrecy spectral efficiency with alternating covariance / phase optimization.

The channel realization is Friis-scaled Rayleigh fading: every link
entry is the centre-to-centre pathloss amplitude (walls included) times
an independent unit-variance complex Gaussian, drawn once per (point,
seed, draw index). The transmit side optimizes a single covariance
matrix on the power ball; the surface side runs quantized coordinate
ascent on the secrecy rate. Neither side can lose to switching the
surface dark, because the dark configuration is always compared in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import RisConfig, coordinate_ascent
from .errors import CoincidentNodeError, RunError
from .propagation import dbm_to_watts, ray_amplitudes
from .scene import Scene
from .seeding import derived_rng

LN2 = math.log(2.0)


@dataclass(frozen=True)
class MimoLink:
    """Realized channel matrices for one surface configuration."""

    h_rx: np.ndarray  # (N_rx, N_bs)
    h_eve: np.ndarray  # (N_eve, N_bs)
    noise_w: float
    power_w: float


@dataclass(frozen=True)
class SecrecyChannels:
    """Configuration-independent channel pieces for one fading draw."""

    direct_rx: np.ndarray  # (N_rx, N_bs)
    direct_eve: np.ndarray  # (N_eve, N_bs)
    bs_to_ris: np.ndarray | None  # (M, N_bs)
    ris_to_rx: np.ndarray | None  # (N_rx, M)
    ris_to_eve: np.ndarray | None  # (N_eve, M)
    noise_w: float
    power_w: float

    @property
    def element_count(self) -> int:
        return 0 if self.bs_to_ris is None else self.bs_to_ris.shape[0]

    def link(self, config: RisConfig | None) -> MimoLink:
        if config is None or self.bs_to_ris is None:
            return MimoLink(self.direct_rx, self.direct_eve, self.noise_w, self.power_w)
        resp = config.response()
        cascade = self.bs_to_ris * resp[:, None]  # diag(resp) @ G
        return MimoLink(
            h_rx=self.direct_rx + self.ris_to_rx @ cascade,
            h_eve=self.direct_eve + self.ris_to_eve @ cascade,
            noise_w=self.noise_w,
            power_w=self.power_w,
        )


def _fading(rng, rows: int, cols: int) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / math.sqrt(2.0)


def _amplitudes_from(scene: Scene, origin, targets) -> np.ndarray:
    amp, dist = ray_amplitudes(scene, origin, targets)
    if np.any(dist == 0.0):
        raise CoincidentNodeError(
            f"a link from {np.asarray(origin, dtype=float).tolist()} has zero length"
        )
    return amp


def secrecy_link(scene: Scene, point, point_index: int = 0, draw: int = 0) -> SecrecyChannels:
    """One Rayleigh realization of every link around the given RX point."""
    if scene.eve is None:
        raise RunError("secrecy metrics need an eavesdropper in the scene")
    rng = derived_rng(scene.seed, "sse-fading", point_index, draw)
    n_bs = sum(bs.antenna_count for bs in scene.bs)
    n_rx = scene.secrecy.rx_antenna_count
    n_eve = scene.eve.antenna_count

    # one amplitude per station, then per station antenna; the surface
    # centre, when there is one, is the last target of the RX and Eve rays
    stations = np.array([bs.position_m for bs in scene.bs], dtype=float)
    antennas = [bs.antenna_count for bs in scene.bs]
    targets = stations if scene.ris is None else np.vstack([stations, scene.ris.position_m])
    amp_rx = _amplitudes_from(scene, point, targets)
    amp_eve = _amplitudes_from(scene, scene.eve.position_m, targets)

    # matrices are always drawn in the same order so results are stable
    k = len(antennas)
    direct_rx = np.repeat(amp_rx[:k], antennas)[None, :] * _fading(rng, n_rx, n_bs)
    direct_eve = np.repeat(amp_eve[:k], antennas)[None, :] * _fading(rng, n_eve, n_bs)

    bs_to_ris = ris_to_rx = ris_to_eve = None
    if scene.ris is not None:
        m = scene.ris.element_count
        amp_g = np.repeat(_amplitudes_from(scene, scene.ris.position_m, stations), antennas)
        bs_to_ris = scene.ris.element_efficiency * amp_g[None, :] * _fading(rng, m, n_bs)
        ris_to_rx = amp_rx[k] * _fading(rng, n_rx, m)
        ris_to_eve = amp_eve[k] * _fading(rng, n_eve, m)

    return SecrecyChannels(
        direct_rx=direct_rx,
        direct_eve=direct_eve,
        bs_to_ris=bs_to_ris,
        ris_to_rx=ris_to_rx,
        ris_to_eve=ris_to_eve,
        noise_w=dbm_to_watts(scene.noise_power_dbm),
        power_w=dbm_to_watts(scene.secrecy.power_budget_dbm),
    )


def _validate_q(q: np.ndarray, power_w: float) -> np.ndarray:
    q = np.asarray(q, dtype=np.complex128)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"covariance must be square, got {q.shape}")
    scale = max(float(np.max(np.abs(q))), 1.0)
    if np.max(np.abs(q - q.conj().T)) > 1e-9 * scale:
        raise ValueError("covariance must be Hermitian")
    eig = np.linalg.eigvalsh(q)
    if eig[0] < -1e-9 * scale:
        raise ValueError("covariance must be positive semidefinite")
    if float(np.real(np.trace(q))) > power_w * (1.0 + 1e-9):
        raise ValueError("covariance exceeds the power budget")
    return q


def _log2det_rate(h: np.ndarray, q: np.ndarray, noise_w: float) -> float:
    gram = np.eye(h.shape[0]) + h @ q @ h.conj().T / noise_w
    sign, logdet = np.linalg.slogdet(gram)
    if sign.real <= 0:
        return 0.0
    return float(logdet) / LN2


def rate_difference(link: MimoLink, q: np.ndarray) -> float:
    """RX rate minus Eve rate, unclamped (the optimizer's objective)."""
    return _log2det_rate(link.h_rx, q, link.noise_w) - _log2det_rate(
        link.h_eve, q, link.noise_w
    )


def secrecy_rate(link: MimoLink, q) -> float:
    """Clamped secrecy spectral efficiency for a validated covariance."""
    q = _validate_q(q, link.power_w)
    return max(rate_difference(link, q), 0.0)


def _project_trace_ball(q: np.ndarray, power_w: float) -> np.ndarray:
    """Euclidean projection onto {Q >= 0, trace(Q) <= P}."""
    herm = (q + q.conj().T) / 2.0
    w, v = np.linalg.eigh(herm)
    w = np.maximum(w, 0.0)
    total = float(np.sum(w))
    if total > power_w:
        # project eigenvalues onto the simplex {w >= 0, sum w = P}
        drop = np.sort(w)[::-1]
        cum = np.cumsum(drop)
        k = np.arange(1, w.size + 1)
        valid = drop - (cum - power_w) / k > 0
        rho = int(np.max(np.nonzero(valid)[0])) + 1
        theta = (cum[rho - 1] - power_w) / rho
        w = np.maximum(w - theta, 0.0)
    return (v * w[None, :]) @ v.conj().T


def _gradient(link: MimoLink, q: np.ndarray) -> np.ndarray:
    def half(h):
        mid = link.noise_w * np.eye(h.shape[0]) + h @ q @ h.conj().T
        return h.conj().T @ np.linalg.solve(mid, h)

    return (half(link.h_rx) - half(link.h_eve)) / LN2


def optimize_q(
    link: MimoLink, q0=None, max_iters: int = 100, rel_tol: float = 1e-5
):
    """Projected gradient ascent with step halving on the trace ball.

    Returns (q, unclamped rate difference, clamped objective trace).
    Steps are only taken on strict improvement, so the trace is
    non-decreasing by construction.
    """
    n = link.h_rx.shape[1]
    if q0 is None:
        q = link.power_w / n * np.eye(n, dtype=np.complex128)
    else:
        q = _project_trace_ball(np.asarray(q0, dtype=np.complex128), link.power_w)
    val = rate_difference(link, q)
    trace = [max(val, 0.0)]
    for _ in range(max_iters):
        grad = _gradient(link, q)
        scale = float(np.linalg.norm(grad))
        if scale == 0.0:
            break
        step = link.power_w / scale
        prev = val
        improved = False
        for _ in range(40):
            cand = _project_trace_ball(q + step * grad, link.power_w)
            cand_val = rate_difference(link, cand)
            if cand_val > val:
                q, val = cand, cand_val
                improved = True
                break
            step /= 2.0
        if not improved:
            break
        trace.append(max(val, 0.0))
        if val - prev < rel_tol * max(abs(prev), 1e-12):
            break
    return q, val, tuple(trace)


@dataclass(frozen=True)
class SseResult:
    sse_with: float
    sse_without: float
    q: np.ndarray
    config: RisConfig
    trace: tuple[float, ...]


def optimize_sse(
    scene: Scene, point, point_index: int = 0, draw: int = 0, outer_rounds: int = 5
) -> SseResult:
    """Alternating covariance / surface-phase ascent on the secrecy rate."""
    channels = secrecy_link(scene, point, point_index, draw)
    q_wo, val_wo, _ = optimize_q(channels.link(None))
    sse_without = max(val_wo, 0.0)

    m = channels.element_count
    if m == 0:
        return SseResult(
            sse_with=sse_without,
            sse_without=sse_without,
            q=q_wo,
            config=RisConfig(phases_rad=(), active=False),
            trace=(sse_without,),
        )

    lookup = scene.ris.phase_lookup_rad
    config = RisConfig.uniform(m)
    q = None
    val = -math.inf
    trace: list[float] = []
    for _ in range(outer_rounds):
        round_start = val
        q, val, q_trace = optimize_q(channels.link(config), q0=q)
        trace.extend(q_trace)

        def objective(cand: RisConfig, _q=q) -> float:
            return rate_difference(channels.link(cand), _q)

        config, val, ris_trace = coordinate_ascent(objective, m, lookup, init=config)
        trace.extend(max(v, 0.0) for v in ris_trace)
        if math.isfinite(round_start) and val - round_start < 1e-5 * max(
            abs(round_start), 1e-12
        ):
            break

    if sse_without >= max(val, 0.0):
        return SseResult(
            sse_with=sse_without,
            sse_without=sse_without,
            q=q_wo,
            config=RisConfig.off(m),
            trace=tuple(trace + [sse_without]),
        )
    return SseResult(
        sse_with=max(val, 0.0),
        sse_without=sse_without,
        q=q,
        config=config,
        trace=tuple(trace),
    )


def sse_pair(scene: Scene, point, point_index: int = 0) -> tuple[float, float]:
    """(without, with) secrecy rate, averaged over the scene's fading draws."""
    draws = scene.secrecy.fading_draws
    without = 0.0
    with_ris = 0.0
    for draw in range(draws):
        result = optimize_sse(scene, point, point_index, draw)
        without += result.sse_without
        with_ris += result.sse_with
    return without / draws, with_ris / draws
