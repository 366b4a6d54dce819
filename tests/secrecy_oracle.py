"""Per-point secrecy ascent: the oracle of ``secrecy.sse_engine``.

The package builds channels and runs the alternating covariance /
surface-phase ascent only on blocks of cells in lock-step
(:func:`risplan.secrecy.secrecy_links`, :func:`risplan.secrecy.sse_engine`).
This is the one-point algorithm it runs per cell: one point's channels from
:func:`secrecy_link`, projected gradient ascent with step halving on the
trace ball for the covariance, and the generic coordinate ascent of
``gain_oracle`` for the phases, from the lookup phase nearest 0. Its
arithmetic is unchanged, so ``sse_engine`` must reproduce :func:`optimize_sse`
bit for bit.

:func:`optimize_q` keeps the step rule the engine shares with it: the first
step, P over the gradient norm, is always accepted, so the halving loop
never halves and the relative-progress test can stop the ascent far from
the optimum.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from gain_oracle import RisConfig, coordinate_ascent, response, specular_phase
from risplan.errors import CoincidentNodeError
from risplan.secrecy import _MATRICES, LN2, SecrecyChannels, secrecy_links


def secrecy_link(scene, point, point_index: int = 0, draw: int = 0) -> SecrecyChannels:
    """One point's channels: a one-row view of :func:`secrecy_links`.

    Raises ``CoincidentNodeError`` where the point sits on a scene node.
    """
    channels, on_node = secrecy_links(scene, [point], [point_index], draw)
    if on_node[0]:
        raise CoincidentNodeError(f"a link around {list(point)} has zero length")
    return replace(channels, **{name: getattr(channels, name)[0] for name in _MATRICES})


@dataclass(frozen=True)
class MimoLink:
    """Realized channel matrices for one surface configuration."""

    h_rx: np.ndarray  # (N_rx, N_bs)
    h_eve: np.ndarray  # (N_eve, N_bs)
    noise_w: float
    power_w: float


def realize(channels: SecrecyChannels, config: RisConfig | None,
            efficiency: float = 1.0) -> MimoLink:
    """The channels realized under one surface configuration, every element
    responding ``efficiency`` exp(j phi); None for the direct channels alone."""
    if config is None:
        return MimoLink(channels.direct_rx, channels.direct_eve, channels.noise_w,
                        channels.power_w)
    resp = response(config, efficiency)
    cascade = channels.bs_to_ris * resp[:, None]  # diag(resp) @ G
    return MimoLink(
        h_rx=channels.direct_rx + channels.ris_to_rx @ cascade,
        h_eve=channels.direct_eve + channels.ris_to_eve @ cascade,
        noise_w=channels.noise_w,
        power_w=channels.power_w,
    )


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
    scene, point, point_index: int = 0, draw: int = 0, outer_rounds: int = 5
) -> SseResult:
    """Alternating covariance / surface-phase ascent on the secrecy rate at one point."""
    channels = secrecy_link(scene, point, point_index, draw)
    q_wo, val_wo, _ = optimize_q(realize(channels, None))
    sse_without = max(val_wo, 0.0)

    m = channels.bs_to_ris.shape[0]
    lookup, efficiency = scene.ris.phase_lookup_rad, scene.ris.element_efficiency
    config = RisConfig.uniform(m, specular_phase(lookup, efficiency))
    q = None
    val = -math.inf
    trace: list[float] = []
    for _ in range(outer_rounds):
        round_start = val
        q, val, q_trace = optimize_q(realize(channels, config, efficiency), q0=q)
        trace.extend(q_trace)

        def objective(cand: RisConfig, _q=q) -> float:
            return rate_difference(realize(channels, cand, efficiency), _q)

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
