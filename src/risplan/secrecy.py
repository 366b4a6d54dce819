"""Secrecy spectral efficiency with alternating covariance / phase optimization.

The channel realization is Friis-scaled Rayleigh fading: every link
entry is the centre-to-centre pathloss amplitude (walls included) times
an independent unit-variance complex Gaussian, drawn once per (point,
seed, draw index). The transmit side optimizes a single covariance
matrix on the power ball; the surface side runs quantized coordinate
ascent on the secrecy rate. Neither side can lose to switching the
surface dark, because the dark configuration is always compared in.

Maps go through one engine, :func:`sse_pairs`, which runs that
alternating ascent on blocks of points in lock-step; ``sse_pair`` is a
one-row view of it. The per-point :func:`optimize_sse` and
:func:`optimize_q` are on no command-line path: they are kept as the
deliberate oracles the engine is tested against, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    non-decreasing by construction. Kept as the one-link oracle of the
    lock-step covariance ascent inside :func:`sse_pairs`.
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
    """Alternating covariance / surface-phase ascent on the secrecy rate.

    Kept as the per-point oracle of :func:`sse_pairs`, which must give the
    same bits for every point; maps never call it.
    """
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
    """(without, with) secrecy rate at one point: a one-row view of :func:`sse_pairs`."""
    return tuple(sse_pairs(scene, [point], [point_index])[:, 0].tolist())


# ---------------------------------------------------------------------------
# grid-batched ascent: the per-cell algorithm above, on a block of cells in
# lock-step, every loop level masked per cell

# Memory held by one block's candidate cascades (complex, lookup levels x
# M x N_bs per cell). It bounds the working set, never the result, which
# is the same for any block size.
_BLOCK_BYTES = 4 * 2**20


def _cell_block(scene: Scene) -> int:
    per_cell = sum(bs.antenna_count for bs in scene.bs)
    if scene.ris is not None:
        per_cell *= len(scene.ris.phase_lookup_rad) * scene.ris.element_count
    return max(1, _BLOCK_BYTES // (16 * per_cell))


def _hermitian(a: np.ndarray) -> np.ndarray:
    return np.conj(a).swapaxes(-1, -2)


_MATRICES = ("direct_rx", "direct_eve", "bs_to_ris", "ris_to_rx", "ris_to_eve")


def _stack(channels: list[SecrecyChannels]) -> SecrecyChannels:
    """Cells' channels stacked on a leading axis."""
    first = channels[0]
    return replace(first, **{
        name: None if getattr(first, name) is None
        else np.stack([getattr(c, name) for c in channels])
        for name in _MATRICES
    })


def _rows(ch: SecrecyChannels, rows: np.ndarray) -> SecrecyChannels:
    """Some cells of stacked channels."""
    return replace(ch, **{
        name: None if getattr(ch, name) is None else getattr(ch, name)[rows]
        for name in _MATRICES
    })


def _realize(ch: SecrecyChannels, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``SecrecyChannels.link``: (h_rx, h_eve) for phases (K, M) or (K, L, M)."""
    lead = (slice(None),) + (None,) * (phases.ndim - 2)
    cascade = ch.bs_to_ris[lead] * np.exp(1j * phases)[..., None]
    return (
        ch.direct_rx[lead] + ch.ris_to_rx[lead] @ cascade,
        ch.direct_eve[lead] + ch.ris_to_eve[lead] @ cascade,
    )


def _rate_differences(h_rx, h_eve, q, noise_w: float) -> np.ndarray:
    """Stacked :func:`rate_difference` over any leading shape."""
    def rates(h):
        gram = np.eye(h.shape[-2]) + h @ q @ _hermitian(h) / noise_w
        sign, logdet = np.linalg.slogdet(gram)
        return np.where(sign.real <= 0, 0.0, logdet / LN2)

    return rates(h_rx) - rates(h_eve)


def _project_trace_balls(q: np.ndarray, power_w: float) -> np.ndarray:
    """Stacked :func:`_project_trace_ball`, the simplex step row by row."""
    herm = (q + _hermitian(q)) / 2.0
    w, v = np.linalg.eigh(herm)
    w = np.maximum(w, 0.0)
    over = np.flatnonzero(np.sum(w, axis=-1) > power_w)
    if over.size:
        drop = np.sort(w[over], axis=-1)[:, ::-1]
        cum = np.cumsum(drop, axis=-1)
        k = np.arange(1, w.shape[-1] + 1)
        valid = drop - (cum - power_w) / k > 0
        rho = w.shape[-1] - np.argmax(valid[:, ::-1], axis=-1)  # last valid index + 1
        theta = (cum[np.arange(over.size), rho - 1] - power_w) / rho
        w[over] = np.maximum(w[over] - theta[:, None], 0.0)
    return (v * w[..., None, :]) @ _hermitian(v)


def _gradients(h_rx, h_eve, q, noise_w: float) -> np.ndarray:
    def half(h):
        hh = _hermitian(h)
        mid = noise_w * np.eye(h.shape[-2]) + h @ q @ hh
        return hh @ np.linalg.solve(mid, h)

    return (half(h_rx) - half(h_eve)) / LN2


def _ascend_q(h_rx, h_eve, q0, noise_w: float, power_w: float,
              max_iters: int = 100, rel_tol: float = 1e-5):
    """:func:`optimize_q` on a block of K cells; returns q (K, n, n) and values (K,).

    ``q0`` is None for the isotropic start. A cell leaves the gradient loop,
    and the step-halving loop, exactly where it would alone.
    """
    k, n = h_rx.shape[0], h_rx.shape[-1]
    if q0 is None:
        q = np.repeat((power_w / n * np.eye(n, dtype=np.complex128))[None], k, axis=0)
    else:
        q = _project_trace_balls(q0, power_w)
    val = _rate_differences(h_rx, h_eve, q, noise_w)
    live = np.arange(k)
    for _ in range(max_iters):
        grad = _gradients(h_rx[live], h_eve[live], q[live], noise_w)
        # one norm per cell: a stacked Frobenius norm sums in another order
        scale = np.array([float(np.linalg.norm(g)) for g in grad])
        moving = scale != 0.0
        live, grad, step = live[moving], grad[moving], power_w / scale[moving]
        prev = val[live]
        pending = np.arange(live.size)  # positions in ``live`` still halving
        for _ in range(40):
            if not pending.size:
                break
            rows = live[pending]
            cand = _project_trace_balls(q[rows] + step[pending, None, None] * grad[pending], power_w)
            cand_val = _rate_differences(h_rx[rows], h_eve[rows], cand, noise_w)
            up = cand_val > val[rows]
            q[rows[up]] = cand[up]
            val[rows[up]] = cand_val[up]
            pending = pending[~up]
            step[pending] /= 2.0
        improved = np.ones(live.size, dtype=bool)
        improved[pending] = False
        stalled = val[live] - prev < rel_tol * np.maximum(np.abs(prev), 1e-12)
        live = live[improved & ~stalled]
        if not live.size:
            break
    return q, val


def _ascend_phases(ch: SecrecyChannels, q, phases, val, lookup,
                   max_rounds: int = 20, rel_tol: float = 1e-6) -> None:
    """:func:`beamforming.coordinate_ascent` on the rate difference, K cells at once.

    ``phases`` (K, M) and ``val`` (K,) hold each cell's configuration and its
    value under ``q`` (K, n, n); both are updated in place. All lookup
    candidates of one element go through one stacked evaluation, then are
    compared in lookup order with strict improvement, as one cell alone.
    """
    lookup = np.asarray(lookup, dtype=float)
    live = np.arange(len(val))
    for _ in range(max_rounds):
        sub = _rows(ch, live)
        q_live = q[live][:, None]
        before = val[live]
        for m in range(phases.shape[1]):
            trial = np.repeat(phases[live][:, None, :], lookup.size, axis=1)
            trial[:, :, m] = lookup
            cand = _rate_differences(*_realize(sub, trial), q_live, ch.noise_w)
            current = phases[live, m]
            best, best_phase = val[live], current.copy()
            for level, phase in enumerate(lookup):
                up = (phase != current) & (cand[:, level] > best)
                best = np.where(up, cand[:, level], best)
                best_phase = np.where(up, phase, best_phase)
            switch = best > val[live]
            phases[live[switch], m] = best_phase[switch]
            val[live[switch]] = best[switch]
        stalled = val[live] - before < rel_tol * np.maximum(np.abs(before), 1.0)
        live = live[~stalled]
        if not live.size:
            break


def _sse_block(ch: SecrecyChannels, lookup, outer_rounds: int = 5) -> np.ndarray:
    """:func:`optimize_sse`'s (2, K) without and with rates for a stack of cells' channels."""
    _, val_wo = _ascend_q(ch.direct_rx, ch.direct_eve, None, ch.noise_w, ch.power_w)
    # each clamp keeps the value unless 0.0 is strictly above it, as max(v, 0.0)
    without = np.where(val_wo < 0.0, 0.0, val_wo)
    if ch.bs_to_ris is None:
        return np.stack([without, without])

    k, m = ch.bs_to_ris.shape[:2]
    phases = np.zeros((k, m))
    val = np.full(k, -math.inf)
    q = None
    live = np.arange(k)
    for _ in range(outer_rounds):
        round_start = val[live]
        sub = _rows(ch, live)
        q_live, val_live = _ascend_q(
            *_realize(sub, phases[live]), None if q is None else q[live], ch.noise_w, ch.power_w
        )
        phases_live = phases[live]
        _ascend_phases(sub, q_live, phases_live, val_live, lookup)
        if q is None:
            q = q_live
        else:
            q[live] = q_live
        phases[live] = phases_live
        val[live] = val_live
        stalled = np.isfinite(round_start) & (
            val_live - round_start < 1e-5 * np.maximum(np.abs(round_start), 1e-12)
        )
        live = live[~stalled]
        if not live.size:
            break

    with_ = np.where(val < 0.0, 0.0, val)
    return np.stack([without, np.where(without >= with_, without, with_)])


def sse_pairs(scene: Scene, points, point_indices=None) -> np.ndarray:
    """(2, n) without and with secrecy rate at each point, averaged over the scene's fading draws.

    The grid-batched engine behind the ``sse_bps_hz`` map. Each point's
    fading comes from its index (``point_indices``, by default its position
    in ``points``) exactly as in :func:`optimize_sse`, and blocks of points
    run the alternating covariance / phase ascent in lock-step (Dong & Wang,
    IEEE WCL 2020), every loop masked per point, so each reading is the one
    :func:`optimize_sse` gives for the point alone, whatever the block size.
    Draws are accumulated in draw order. A point on a scene node
    (``CoincidentNodeError``) reads NaN in both rows.
    """
    if scene.eve is None:
        raise RunError("secrecy metrics need an eavesdropper in the scene")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    indices = range(len(points)) if point_indices is None else list(point_indices)
    lookup = () if scene.ris is None else scene.ris.phase_lookup_rad
    draws = scene.secrecy.fading_draws
    block = _cell_block(scene)
    sums = np.zeros((2, len(points)))
    on_node = np.zeros(len(points), dtype=bool)
    for start in range(0, len(points), block):
        rows = range(start, min(start + block, len(points)))
        for draw in range(draws):
            cells, channels = [], []
            for i in rows:
                if on_node[i]:
                    continue
                try:
                    channels.append(secrecy_link(scene, points[i], indices[i], draw))
                    cells.append(i)
                except CoincidentNodeError:
                    on_node[i] = True
            if not cells:
                break
            sums[:, cells] += _sse_block(_stack(channels), lookup)
    rates = sums / draws
    rates[:, on_node] = math.nan
    return rates
