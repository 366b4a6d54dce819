"""Secrecy spectral efficiency with alternating covariance / phase optimization.

The channel realization is Friis-scaled Rayleigh fading: every link
entry is the centre-to-centre pathloss amplitude (walls included) times
an independent unit-variance complex Gaussian, drawn once per (point,
seed, draw index). :func:`secrecy_links` builds a block of points'
channels from one set of ray amplitudes; only the fading is drawn per cell.
The transmit side optimizes a single covariance matrix on the power ball;
the surface side runs quantized coordinate ascent on the secrecy rate over
the surface states, held as indices into one response table and started
at the state whose angle is nearest 0. Neither side can lose to switching
the surface dark, because the dark configuration is always compared in.

Maps go through one engine, :func:`sse_engine`, which runs that
alternating ascent on blocks of points in lock-step, every loop masked per
point, so each point ends exactly where the ascent would leave it alone.
Its covariance ascent keeps only the live cells' operands, packed, and
carries each cell's products H Q H^H from one step into the next gradient;
the ascent without the surface runs in the first round's lock-step. The
tests keep the one-point ascent and check the engine against it bit for bit.

Every function here takes a scene with an eavesdropper: ``aoi`` refuses a
secrecy map of a scene without one before it loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .beamforming import quantize_indices, state_responses
from .propagation import dbm_to_watts, ray_amplitudes
from .scene import Scene
from .seeding import derived_rng

LN2 = math.log(2.0)

# stopping rules: the covariance ascent's step cap and relative gain, the
# phase ascent's round cap and relative gain, and the alternation's round cap
_Q_ITERS, _Q_REL_TOL = 100, 1e-5
_PHASE_ROUNDS, _PHASE_REL_TOL = 20, 1e-6
_OUTER_ROUNDS = 5


@dataclass(frozen=True)
class SecrecyChannels:
    """Configuration-independent channel pieces of K cells for one fading draw."""

    direct_rx: np.ndarray  # (K, N_rx, N_bs)
    direct_eve: np.ndarray  # (K, N_eve, N_bs)
    bs_to_ris: np.ndarray  # (K, M, N_bs)
    ris_to_rx: np.ndarray  # (K, N_rx, M)
    ris_to_eve: np.ndarray  # (K, N_eve, M)
    noise_w: float
    power_w: float


_MATRICES = ("direct_rx", "direct_eve", "bs_to_ris", "ris_to_rx", "ris_to_eve")


def secrecy_links(scene: Scene, points, point_indices, draw: int):
    """(channels, on_node): one Rayleigh realization of every link around (n, 3) RX points.

    Point i's fading comes from ``point_indices[i]`` and ``draw``. A point
    with a zero-length RX ray, or every point when an Eve or
    station-to-surface ray has zero length, sits on a scene node: its
    ``on_node`` entry is set and its channels are not finite.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n_rx, n_eve = scene.secrecy.rx_antenna_count, scene.eve.antenna_count
    antennas = [bs.antenna_count for bs in scene.bs]
    k, n_bs = len(antennas), sum(antennas)

    # one amplitude per station, then per station antenna; the surface
    # centre is the last target of the RX and Eve rays
    stations = np.array([bs.position_m for bs in scene.bs], dtype=float)
    targets = np.vstack([stations, scene.ris.position_m])
    amp_rx, dist_rx = ray_amplitudes(scene, points[:, None, :], targets)
    amp_eve, dist_eve = ray_amplitudes(scene, scene.eve.position_m, targets)
    amp_g, dist_g = ray_amplitudes(scene, scene.ris.position_m, stations)
    on_node = np.any(dist_rx == 0.0, axis=1) | np.any(dist_eve == 0.0) | np.any(dist_g == 0.0)
    # each matrix's shape and amplitude, in the order every cell draws them
    m = scene.ris.element_count
    parts = [((n_rx, n_bs), np.repeat(amp_rx[:, :k], antennas, axis=1)[:, None, :]),
             ((n_eve, n_bs), np.repeat(amp_eve[:k], antennas)[None, :]),
             ((m, n_bs), np.repeat(amp_g, antennas)[None, :]),
             ((n_rx, m), amp_rx[:, k, None, None]), ((n_eve, m), amp_eve[k])]

    fading = [np.empty((len(points), *shape), dtype=np.complex128) for shape, _ in parts]
    for row, index in enumerate(point_indices):
        rng = derived_rng(scene.seed, "sse-fading", index, draw)
        for cells in fading:
            re = rng.standard_normal(cells.shape[1:])
            im = rng.standard_normal(cells.shape[1:])
            cells[row] = (re + 1j * im) / math.sqrt(2.0)
    with np.errstate(invalid="ignore"):
        links = [amp * cells for (_, amp), cells in zip(parts, fading)]
    channels = SecrecyChannels(
        *links,
        noise_w=dbm_to_watts(scene.noise_power_dbm),
        power_w=dbm_to_watts(scene.secrecy.power_budget_dbm),
    )
    return channels, on_node


# ---------------------------------------------------------------------------
# grid-batched ascent: the alternating ascent on a block of cells in
# lock-step, every loop level masked per cell


def _hermitian(a: np.ndarray) -> np.ndarray:
    return np.conj(a).swapaxes(-1, -2)


def _rows(ch: SecrecyChannels, rows: np.ndarray) -> SecrecyChannels:
    """Some cells of stacked channels."""
    return replace(ch, **{name: getattr(ch, name)[rows] for name in _MATRICES})


def _realize(ch: SecrecyChannels, responses: np.ndarray, states: np.ndarray):
    """(h_rx, h_eve) in states (K, M) or (K, L, M): H_d + H_r diag(responses[states]) G."""
    lead = (slice(None),) + (None,) * (states.ndim - 2)
    cascade = ch.bs_to_ris[lead] * responses[states][..., None]
    return (
        ch.direct_rx[lead] + ch.ris_to_rx[lead] @ cascade,
        ch.direct_eve[lead] + ch.ris_to_eve[lead] @ cascade,
    )


def _rates(hs, q, noise_w: float, adjoints=None):
    """(products P = H Q H^H, RX minus Eve rate) of the channels ``hs``: log2 det(I + P / N0)
    each, unclamped, or 0 where the determinant's sign is not positive."""
    prods = [h @ q @ hh for h, hh in zip(hs, adjoints or map(_hermitian, hs))]
    rx, eve = (np.where(sign.real <= 0, 0.0, logdet / LN2) for sign, logdet in
               (np.linalg.slogdet(np.eye(p.shape[-1]) + p / noise_w) for p in prods))
    return prods, rx - eve


def _project_trace_balls(q: np.ndarray, power_w: float) -> np.ndarray:
    """Euclidean projection of each Q (K, n, n) onto {Q >= 0, trace(Q) <= P}.

    Negative eigenvalues clip to 0; where the rest sum past P they are
    projected onto the simplex {w >= 0, sum w = P}.
    """
    w, v = np.linalg.eigh((q + _hermitian(q)) / 2.0)
    w = np.maximum(w, 0.0)
    drop = w[:, ::-1]  # eigh sorts ascending, and the clip keeps the order
    shift = (drop.cumsum(axis=-1) - power_w) / np.arange(1, w.shape[-1] + 1)
    last = w.shape[-1] - 1 - (drop - shift > 0)[:, ::-1].argmax(axis=-1)  # last valid
    theta = shift[np.arange(len(w)), last]
    w = np.where((w.sum(axis=-1) > power_w)[:, None], np.maximum(w - theta[:, None], 0.0), w)
    return (v * w[..., None, :]) @ _hermitian(v)


def _ascend_q(h_rx, h_eve, q0, noise_w: float, power_w: float):
    """Projected gradient ascent of the covariance on a block of K cells.

    Returns q (K, n, n) and the unclamped rate differences (K,). ``q0`` is
    None for the isotropic start. Each step starts at P over the gradient
    norm and halves until the value strictly improves, at most 40 times; a
    cell stops when its gradient vanishes, when no step improves it or when
    it gains less than ``_Q_REL_TOL`` relative, and so leaves both loops
    exactly where it would alone. Only the live cells' operands are kept,
    packed again when a cell stops; each carries its RX and Eve products
    H Q H^H from the accepted step into the next gradient. The first try of
    a step runs on the whole packed block; only when some cell rejects it
    do the moving cells redo the step in the halving loop.
    """
    k, n = h_rx.shape[0], h_rx.shape[-1]
    q = (np.repeat((power_w / n * np.eye(n, dtype=np.complex128))[None], k, axis=0)
         if q0 is None else _project_trace_balls(q0, power_w))
    q_out, val_out, live = np.empty_like(q), np.empty(k), np.arange(k)
    hs, mids = [h_rx, h_eve], [noise_w * np.eye(h.shape[-2]) for h in (h_rx, h_eve)]
    adjoints = [_hermitian(h) for h in hs]
    prods, val = _rates(hs, q, noise_w, adjoints)
    for _ in range(_Q_ITERS):
        grad = np.subtract(*(hh @ np.linalg.solve(m + p, h)
                             for h, hh, p, m in zip(hs, adjoints, prods, mids))) / LN2
        # np.linalg.norm per cell: a stacked matmul reduces each with the same dot
        flat = grad.reshape(len(grad), 1, -1)
        scale = np.sqrt((flat.real @ flat.real.swapaxes(1, 2)
                         + flat.imag @ flat.imag.swapaxes(1, 2))[:, 0, 0])
        moving = scale != 0.0
        step = power_w / np.where(moving, scale, math.inf)
        cand = _project_trace_balls(q + step[:, None, None] * grad, power_w)
        cand_prods, cand_val = _rates(hs, cand, noise_w, adjoints)
        prev, up = val, moving & (cand_val > val)
        if up.all():
            q, prods, val = cand, cand_prods, cand_val
        else:  # rare: redo the step, halving each cell's until it improves
            val, pending = val.copy(), np.flatnonzero(moving)
            for _ in range(40):
                if not pending.size:
                    break
                cand = _project_trace_balls(q[pending] + step[pending, None, None] * grad[pending],
                                            power_w)
                cand_prods, cand_val = _rates([h[pending] for h in hs], cand, noise_w)
                up = cand_val > val[pending]
                for held, new in zip([q, val, *prods], [cand, cand_val, *cand_prods]):
                    held[pending[up]] = new[up]
                pending = pending[~up]
                step[pending] /= 2.0
        # a cell no step improved gains 0 (or NaN), so it stops here as well
        keep = val - prev >= _Q_REL_TOL * np.maximum(np.abs(prev), 1e-12)
        if not keep.all():
            q_out[live[~keep]], val_out[live[~keep]] = q[~keep], val[~keep]
            live, q, val, *hs = (a[keep] for a in (live, q, val, *hs))
            prods, adjoints = [p[keep] for p in prods], [_hermitian(h) for h in hs]
            if not live.size:
                break
    q_out[live], val_out[live] = q, val
    return q_out, val_out


def _ascend_phases(ch: SecrecyChannels, q, states, val, responses, live) -> None:
    """Element-by-element best response over the states on the rate difference, K cells at once.

    ``states`` (K, M) and ``val`` (K,) hold each cell's indices into the
    table ``responses`` and its value under ``q`` (K, n, n); the cells
    ``live`` indexes are ascended and updated in place. All states of one
    element go through one stacked evaluation. The element moves to the
    first best state whose response differs from its own, if that strictly
    improves, as one cell alone would in table order. A cell stops once a
    round gains less than ``_PHASE_REL_TOL`` relative.
    """
    levels = np.arange(responses.size)
    for _ in range(_PHASE_ROUNDS):
        sub = _rows(ch, live)
        q_live = q[live][:, None]
        before = val[live]
        for m in range(states.shape[1]):
            trial = np.repeat(states[live][:, None, :], levels.size, axis=1)
            trial[:, :, m] = levels
            cand = _rates(_realize(sub, responses, trial), q_live, ch.noise_w)[1]
            cand[responses[None, :] == responses[states[live, m]][:, None]] = -math.inf
            best_state = np.argmax(cand, axis=1)
            best = cand[np.arange(live.size), best_state]
            switch = best > val[live]
            states[live[switch], m] = best_state[switch]
            val[live[switch]] = best[switch]
        stalled = val[live] - before < _PHASE_REL_TOL * np.maximum(np.abs(before), 1.0)
        live = live[~stalled]
        if not live.size:
            break


def _sse_block(ch: SecrecyChannels, responses, start_state) -> np.ndarray:
    """(2, K) without and with secrecy rates for a stack of cells' channels.

    Without the surface the covariance ascent runs once; with it, up to
    ``_OUTER_ROUNDS`` rounds alternate the covariance and the states, every
    element starting at ``start_state``, an index into ``responses``. The
    first round's ascent starts isotropic, as the one without the surface
    does, so both run in one lock-step, the direct channels stacked last.
    Rates clamp at 0, and the with-surface rate never falls below the
    without one, because switching the surface dark is compared in.
    """
    k = len(ch.direct_rx)
    states = np.full(ch.bs_to_ris.shape[:2], start_state)
    hs = [np.concatenate([h, d])
          for h, d in zip(_realize(ch, responses, states), [ch.direct_rx, ch.direct_eve])]
    q, val = _ascend_q(*hs, None, ch.noise_w, ch.power_w)
    del hs  # free the stacked channels before the phase ascent builds its cascades
    # each clamp keeps the value unless 0.0 is strictly above it, as max(v, 0.0)
    without = np.where(val[-k:] < 0.0, 0.0, val[-k:])

    q, val = q[:k], val[:k]
    live, round_start = np.arange(k), np.full(k, -math.inf)
    for outer in range(_OUTER_ROUNDS):
        if outer:
            round_start = val[live]
            q[live], val[live] = _ascend_q(*_realize(_rows(ch, live), responses, states[live]),
                                           q[live], ch.noise_w, ch.power_w)
        _ascend_phases(ch, q, states, val, responses, live)
        stalled = np.isfinite(round_start) & (
            val[live] - round_start < 1e-5 * np.maximum(np.abs(round_start), 1e-12))
        live = live[~stalled]
        if not live.size:
            break

    with_ = np.where(val < 0.0, 0.0, val)
    return np.stack([without, np.where(without >= with_, without, with_)])


def sse_engine(scene: Scene):
    """(cell bytes, block) of the ``sse_bps_hz`` map; a block is (2, k) mean secrecy rates.

    The mean runs over the scene's fading draws, in draw order. Each
    point's fading comes from its index, and a block's points run the
    alternating covariance / phase ascent in lock-step (Dong & Wang, IEEE
    WCL 2020), every loop masked per point, so each reading is the one the
    point gets alone. A point on a scene node reads NaN in both rows. A
    cell's bytes are its candidate cascades, the largest operand: the
    phase ascent tries every state of one element at once, a (states x M x
    N_bs) complex cascade, N_bs the stations' summed antennas; its
    response factor, 1 / N_bs of that, lives while it is built.
    """
    responses = state_responses(scene)
    start_state = quantize_indices(0.0, responses)
    draws = scene.secrecy.fading_draws

    def block(points: np.ndarray, indices: np.ndarray) -> np.ndarray:
        sums = np.zeros((2, len(points)))
        for draw in range(draws):
            ch, on_node = secrecy_links(scene, points, indices, draw)
            cells = np.flatnonzero(~on_node)
            if not cells.size:
                break
            if cells.size < len(points):
                ch = _rows(ch, cells)
            sums[:, cells] += _sse_block(ch, responses, start_state)
        rates = sums / draws
        rates[:, on_node] = math.nan
        return rates

    n_bs = sum(bs.antenna_count for bs in scene.bs)
    return 16 * n_bs * responses.size * scene.ris.element_count, block
