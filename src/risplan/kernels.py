"""Hot numeric kernels, each in two variants.

Every kernel has a loop implementation (compiled with numba when enabled)
and a vectorized pure-numpy implementation. The public names bind to one
variant at import time according to ``RISPLAN_NUMBA``; both variants stay
importable so the tests can compare them.

The two variants of a kernel follow the same update rules, tie-breaks and
rounding, so they produce identical outputs, not merely close ones.

The quadratic-form ascent takes a block of grid cells per call. The loop
variant walks the cells one after another; the numpy variant moves every
unconverged cell of the block in lockstep, so its per-step interpreter
overhead is paid once per block instead of once per cell.
"""

from __future__ import annotations

import numpy as np

from ._accel import NUMBA_ENABLED, njit


# ---------------------------------------------------------------------------
# maximum pairwise contrast across unit-cell states
# ---------------------------------------------------------------------------

def _max_pair_contrast_loops(values):
    # naive modulus instead of abs(): hypot rounds differently between the
    # scalar libm and numpy's simd path, sqrt(re^2 + im^2) does not, and
    # S-parameter magnitudes sit far from overflow
    n_states, n_freq = values.shape
    out = np.zeros(n_freq)
    for i in range(n_states):
        for j in range(i + 1, n_states):
            for k in range(n_freq):
                dr = values[i, k].real - values[j, k].real
                di = values[i, k].imag - values[j, k].imag
                d = np.sqrt(dr * dr + di * di)
                if d > out[k]:
                    out[k] = d
    return out


def max_pair_contrast_numpy(values):
    """Per-frequency max over unordered state pairs of |S_i(f) - S_j(f)|."""
    values = np.asarray(values, dtype=np.complex128)
    out = np.zeros(values.shape[1])
    for i in range(values.shape[0] - 1):
        diff = values[i + 1:] - values[i]
        mag = np.sqrt(diff.real**2 + diff.imag**2)
        np.maximum(out, mag.max(axis=0), out=out)
    return out


# ---------------------------------------------------------------------------
# quantized coordinate ascent on the combined-channel power gain, over a
# block of K cells
#
# Objective per cell over unit phasors z_m drawn from a lookup:
#   G(z) = c0 + 2 Re( sum_m conj(b_m) z_m ) + z^H V z
# with V Hermitian PSD. Changing one z_m moves G by 2 Re[ conj(dz) t_m ],
# t_m = b_m + (V z)_m - V_mm z_m, which the sweep exploits for O(M) updates.
#
# Both variants spell every complex product out in real arithmetic and sum
# in the same order (V z column by column, G term by term), so they round
# identically; numpy's vectorized complex multiply may fuse operations and
# would not.
# ---------------------------------------------------------------------------

@njit(cache=True)
def _matvec_loops(Vk, zr, zi, sr, si):
    m_count = zr.shape[0]
    for m in range(m_count):
        sr[m] = 0.0
        si[m] = 0.0
    for l in range(m_count):
        for m in range(m_count):
            vr = Vk[m, l].real
            vi = Vk[m, l].imag
            sr[m] += vr * zr[l] - vi * zi[l]
            si[m] += vr * zi[l] + vi * zr[l]


@njit(cache=True)
def _gain_loops(bk, c0k, zr, zi, sr, si):
    gain = c0k
    for m in range(zr.shape[0]):
        gain += 2.0 * (bk[m].real * zr[m] + bk[m].imag * zi[m]) + (
            zr[m] * sr[m] + zi[m] * si[m]
        )
    return gain


def _ascent_quadratic_loops(b, V, c0, lookup, init_idx, max_rounds, rel_tol):
    k_count, m_count = b.shape
    n_lookup = lookup.shape[0]
    idx = init_idx.copy()
    gains = np.empty(k_count)
    zr = np.empty(m_count)
    zi = np.empty(m_count)
    sr = np.empty(m_count)
    si = np.empty(m_count)
    for k in range(k_count):
        for m in range(m_count):
            zr[m] = lookup[idx[k, m]].real
            zi[m] = lookup[idx[k, m]].imag
        _matvec_loops(V[k], zr, zi, sr, si)
        gain = _gain_loops(b[k], c0[k], zr, zi, sr, si)
        for _ in range(max_rounds):
            gain_before = gain
            for m in range(m_count):
                vr = V[k, m, m].real
                vi = V[k, m, m].imag
                tr = (b[k, m].real + sr[m]) - (vr * zr[m] - vi * zi[m])
                ti = (b[k, m].imag + si[m]) - (vr * zi[m] + vi * zr[m])
                cur = zr[m] * tr + zi[m] * ti
                best_val = cur
                best_c = -1
                for c in range(n_lookup):
                    val = lookup[c].real * tr + lookup[c].imag * ti
                    if val > best_val:
                        best_val = val
                        best_c = c
                if best_c >= 0:
                    dzr = lookup[best_c].real - zr[m]
                    dzi = lookup[best_c].imag - zi[m]
                    for l in range(m_count):
                        vr = V[k, l, m].real
                        vi = V[k, l, m].imag
                        sr[l] += vr * dzr - vi * dzi
                        si[l] += vr * dzi + vi * dzr
                    zr[m] = lookup[best_c].real
                    zi[m] = lookup[best_c].imag
                    idx[k, m] = best_c
                    gain += 2.0 * (best_val - cur)
            scale = abs(gain_before)
            if scale < 1.0:
                scale = 1.0
            if gain - gain_before < rel_tol * scale:
                break
        # recompute once to shed incremental float drift
        _matvec_loops(V[k], zr, zi, sr, si)
        gains[k] = _gain_loops(b[k], c0[k], zr, zi, sr, si)
    return idx, gains


def _matvec(cols_r, cols_i, zr, zi):
    # V z per cell, accumulated column by column like the loop variant;
    # cols_*[:, l] holds column l of V
    sr = np.zeros(zr.shape)
    si = np.zeros(zr.shape)
    for l in range(zr.shape[1]):
        vr = cols_r[:, l]
        vi = cols_i[:, l]
        sr += vr * zr[:, l, None] - vi * zi[:, l, None]
        si += vr * zi[:, l, None] + vi * zr[:, l, None]
    return sr, si


def _sequential_gain(br, bi, c0, zr, zi, sr, si):
    # G per cell, summed term by term in the loop variant's order
    terms = 2.0 * (br * zr + bi * zi) + (zr * sr + zi * si)
    gain = c0.copy()
    for m in range(terms.shape[1]):
        gain += terms[:, m]
    return gain


def ascent_quadratic_numpy(b, V, c0, lookup, init_idx, max_rounds, rel_tol):
    """Best-response sweeps over the lookup, all cells of a block in lockstep.

    ``b`` (K, M), ``V`` (K, M, M), ``c0`` (K,), ``init_idx`` (K, M) ->
    (indices (K, M), gains (K,)). An element switches only on strict
    improvement, ties going to the smaller lookup index. A cell leaves the
    lockstep once a round improves it by less than ``rel_tol``, so
    converged cells cost nothing in later rounds and every cell ends
    exactly where it would alone.
    """
    b = np.asarray(b, dtype=np.complex128)
    V = np.asarray(V, dtype=np.complex128)
    c0 = np.asarray(c0, dtype=np.float64)
    lookup = np.asarray(lookup, dtype=np.complex128)
    idx = np.asarray(init_idx, dtype=np.int64).copy()
    br, bi = b.real, b.imag
    # columns of V as contiguous rows, split into real and imaginary parts
    cols_r = np.ascontiguousarray(V.real.transpose(0, 2, 1))
    cols_i = np.ascontiguousarray(V.imag.transpose(0, 2, 1))
    lr, li = lookup.real, lookup.imag
    zr, zi = lr[idx], li[idx]
    sr, si = _matvec(cols_r, cols_i, zr, zi)
    gain = _sequential_gain(br, bi, c0, zr, zi, sr, si)
    active = np.arange(b.shape[0])
    for _ in range(max_rounds):
        if active.size == 0:
            break
        gain_before = gain[active]
        for m in range(b.shape[1]):
            a = active
            vr, vi = cols_r[a, m, m], cols_i[a, m, m]
            zmr, zmi = zr[a, m], zi[a, m]
            tr = (br[a, m] + sr[a, m]) - (vr * zmr - vi * zmi)
            ti = (bi[a, m] + si[a, m]) - (vr * zmi + vi * zmr)
            cur = zmr * tr + zmi * ti
            vals = lr * tr[:, None] + li * ti[:, None]
            best = np.argmax(vals, axis=1)
            best_val = np.take_along_axis(vals, best[:, None], axis=1)[:, 0]
            up = best_val > cur
            if not up.any():
                continue
            rows, c = a[up], best[up]
            dzr = (lr[c] - zmr[up])[:, None]
            dzi = (li[c] - zmi[up])[:, None]
            col_r, col_i = cols_r[rows, m], cols_i[rows, m]
            sr[rows] += col_r * dzr - col_i * dzi
            si[rows] += col_r * dzi + col_i * dzr
            zr[rows, m] = lr[c]
            zi[rows, m] = li[c]
            idx[rows, m] = c
            gain[rows] += 2.0 * (best_val[up] - cur[up])
        scale = np.maximum(np.abs(gain_before), 1.0)
        active = active[~(gain[active] - gain_before < rel_tol * scale)]
    sr, si = _matvec(cols_r, cols_i, zr, zi)
    return idx, _sequential_gain(br, bi, c0, zr, zi, sr, si)


def eval_quadratic_gain(b, V, c0, z):
    """G(z) for explicit phasors z (not restricted to a lookup)."""
    z = np.asarray(z, dtype=np.complex128)
    return float(c0 + 2.0 * np.sum(np.conj(b) * z).real + np.vdot(z, V @ z).real)


# ---------------------------------------------------------------------------
# coexistence switching chain: forward-fill the per-slot config index
# ---------------------------------------------------------------------------

def _forward_fill_loops(switch, draws):
    n = switch.shape[0]
    out = np.empty(n, np.int64)
    cur = 0
    for t in range(n):
        if switch[t]:
            cur = draws[t]
        out[t] = cur
    return out


def forward_fill_numpy(switch, draws):
    """Config index per slot: last drawn value, initial index 0."""
    n = switch.shape[0]
    marks = np.where(switch, np.arange(n), -1)
    last = np.maximum.accumulate(marks)
    return np.where(last >= 0, np.asarray(draws, dtype=np.int64)[np.maximum(last, 0)], 0)


# ---------------------------------------------------------------------------
# public bindings
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:
    max_pair_contrast = njit(cache=True)(_max_pair_contrast_loops)
    ascent_quadratic = njit(cache=True)(_ascent_quadratic_loops)
    forward_fill = njit(cache=True)(_forward_fill_loops)
else:
    max_pair_contrast = max_pair_contrast_numpy
    ascent_quadratic = ascent_quadratic_numpy
    forward_fill = forward_fill_numpy
