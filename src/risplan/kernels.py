"""Hot numeric kernels, one vectorized numpy implementation each.

The quadratic-form ascent takes a block of grid cells per call and moves
every unconverged cell of the block in lockstep, so its per-step
interpreter overhead is paid once per block instead of once per cell.
Each cell still ends exactly where it would alone.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# maximum pairwise contrast across unit-cell states
# ---------------------------------------------------------------------------

def max_pair_contrast(values):
    """Per-frequency max over unordered state pairs of |S_i(f) - S_j(f)|."""
    values = np.asarray(values, dtype=np.complex128)
    out = np.zeros(values.shape[1])
    for i in range(values.shape[0] - 1):
        diff = values[i + 1:] - values[i]
        # naive modulus instead of abs(): abs() goes through hypot, which
        # rounds differently and would change the written contrast curves;
        # S-parameter magnitudes sit far from overflow, where hypot's
        # scaling buys nothing
        mag = np.sqrt(diff.real**2 + diff.imag**2)
        np.maximum(out, mag.max(axis=0), out=out)
    return out


# ---------------------------------------------------------------------------
# quantized coordinate ascent on the combined-channel power gain, over a
# block of K cells
#
# Objective per cell over responses z_m drawn from a table of states:
#   G(z) = c0 + 2 Re( sum_m conj(b_m) z_m ) + z^H V z
# with V Hermitian PSD. Changing one z_m moves G by 2 Re[ conj(dz) t_m ],
# t_m = b_m + (V z)_m - V_mm z_m, which the sweep exploits for O(M) updates;
# it drops the move of V_mm |z_m|^2, so every state must share one modulus.
#
# Every complex product is spelled out in real arithmetic and every sum runs
# in a fixed order (V z column by column, G term by term). Elementwise real
# multiplies and adds round the same whatever the array length, so a cell's
# result does not depend on which block it sits in, and the written maps
# stay byte-identical across releases. A complex multiply may fuse
# operations on some simd paths, and a BLAS matvec picks its summation
# order from the operand shapes; neither would give those guarantees.
# ---------------------------------------------------------------------------

def _matvec(cols_r, cols_i, zr, zi):
    # V z per cell, accumulated column by column; cols_*[:, l] holds
    # column l of V
    sr = np.zeros(zr.shape)
    si = np.zeros(zr.shape)
    for l in range(zr.shape[1]):
        vr = cols_r[:, l]
        vi = cols_i[:, l]
        sr += vr * zr[:, l, None] - vi * zi[:, l, None]
        si += vr * zi[:, l, None] + vi * zr[:, l, None]
    return sr, si


def _sequential_gain(br, bi, c0, zr, zi, sr, si):
    # G per cell, summed term by term in element order
    terms = 2.0 * (br * zr + bi * zi) + (zr * sr + zi * si)
    gain = c0.copy()
    for m in range(terms.shape[1]):
        gain += terms[:, m]
    return gain


def ascent_quadratic(b, V, c0, responses, init_idx, max_rounds, rel_tol):
    """Best-response sweeps over the state responses, all cells of a block in lockstep.

    ``b`` (K, M), ``V`` (K, M, M), ``c0`` (K,), ``responses`` (L,) and
    ``init_idx`` (K, M) -> (indices (K, M), gains (K,)). An element switches
    only on strict improvement, ties going to the smaller index. A cell
    leaves the lockstep once a round improves it by less than ``rel_tol``,
    so converged cells cost nothing in later rounds and every cell ends
    exactly where it would alone.
    """
    b = np.asarray(b, dtype=np.complex128)
    V = np.asarray(V, dtype=np.complex128)
    c0 = np.asarray(c0, dtype=np.float64)
    responses = np.asarray(responses, dtype=np.complex128)
    idx = np.asarray(init_idx, dtype=np.int64).copy()
    br, bi = b.real, b.imag
    # columns of V as contiguous rows, split into real and imaginary parts
    cols_r = np.ascontiguousarray(V.real.transpose(0, 2, 1))
    cols_i = np.ascontiguousarray(V.imag.transpose(0, 2, 1))
    lr, li = responses.real, responses.imag
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


# ---------------------------------------------------------------------------
# coexistence switching chain: forward-fill the per-slot config index
# ---------------------------------------------------------------------------

def forward_fill(switch, draws, initial):
    """Config index per slot: the draw at the last switch so far, else ``initial``."""
    n = switch.shape[0]
    marks = np.where(switch, np.arange(n), -1)
    last = np.maximum.accumulate(marks)
    return np.where(last >= 0, np.asarray(draws, dtype=np.int64)[np.maximum(last, 0)], initial)


# perfbench/run.py names the kernel backend by testing
# ``ascent_quadratic is ascent_quadratic_numpy``, so this name must stay
# bound; its tracer names a function by its shortest binding, so the
# timings still appear under ``kernels.ascent_quadratic``
ascent_quadratic_numpy = ascent_quadratic
