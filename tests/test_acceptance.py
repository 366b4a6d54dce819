"""End-to-end acceptance checks over the bundled scenes and synthetic data.

Every test pins one quantitative behaviour of the toolkit, with its
tolerance and runtime budget spelled out next to the asserts, and prints
a single PASS line with the measured numbers when it holds. Run with
``pytest -v`` for the per-test verdicts or ``-s`` to see the numbers.
"""

import hashlib
import itertools
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from coexist_oracle import neighbour_codebook
from coexist_oracle import simulate as slot_simulate
from gain_oracle import RisConfig, gain, optimize_gain, point_gain_terms, quantize_config, response
from peb_oracle import ml_position_rmse, observation_model, peb_point, pilot_configs
from risplan import cli
from risplan.beamforming import wrap_phase
from risplan.coexistence import CoexistConfig, simulate
from risplan.influence import LABELS, classify, sweep
from risplan.scene import DEFAULT_PHASE_LOOKUP, load_scene, parse_scene
from risplan.touchstone import StateRecord
from risplan.unitcell import (
    ContrastCurve,
    effective_s11,
    extract_boi,
    max_contrast,
)
from secrecy_oracle import (
    MimoLink,
    optimize_q,
    optimize_sse,
    rate_difference,
    realize,
    secrecy_link,
)

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def _trapezoid_curve(f1_ghz: float, f2_ghz: float) -> ContrastCurve:
    """Piecewise-linear contrast crossing 1.0 exactly at f1 and f2 (GHz)."""
    mid = (f1_ghz + f2_ghz) / 2.0
    anchors = np.array([f1_ghz - 1.5, f1_ghz, mid, f2_ghz, f2_ghz + 1.5]) * 1e9
    values = np.array([0.05, 1.0, 1.7, 1.0, 0.05])
    return ContrastCurve(frequencies_hz=anchors, contrast=values)


class TestUnitCellBands:
    def test_synthetic_threshold_crossings(self):
        # dense resample of a trapezoid anchored so the 1.0 crossings sit
        # exactly at 23.9 and 30.6 GHz; band centre and width must come
        # back within 1 MHz, in under a second
        anchors = np.array([20.0, 23.9, 27.25, 30.6, 34.0]) * 1e9
        values = np.array([0.2, 1.0, 1.9, 1.0, 0.1])
        freqs = np.linspace(20e9, 34e9, 561)
        curve = ContrastCurve(
            frequencies_hz=freqs,
            contrast=np.interp(freqs, anchors, values),
        )
        t0 = time.perf_counter()
        boi = extract_boi(curve, c_min=1.0)
        elapsed = time.perf_counter() - t0
        assert boi.f0_hz == pytest.approx(27.25e9, abs=1e6)
        assert boi.width_hz == pytest.approx(6.7e9, abs=1e6)
        assert elapsed < 1.0
        _report(
            "band extraction",
            f"f0={boi.f0_hz / 1e9:.6f} GHz width={boi.width_hz / 1e9:.6f} GHz "
            f"in {elapsed * 1e3:.2f} ms",
        )

    def test_four_cell_band_summaries(self):
        # four switched cells with known crossing pairs; widths and
        # centres to 1 MHz, plus the two centres that usually get quoted
        # rounded (5.8 and 5.05 GHz) stay within 0.1 GHz of those figures
        cases = [
            (23.9, 30.6, 6.7, 27.25),
            (5.1, 6.4, 1.3, 5.75),
            (5.17, 5.44, 0.27, 5.305),
            (4.4, 5.6, 1.2, 5.0),
        ]
        mids = []
        for f1, f2, width, mid in cases:
            boi = extract_boi(_trapezoid_curve(f1, f2), c_min=1.0)
            assert len(boi.intervals) == 1
            assert boi.width_hz == pytest.approx(width * 1e9, abs=1e6)
            assert boi.f0_hz == pytest.approx(mid * 1e9, abs=1e6)
            mids.append(boi.f0_hz)
        assert abs(mids[1] - 5.8e9) <= 0.1e9
        assert abs(mids[3] - 5.05e9) <= 0.1e9
        _report(
            "four-cell summaries",
            "centres " + ", ".join(f"{m / 1e9:.4f}" for m in mids) + " GHz",
        )

    def test_effective_reflection_and_delay_line(self):
        # loss compensation must keep the exact magnitude identity
        # |s~11| = 1 - |s11|, and the contrast of a 7-state delay line
        # must match a brute-force pairwise scan to 1e-9
        rng = np.random.default_rng(7)
        mags = rng.uniform(0.0, 1.0, 10_000)
        phases = rng.uniform(-np.pi, np.pi, 10_000)
        samples = mags * np.exp(1j * phases)
        err = np.max(np.abs(np.abs(effective_s11(samples)) - (1.0 - mags)))
        assert err < 1e-12

        freqs = np.linspace(5e9, 6e9, 101)
        rel = (freqs - 5e9) / 1e9
        s11 = np.empty((7, freqs.size), dtype=np.complex128)
        for k in range(7):
            mag = 0.12 + 0.02 * np.sin(2 * np.pi * rel + k)
            ang = 2 * np.pi * k / 7 + 0.3 * np.cos(2 * np.pi * rel - k)
            s11[k] = mag * np.exp(1j * ang)
        states = [StateRecord(str(k), freqs, s11[k]) for k in range(7)]
        curve = max_contrast("delay7", states, "effective")
        mapped = (1.0 - np.abs(s11)) * np.exp(1j * np.angle(s11))
        brute = np.zeros(freqs.size)
        for i, j in itertools.combinations(range(7), 2):
            np.maximum(brute, np.abs(mapped[i] - mapped[j]), out=brute)
        gap = np.max(np.abs(curve.contrast - brute))
        assert gap < 1e-9
        _report(
            "effective reflection",
            f"magnitude err={err:.2e}, 7-state contrast gap={gap:.2e}",
        )


class TestObservationJacobian:
    def test_matches_finite_differences_on_random_scenes(self):
        # 50 random (scene, point) draws; analytic position Jacobian of
        # the pilot observation model against central differences over
        # gain * basis, relative error under 1e-5, all inside 10 s
        rng = np.random.default_rng(20260821)
        h = 1e-6
        worst = 0.0
        t0 = time.perf_counter()
        for _ in range(50):
            doc = {
                "spec_version": 1,
                "carrier_hz": float(rng.uniform(3e9, 30e9)),
                "bs": [
                    {"position_m": [float(rng.uniform(0, 10)), float(rng.uniform(0, 10))]}
                    for _ in range(2)
                ],
                "ris": {
                    "position_m": [float(rng.uniform(0, 10)), float(rng.uniform(0, 10))],
                    "element_count": 8,
                },
                "ue_grid": {"x_min": 0, "x_max": 10, "y_min": 0, "y_max": 10,
                            "resolution_m": 1},
                "subcarrier_count": int(rng.integers(8, 65)),
                "subcarrier_spacing_hz": 240e3,
                "localization": {"pilot_count": 4, "tx_power_dbm": 0.0},
            }
            scene = parse_scene(json.dumps(doc))
            configs = pilot_configs(scene, 0)
            bs_index = int(rng.integers(0, 2))
            p = [float(rng.uniform(0.5, 9.5)), float(rng.uniform(0.5, 9.5)), 0.0]
            blocks = observation_model(scene, bs_index, p, configs)
            gains = [blk.mu[0] / blk.basis[0] for blk in blocks]
            analytic = np.concatenate([blk.d_pos for blk in blocks], axis=0)
            fd = np.empty_like(analytic)
            for axis in range(2):
                lo, hi = list(p), list(p)
                lo[axis] -= h
                hi[axis] += h
                blocks_hi = observation_model(scene, bs_index, hi, configs)
                blocks_lo = observation_model(scene, bs_index, lo, configs)
                fd[:, axis] = np.concatenate(
                    [
                        g * (bh.basis - bl.basis) / (2 * h)
                        for g, bh, bl in zip(gains, blocks_hi, blocks_lo)
                    ]
                )
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
            assert rel < 1e-5
            worst = max(worst, rel)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        _report(
            "observation Jacobian",
            f"worst rel err {worst:.2e} over 50 draws in {elapsed:.2f} s",
        )


@pytest.fixture(scope="module")
def indoor_scene():
    return load_scene(str(SCENES / "indoor_localization.json"))


@pytest.fixture(scope="module")
def indoor_peb(indoor_scene):
    t0 = time.perf_counter()
    pairs = sweep(indoor_scene, "peb_m")
    return pairs, time.perf_counter() - t0


class TestLocalizationMaps:
    def test_peb_never_worse_and_pilot_scaling(self, indoor_scene, indoor_peb):
        (a, b), elapsed = indoor_peb
        assert a.shape == (441,)
        # adding the surface can only add information
        assert np.all(b <= a * (1 + 1e-12))
        assert elapsed < 60.0

        # quadrupling the pilot count must halve the bound exactly; the
        # scaling is checked on the direct-only model, where every pilot
        # carries the same information
        quad = replace(
            indoor_scene, localization=replace(indoor_scene.localization, pilot_count=32)
        )
        p = [1.3, 2.2, 1.0]
        ratio = (
            peb_point(quad, p, with_ris=False).peb_m
            / peb_point(indoor_scene, p, with_ris=False).peb_m
        )
        assert ratio == pytest.approx(0.5, rel=1e-9)
        _report(
            "localization bounds",
            f"441-cell sweep {elapsed:.1f} s, pilot x4 ratio {ratio:.12f}",
        )

    def test_influence_regions(self, indoor_scene, indoor_peb):
        pairs, _ = indoor_peb
        labels, _ = classify("peb_m", pairs, indoor_scene.thresholds)
        grid = indoor_scene.grid

        xy = grid.points()[:, :2]
        enabled = labels == LABELS.index("enabled")
        assert np.any(enabled)
        ris_xy = np.asarray(indoor_scene.ris.position_m[:2])
        nearest = np.min(np.hypot(*(xy[enabled] - ris_xy).T))
        assert nearest <= 1.5

        # the region framed by the three base stations is already well
        # served; most of it must stay unchanged
        tri = np.array([[0.5, 1.0], [4.8, 4.8], [1.0, 4.8]])

        def inside(x, y):
            signs = []
            for k in range(3):
                ax, ay = tri[k]
                bx, by = tri[(k + 1) % 3]
                signs.append((bx - ax) * (y - ay) - (by - ay) * (x - ax))
            return min(signs) >= 0 or max(signs) <= 0

        inner = [i for i in range(grid.cell_count) if inside(*xy[i])]
        assert inner
        unchanged = sum(1 for i in inner if LABELS[labels[i]] == "unchanged")
        share = unchanged / len(inner)
        assert share > 0.60
        _report(
            "influence regions",
            f"{len(enabled)} enabled, nearest {nearest:.2f} m from the surface, "
            f"inner region {share:.1%} unchanged",
        )

    def test_ml_rmse_brackets_bound(self):
        # at high SNR the grid-refined ML estimator must be bound-tight:
        # no better than the bound, no worse than three times it
        doc = {
            "spec_version": 1,
            "carrier_hz": 3.5e9,
            "bs": [
                {"position_m": [0.5, 1]},
                {"position_m": [4.8, 4.8]},
                {"position_m": [1, 4.8]},
            ],
            "ris": {"position_m": [4, 0], "element_count": 16},
            "ue_grid": {"x_min": 0, "x_max": 5, "y_min": 0, "y_max": 5,
                        "resolution_m": 0.25},
            "subcarrier_count": 64,
            "subcarrier_spacing_hz": 240e3,
            "localization": {"pilot_count": 8, "tx_power_dbm": 0.0},
            "seed": 4,
        }
        scene = parse_scene(json.dumps(doc))
        point = [2.2, 2.6, 0]
        bound = peb_point(scene, point, with_ris=False).peb_m
        rmse = ml_position_rmse(scene, point, draws=200, with_ris=False)
        assert bound <= rmse <= 3 * bound
        _report(
            "ML estimator",
            f"rmse/bound = {rmse / bound:.3f} over 200 noise draws",
        )


class TestPhaseControl:
    def test_quantization_loss_bound(self):
        # with no direct path, 2-bit phases keep at least cos^2(pi/4) of
        # the continuously-aligned cascade power; 1000 random cascades
        rng = np.random.default_rng(17)
        floor = np.cos(np.pi / 4) ** 2
        worst = 1.0
        for _ in range(1000):
            m = int(rng.integers(1, 33))
            hops = rng.normal(size=m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m))
            aligned = wrap_phase(-np.angle(hops))
            config = quantize_config(aligned, DEFAULT_PHASE_LOOKUP)
            power_c = float(np.abs(np.sum(hops * np.exp(1j * aligned))) ** 2)
            power_q = float(np.abs(np.sum(hops * response(config))) ** 2)
            ratio = power_q / power_c
            assert ratio >= floor * (1 - 1e-12)
            worst = min(worst, ratio)
        assert worst >= floor * (1 - 1e-12)
        _report(
            "quantization loss",
            f"worst retained power {worst:.4f} (floor {floor:.4f})",
        )

    def test_small_surface_ascent_matches_exhaustive(self):
        # four elements, 2-bit lookup: 256 configurations enumerable;
        # coordinate ascent must reach the optimal value every time and
        # the optimal configuration in at least 95 of 100 draws
        doc = {
            "spec_version": 1,
            "carrier_hz": 3.5e9,
            "bs": [{"position_m": [0, 0]}],
            "ue_grid": {"x_min": 0, "x_max": 9, "y_min": 0, "y_max": 9,
                        "resolution_m": 1},
            "ris": {"position_m": [4, 0], "element_count": 4},
        }
        scene = parse_scene(json.dumps(doc))
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            point = [rng.uniform(0.5, 9), rng.uniform(0.5, 9), 0]
            terms = point_gain_terms(scene, 0, point)
            best_gain = -np.inf
            best_combo = None
            for combo in itertools.product(range(4), repeat=4):
                z = np.exp(1j * np.array([DEFAULT_PHASE_LOOKUP[c] for c in combo]))
                g = gain(terms, z)
                if g > best_gain:
                    best_gain = g
                    best_combo = combo
            result = optimize_gain(terms, DEFAULT_PHASE_LOOKUP)
            assert result.gain == pytest.approx(best_gain, rel=1e-9)
            if result.indices == best_combo:
                hits += 1
        assert hits >= 95
        _report("small-surface ascent", f"{hits}/100 exact argmax matches")


class TestSecrecyMaps:
    def test_zero_rate_monotone_grid_and_tiny_oracle(self):
        t0 = time.perf_counter()
        # identical legitimate and eavesdropper channels leak everything:
        # the rate must clamp to exactly zero
        rng = np.random.default_rng(23)
        for _ in range(10):
            h = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            link = MimoLink(h_rx=h, h_eve=h.copy(), noise_w=1e-9, power_w=1.0)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v /= np.linalg.norm(v)
            q = link.power_w * np.outer(v, v.conj())
            assert max(rate_difference(link, q), 0.0) == 0.0

        # adding the surface never hurts, on every cell of the bundled
        # courtyard scene
        scene = load_scene(str(SCENES / "courtyard_secrecy.json"))
        a, b = sweep(scene, "sse_bps_hz")
        assert a.shape == (121,)
        assert np.all(b >= a - 1e-12)

        # a two-element surface is small enough to enumerate every phase
        # configuration; per configuration the covariance problem is
        # solved to convergence from several starts, so the enumeration
        # axis (which the heuristic searches by ascent) is truly
        # exhaustive. The heuristic must land within 5 percent of it.
        doc = {
            "spec_version": 1,
            "carrier_hz": 3.5e9,
            "bs": [{"position_m": [0, 0, 3], "antenna_count": 2}],
            "eve": {"position_m": [6, 10, 1.5], "antenna_count": 1},
            "ris": {"position_m": [8, 14, 3], "element_count": 2},
            "ue_grid": {"x_min": 0, "x_max": 16, "y_min": 4, "y_max": 20,
                        "resolution_m": 2, "fixed_height_m": 1.5},
            "secrecy": {"rx_antenna_count": 1, "power_budget_dbm": 30},
        }
        tiny = parse_scene(json.dumps(doc))
        point = [9, 12, 1.5]
        channels = secrecy_link(tiny, point)
        lookup = tiny.ris.phase_lookup_rad

        def solved(link):
            value = optimize_q(link, max_iters=400, rel_tol=1e-9)[1]
            for _ in range(4):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                q0 = link.power_w * np.outer(v, v.conj()) / np.linalg.norm(v) ** 2
                value = max(
                    value, optimize_q(link, q0=q0, max_iters=400, rel_tol=1e-9)[1]
                )
            return max(value, 0.0)

        best = solved(realize(channels, None))
        for i0 in range(4):
            for i1 in range(4):
                config = RisConfig(phases_rad=(lookup[i0], lookup[i1]))
                best = max(best, solved(realize(channels, config)))
        result = optimize_sse(tiny, point)
        assert result.sse_with >= 0.95 * best
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        _report(
            "secrecy maps",
            f"grid monotone, heuristic/oracle = {result.sse_with / best:.4f}, "
            f"{elapsed:.1f} s",
        )


class TestCoverageMaps:
    def test_power_se_fields_and_boosted_identity(self):
        scene = load_scene(str(SCENES / "office_energy.json"))
        power = sweep(scene, "tx_power_dbm")
        (pa, pb), (sa, sb) = power, sweep(scene, "se_bps_hz")
        # the codebook contains the dark configuration, so the best
        # config can never need more power or carry less rate
        assert np.all(pb <= pa + 1e-12)
        assert np.all(sb >= sa - 1e-12)

        labels, _ = classify("tx_power_dbm", power, scene.thresholds)
        # energy efficiency at a fixed rate improves exactly where the
        # required power falls: the boosted cells of the power map
        efficient = np.flatnonzero(labels == LABELS.index("boosted"))
        assert efficient.size
        _report(
            "coverage maps",
            f"power/rate pointwise ordered, {len(efficient)} energy-efficiency boosted cells",
        )


class TestCoexistence:
    def test_switching_drives_bler(self):
        scene = load_scene(str(SCENES / "street_coexistence.json"))
        point = [11.0, 19.0, 1.5]

        # a surface that never reconfigures cannot invalidate the CSI
        still = simulate(scene, point, CoexistConfig(slots=20_000, switch_probability=0.0))
        assert still.bler == 0.0

        # next to the surface, half-rate switching must produce errors
        near = simulate(scene, point, CoexistConfig(slots=100_000, switch_probability=0.5))
        assert near.bler > 0.0

        # walking away from the surface, the error rate must track the
        # cascade-to-direct power ratio; the neighbour serves its own
        # moving users, modelled as a random-phase codebook that only the
        # per-slot oracle takes
        book = neighbour_codebook(scene)
        config = CoexistConfig(slots=100_000, switch_probability=0.5)
        ray = [[10.0 + 1.6 * k, 19.5 - 0.3 * k, 1.5] for k in range(10)]
        rows = [slot_simulate(scene, point, config, book) for point in ray]
        rho = spearmanr(
            [row.ris_direct_ratio_db for row in rows], [row.bler for row in rows]
        ).statistic
        assert rho > 0.9
        _report(
            "coexistence",
            f"near bler={near.bler:.4f}, ratio-vs-bler Spearman rho={rho:.3f}",
        )


def _digest_dir(directory: Path) -> dict[str, str]:
    out = {}
    for path in sorted(directory.iterdir()):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class TestCliDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        runs = {
            "boi": lambda out: cli.main(
                ["boi", str(SCENES / "cells.json"), "--out", str(out)]
            ),
            "aoi": lambda out: cli.main(
                [
                    "aoi",
                    str(SCENES / "office_energy.json"),
                    "--metric",
                    "gain_db",
                    "--jobs",
                    "1",
                    "--out-dir",
                    str(out),
                ]
            ),
            "coexist": lambda out: cli.main(
                [
                    "coexist",
                    str(SCENES / "street_coexistence.json"),
                    "--switch-prob",
                    "0.3",
                    "--slots",
                    "2000",
                    "--ue",
                    "11,19",
                    "--out",
                    str(out),
                ]
            ),
        }
        counts = {}
        for name, run in runs.items():
            first = tmp_path / f"{name}_first"
            second = tmp_path / f"{name}_second"
            assert run(first) == 0
            assert run(second) == 0
            da, db = _digest_dir(first), _digest_dir(second)
            assert da == db
            assert "manifest.json" in da
            counts[name] = len(da)
        _report(
            "CLI determinism",
            ", ".join(f"{k}: {v} files identical" for k, v in counts.items()),
        )
