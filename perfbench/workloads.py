"""Seeded workload generators for the risplan benchmark.

Every workload turns the benchmark seed into scene files, a cell manifest
and touchstone files in a work directory, and names the ``risplan``
commands an operator would run on them.  The program sees only those
files.  Geometry is drawn from the seed; sizes (grid cells, base stations,
elements, walls, slots, frequency points) are fixed, so every seed asks
for nearly the same work: only solver iteration counts follow geometry.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 20230315


@dataclass
class Inputs:
    """Generated files and the commands that consume them.

    ``commands`` hold argv lists for ``risplan`` without the output-directory
    option, which the runner appends.
    """

    commands: list[list[str]]
    warmup: list[list[str]]  # same commands on a slice of the inputs
    scenes: list[str] = field(default_factory=list)
    manifests: list[str] = field(default_factory=list)
    aoi_cells: int = 0  # grid cells summed over the aoi commands
    slots: int = 0
    boi_samples: int = 0  # states x frequency points over all cells


def grid_cells(scene_path: str) -> int:
    with open(scene_path) as fh:
        return _grid_cells(json.load(fh)["ue_grid"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: object  # (seed, workdir) -> Inputs


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _r(x: float) -> float:
    # short decimals keep the scene files readable and parse-stable
    return round(float(x), 3)


def _write_scene(workdir: str, name: str, doc: dict) -> tuple[str, str]:
    """Write a scene and its one-row warm-up slice; returns both paths."""
    path = _write_json(os.path.join(workdir, f"{name}.json"), doc)
    warm = dict(doc, ue_grid=dict(doc["ue_grid"], y_max=doc["ue_grid"]["y_min"]))
    warm_path = _write_json(os.path.join(workdir, f"warm_{name}.json"), warm)
    return path, warm_path


def _grid_cells(grid: dict) -> int:
    nx = int(math.floor((grid["x_max"] - grid["x_min"]) / grid["resolution_m"] + 1e-9)) + 1
    ny = int(math.floor((grid["y_max"] - grid["y_min"]) / grid["resolution_m"] + 1e-9)) + 1
    return nx * ny


# ---------------------------------------------------------------------------
# aoi: an office for the link metrics, a 28 GHz room for the position error
# bound, a courtyard for the secrecy rate
# ---------------------------------------------------------------------------

LINK_ROOM_M = (18.0, 11.0)
LINK_RESOLUTION_M = 1.25


def office_scene(rng: np.random.Generator) -> dict:
    width, depth = LINK_ROOM_M
    bs = []
    for k in range(3):
        # one station per third of the floor so coverage overlaps but differs
        x = rng.uniform(k * width / 3 + 1.0, (k + 1) * width / 3 - 1.0)
        y = rng.uniform(1.0, depth - 1.0)
        bs.append({
            "position_m": [_r(x), _r(y), 3.0],
            "antenna_count": 4,
            "orientation_rad": _r(rng.uniform(0.0, math.pi)),
        })
    walls = []
    for k in range(3):
        # partitions hang off the south or north wall and leave a corridor
        x = _r(rng.uniform(3.0 + 4.5 * k, 5.5 + 4.5 * k))
        length = rng.uniform(0.45, 0.7) * depth
        if rng.random() < 0.5:
            p1, p2 = [x, 0.0], [x, _r(length)]
        else:
            p1, p2 = [x, _r(depth - length)], [x, depth]
        walls.append({"p1_m": p1, "p2_m": p2,
                      "penetration_loss_db": _r(rng.uniform(6.0, 15.0))})
    grid = {"x_min": 0.5, "x_max": width - 0.5, "y_min": 0.25, "y_max": depth - 0.25,
            "resolution_m": LINK_RESOLUTION_M, "fixed_height_m": 1.5}
    return {
        "spec_version": 1,
        "carrier_hz": 3.5e9,
        "subcarrier_count": 12,
        "subcarrier_spacing_hz": 30e3,
        "seed": int(rng.integers(1, 2**31)),
        "bs": bs,
        "ris": {"position_m": [_r(rng.uniform(5.0, width - 5.0)), depth, 2.5],
                "element_count": 64},
        "walls": walls,
        "ue_grid": grid,
        # low uplink power keeps se_bps_hz between its floor and its cap
        "link_budget": {"max_tx_power_dbm": -30.0},
    }


def localization_scene(rng: np.random.Generator) -> dict:
    side = 5.0
    corners = [(0.4, 0.4), (side - 0.4, side - 0.4), (0.4, side - 0.4), (side - 0.4, 0.4)]
    picks = rng.permutation(4)[:3]
    bs = [{"position_m": [_r(corners[i][0] + rng.uniform(-0.3, 0.3)),
                          _r(corners[i][1] + rng.uniform(-0.3, 0.3)), 2.5]}
          for i in picks]
    return {
        "spec_version": 1,
        "carrier_hz": 28e9,
        "subcarrier_count": 32,
        "subcarrier_spacing_hz": 240e3,
        "seed": int(rng.integers(1, 2**31)),
        "bs": bs,
        "ris": {"position_m": [_r(rng.uniform(1.0, side - 1.0)), 0.0, 1.2],
                "element_count": 64},
        "ue_grid": {"x_min": 0.0, "x_max": side, "y_min": 0.1, "y_max": side,
                    "resolution_m": 0.4, "fixed_height_m": 1.0},
        "localization": {"tx_power_dbm": 0.0},
    }


def secrecy_scene(rng: np.random.Generator) -> dict:
    yard_x = _r(rng.uniform(0.0, 8.0))
    return {
        "spec_version": 1,
        "carrier_hz": 3.5e9,
        "seed": int(rng.integers(1, 2**31)),
        "bs": [{"position_m": [_r(rng.uniform(-5.0, 5.0)), 0.0, 10.0],
                "antenna_count": 4}],
        "ris": {"position_m": [_r(yard_x + rng.uniform(5.0, 15.0)), 55.0, 5.0],
                "element_count": 16},
        "eve": {"position_m": [_r(yard_x + rng.uniform(5.0, 15.0)),
                               _r(rng.uniform(20.0, 28.0)), 1.5],
                "antenna_count": 2},
        "ue_grid": {"x_min": yard_x, "x_max": yard_x + 20.0, "y_min": 30.0,
                    "y_max": 50.0, "resolution_m": 3.0, "fixed_height_m": 1.5},
        "secrecy": {"rx_antenna_count": 2, "power_budget_dbm": 30.0},
    }


def generate_aoi(seed: int, workdir: str) -> Inputs:
    office = office_scene(np.random.default_rng([seed, 1]))
    rng = np.random.default_rng([seed, 2])
    room = localization_scene(rng)
    yard = secrecy_scene(rng)
    jobs = ["--jobs", "1"]
    commands, warmup, scenes, cells = [], [], [], 0
    for name, doc, metrics in (("office_link", office, ("gain_db", "se_bps_hz")),
                               ("room_localization", room, ("peb_m",)),
                               ("yard_secrecy", yard, ("sse_bps_hz",))):
        path, warm = _write_scene(workdir, name, doc)
        scenes.append(path)
        for m in metrics:
            commands.append(["aoi", path, "--metric", m, *jobs])
            warmup.append(["aoi", warm, "--metric", m, *jobs])
            cells += _grid_cells(doc["ue_grid"])
    return Inputs(commands=commands, warmup=warmup, scenes=scenes, aoi_cells=cells)


# ---------------------------------------------------------------------------
# coexist_io: a 10^6-slot victim trace plus a boi run over generated cells
# ---------------------------------------------------------------------------

COEXIST_SLOTS = 400_000
BOI_POINTS = 6_000
_TOUCHSTONE_FORMATS = ("RI", "MA", "DB")


def street_scene(rng: np.random.Generator) -> dict:
    return {
        "spec_version": 1,
        "carrier_hz": 3.5e9,
        "seed": int(rng.integers(1, 2**31)),
        "bs": [{"position_m": [0.0, 0.0, 10.0], "antenna_count": 4}],
        "ris": {"position_m": [_r(rng.uniform(6.0, 14.0)), _r(rng.uniform(15.0, 25.0)), 5.0],
                "element_count": 64},
        "ue_grid": {"x_min": 0, "x_max": 20, "y_min": 0, "y_max": 30,
                    "resolution_m": 1, "fixed_height_m": 1.5},
    }


def _state_values(rng, freqs_ghz, f0, width, phase_peak, magnitude):
    """Smooth S-parameter trace whose phase swings by ``phase_peak`` around f0."""
    bell = np.exp(-0.5 * ((freqs_ghz - f0) / width) ** 2)
    ripple = 1e-4 * rng.standard_normal(freqs_ghz.size)
    mag = np.clip(magnitude * (1.0 - 0.05 * bell) + ripple, 0.0, 0.999)
    return mag * np.exp(1j * (phase_peak * bell + 0.3))


def _write_touchstone(path, fmt, freqs_ghz, s11, s21=None):
    def pair(v):
        if fmt == "RI":
            return v.real, v.imag
        if fmt == "MA":
            return np.abs(v), np.degrees(np.angle(v))
        return 20.0 * np.log10(np.abs(v)), np.degrees(np.angle(v))

    cols = [freqs_ghz, *pair(s11)]
    if s21 is not None:
        cols += [*pair(s21), *pair(s21), *pair(s11)]
    table = np.column_stack(cols)
    with open(path, "w") as fh:
        fh.write("! generated unit-cell sweep\n")
        fh.write(f"# GHZ S {fmt} R 50\n")
        np.savetxt(fh, table, fmt="%.9g")


def cell_manifest(rng: np.random.Generator, workdir: str) -> tuple[dict, int]:
    """Three reflective and two transmissive cells; returns (manifest, samples)."""
    cells_dir = os.path.join(workdir, "cells")
    os.makedirs(cells_dir, exist_ok=True)
    entries = []
    samples = 0
    specs = [("refl_a", "reflection", 2), ("refl_b", "reflection", 3),
             ("refl_c", "reflection", 4), ("trans_a", "transmission", 2),
             ("trans_b", "transmission", 3)]
    for name, kind, n_states in specs:
        lo = rng.uniform(20.0, 30.0)
        span = rng.uniform(6.0, 10.0)
        freqs = np.round(np.linspace(lo, lo + span, BOI_POINTS), 6)
        f0 = lo + span * rng.uniform(0.4, 0.6)
        width = span * rng.uniform(0.08, 0.15)
        states = {}
        for k in range(n_states):
            # state k swings its phase by k/(n-1) of pi, so the extreme pair
            # reaches a contrast near 1.8 and crosses 1.0 inside the sweep
            peak = math.pi * k / (n_states - 1)
            fmt = _TOUCHSTONE_FORMATS[int(rng.integers(0, 3))]
            s11 = _state_values(rng, freqs, f0, width, peak, 0.92)
            fname = f"{name}_{k}.s1p" if kind == "reflection" else f"{name}_{k}.s2p"
            if kind == "reflection":
                _write_touchstone(os.path.join(cells_dir, fname), fmt, freqs, s11)
            else:
                s21 = _state_values(rng, freqs, f0, width, peak, 0.9)
                refl = 0.2 * np.exp(1j * 0.1) * np.ones_like(s21)
                _write_touchstone(os.path.join(cells_dir, fname), fmt, freqs, refl, s21)
            states[f"s{k}"] = f"cells/{fname}"
        samples += n_states * BOI_POINTS
        entries.append({"name": name, "kind": kind, "states": states})
    return {"cells": entries}, samples


def generate_coexist(seed: int, workdir: str) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    street = street_scene(rng)
    path = _write_json(os.path.join(workdir, "street_victim.json"), street)
    # the victim stands a few metres in front of the surface, where its
    # reconfiguration moves the combined channel enough to cost blocks
    rx, ry = street["ris"]["position_m"][:2]
    ue = f"{_r(rx + rng.uniform(-3.0, 3.0))},{_r(ry - rng.uniform(1.0, 4.0))}"
    switch_prob = _r(rng.uniform(0.2, 0.6))
    manifest_doc, samples = cell_manifest(rng, workdir)
    manifest = _write_json(os.path.join(workdir, "cells.json"), manifest_doc)
    warm_manifest = _write_json(os.path.join(workdir, "warm_cells.json"),
                                {"cells": manifest_doc["cells"][:1]})
    coexist = ["coexist", path, "--switch-prob", str(switch_prob), "--slots"]
    return Inputs(
        commands=[
            coexist + [str(COEXIST_SLOTS), "--ue", ue],
            ["boi", manifest, "--cmin", "1.0"],
        ],
        warmup=[coexist + ["2000", "--ue", ue], ["boi", warm_manifest, "--cmin", "1.0"]],
        scenes=[path],
        manifests=[manifest],
        slots=COEXIST_SLOTS,
        boi_samples=samples,
    )


# The reasons below are repeated verbatim in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "aoi",
            "gain_db, se_bps_hz, peb_m and sse_bps_hz maps at --jobs 1: channel synthesis, "
            "wall tests, gain ascent, serving-BS selection, FIM assembly, secrecy ascent",
            generate_aoi,
        ),
        Workload(
            "coexist_io",
            "a 4x10^5-slot coexist trace plus boi over generated touchstone cells: "
            "serialization and parsing bound, no grid sweep",
            generate_coexist,
        ),
    )
}
