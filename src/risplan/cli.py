"""Command-line front end: ``boi``, ``aoi`` and ``coexist`` subcommands.

Every successful run drops a ``manifest.json`` next to its outputs listing
the command, the resolved configuration, the seed and a sha256 digest per
emitted file.  Nothing in the pipeline reads the clock or OS entropy, so a
rerun with the same inputs reproduces every byte, digests included.

Exit codes: 0 success, 2 input or configuration problem, 3 runtime failure
(a ``RunError``, or a ``ValueError`` or ``LinAlgError`` from the numerics).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .coexistence import CoexistConfig, simulate, write_trace_csv
from .errors import ConfigError, RunError
from .influence import (
    classify,
    export_csv,
    export_labels_csv,
    export_labels_ppm,
    export_ppm,
    field_filename,
    sweep,
)
from .propagation import ray_amplitudes
from .scene import METRIC_IDS, Scene, load_scene
from .touchstone import load_cell_manifest, read_touchstone
from .unitcell import (
    build_table,
    extract_boi,
    max_contrast,
    max_contrast_effective,
    normalized_contrast_table,
    write_boi_summary_csv,
    write_contrast_csv,
    write_normalized_csv,
)


class _OutDir:
    """Collects output paths, enforcing the overwrite policy."""

    def __init__(self, directory: str, force: bool):
        self.directory = directory
        self.force = force
        self.entries: list[tuple[str, str]] = []
        os.makedirs(directory, exist_ok=True)

    def reserve(self, name: str) -> str:
        path = os.path.join(self.directory, name)
        if os.path.exists(path) and not self.force:
            raise ConfigError(f"{path} exists; pass --force to overwrite")
        return path

    def path(self, name: str) -> str:
        path = self.reserve(name)
        self.entries.append((name, path))
        return path


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out: _OutDir, command: str, input_path: str, config: dict, seed) -> str:
    doc = {
        "command": command,
        "scene": input_path,
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": [
            {"path": name, "sha256": _sha256(path)}
            for name, path in sorted(out.entries)
        ],
    }
    path = out.reserve("manifest.json")
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _apply_seed(scene: Scene, seed: int | None) -> Scene:
    if seed is None:
        return scene
    return dataclasses.replace(scene, seed=seed)


def _parse_point(text: str, scene: Scene) -> np.ndarray:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise ConfigError(f"--ue wants 'x,y' or 'x,y,z', got {text!r}")
    try:
        coords = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--ue coordinates must be numbers, got {text!r}") from None
    if not all(math.isfinite(c) for c in coords):
        raise ConfigError(f"--ue coordinates must be finite, got {text!r}")
    if len(coords) == 2:
        coords.append(scene.grid.fixed_height_m)
    point = np.array(coords)
    nodes = [bs.position_m for bs in scene.bs]
    if scene.ris is not None:
        nodes.append(scene.ris.position_m)
    with np.errstate(over="ignore"):
        _, dists = ray_amplitudes(scene, np.array(nodes), point)
    if not np.all(np.isfinite(dists)):
        raise ConfigError(
            f"--ue {text!r} is too far out: its distance to a base station "
            "or to the surface is not a finite number"
        )
    return point


def cmd_boi(args: argparse.Namespace) -> int:
    if not 0.0 < args.cmin <= 2.0:
        raise ConfigError(f"--cmin must lie in (0, 2], got {args.cmin}")
    try:
        cells = load_cell_manifest(args.manifest)
    except OSError as exc:
        raise ConfigError(f"cannot read cell manifest: {exc}") from None
    out = _OutDir(args.out, args.force)

    summary = []
    normalized_entries = []
    for cell in cells:
        records = [read_touchstone(path, sid) for sid, path in cell.states]
        table = build_table(cell.name, records)
        effective = cell.use_effective_s11
        kind = cell.kind
        if args.kind != "manifest":
            effective = args.kind == "effective"
            kind = "reflection" if effective else args.kind
        curve = max_contrast_effective(table) if effective else max_contrast(table, kind)
        boi = extract_boi(curve, args.cmin)
        write_contrast_csv(curve, out.path(f"{cell.name}_contrast.csv"))
        summary.append((cell.name, boi))
        if boi.f0_hz:
            normalized_entries.append((cell.name, curve, boi.f0_hz))
        else:
            print(f"note: cell '{cell.name}' has no band at cmin={args.cmin}, "
                  "left out of the normalized comparison", file=sys.stderr)

    write_boi_summary_csv(summary, out.path("boi_summary.csv"))
    if len(cells) > 1:
        rows = normalized_contrast_table(normalized_entries)
        write_normalized_csv(rows, out.path("normalized_contrast.csv"))

    _write_manifest(
        out, "boi", args.manifest, {"cmin": args.cmin, "kind": args.kind}, None
    )
    print(f"wrote {len(out.entries) + 1} files to {args.out}")
    return 0


def cmd_aoi(args: argparse.Namespace) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    scene = _apply_seed(load_scene(args.scene), args.seed)
    out = _OutDir(args.out_dir, args.force)
    base = os.path.splitext(os.path.basename(args.scene))[0]

    without, with_ = sweep(scene, args.metric)
    imap = classify(without, with_, scene.thresholds)

    export_csv(without, out.path(field_filename(base, args.metric, "without", "csv")))
    export_ppm(without, out.path(field_filename(base, args.metric, "without", "ppm")))
    export_csv(with_, out.path(field_filename(base, args.metric, "with", "csv")))
    export_ppm(with_, out.path(field_filename(base, args.metric, "with", "ppm")))
    delta = imap.delta_field()
    export_csv(delta, out.path(field_filename(base, args.metric, "delta", "csv")))
    export_ppm(delta, out.path(field_filename(base, args.metric, "delta", "ppm")))
    export_labels_csv(imap, out.path(field_filename(base, args.metric, "labels", "csv")))
    export_labels_ppm(imap, out.path(field_filename(base, args.metric, "labels", "ppm")))

    _write_manifest(
        out,
        "aoi",
        args.scene,
        {"metric": args.metric, "jobs": "auto" if args.jobs is None else args.jobs},
        scene.seed,
    )
    desired = np.count_nonzero(imap.desired)
    undesired = np.count_nonzero(imap.undesired)
    print(
        f"{scene.grid.cell_count} cells: {desired} desired, "
        f"{undesired} undesired; wrote {len(out.entries) + 1} files to {args.out_dir}"
    )
    return 0


def cmd_coexist(args: argparse.Namespace) -> int:
    scene = _apply_seed(load_scene(args.scene), args.seed)
    ue = _parse_point(args.ue, scene)
    config = CoexistConfig(
        slots=args.slots,
        switch_probability=args.switch_prob,
        csi_delay_slots=args.csi_delay,
        mcs_gap_db=args.gap_db,
        snr_margin_db=args.margin_db,
        seed=scene.seed,
    )
    out = _OutDir(args.out, args.force)
    base = os.path.splitext(os.path.basename(args.scene))[0]

    result = simulate(scene, ue, config)
    write_trace_csv(result, out.path(f"{base}_coexist_trace.csv"))
    summary_path = out.path(f"{base}_coexist_summary.csv")
    with open(summary_path, "w", newline="") as fh:
        fh.write("slots,transmitting_slots,error_count,bler,ris_direct_ratio_db\n")
        fh.write(
            f"{config.slots},{result.transmitting_slots},{len(result.error_slots)},"
            f"{result.bler!r},{result.ris_direct_ratio_db!r}\n"
        )

    _write_manifest(
        out,
        "coexist",
        args.scene,
        {
            "switch_probability": args.switch_prob,
            "slots": args.slots,
            "csi_delay_slots": args.csi_delay,
            "mcs_gap_db": args.gap_db,
            "snr_margin_db": args.margin_db,
            "ue": [float(c) for c in ue],
        },
        scene.seed,
    )
    print(f"bler={result.bler!r} over {result.transmitting_slots} slots")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risplan",
        description="Planning toolkit for reconfigurable intelligent surfaces: "
        "unit-cell bandwidth, coverage influence maps, operator coexistence.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    boi = sub.add_parser(
        "boi",
        help="contrast curves and bands of influence from unit-cell S-parameters",
    )
    boi.add_argument("manifest", help="JSON manifest listing cells and their state files")
    boi.add_argument("--cmin", type=float, default=1.0,
                     help="contrast threshold, in (0, 2] (default 1.0)")
    boi.add_argument("--kind", default="manifest",
                     choices=("manifest", "reflection", "transmission", "effective"),
                     help="override the per-cell contrast kind from the manifest")
    boi.add_argument("--out", default=".", help="output directory")
    boi.add_argument("--force", action="store_true",
                     help="overwrite existing output files")
    boi.set_defaults(func=cmd_boi)

    aoi = sub.add_parser("aoi", help="with/without influence maps over the scene grid")
    aoi.add_argument("scene", help="scene JSON file")
    aoi.add_argument("--metric", required=True, choices=METRIC_IDS)
    aoi.add_argument("--out-dir", default=".", help="output directory")
    aoi.add_argument("--seed", type=int, default=None,
                     help="override the scene seed")
    aoi.add_argument("--jobs", type=int, default=None,
                     help="accepted for compatibility and recorded in the "
                     "manifest, must be >= 1; every map runs grid-batched "
                     "in one process")
    aoi.add_argument("--force", action="store_true",
                     help="overwrite existing output files")
    aoi.set_defaults(func=cmd_aoi)

    coexist = sub.add_parser(
        "coexist", help="victim-link block errors under uncoordinated surface switching"
    )
    coexist.add_argument("scene", help="scene JSON file")
    coexist.add_argument("--switch-prob", type=float, required=True,
                         help="per-slot reconfiguration probability")
    coexist.add_argument("--slots", type=int, required=True, help="simulated slots")
    coexist.add_argument("--ue", required=True,
                         help="victim position as 'x,y' or 'x,y,z' in metres")
    coexist.add_argument("--csi-delay", type=int, default=1,
                         help="slots between measurement and use (default 1)")
    coexist.add_argument("--gap-db", type=float, default=3.0,
                         help="Shannon gap of the rate adaptation (default 3)")
    coexist.add_argument("--margin-db", type=float, default=0.1,
                         help="SNR drop absorbed before a block fails (default 0.1)")
    coexist.add_argument("--out", default=".", help="output directory")
    coexist.add_argument("--seed", type=int, default=None,
                         help="override the scene seed")
    coexist.add_argument("--force", action="store_true",
                         help="overwrite existing output files")
    coexist.set_defaults(func=cmd_coexist)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RunError, ValueError, np.linalg.LinAlgError) as exc:
        # any other ValueError, a CoincidentNodeError included, is a
        # numeric failure at run time, as is a singular linear system
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
