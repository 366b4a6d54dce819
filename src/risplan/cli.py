"""Command-line front end: ``boi``, ``aoi`` and ``coexist`` subcommands.

Every successful run drops a ``manifest.json`` next to its outputs listing
the command, the resolved configuration, the seed and a sha256 digest per
emitted file.  Nothing in the pipeline reads the clock or OS entropy, so a
rerun with the same inputs reproduces every byte, digests included.

Each ``cmd_*`` function imports its own layers when it runs, so a process
loads and compiles only the modules of the command it was asked for. Each
reads and checks its inputs before that import, so start-up, ``--help``,
``--version`` and every input error found ahead of a computation run
without numpy: only a command's numeric layer loads it.

Exit codes: 0 success, 2 input or configuration problem (an output file
that cannot be written included), 3 runtime failure
(a ``RunError``, a ``ValueError`` or ``LinAlgError`` from the numerics, or
a ``MemoryError``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError, RunError
from .scene import METRIC_IDS, CoexistConfig, Scene, load_scene, read_seed

if TYPE_CHECKING:
    import numpy as np


class _OutDir:
    """Collects output paths, enforcing the overwrite policy."""

    def __init__(self, directory: str, force: bool):
        self.directory = directory
        self.force = force
        self.entries: list[tuple[str, str]] = []
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {directory}: {exc.strerror}") from None

    def reserve(self, name: str) -> str:
        path = os.path.join(self.directory, name)
        if os.path.isdir(path):
            raise ConfigError(f"{path} is a directory")
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
    return dataclasses.replace(scene, seed=read_seed(seed, "--seed"))


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
    import numpy as np

    from .propagation import ray_amplitudes

    point = np.array(coords)
    nodes = [bs.position_m for bs in scene.bs] + [scene.ris.position_m]
    with np.errstate(over="ignore"):
        _, dists = ray_amplitudes(scene, np.array(nodes), point)
    if not np.all(np.isfinite(dists)):
        raise ConfigError(
            f"--ue {text!r} is too far out: its distance to a base station "
            "or to the surface is not a finite number"
        )
    return point


def cmd_boi(args: argparse.Namespace) -> int:
    from .touchstone import load_cell_manifest, read_touchstone

    if not 0.0 < args.cmin <= 2.0:
        raise ConfigError(f"--cmin must lie in (0, 2], got {args.cmin}")
    try:
        cells = load_cell_manifest(args.manifest)
    except OSError as exc:
        raise ConfigError(f"cannot read cell manifest: {exc}") from None

    from .unitcell import (
        extract_boi,
        max_contrast,
        write_boi_summary_csv,
        write_contrast_csv,
        write_normalized_csv,
    )

    # every curve and band first, so a bad cell leaves no output behind
    bands = []
    for cell in cells:
        records = [read_touchstone(path, sid) for sid, path in cell.states]
        kind = cell.kind if args.kind == "manifest" else args.kind
        curve = max_contrast(cell.name, records, kind)
        bands.append((cell.name, curve, extract_boi(curve, args.cmin)))

    out = _OutDir(args.out, args.force)
    normalized_entries = []
    for name, curve, boi in bands:
        write_contrast_csv(curve, out.path(f"{name}_contrast.csv"))
        if boi.f0_hz:
            normalized_entries.append((name, curve, boi.f0_hz))
        else:
            print(f"note: cell '{name}' has no band at cmin={args.cmin}, "
                  "left out of the normalized comparison", file=sys.stderr)

    write_boi_summary_csv([(name, boi) for name, _, boi in bands], out.path("boi_summary.csv"))
    if len(cells) > 1:
        write_normalized_csv(normalized_entries, out.path("normalized_contrast.csv"))

    _write_manifest(
        out, "boi", args.manifest, {"cmin": args.cmin, "kind": args.kind}, None
    )
    print(f"wrote {len(out.entries) + 1} files to {args.out}")
    return 0


def cmd_aoi(args: argparse.Namespace) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    scene = _apply_seed(load_scene(args.scene), args.seed)
    if args.metric == "sse_bps_hz" and scene.eve is None:
        raise ConfigError("secrecy metrics need an eavesdropper in the scene")
    base = os.path.splitext(os.path.basename(args.scene))[0]

    from .influence import (
        DESIRED,
        UNDESIRED,
        classify,
        export_csv,
        export_labels_csv,
        export_labels_ppm,
        export_ppm,
        sweep,
    )

    pairs = sweep(scene, args.metric)
    labels, delta = classify(args.metric, pairs, scene.thresholds)
    out = _OutDir(args.out_dir, args.force)
    grid, stem = scene.grid, f"{base}_{args.metric}"
    for kind, values in (("without", pairs[0]), ("with", pairs[1]), ("delta", delta)):
        export_csv(grid, out.path(f"{stem}_{kind}.csv"), values)
        export_ppm(grid, out.path(f"{stem}_{kind}.ppm"), values)
    export_labels_csv(grid, out.path(f"{stem}_labels.csv"), labels)
    export_labels_ppm(grid, out.path(f"{stem}_labels.ppm"), labels)

    _write_manifest(
        out,
        "aoi",
        args.scene,
        {"metric": args.metric},
        scene.seed,
    )
    tally = Counter(labels.tolist())
    desired = sum(tally[code] for code in DESIRED)
    undesired = sum(tally[code] for code in UNDESIRED)
    print(
        f"{scene.grid.cell_count} cells: {desired} desired, "
        f"{undesired} undesired; wrote {len(out.entries) + 1} files to {args.out_dir}"
    )
    return 0


def cmd_coexist(args: argparse.Namespace) -> int:
    scene = _apply_seed(load_scene(args.scene), args.seed)
    config = CoexistConfig(
        slots=args.slots,
        switch_probability=args.switch_prob,
        csi_delay_slots=args.csi_delay,
        mcs_gap_db=args.gap_db,
        snr_margin_db=args.margin_db,
        seed=scene.seed,
    )
    ue = _parse_point(args.ue, scene)

    from .coexistence import simulate, write_trace_csv

    base = os.path.splitext(os.path.basename(args.scene))[0]

    result = simulate(scene, ue, config)
    out = _OutDir(args.out, args.force)
    write_trace_csv(result, out.path(f"{base}_coexist_trace.csv"))
    summary_path = out.path(f"{base}_coexist_summary.csv")
    with open(summary_path, "w", newline="") as fh:
        fh.write("slots,transmitting_slots,error_count,bler,ris_direct_ratio_db\n")
        fh.write(
            f"{config.slots},{result.transmitting_slots},{result.error_count},"
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
                     help="override the scene seed, in [0, 2**64)")
    aoi.add_argument("--jobs", type=int, default=None,
                     help="accepted for compatibility, must be >= 1; every "
                     "map runs grid-batched in one process")
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
    coexist.add_argument("--csi-delay", type=int, default=CoexistConfig.csi_delay_slots,
                         help="slots between measurement and use (default %(default)s)")
    coexist.add_argument("--gap-db", type=float, default=CoexistConfig.mcs_gap_db,
                         help="Shannon gap of the rate adaptation (default %(default)s)")
    coexist.add_argument("--margin-db", type=float, default=CoexistConfig.snr_margin_db,
                         help="SNR drop absorbed before a block fails (default %(default)s)")
    coexist.add_argument("--out", default=".", help="output directory")
    coexist.add_argument("--seed", type=int, default=None,
                         help="override the scene seed, in [0, 2**64)")
    coexist.add_argument("--force", action="store_true",
                         help="overwrite existing output files")
    coexist.set_defaults(func=cmd_coexist)
    return parser


def _linalg_errors() -> tuple[type[Exception], ...]:
    """numpy's ``LinAlgError`` once numpy is loaded; nothing raises it before.

    It subclasses ValueError in current numpy; looking it up keeps the catch
    from resting on that for every numpy release the package accepts.
    """
    linalg = sys.modules.get("numpy.linalg")
    return (linalg.LinAlgError,) if linalg is not None else ()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RunError, ValueError, *_linalg_errors()) as exc:
        # any other ValueError, a CoincidentNodeError included, is a
        # numeric failure at run time, as is a singular linear system
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # an allocation no RunError names, such as numpy's for an operand
        # larger than memory
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3
    except OSError as exc:
        # every input is read under its own catch, so this is an output file
        # that cannot be opened or written, such as a name past NAME_MAX
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
