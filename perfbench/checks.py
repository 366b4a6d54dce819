"""Output checks for every benchmark run.

Each check returns a list of problems (empty when it holds); the runner
counts a command as failed when any check on its output directory fails.

* the manifest's sha256 digests match the files on disk, and it lists them;
* two runs of one seed write byte-identical manifests (determinism);
* invariants that hold on every seed (``invariants``);
* at the default seed, fields match ``reference.json``, recorded from the
  commit that introduced the benchmark, within ``REL_TOL``/``ABS_TOL``
  (``summarize`` and ``compare``).  Labels are compared only on cells whose
  reference reading sits at least ``LABEL_MARGIN`` from every threshold.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REL_TOL = 1e-6
ABS_TOL = 1e-9
LABEL_MARGIN = 1e-3
SAMPLES = 64  # sampled rows per field in the reference

# risplan's default thresholds; the generated scenes do not override them
BOOST_DB, UNCHANGED_DB, PEB_FEASIBLE_M = 3.0, 2.0, 0.1
LABELS = {"unchanged", "boosted", "enabled", "degraded", "marginal", "infeasible_both"}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_problems(out_dir: str) -> list[str]:
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{out_dir}: unreadable manifest ({exc})"]
    problems = []
    listed = set()
    for entry in doc.get("outputs", []):
        listed.add(entry["path"])
        target = os.path.join(out_dir, entry["path"])
        if not os.path.isfile(target) or _sha256(target) != entry["sha256"]:
            problems.append(f"{target}: sha256 does not match the manifest")
    unlisted = set(os.listdir(out_dir)) - listed - {"manifest.json"}
    if unlisted:
        problems.append(f"{out_dir}: files missing from the manifest: {sorted(unlisted)}")
    return problems


def same_manifest(dir_a: str, dir_b: str) -> list[str]:
    with open(os.path.join(dir_a, "manifest.json"), "rb") as fa, \
            open(os.path.join(dir_b, "manifest.json"), "rb") as fb:
        if fa.read() != fb.read():
            return [f"manifests differ between two runs of one seed: {dir_a} {dir_b}"]
    return []


# ---------------------------------------------------------------------------
# reading outputs


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _aoi_fields(argv: list[str], out_dir: str) -> dict:
    base = os.path.splitext(os.path.basename(argv[1]))[0]
    metric = argv[argv.index("--metric") + 1]
    read = {}
    for kind in ("without", "with", "delta"):
        rows = _rows(os.path.join(out_dir, f"{base}_{metric}_{kind}.csv"))
        read[kind] = [float(r[2]) for r in rows]
    read["labels"] = [r[2] for r in _rows(os.path.join(out_dir, f"{base}_{metric}_labels.csv"))]
    read["metric"] = metric
    return read


def _coexist_files(argv: list[str], out_dir: str) -> tuple[str, dict]:
    base = os.path.splitext(os.path.basename(argv[1]))[0]
    (row,) = _rows(os.path.join(out_dir, f"{base}_coexist_summary.csv"))
    summary = dict(zip(("slots", "transmitting_slots", "error_count", "bler",
                        "ris_direct_ratio_db"), map(float, row)))
    return os.path.join(out_dir, f"{base}_coexist_trace.csv"), summary


def _boi_cells(out_dir: str) -> dict:
    cells = {}
    for row in _rows(os.path.join(out_dir, "boi_summary.csv")):
        name, edges = row[0], [float(v) if v else math.nan for v in row[1:]]
        freqs = [float(r[0]) for r in _rows(os.path.join(out_dir, f"{name}_contrast.csv"))]
        cells[name] = {"edges": edges, "sweep": (freqs[0], freqs[-1]), "points": len(freqs)}
    return cells


# ---------------------------------------------------------------------------
# invariants on every seed


def invariants(argv: list[str], out_dir: str, expected_cells: int | None = None) -> list[str]:
    command = argv[0]
    if command == "aoi":
        return _aoi_invariants(_aoi_fields(argv, out_dir), expected_cells)
    if command == "coexist":
        return _coexist_invariants(argv, out_dir)
    return _boi_invariants(out_dir)


def _aoi_invariants(f: dict, expected_cells: int | None) -> list[str]:
    problems = []
    n = len(f["labels"])
    if expected_cells is not None and n != expected_cells:
        problems.append(f"{n} labelled cells, grid has {expected_cells}")
    if any(len(f[k]) != n for k in ("without", "with", "delta")):
        problems.append("field lengths differ from the label count")
    if any(lab not in LABELS for lab in f["labels"]):
        problems.append("unknown label")
    metric = f["metric"]
    for a, b in zip(f["without"], f["with"]):
        if metric in ("gain_db", "se_bps_hz") and math.isfinite(a) and math.isfinite(b):
            bad = b < a
        elif metric == "sse_bps_hz":
            bad = not b >= a - 1e-12
        elif metric == "peb_m" and math.isfinite(a):
            bad = not b <= a * (1.0 + 1e-9)
        else:
            continue
        if bad:
            problems.append(f"{metric}: with-surface reading {b!r} worse than without {a!r}")
            break
    return problems


def _coexist_invariants(argv: list[str], out_dir: str) -> list[str]:
    trace, summary = _coexist_files(argv, out_dir)
    slots = int(argv[argv.index("--slots") + 1])
    with open(trace, "rb") as fh:
        data = fh.read()
    rows = data.count(b"\n") - 1
    errors = data.count(b",1\n")
    problems = []
    if rows != slots or summary["slots"] != slots:
        problems.append(f"trace has {rows} rows for {slots} slots")
    if errors != summary["error_count"]:
        problems.append(f"trace marks {errors} errors, summary says {summary['error_count']}")
    tx = summary["transmitting_slots"]
    if tx <= 0 or abs(summary["bler"] - summary["error_count"] / tx) > 1e-12:
        problems.append("bler is not errors / transmitting slots")
    return problems


def _boi_invariants(out_dir: str) -> list[str]:
    problems = []
    for name, cell in _boi_cells(out_dir).items():
        f1, f2 = cell["edges"][0], cell["edges"][1]
        lo, hi = cell["sweep"]
        if not lo <= f1 < f2 <= hi:
            problems.append(f"{name}: band [{f1}, {f2}] not inside the sweep [{lo}, {hi}]")
    return problems


# ---------------------------------------------------------------------------
# reference values at the default seed


def _sample(values: list) -> list:
    step = max(1, len(values) // SAMPLES)
    return values[::step]


def _finite_stats(values: list[float]) -> dict:
    finite = [v for v in values if math.isfinite(v)]
    return {"n": len(values), "finite": len(finite), "sum": math.fsum(finite),
            "sample": _sample(values)}


def summarize(argv: list[str], out_dir: str) -> dict:
    """Reference record of one command's outputs."""
    if argv[0] == "aoi":
        f = _aoi_fields(argv, out_dir)
        doc = {k: _finite_stats(f[k]) for k in ("without", "with", "delta")}
        doc["labels"] = _sample(f["labels"])
        return doc
    if argv[0] == "coexist":
        trace, summary = _coexist_files(argv, out_dir)
        with open(trace, "rb") as fh:
            rows = fh.read().split(b"\n")[1:-1]
        return {"summary": summary,
                "trace_sample": [[float(v) for v in r.split(b",")] for r in _sample(rows)]}
    return {"cells": {name: {"edges": c["edges"], "points": c["points"]}
                      for name, c in _boi_cells(out_dir).items()}}


def _close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def _walk(ref, cur, where: str, out: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(cur, dict) or set(ref) != set(cur):
            out.append(f"{where}: keys differ")
            return
        for k in ref:
            _walk(ref[k], cur[k], f"{where}.{k}", out)
    elif isinstance(ref, list):
        if not isinstance(cur, list) or len(ref) != len(cur):
            out.append(f"{where}: lengths differ")
            return
        for i, (r, c) in enumerate(zip(ref, cur)):
            _walk(r, c, f"{where}[{i}]", out)
    elif not _close(ref, cur):
        out.append(f"{where}: {cur!r} differs from reference {ref!r}")


def _label_is_stable(metric: str, without: float, with_: float, delta: float) -> bool:
    """True when no threshold sits within LABEL_MARGIN of this cell's readings."""
    if math.isfinite(delta):
        return all(abs(delta - t) >= LABEL_MARGIN
                   for t in (BOOST_DB, UNCHANGED_DB, -UNCHANGED_DB))
    if metric == "peb_m":
        return all(not math.isfinite(v) or abs(v - PEB_FEASIBLE_M) >= LABEL_MARGIN * PEB_FEASIBLE_M
                   for v in (without, with_))
    return True


def compare(argv: list[str], ref: dict, cur: dict) -> list[str]:
    """Problems where ``cur`` departs from the reference record ``ref``."""
    problems: list[str] = []
    if argv[0] != "aoi":
        _walk(ref, cur, argv[0], problems)
        return problems
    metric = argv[argv.index("--metric") + 1]
    for kind in ("without", "with", "delta"):
        _walk(ref[kind], cur[kind], f"{metric}.{kind}", problems)
    if len(ref["labels"]) != len(cur["labels"]):
        return problems + [f"{metric}.labels: lengths differ"]
    cells = zip(ref["labels"], cur["labels"], ref["without"]["sample"],
                ref["with"]["sample"], ref["delta"]["sample"])
    for i, (r, c, a, b, d) in enumerate(cells):
        if r != c and _label_is_stable(metric, a, b, d):
            problems.append(f"{metric}.labels[{i}]: {c!r}, reference {r!r}")
    return problems
