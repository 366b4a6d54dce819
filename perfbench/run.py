#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the risplan CLI on seeded scenes.

    python3 perfbench/run.py --workload aoi --seed 7 --seconds 60 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
``--seed`` into ``.bench_work/``; the program is imported from ``src/``.

``--trace 0`` measures for ``--seconds`` seconds, repeating one iteration:
a set-up probe (fresh interpreter: import ``risplan.cli``, parse the
inputs, exit), the command list as fresh ``risplan`` subprocesses, and
``COMPUTE_PASSES`` passes of the command list through ``risplan.cli.main``
inside one fresh interpreter after a warm-up.  ``wall_s`` and
``compute_s`` are sums over commands of each command's median time; the
other metrics are medians over iterations.

``--trace 1`` runs the command list in-process at ``--jobs 1`` twice, once
with only per-cell timers and once with every public function of every
layer module wrapped in a span, and reports per-layer figures.

Every output directory is checked (see ``checks.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the metrics and what each should move.
"""

from __future__ import annotations

import os
import sys

# The caller's shell must not change what is measured: drop the knobs that
# select risplan's kernel backend or the BLAS thread count, for this
# process (by re-executing before numpy loads) and for every child.
STRIPPED_ENV = ("RISPLAN_NUMBA", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__" and any(k in os.environ for k in STRIPPED_ENV):
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
              {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV})

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

import checks  # noqa: E402
from probe import out_flag, run_commands  # noqa: E402
from tracer import CellTimer, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, grid_cells  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
REFERENCE = os.path.join(HERE, "reference.json")

MIN_ITERATIONS = 4
COMPUTE_PASSES = 2  # in-process passes per fresh interpreter, one sample each
COMMAND_TIMEOUT_S = 150.0
KERNEL_SAMPLES = 64  # captured argument sets timed per kernel

# name -> (unit, better); printed in this order, mirrored in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "compute_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_optimize_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "scene.load_scene.self_s": ("s", "lower"),
    "scene.parse_scene.self_s": ("s", "lower"),
    "propagation.wall_attenuation.calls": ("count", "lower"),
    "propagation.wall_attenuation.self_s": ("s", "lower"),
    "propagation.ris_channel.calls": ("count", "lower"),
    "propagation.ris_channel.self_s": ("s", "lower"),
    "propagation.direct_channel.self_s": ("s", "lower"),
    "propagation.bs_leg_useful_ratio": ("ratio", "higher"),
    "beamforming.gain_terms.calls": ("count", "lower"),
    "beamforming.gain_terms.self_s": ("s", "lower"),
    "beamforming.gain_terms.useful_ratio": ("ratio", "higher"),
    "beamforming.mean_subcarrier_phasor.self_s": ("s", "lower"),
    "beamforming.optimize_gain.self_s": ("s", "lower"),
    "beamforming.coordinate_ascent.calls": ("count", "lower"),
    "beamforming.coordinate_ascent.rounds": ("count", "lower"),
    "linkmetrics.serving_bs.calls": ("count", "lower"),
    "linkmetrics.serving_bs.cum_s": ("s", "lower"),
    "kernels.ascent_quadratic.calls": ("count", "lower"),
    "kernels.ascent_quadratic.self_s": ("s", "lower"),
    "kernels.ascent_quadratic.us_per_call": ("us", "lower"),
    "localization.pilot_configs.self_s": ("s", "lower"),
    "seeding.derived_rng.calls": ("count", "lower"),
    "seeding.derived_rng.self_s": ("s", "lower"),
    "localization.build_fim.calls": ("count", "lower"),
    "localization.build_fim.self_s": ("s", "lower"),
    "localization.equivalent_position_fim.self_s": ("s", "lower"),
    "localization.equivalent_position_fim.singular": ("count", "lower"),
    "localization.peb.self_s": ("s", "lower"),
    "localization.peb_point.nonfinite": ("count", "lower"),
    "secrecy.secrecy_link.self_s": ("s", "lower"),
    "secrecy.optimize_q.calls": ("count", "lower"),
    "secrecy.optimize_q.iterations": ("count", "lower"),
    "secrecy.optimize_q.self_s": ("s", "lower"),
    "secrecy.rate_difference.calls": ("count", "lower"),
    "secrecy.rate_difference.self_s": ("s", "lower"),
    "influence.sweep.cum_s": ("s", "lower"),
    "influence.cell_ms.gain_db.p50": ("ms", "lower"),
    "influence.cell_ms.gain_db.p99": ("ms", "lower"),
    "influence.cell_ms.se_bps_hz.p50": ("ms", "lower"),
    "influence.cell_ms.se_bps_hz.p99": ("ms", "lower"),
    "influence.cell_ms.peb_m.p50": ("ms", "lower"),
    "influence.cell_ms.peb_m.p99": ("ms", "lower"),
    "influence.cell_ms.sse_bps_hz.p50": ("ms", "lower"),
    "influence.cell_ms.sse_bps_hz.p99": ("ms", "lower"),
    "influence.classify.self_s": ("s", "lower"),
    "influence.export.self_s": ("s", "lower"),
    "influence.export.bytes": ("bytes", "lower"),
    "influence.sweep.pool_speedup": ("ratio", "higher"),
    "influence.sweep.pool_speedup_blas1": ("ratio", "higher"),
    "coexistence.simulate.self_s": ("s", "lower"),
    "kernels.forward_fill.self_s": ("s", "lower"),
    "kernels.forward_fill.ms_per_call": ("ms", "lower"),
    "coexistence.write_trace_csv.self_s": ("s", "lower"),
    "coexistence.write_trace_csv.bytes": ("bytes", "lower"),
    "coexistence.write_trace_csv.mb_per_s": ("MB/s", "higher"),
    "coexistence.ris_direct_ratio_db.self_s": ("s", "lower"),
    "touchstone.read_touchstone.calls": ("count", "lower"),
    "touchstone.read_touchstone.rows": ("count", "higher"),
    "touchstone.read_touchstone.self_s": ("s", "lower"),
    "touchstone.parse_touchstone.self_s": ("s", "lower"),
    "unitcell.build_table.self_s": ("s", "lower"),
    "unitcell.max_contrast.self_s": ("s", "lower"),
    "kernels.max_pair_contrast.ops": ("count", "higher"),
    "kernels.max_pair_contrast.ms_per_call": ("ms", "lower"),
    "unitcell.extract_boi.self_s": ("s", "lower"),
    "unitcell.write_csv.self_s": ("s", "lower"),
    "unitcell.write_csv.bytes": ("bytes", "lower"),
    "cells_per_s": ("cells/s", "higher"),
    "slots_per_s": ("slots/s", "higher"),
    "boi_samples_per_s": ("samples/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "env.nproc": ("count", "higher"),
    "env.blas_threads": ("count", "lower"),
    "env.numba_backend": ("count", "higher"),
}

INFLUENCE_EXPORTS = ("export_csv", "export_ppm", "export_labels_csv", "export_labels_ppm")
UNITCELL_WRITERS = ("write_contrast_csv", "write_boi_summary_csv", "write_normalized_csv")


# ---------------------------------------------------------------------------
# environment


def child_env(**extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def _blas() -> tuple[str, int | None]:
    """(library config, thread count) of the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown", None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return config().decode(), int(threads())
    return "unknown", None


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    from risplan import kernels

    blas, threads = _blas()
    return {
        "kernel_backend": ("numpy" if kernels.ascent_quadratic is kernels.ascent_quadratic_numpy
                           else "numba"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "stripped_from_children": list(STRIPPED_ENV),
    }


# ---------------------------------------------------------------------------
# subprocesses


def _watch(proc: subprocess.Popen, done: threading.Event, peak_kb: list[int]) -> None:
    """Track the child's VmHWM until ``done``; kill it after the timeout.

    The child's own rusage cannot give its peak: exec records the parent's
    high-water mark in it, and the parent is this benchmark process.
    """
    path = f"/proc/{proc.pid}/status"
    deadline = time.monotonic() + COMMAND_TIMEOUT_S
    while not done.wait(0.01):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb[0] = max(peak_kb[0], int(line.split()[1]))
                        break
        except OSError:
            pass
        if time.monotonic() > deadline:
            proc.kill()


def spawn(argv: list[str], env: dict, log_path: str) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one child process."""
    peak_kb = [0]
    done = threading.Event()
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watcher = threading.Thread(target=_watch, args=(proc, done, peak_kb))
        watcher.start()
        try:
            code = proc.wait()
        finally:
            seconds = time.perf_counter() - t0
            done.set()
            watcher.join()
    return code, seconds, peak_kb[0] / 1024.0


def cli_argv(argv: list[str], out: str) -> list[str]:
    return [sys.executable, "-m", "risplan.cli", *argv, out_flag(argv), out]


def setup_argv(inputs) -> list[str]:
    argv = [sys.executable, os.path.join(HERE, "probe.py"), "setup"]
    for path in inputs.scenes:
        argv += ["--scene", path]
    for path in inputs.manifests:
        argv += ["--manifest", path]
    return argv


def timed_passes(warmup: list[list[str]], passes: dict[str, list[list[str]]], out: str,
                 env: dict, log: str) -> dict:
    """Time passes of commands in-process inside a fresh interpreter (probe.py time).

    Returns {pass: {"codes": [...], "seconds": [...]}}, one entry per
    command; pass ``p`` writes command ``k`` into ``out/p<k>``.  A probe that
    dies reports exit code -1 for every command, with no times.
    """
    spec = json.dumps({"warmup": warmup, "passes": passes, "out": out})
    done = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), "time", spec],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    with open(log, "a") as fh:
        fh.write(done.stderr[-4000:])
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {name: {"codes": [-1] * len(cmds), "seconds": []}
                for name, cmds in passes.items()}


# ---------------------------------------------------------------------------
# output checks


class Checker:
    """Counts attempted and failed commands; keeps the first problems."""

    def __init__(self, workload: str, seed: int):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        if seed == DEFAULT_SEED and os.path.exists(REFERENCE):
            with open(REFERENCE) as fh:
                self.reference = json.load(fh).get(workload)

    def probe(self, code: int) -> None:
        """The set-up probe counts as one command: it fails when inputs do not parse."""
        self.count([f"set-up probe: exit code {code}"] if code != 0 else [])

    def count(self, found: list[str]) -> None:
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems.extend(found[: max(0, 10 - len(self.problems))])

    def command(self, k: int, argv: list[str], code: int, out: str, twin: str | None = None):
        """Check one command's run; ``twin`` is another run of the same seed."""
        if code != 0:
            found = [f"{' '.join(argv)}: exit code {code}"]
        else:
            cells = grid_cells(argv[1]) if argv[0] == "aoi" else None
            found = checks.manifest_problems(out) + checks.invariants(argv, out, cells)
            if twin is not None:
                found += checks.same_manifest(out, twin)
            if self.reference is not None:
                found += checks.compare(argv, self.reference[k], checks.summarize(argv, out))
        self.count(found)


# ---------------------------------------------------------------------------
# --trace 0


def measure(wl, inputs, seed: int, seconds: float, work: str) -> tuple[dict, Checker]:
    env = child_env()
    log = os.path.join(work, "children.log")
    checker = Checker(wl.name, seed)
    spawn(setup_argv(inputs), env, log)  # the first import writes bytecode caches

    samples: dict[str, list[float]] = {"setup_s": [], "peak_rss_mb": []}
    # per command: subprocess and in-process seconds
    wall: list[list[float]] = [[] for _ in inputs.commands]
    compute: list[list[float]] = [[] for _ in inputs.commands]
    start = time.perf_counter()
    longest = 0.0
    iteration = 0
    while True:
        t_iter = time.perf_counter()
        code, secs, _ = spawn(setup_argv(inputs), env, log)
        checker.probe(code)
        samples["setup_s"].append(secs)

        sub_dirs = [os.path.join(work, f"it{iteration}_sub{k}") for k in range(len(inputs.commands))]
        peak, codes = 0.0, []
        for k, (argv, out) in enumerate(zip(inputs.commands, sub_dirs)):
            code, secs, rss = spawn(cli_argv(argv, out), env, log)
            wall[k].append(secs)
            peak = max(peak, rss)
            codes.append(code)
        samples["peak_rss_mb"].append(peak)

        in_root = os.path.join(work, f"it{iteration}_in")
        passes = {f"pass{p}_": inputs.commands for p in range(COMPUTE_PASSES)}
        report = timed_passes(inputs.warmup, passes, in_root, env, log)
        for r in report.values():
            for k, secs in enumerate(r["seconds"]):
                compute[k].append(secs)

        for k, argv in enumerate(inputs.commands):
            checker.command(k, argv, codes[k], sub_dirs[k])
            twin = sub_dirs[k] if codes[k] == 0 else None
            for name, r in report.items():
                checker.command(k, argv, r["codes"][k], os.path.join(in_root, f"{name}{k}"), twin)
        for out in sub_dirs + [in_root]:
            shutil.rmtree(out, ignore_errors=True)

        iteration += 1
        longest = max(longest, time.perf_counter() - t_iter)
        if iteration >= MIN_ITERATIONS and time.perf_counter() - start + longest > seconds:
            break

    # a slow moment of the host lands in one command's sample, not in every
    # command's median
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": sum(statistics.median(t) for t in wall),
        "compute_s": sum(statistics.median(t) for t in compute if t),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    samples.update(wall_s=wall, compute_s=compute)
    command_s = [statistics.median(t) if t else math.nan for t in compute]
    return {"metrics": metrics, "samples": samples, "command_s": command_s,
            "iterations": iteration}, checker


# ---------------------------------------------------------------------------
# --trace 1


def _default_jobs(argv: list[str]) -> list[str]:
    i = argv.index("--jobs")
    return argv[:i] + argv[i + 2:]


def _import_times(env: dict, log: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import risplan.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    with open(log, "a") as fh:
        fh.write(done.stderr[-2000:])
    found = {}
    for line in done.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line)
        if m:
            found[m.group(2).strip()] = int(m.group(1)) / 1e6
    return found


def _pool_speedups(inputs, work: str, log: str, checker: Checker) -> dict[str, float]:
    """jobs-1 over default-jobs in-process time, default BLAS and one BLAS thread.

    ``inputs.commands`` are aoi commands that pass ``--jobs 1``.
    """
    out = {}
    for name, extra in (("influence.sweep.pool_speedup", {}),
                        ("influence.sweep.pool_speedup_blas1", {"OPENBLAS_NUM_THREADS": "1"})):
        passes = {"jobs1": inputs.commands,
                  "default": [_default_jobs(a) for a in inputs.commands]}
        report = timed_passes([_default_jobs(a) for a in inputs.warmup], passes,
                              os.path.join(work, name.rsplit(".", 1)[1]),
                              child_env(**extra), log)
        failed = any(code != 0 for r in report.values() for code in r["codes"])
        checker.count([f"{name}: a timed pass failed"] if failed else [])
        if not failed:
            out[name] = sum(report["jobs1"]["seconds"]) / sum(report["default"]["seconds"])
    return out


def _median_call_time(fn, arg_sets: list[tuple]) -> float:
    """Median over argument sets of the fastest of three calls, in seconds."""
    per_set = []
    for args in arg_sets:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
        per_set.append(best)
    return statistics.median(per_set) if per_set else 0.0


def trace(wl, inputs, seed: int, work: str) -> tuple[dict, Checker, dict]:
    import risplan.cli
    from risplan import kernels

    log = os.path.join(work, "children.log")
    env = child_env()
    checker = Checker(wl.name, seed)
    commands = inputs.commands
    run_commands(risplan.cli.main, inputs.warmup,
                 [os.path.join(work, f"warm{k}") for k in range(len(inputs.warmup))])

    # pass 1: per-cell timers only, which is the untraced reference time
    dirs = [os.path.join(work, f"light{k}") for k in range(len(commands))]
    with CellTimer() as cells, open(log, "a") as fh:
        light = run_commands(risplan.cli.main, commands, dirs, fh)
    for k, argv in enumerate(commands):
        checker.command(k, argv, light[k][0], dirs[k])

    # pass 2: every public function of every layer in a span
    tracer = Tracer(run_id=f"{wl.name}-{seed}-{os.getpid()}")
    counts: Counter = Counter()
    # scenes stay referenced so their ids cannot be reused by a later command
    bs_leg_scenes: dict[tuple[int, int], object] = {}
    captured: dict[str, list] = {"ascent_quadratic": [], "max_pair_contrast": [],
                                 "forward_fill": []}

    def capture(name, every=1):
        def hook(args, result):
            counts[f"{name}.seen"] += 1
            if (counts[f"{name}.seen"] - 1) % every == 0 and len(captured[name]) < KERNEL_SAMPLES:
                captured[name].append(args)
        return hook

    def add_bytes(key):
        def hook(args, result):
            counts[key] += os.path.getsize(args[1])
        return hook

    def contrast_hook(args, result):
        states, freqs = args[0].shape
        counts["max_pair_contrast.ops"] += states * (states - 1) // 2 * freqs
        capture("max_pair_contrast")(args, result)

    hooks = {
        "propagation.ris_channel": lambda a, r: bs_leg_scenes.setdefault((id(a[0]), a[1]), a[0]),
        "localization.equivalent_position_fim":
            lambda a, r: counts.update(singular=int(r is None)),
        "localization.peb_point":
            lambda a, r: counts.update(nonfinite=int(not math.isfinite(r.peb_m))),
        "secrecy.optimize_q": lambda a, r: counts.update(q_iterations=len(r[2]) - 1),
        "beamforming.coordinate_ascent": lambda a, r: counts.update(ascent_rounds=len(r[2]) - 1),
        "touchstone.read_touchstone":
            lambda a, r: counts.update(touchstone_rows=len(r.frequencies_hz)),
        "kernels.ascent_quadratic": capture("ascent_quadratic", every=8),
        "kernels.max_pair_contrast": contrast_hook,
        "kernels.forward_fill": capture("forward_fill"),
        "coexistence.write_trace_csv": add_bytes("trace_bytes"),
    }
    hooks.update({f"influence.{f}": add_bytes("export_bytes") for f in INFLUENCE_EXPORTS})
    hooks.update({f"unitcell.{f}": add_bytes("unitcell_bytes") for f in UNITCELL_WRITERS})
    tracer.hooks.update(hooks)

    dirs = [os.path.join(work, f"traced{k}") for k in range(len(commands))]
    patch = tracer.instrument()
    try:
        with open(log, "a") as fh:
            traced = run_commands(risplan.cli.main, commands, dirs, fh)
    finally:
        patch.restore()
    for k, argv in enumerate(commands):
        checker.command(k, argv, traced[k][0], dirs[k])
    tracer.write(os.path.join(RESULTS, f"{wl.name}_spans.npz"))

    s = tracer.summary()

    def get(name, field):
        return s.get(name, {}).get(field, 0)

    m: dict[str, float] = {}
    imports = _import_times(env, log)
    m["cli.import_s"] = imports.get("risplan.cli", 0.0)
    m["cli.import_scipy_optimize_s"] = imports.get("scipy.optimize", 0.0)
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "cum_s") and layer in s:
            m[name] = get(layer, field)
    m["cli.self_s"] = get("cli.main", "self_s")
    m["propagation.bs_leg_useful_ratio"] = (
        len(bs_leg_scenes) / get("propagation.ris_channel", "calls") if bs_leg_scenes else 0.0)
    gain_cells = sum(len(cells.samples[metric]) for metric in
                     ("gain_db", "tx_power_dbm", "se_bps_hz"))
    calls = get("beamforming.gain_terms", "calls")
    m["beamforming.gain_terms.useful_ratio"] = gain_cells / calls if calls else 0.0
    m["beamforming.coordinate_ascent.rounds"] = counts["ascent_rounds"]
    m["localization.equivalent_position_fim.singular"] = counts["singular"]
    m["localization.peb_point.nonfinite"] = counts["nonfinite"]
    m["secrecy.optimize_q.iterations"] = counts["q_iterations"]
    for metric in ("gain_db", "se_bps_hz", "peb_m", "sse_bps_hz"):
        ms = sorted(1e3 * t for t in cells.samples[metric])
        for q, label in ((0.5, "p50"), (0.99, "p99")):
            m[f"influence.cell_ms.{metric}.{label}"] = (
                ms[min(len(ms) - 1, int(q * len(ms)))] if ms else 0.0)
    m["influence.export.self_s"] = sum(get(f"influence.{f}", "self_s") for f in INFLUENCE_EXPORTS)
    m["influence.export.bytes"] = counts["export_bytes"]
    m["coexistence.write_trace_csv.bytes"] = counts["trace_bytes"]
    write_s = get("coexistence.write_trace_csv", "self_s")
    m["coexistence.write_trace_csv.mb_per_s"] = (
        counts["trace_bytes"] / 1e6 / write_s if write_s else 0.0)
    m["touchstone.read_touchstone.rows"] = counts["touchstone_rows"]
    m["kernels.max_pair_contrast.ops"] = counts["max_pair_contrast.ops"]
    m["unitcell.write_csv.self_s"] = sum(get(f"unitcell.{f}", "self_s") for f in UNITCELL_WRITERS)
    m["unitcell.write_csv.bytes"] = counts["unitcell_bytes"]

    # kernels on argument sets captured from this workload, untraced
    m["kernels.ascent_quadratic.us_per_call"] = 1e6 * _median_call_time(
        kernels.ascent_quadratic, captured["ascent_quadratic"])
    m["kernels.max_pair_contrast.ms_per_call"] = 1e3 * _median_call_time(
        kernels.max_pair_contrast, captured["max_pair_contrast"])
    m["kernels.forward_fill.ms_per_call"] = 1e3 * _median_call_time(
        kernels.forward_fill, captured["forward_fill"])

    light_s = sum(secs for _, secs in light)
    by_command = {a[0]: secs for a, (_, secs) in zip(commands, light)}
    aoi_s = sum(secs for a, (_, secs) in zip(commands, light) if a[0] == "aoi")
    m["cells_per_s"] = inputs.aoi_cells / aoi_s if inputs.aoi_cells else 0.0
    m["slots_per_s"] = inputs.slots / by_command["coexist"] if inputs.slots else 0.0
    m["boi_samples_per_s"] = inputs.boi_samples / by_command["boi"] if inputs.boi_samples else 0.0
    m["trace.overhead_ratio"] = sum(secs for _, secs in traced) / light_s

    if wl.name == "aoi":
        # the process-pool path cannot be traced; its decision data comes from
        # untraced passes at --jobs 1 and at the default --jobs
        m.update(_pool_speedups(inputs, work, log, checker))

    env_record = environment()
    m["env.nproc"] = env_record["nproc"] or 0
    m["env.blas_threads"] = env_record["blas_threads"] or 0
    m["env.numba_backend"] = int(env_record["kernel_backend"] == "numba")
    metrics = {name: float(m.get(name, 0.0)) for name in PER_LAYER}
    return {"metrics": metrics, "spans": len(tracer.start)}, checker, env_record


# ---------------------------------------------------------------------------
# reference recording


def record_reference(wl, inputs, work: str) -> None:
    env = child_env()
    log = os.path.join(work, "children.log")
    summaries = []
    for k, argv in enumerate(inputs.commands):
        out = os.path.join(work, f"ref{k}")
        code, _, _ = spawn(cli_argv(argv, out), env, log)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited with {code}")
        summaries.append(checks.summarize(argv, out))
    doc = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            doc = json.load(fh)
    doc[wl.name] = summaries
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "risplan", "cli.py")):
        print(f"error: no risplan sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    parser = argparse.ArgumentParser(description="risplan end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write this workload's outputs at --seed to reference.json")
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore")  # flat-range image warnings from tiny maps
    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{wl.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = wl.generate(args.seed, work)
        if args.record_reference:
            record_reference(wl, inputs, work)
            print(f"recorded {wl.name} at seed {args.seed} into {REFERENCE}")
            return 0
        if args.trace:
            result, checker, env_record = trace(wl, inputs, args.seed, work)
            units = PER_LAYER
        else:
            result, checker = measure(wl, inputs, args.seed, args.seconds, work)
            env_record = environment()
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "environment": env_record, "problems": checker.problems,
              "attempted": checker.attempted, "failed": checker.failed, **result}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{wl.name}-trace{args.trace}-seed{args.seed}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"backend {env_record['kernel_backend']}  blas threads {env_record['blas_threads']}")
    for name, value in result["metrics"].items():
        print(f"  {name:48s} {value:14.6g} {units[name][0]}")
    if not args.trace:
        for label, amount, command in (("cells", inputs.aoi_cells, "aoi"),
                                       ("slots", inputs.slots, "coexist"),
                                       ("boi samples", inputs.boi_samples, "boi")):
            secs = sum(t for argv, t in zip(inputs.commands, result["command_s"])
                       if argv[0] == command)
            if amount:
                print(f"  ({label} per second in-process: {amount / secs:.6g})")
    print(f"  failed_ratio {checker.failed}/{checker.attempted}")
    for problem in checker.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
