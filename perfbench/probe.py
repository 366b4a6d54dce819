"""In-process passes over a workload's commands, and the child-process probes.

``run_commands`` calls ``risplan.cli.main`` once per command, the way the
benchmark times compute without interpreter start-up.  Run as a script it
is one of two probes the benchmark starts as fresh interpreters:

``probe.py setup --scene S... --manifest M...``
    import ``risplan.cli``, parse the given inputs, exit (``setup_s``);
``probe.py time SPEC_JSON``
    run the warm-up commands, then each named pass of commands once, and
    print per pass the exit codes and seconds of each command as JSON
    (``compute_s``, ``pool_speedup``).  A fresh interpreter per sample keeps one process's
    memory layout and hash seed from biasing a whole run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback


def out_flag(argv: list[str]) -> str:
    return "--out-dir" if argv[0] == "aoi" else "--out"


def run_commands(main, commands: list[list[str]], out_dirs: list[str], log=None):
    """[(exit code, seconds)] for each command run through ``main``."""
    results = []
    for argv, out in zip(commands, out_dirs):
        full = [*argv, out_flag(argv), out]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(full)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = 1
            if log is not None:
                log.write(traceback.format_exc())
        results.append((code, time.perf_counter() - t0))
    return results


def _setup(args) -> int:
    import risplan.cli  # noqa: F401  (the import is what is timed)
    from risplan.scene import load_scene
    from risplan.touchstone import load_cell_manifest

    for path in args.scene:
        load_scene(path)
    for path in args.manifest:
        load_cell_manifest(path)
    return 0


def _time(args) -> int:
    import warnings

    from risplan.cli import main

    warnings.simplefilter("ignore")
    spec = json.loads(args.spec)
    warm = spec["warmup"]
    run_commands(main, warm, [f"{spec['out']}/warm{k}" for k in range(len(warm))])
    report = {}
    for name, commands in spec["passes"].items():
        dirs = [f"{spec['out']}/{name}{k}" for k in range(len(commands))]
        results = run_commands(main, commands, dirs, sys.stderr)
        report[name] = {"codes": [code for code, _ in results],
                        "seconds": [secs for _, secs in results]}
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--scene", action="append", default=[])
    setup.add_argument("--manifest", action="append", default=[])
    setup.set_defaults(func=_setup)
    timed = sub.add_parser("time")
    timed.add_argument("spec")
    timed.set_defaults(func=_time)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
