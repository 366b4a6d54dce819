"""Small evaluations that only tests need, kept out of the package API."""

import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np

import risplan
from risplan import influence
from risplan.touchstone import parse_touchstone


def parse_text(text, state_id):
    """``parse_touchstone`` on literal Touchstone text, fed as the binary file
    ``read_touchstone`` passes it."""
    return parse_touchstone(io.BytesIO(text.encode("ascii")), state_id)


def block_size(scene, metric_id):
    """Cells per block of ``metric_id``'s sweep on ``scene`` under the current budget."""
    cell_bytes, _ = influence.METRICS[metric_id].engine(scene)
    return influence._block_size(cell_bytes)


def at_subcarriers(direct, count, spacing_hz):
    """(count, A) frequency-domain response of a one-point ``DirectChannel``."""
    phases = np.exp(-2j * math.pi * spacing_hz * direct.delay_s * np.arange(count))
    return direct.gains[None, :] * phases[:, None]


def contrast_at(curve, f_hz):
    """Piecewise-linear contrast of a ``ContrastCurve`` at f_hz (inside the sampled range)."""
    return float(np.interp(f_hz, curve.frequencies_hz, curve.contrast))


def trace_columns(result):
    """Per-slot SNR (dB), selected rate and capacity columns of a ``CoexistResult``.

    The selected rate of slot t is the capacity of slot t - d, with d the
    CSI delay; the first d slots select none (NaN).
    """
    index = result.config_index
    delay = index.shape[0] - result.transmitting_slots
    capacity = result.capacity[index]
    selected = np.full(index.shape[0], math.nan)
    selected[delay:] = capacity[:-delay]
    return result.snr_db[index], selected, capacity


def error_slots(result):
    """Slots of a ``CoexistResult`` whose block is lost: its SNR is below the
    floor of the entry one CSI delay d earlier. The first d slots never err.
    """
    index = result.config_index
    delay = index.shape[0] - result.transmitting_slots
    lost = result.snr[index[delay:]] < result.snr_floor[index[:-delay]]
    return tuple((np.flatnonzero(lost) + delay).tolist())


def traced_peak(call):
    """Peak bytes tracemalloc sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fresh_interpreter(*args):
    """Run ``python *args`` in a new process that imports this checkout of risplan."""
    src = str(pathlib.Path(risplan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def loaded_modules(*argv):
    """What a fresh interpreter has loaded after importing ``risplan.cli`` and,
    given ``argv``, running the command ``risplan.cli.main(argv)``.

    Returns the short names of the loaded ``risplan`` modules, whether numpy
    is loaded, the command's exit code: what ``main`` returned, or the
    code of the ``SystemExit`` it raised (``--help``, ``--version`` and
    argument errors), 0 without ``argv``, and its standard error.
    """
    code = (
        "import json, sys, risplan.cli\n"
        "try:\n"
        "    code = risplan.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    done = fresh_interpreter("-c", code, *argv)
    assert done.returncode == 0, done.stderr
    code, names = json.loads(done.stdout.splitlines()[-1])
    layers = {name.split(".", 1)[1] for name in names if name.startswith("risplan.")}
    return layers, "numpy" in names, code, done.stderr
