"""Spans and counts around risplan's public functions, recorded from outside.

The tracer replaces every public function of the layer modules with a
wrapper in each module namespace that binds it, so a call is seen no matter
which module makes it (``propagation._leg`` reaching ``wall_attenuation``,
``cli`` reaching ``sweep``).  Nothing inside the program changes; ``restore``
puts the original bindings back.

A span is (name, start, end, parent span) and all spans of one traced pass
share the tracer's run id.  Spans stay in flat arrays while the pass runs
and are written out once at the end.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict

import numpy as np

# Layer modules, named by their file in src/risplan/.  ``cli`` contributes
# only ``main``: argument parsing and manifest digests stay in its self time.
MODULES = (
    "scene", "propagation", "beamforming", "linkmetrics", "localization",
    "secrecy", "influence", "coexistence", "touchstone", "unitcell",
    "kernels", "seeding", "cli",
)

# per-cell entry points of each aoi metric, as influence binds them
PAIR_FUNCTIONS = {
    "gain_db": "gain_pair",
    "tx_power_dbm": "tx_power_pair",
    "se_bps_hz": "se_pair",
    "peb_m": "peb_pair",
    "sse_bps_hz": "sse_pair",
}


def _modules():
    return {name: importlib.import_module(f"risplan.{name}") for name in MODULES}


def public_functions() -> dict[int, tuple[str, object]]:
    """id(function) -> (span name, function) for every wrapped function.

    An object bound under several names (``kernels.ascent_quadratic`` is
    ``ascent_quadratic_numpy`` without numba) takes its shortest name.
    """
    found: dict[int, tuple[str, object]] = {}
    for short, mod in _modules().items():
        for attr, obj in sorted(vars(mod).items(), key=lambda kv: len(kv[0])):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__ or id(obj) in found:
                continue
            if short == "cli" and attr != "main":
                continue
            found[id(obj)] = (f"{short}.{attr}", obj)
    return found


class Patch:
    """Rebinds functions in every risplan module namespace; undo with restore."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def apply(self, replacements: dict[int, object]) -> None:
        for mod in _modules().values():
            for attr, obj in list(vars(mod).items()):
                new = replacements.get(id(obj))
                if new is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, new)

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


class Tracer:
    """In-memory span store; ``hooks`` see each call's arguments and result."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # per-name callables(args, result) run after each call, outside the span
        self.hooks: dict[str, object] = {}

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_idx.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def instrument(self) -> Patch:
        patch = Patch()
        patch.apply({key: self.wrap(name, fn) for key, (name, fn) in public_functions().items()})
        return patch

    # -- aggregation -------------------------------------------------------

    def arrays(self):
        return (np.asarray(self.name_idx, dtype=np.int64),
                np.asarray(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, cum_s (sum of durations) and self_s."""
        names, parents, starts, ends = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        cum = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "cum_s": float(cum[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        names, parents, starts, ends = self.arrays()
        t0 = starts.min() if starts.size else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, run_id=np.array(self.run_id), names=np.array(self.names),
            name_idx=names.astype(np.int32), parent=parents.astype(np.int32),
            start_s=starts - t0, end_s=ends - t0,
        )


class CellTimer:
    """Per-cell latency of each metric's ``*_pair`` function, nothing else.

    Rebinds only the ``influence`` namespace, so each recorded call is one
    grid cell of a sweep and recording costs one clock pair per cell.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._influence = importlib.import_module("risplan.influence")
        self._saved: list[tuple[str, object]] = []

    @staticmethod
    def _timed(fn, out: list):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            out.append(clock() - t0)
            return result

        return timed

    def __enter__(self):
        for metric, attr in PAIR_FUNCTIONS.items():
            fn = getattr(self._influence, attr)
            self._saved.append((attr, fn))
            setattr(self._influence, attr, self._timed(fn, self.samples[metric]))
        return self

    def __exit__(self, *exc):
        for attr, fn in self._saved:
            setattr(self._influence, attr, fn)
        self._saved.clear()
        return False
