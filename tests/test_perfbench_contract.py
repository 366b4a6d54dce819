"""What perfbench's traced pass needs from the package, checked without running it.

perfbench finds some package functions by name: ``CellTimer`` rebinds the
per-cell ``*_pair`` views that ``tracer.PAIR_FUNCTIONS`` names on
``risplan.influence``, each of which must be the one-row view of the
metric it is filed under, and the traced pass reads ``args[1]`` of each
exporter that ``run.INFLUENCE_EXPORTS`` names as the path of the file it
wrote. ``environment()`` names the kernel backend by testing
``kernels.ascent_quadratic is kernels.ascent_quadratic_numpy``. A change
to the package that breaks one of these fails ``perfbench/run.py --trace 1``
only; this module fails first. Every ``aoi`` workload command also passes
``--jobs 1``, which ``test_cli.py``'s ``aoi`` tests pass too (for one,
``TestAoi::test_dark_surface_delta_is_zero``), so it is not checked again
here.

The names are read from perfbench's sources with ``ast``, so perfbench is
neither imported nor run. ROADMAP open item 3 ("perfbench measures what
the commands run") deletes these hooks, and this module with them.
"""

import ast
import inspect
import pathlib

import pytest

from risplan import influence, kernels
from risplan.scene import load_scene

ROOT = pathlib.Path(__file__).resolve().parent.parent


def perfbench_constant(module: str, name: str):
    """The literal value bound to ``name`` at the top level of ``perfbench/<module>.py``."""
    tree = ast.parse((ROOT / "perfbench" / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/{module}.py binds no {name}")


PAIR_FUNCTIONS = perfbench_constant("tracer", "PAIR_FUNCTIONS")
INFLUENCE_EXPORTS = perfbench_constant("run", "INFLUENCE_EXPORTS")


@pytest.mark.parametrize("name", sorted(PAIR_FUNCTIONS.values()) + list(INFLUENCE_EXPORTS))
def test_named_functions_are_bound_on_influence(name):
    assert callable(getattr(influence, name, None)), name


@pytest.mark.parametrize("metric, name", sorted(PAIR_FUNCTIONS.items()))
def test_each_view_is_the_one_row_view_of_its_metric(metric, name):
    # grid points of both scenes, on no station, surface or eavesdropper
    if metric == "sse_bps_hz":
        scene, point = load_scene(ROOT / "scenes" / "courtyard_secrecy.json"), [10.0, 40.0, 1.5]
    else:
        scene, point = load_scene(ROOT / "scenes" / "indoor_localization.json"), [2.0, 3.0, 1.0]
    expected = tuple(influence.METRICS[metric].pairs(scene, [point])[:, 0].tolist())
    assert getattr(influence, name)(scene, point) == expected


@pytest.mark.parametrize("name", INFLUENCE_EXPORTS)
def test_exporters_take_the_path_second(name):
    params = list(inspect.signature(getattr(influence, name)).parameters)
    assert params[1] == "path", params


def test_kernel_backend_test_names_both_kernels():
    assert kernels.ascent_quadratic_numpy is kernels.ascent_quadratic
