"""The command-line contract on drawn scenes, not just the bundled ones.

Every metric, and one ``coexist`` run at a node, exits 0, 2 or 3; a
non-zero exit prints exactly one ``error:`` line and raises nothing past
``main``; and a rerun writes the same bytes. The scenes are small (at most
12 cells) and reach the corners the bundled ones miss: nodes on grid
cells, a station on the surface, one-element surfaces, one-level lookups,
dark surfaces, an eavesdropper on a node and walls that block outright.
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from risplan.cli import main
from risplan.scene import METRIC_IDS

# a free position: integer metres around the grid, never on a cell by design
FREE = st.tuples(st.integers(-6, 8), st.integers(-6, 8), st.integers(0, 5)).map(
    lambda p: [float(c) for c in p])


@st.composite
def scenes(draw):
    nx = draw(st.integers(1, 4))
    ny = draw(st.integers(1, 12 // nx))
    res = draw(st.sampled_from([0.5, 1.0, 2.0]))
    x0, y0 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    height = draw(st.sampled_from([0.0, 1.5]))
    cells = [[x0 + ix * res, y0 + iy * res, height] for iy in range(ny) for ix in range(nx)]
    position = st.one_of(FREE, st.sampled_from(cells))

    ris_at = draw(position)
    bs = [{"position_m": draw(position), "antenna_count": draw(st.integers(1, 3))}
          for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        bs[0]["position_m"] = ris_at  # a station on the surface
    ris = {
        "position_m": ris_at,
        "element_count": draw(st.sampled_from([1, 2, 4, 8])),
        "element_efficiency": draw(st.sampled_from([0.0, 0.5, 1.0])),
    }
    lookup = draw(st.sampled_from([None, [0.0], [0.0, math.pi]]))
    if lookup is not None:
        ris["phase_lookup_rad"] = lookup
    doc = {
        "spec_version": 1,
        "carrier_hz": draw(st.sampled_from([3.5e9, 28e9])),
        "subcarrier_count": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "bs": bs,
        "ue_grid": {"x_min": x0, "x_max": x0 + (nx - 1) * res, "y_min": y0,
                    "y_max": y0 + (ny - 1) * res, "resolution_m": res,
                    "fixed_height_m": height},
        "ris": ris,
        "localization": {"pilot_count": draw(st.sampled_from([8, 40]))},
        "secrecy": {"rx_antenna_count": draw(st.integers(1, 2)),
                    "fading_draws": draw(st.integers(1, 2))},
    }
    eve_at = draw(st.one_of(st.none(), FREE, st.just(ris_at),
                            st.sampled_from([station["position_m"] for station in bs])))
    if eve_at is not None:
        doc["eve"] = {"position_m": eve_at, "antenna_count": draw(st.integers(1, 2))}
    if draw(st.booleans()):
        p1 = draw(FREE)
        p2 = [p1[0] + draw(st.sampled_from([-4.0, 3.0])), p1[1] + draw(st.integers(-2, 2)), 0.0]
        doc["walls"] = [{"p1_m": p1, "p2_m": p2,
                         "penetration_loss_db": draw(st.sampled_from([3.0, 400.0]))}]
    ue = draw(st.sampled_from([ris_at] + [station["position_m"] for station in bs]))
    return doc, ",".join(repr(c) for c in ue)


def run(argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def outputs(directory):
    return {path.name: path.read_bytes() for path in sorted(pathlib.Path(directory).iterdir())}


def assert_contract(argv_for):
    """Run ``argv_for(out_dir)`` twice: the exit contract, then identical bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name in ("first", "second"):
            out = pathlib.Path(tmp, name)
            code, err = run(argv_for(str(out)))
            assert code in (0, 2, 3), err
            if code:
                assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err
                assert "Traceback" not in err
            runs.append((code, outputs(out) if out.exists() else {}))
        assert runs[0] == runs[1]


@given(drawn=scenes())
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_drawn_scene_keeps_the_cli_contract(drawn):
    doc, ue = drawn
    with tempfile.TemporaryDirectory() as tmp:
        scene = str(pathlib.Path(tmp, "drawn.json"))
        pathlib.Path(scene).write_text(json.dumps(doc))
        for metric in METRIC_IDS:
            assert_contract(lambda out: ["aoi", scene, "--metric", metric, "--out-dir", out])
        assert_contract(lambda out: ["coexist", scene, "--switch-prob", "0.5", "--slots", "64",
                                     f"--ue={ue}", "--out", out])
