"""End-to-end runs of the console entry point against temp scenes."""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest
from helpers import fresh_interpreter, loaded_modules

from risplan import __version__
from risplan.cli import main
from risplan.influence import classify, sweep
from risplan.propagation import surface_element_positions
from risplan.scene import parse_scene

SCENE = {
    "spec_version": 1,
    "carrier_hz": 3.5e9,
    "bs": [{"position_m": [0, 0, 3], "antenna_count": 2}],
    "ris": {"position_m": [6, 2, 3], "element_count": 8},
    "ue_grid": {
        "x_min": 1, "x_max": 3, "y_min": 1, "y_max": 2,
        "resolution_m": 1, "fixed_height_m": 1.5,
    },
}

# a surface whose every state absorbs: the map with it is the map without it
DARK_SCENE = dict(SCENE, ris={**SCENE["ris"], "element_efficiency": 0.0})

SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"

COEX_SCENE = {
    "spec_version": 1,
    "carrier_hz": 3.5e9,
    "bs": [{"position_m": [0, 0, 10], "antenna_count": 4}],
    "ris": {"position_m": [10, 20, 5], "element_count": 64},
    "ue_grid": {
        "x_min": 0, "x_max": 20, "y_min": 0, "y_max": 30,
        "resolution_m": 1, "fixed_height_m": 1.5,
    },
}


def csv_columns(path):
    """x, y and value columns of an exported field CSV, as uint64 bit patterns."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows.view(np.uint64).T


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def write_scene(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def scene_without(doc, *keys):
    trimmed = {k: v for k, v in doc.items() if k not in keys}
    return trimmed


def write_cells(tmp_path, names=("split", "weak")):
    """Synthetic one-port cells: 'split' opens a 2..4 GHz band, 'weak' never does."""
    rows_on, rows_off = [], []
    for f_ghz in (1.0, 2.0, 3.0, 4.0, 5.0):
        inside = 2.0 <= f_ghz <= 4.0
        rows_on.append(f"{f_ghz} {0.9 if inside else 0.1} 0")
        rows_off.append(f"{f_ghz} {-0.9 if inside else 0.1} 0")
    (tmp_path / "split_on.s1p").write_text("# GHZ S RI R 50\n" + "\n".join(rows_on) + "\n")
    (tmp_path / "split_off.s1p").write_text("# GHZ S RI R 50\n" + "\n".join(rows_off) + "\n")
    (tmp_path / "weak_on.s1p").write_text("# GHZ S RI R 50\n1 0.2 0\n5 0.2 0\n")
    (tmp_path / "weak_off.s1p").write_text("# GHZ S RI R 50\n1 -0.2 0\n5 -0.2 0\n")
    cells = []
    for name in names:
        cells.append({"name": name, "states": {"on": f"{name}_on.s1p", "off": f"{name}_off.s1p"}})
    path = tmp_path / "cells.json"
    path.write_text(json.dumps({"cells": cells}))
    return str(path)


def rename_cells(manifest, names):
    """Give the cells of a manifest file written by ``write_cells`` new names."""
    path = pathlib.Path(manifest)
    doc = json.loads(path.read_text())
    for cell, name in zip(doc["cells"], names, strict=True):
        cell["name"] = name
    path.write_text(json.dumps(doc))
    return manifest


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


# sha256 of every file `boi scenes/cells.json` writes, run from the repository
# root. `manifest` and `effective` were recorded with the line-by-line
# Touchstone reader, `reflection` (the 2-port pin_tshift read on S11) with
# the state tables that resampled both ports; they pin the bytes the array
# reader and the one-port resampling must keep.
BUNDLED_CELL_DIGESTS = {
    "manifest": {
        "boi_summary.csv": "b74245495ceb6d79b32ba308e508ff075f17bffbf1a107f8a6d7fbb454353354",
        "ka_switch_contrast.csv": "e8c555e823d5ec2a18516c073d5c2d112485a7d9f6677bc751b3207abac2199c",
        "manifest.json": "13b62875a14e5259d51ecd4a40530e0fb0514ec7980dd18b918e0c6fbbd04905",
        "normalized_contrast.csv": "8c9f9842df1e91d21c1b917934d70d2c384cc14896ab1733eff06010c7008a5f",
        "pin_tshift_contrast.csv": "1d523a4e405a6ad5a991992beb9a0495d872cd6a3e9c7cae08609954929ed71d",
    },
    "effective": {
        "boi_summary.csv": "4fef5f08ad757fd97f090ef78ad593af06656ea8838ac4c4b30e9fc5f9054e58",
        "ka_switch_contrast.csv": "300b7f7b026b7ebd9ed4e702ac63b5072c4958220560c9e582f438f3e3e218cc",
        "manifest.json": "49730086c8568cb428a1c310b39e50f5ad1ce0d876b1ea85f2ea731f3eb2f963",
        "normalized_contrast.csv": "3fe5ebffe49126de2e5f1d633ad9c9c38304610f149af5eef2b30e7a5a1a045e",
        "pin_tshift_contrast.csv": "d9af92be464b8fd1f9bb16f23cc8029f9d65849957613941451e147c21290c8a",
    },
    "reflection": {
        "boi_summary.csv": "0735d13c9dbf756537862522e94023715b0bc012622b21066fce74f1520ea551",
        "ka_switch_contrast.csv": "e8c555e823d5ec2a18516c073d5c2d112485a7d9f6677bc751b3207abac2199c",
        "manifest.json": "03098086fd6ef8248bf6dc75eaaa7e047e9d93c2c2423397f2bfca36b101fce6",
        "normalized_contrast.csv": "5a98f91d9dbeb8838405e6650792f4f60cbb2a6c55031e22835a452798d4a70b",
        "pin_tshift_contrast.csv": "f0f13c3e07c15c630e74e71939cc56691e73961c6f53f236a86ebdfedec592da",
    },
}


# sha256 of every file `aoi scenes/<scene>.json --metric <metric>` writes, run
# from the repository root, for each bundled scene and metric; an int is the
# exit code of a run that writes nothing (a secrecy map without an
# eavesdropper). Recorded before the secrecy engine carried lookup indices.
BUNDLED_AOI_DIGESTS = json.loads(
    (pathlib.Path(__file__).resolve().parent / "bundled_aoi_digests.json").read_text())


class TestBoi:
    @pytest.mark.parametrize("kind", sorted(BUNDLED_CELL_DIGESTS))
    def test_bundled_cells_match_pinned_digests(self, tmp_path, monkeypatch, capsys, kind):
        # manifest.json records the manifest path as given, so run from the root
        monkeypatch.chdir(SCENES.parent)
        out = tmp_path / kind
        assert main(["boi", "scenes/cells.json", "--kind", kind, "--out", str(out)]) == 0
        assert {p.name: sha(p) for p in out.iterdir()} == BUNDLED_CELL_DIGESTS[kind]

    @pytest.mark.parametrize("row", ["2 nan 0", "nan 0.5 0", "2 inf 0", "2_000 0.5 0"])
    def test_non_finite_or_malformed_cell_value_exits_2(self, tmp_path, capsys, row):
        manifest = write_cells(tmp_path)
        path = tmp_path / "split_on.s1p"
        path.write_text(path.read_text().replace("2.0 0.9 0", row))
        assert main(["boi", manifest, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}: line 3: ")

    def test_malformed_later_cell_exits_2_writing_no_output(self, tmp_path, capsys):
        # every cell's curve and band come before the output directory
        manifest = write_cells(tmp_path)
        path = tmp_path / "weak_on.s1p"
        path.write_text("# GHZ S RI R 50\n1 0.2 0\n2 x 0\n5 0.2 0\n")
        out = tmp_path / "out"
        assert main(["boi", manifest, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: line 3: ")
        assert not out.exists()

    def test_band_at_negative_frequencies_exits_2_writing_no_output(self, tmp_path, capsys):
        # such a band would have a negative centre, so no state may hold a
        # frequency below 0 Hz; the reader refuses it before --out exists
        cells = []
        for name in ("neg", "neg2"):
            for state, value in (("on", "1 0"), ("off", "-1 0")):
                rows = "".join(f"{f} {value}\n" for f in (-3, -2, -1))
                (tmp_path / f"{name}_{state}.s1p").write_text("# GHZ S RI R 50\n" + rows)
            cells.append({"name": name, "states": {s: f"{name}_{s}.s1p" for s in ("on", "off")}})
        manifest = tmp_path / "cells.json"
        manifest.write_text(json.dumps({"cells": cells}))
        out = tmp_path / "out"
        assert main(["boi", str(manifest), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {tmp_path / 'neg_on.s1p'}: line 2: "
                                "negative frequency in data row: '-3 1 0'\n")
        assert not out.exists()

    def test_two_cell_run(self, tmp_path, capsys):
        manifest = write_cells(tmp_path)
        out = tmp_path / "out"
        assert main(["boi", manifest, "--out", str(out)]) == 0
        for name in ("split_contrast.csv", "weak_contrast.csv",
                     "boi_summary.csv", "normalized_contrast.csv", "manifest.json"):
            assert (out / name).exists()
        summary = (out / "boi_summary.csv").read_text().splitlines()
        assert summary[0] == "name,f1_hz,f2_hz,f0_hz,width_hz"
        split = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert split["name"] == "split"
        # edges interpolate between the 1.8-contrast plateau and the 0 floor
        assert float(split["f0_hz"]) == pytest.approx(3.0e9)
        assert float(split["width_hz"]) == pytest.approx((26 / 9) * 1e9)
        # contrast 0.4 everywhere: below the default threshold, so blank fields
        assert summary[2] == "weak,,,,"
        err = capsys.readouterr().err
        assert "weak" in err and "normalized" in err
        # 'weak' has no centre frequency, so only 'split' is in the normalized table
        norm = (out / "normalized_contrast.csv").read_text().splitlines()
        assert all(line.startswith("split,") for line in norm[1:])

    def test_manifest_digests_match_files(self, tmp_path):
        manifest = write_cells(tmp_path)
        out = tmp_path / "out"
        main(["boi", manifest, "--out", str(out)])
        doc = load_manifest(out)
        assert doc["command"] == "boi"
        assert doc["version"] == __version__
        assert doc["seed"] is None
        assert doc["config"] == {"cmin": 1.0, "kind": "manifest"}
        names = [entry["path"] for entry in doc["outputs"]]
        assert names == sorted(names)
        assert "manifest.json" not in names
        for entry in doc["outputs"]:
            assert entry["sha256"] == sha(out / entry["path"])

    def test_single_cell_skips_normalized(self, tmp_path):
        manifest = write_cells(tmp_path, names=("split",))
        out = tmp_path / "out"
        assert main(["boi", manifest, "--out", str(out)]) == 0
        assert not (out / "normalized_contrast.csv").exists()

    def test_kind_override_changes_curve(self, tmp_path):
        manifest = write_cells(tmp_path, names=("split",))
        a, b = tmp_path / "a", tmp_path / "b"
        main(["boi", manifest, "--out", str(a)])
        main(["boi", manifest, "--kind", "effective", "--out", str(b)])
        # states share |s11| inside the band, so the effective-loss contrast collapses
        assert (a / "split_contrast.csv").read_text() != (b / "split_contrast.csv").read_text()

    def test_manifest_effective_flag_wins_over_its_kind(self, tmp_path):
        # use_effective_s11 selects the effective contrast whatever the cell's kind
        cells = json.loads((SCENES / "cells.json").read_text())["cells"]
        for cell in cells:
            cell["use_effective_s11"] = True
            cell["states"] = {sid: str(SCENES / rel) for sid, rel in cell["states"].items()}
        assert [cell["kind"] for cell in cells] == ["reflection", "transmission"]
        manifest = tmp_path / "cells.json"
        manifest.write_text(json.dumps({"cells": cells}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["boi", str(manifest), "--out", str(a)]) == 0
        assert main(["boi", str(manifest), "--kind", "effective", "--out", str(b)]) == 0
        for cell in cells:
            name = f"{cell['name']}_contrast.csv"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("cmin", ["0", "-1", "2.5"])
    def test_cmin_out_of_range_exits_2(self, tmp_path, capsys, cmin):
        manifest = write_cells(tmp_path)
        assert main(["boi", manifest, "--cmin", cmin, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: --cmin must lie in (0, 2], got {float(cmin)}\n"

    def test_state_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        manifest = write_cells(tmp_path, names=("split",))
        state = tmp_path / "split_off.s1p"
        state.unlink()
        state.mkdir()
        assert main(["boi", manifest, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {state}: Is a directory\n"

    @pytest.mark.parametrize("force", [False, True])
    def test_repeated_cell_name_exits_2_writing_nothing(self, tmp_path, capsys, force):
        # two cells of one name would write one contrast file twice
        manifest = rename_cells(write_cells(tmp_path), ["split", "split"])
        out = tmp_path / "out"
        argv = ["boi", manifest, "--out", str(out)] + ["--force"] * force
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: cells[1].name: 'split' is already the name of cells[0]\n")
        assert not out.exists()

    def test_cell_name_with_a_separator_exits_2(self, tmp_path, capsys):
        manifest = rename_cells(write_cells(tmp_path), ["sub/x", "weak"])
        out = tmp_path / "out"
        assert main(["boi", manifest, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {manifest}: cells[0].name: must be one "
                                           "plain file-name component, got 'sub/x'\n")
        assert not out.exists()

    def test_cell_name_cannot_climb_out_of_the_output_directory(self, tmp_path, capsys):
        manifest = rename_cells(write_cells(tmp_path), ["split", "../escaped"])
        out = tmp_path / "out"
        assert main(["boi", manifest, "--out", str(out)]) == 2
        assert "cells[1].name: must be one plain file-name component" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "escaped_contrast.csv").exists()

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        assert main(["boi", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
        assert "cell manifest" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        manifest = write_cells(tmp_path)
        out = tmp_path / "out"
        main(["boi", manifest, "--out", str(out)])
        first = {p.name: sha(p) for p in out.iterdir()}
        main(["boi", manifest, "--out", str(out), "--force"])
        assert {p.name: sha(p) for p in out.iterdir()} == first


class TestAoi:
    @pytest.mark.parametrize("scene,metric", [
        (scene, metric) for scene, runs in sorted(BUNDLED_AOI_DIGESTS.items())
        for metric in sorted(runs)])
    def test_bundled_scenes_match_pinned_digests(self, tmp_path, monkeypatch, capsys,
                                                 scene, metric):
        # manifest.json records the scene path as given, so run from the root
        monkeypatch.chdir(SCENES.parent)
        out = tmp_path / "out"
        want = BUNDLED_AOI_DIGESTS[scene][metric]
        code = main(["aoi", f"scenes/{scene}.json", "--metric", metric, "--out-dir", str(out)])
        if isinstance(want, int):
            assert code == want
            assert not out.exists()
        else:
            assert code == 0
            assert {p.name: sha(p) for p in out.iterdir()} == want
            rows = (out / f"{scene}_{metric}_labels.csv").read_text().splitlines()[1:]
            labels = [row.rsplit(",", 1)[1] for row in rows]
            desired = sum(label in ("enabled", "boosted") for label in labels)
            undesired = sum(label in ("degraded", "marginal") for label in labels)
            assert capsys.readouterr().out == (
                f"{len(labels)} cells: {desired} desired, {undesired} undesired; "
                f"wrote {len(want)} files to {out}\n")

    def test_gain_emits_nine_files(self, tmp_path):
        scene_path = write_scene(tmp_path, SCENE)
        out = tmp_path / "out"
        assert main(["aoi", scene_path, "--metric", "gain_db",
                     "--out-dir", str(out), "--jobs", "1"]) == 0
        expected = {
            f"scene_gain_db_{kind}.{ext}"
            for kind in ("without", "with", "delta", "labels")
            for ext in ("csv", "ppm")
        } | {"manifest.json"}
        assert {p.name for p in out.iterdir()} == expected

    def test_fields_match_library_sweep(self, tmp_path):
        scene_path = write_scene(tmp_path, SCENE)
        out = tmp_path / "out"
        main(["aoi", scene_path, "--metric", "gain_db", "--out-dir", str(out), "--jobs", "1"])
        scene = parse_scene(json.dumps(SCENE))
        xy = bits(scene.grid.points()[:, :2]).T
        for kind, values in zip(("without", "with"), sweep(scene, "gain_db")):
            x, y, value = csv_columns(out / f"scene_gain_db_{kind}.csv")
            np.testing.assert_array_equal([x, y], xy)
            np.testing.assert_array_equal(value, bits(values))

    def test_manifest_records_run(self, tmp_path):
        scene_path = write_scene(tmp_path, SCENE)
        out = tmp_path / "out"
        main(["aoi", scene_path, "--metric", "gain_db", "--out-dir", str(out), "--jobs", "1"])
        doc = load_manifest(out)
        assert doc["command"] == "aoi"
        assert doc["scene"] == scene_path
        assert doc["seed"] == 1
        assert doc["config"] == {"metric": "gain_db"}
        assert len(doc["outputs"]) == 8
        for entry in doc["outputs"]:
            assert entry["sha256"] == sha(out / entry["path"])

    def test_seed_flag_overrides_scene(self, tmp_path):
        scene_path = write_scene(tmp_path, SCENE)
        out = tmp_path / "out"
        main(["aoi", scene_path, "--metric", "gain_db", "--out-dir", str(out),
              "--seed", "7", "--jobs", "1"])
        assert load_manifest(out)["seed"] == 7

    def test_jobs_changes_no_output(self, tmp_path):
        # --jobs is validated, nothing else: every map runs in-process and
        # the manifest does not record it
        scene_path = write_scene(tmp_path, SCENE)
        files = {}
        for jobs in ("1", "2", None):
            out = tmp_path / str(jobs)
            argv = ["aoi", scene_path, "--metric", "peb_m", "--out-dir", str(out)]
            assert main(argv + (["--jobs", jobs] if jobs else [])) == 0
            files[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "manifest.json" in files["1"]
        assert files["1"] == files["2"] == files[None]

    def test_rerun_is_byte_identical(self, tmp_path):
        scene_path = write_scene(tmp_path, SCENE)
        out = tmp_path / "out"
        main(["aoi", scene_path, "--metric", "gain_db", "--out-dir", str(out), "--jobs", "1"])
        first = {p.name: sha(p) for p in out.iterdir()}
        assert main(["aoi", scene_path, "--metric", "gain_db",
                     "--out-dir", str(out), "--jobs", "1", "--force"]) == 0
        assert {p.name: sha(p) for p in out.iterdir()} == first

    def test_overwrite_needs_force(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path, SCENE)
        out = tmp_path / "out"
        main(["aoi", scene_path, "--metric", "gain_db", "--out-dir", str(out), "--jobs", "1"])
        capsys.readouterr()
        assert main(["aoi", scene_path, "--metric", "gain_db",
                     "--out-dir", str(out), "--jobs", "1"]) == 2
        assert "--force" in capsys.readouterr().err

    def test_unknown_metric_exits_2_listing_choices(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path, SCENE)
        with pytest.raises(SystemExit) as exc:
            main(["aoi", scene_path, "--metric", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "gain_db" in err

    def test_dark_surface_delta_is_zero(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path, DARK_SCENE, "dark.json")
        out = tmp_path / "out"
        assert main(["aoi", scene_path, "--metric", "gain_db",
                     "--out-dir", str(out), "--jobs", "1"]) == 0
        assert capsys.readouterr().err == (
            f"note: {out / 'dark_gain_db_delta.ppm'}: flat value range, rendering mid-scale\n")
        _, _, delta = csv_columns(out / "dark_gain_db_delta.csv")
        scene = parse_scene(json.dumps(DARK_SCENE))
        _, want = classify("gain_db", sweep(scene, "gain_db"), scene.thresholds)
        np.testing.assert_array_equal(delta, bits(want))
        np.testing.assert_array_equal(delta, bits(np.zeros(6)))
        labels = (out / "dark_gain_db_labels.csv").read_text().splitlines()[1:]
        assert all(line.endswith(",unchanged") for line in labels)

    @pytest.mark.parametrize("metric", ["gain_db", "peb_m", "sse_bps_hz"])
    def test_cell_on_base_station_exits_0(self, tmp_path, metric):
        # grid cell (1, 1, 1.5) coincides with base station 0
        doc = dict(SCENE, bs=[{"position_m": [1, 1, 1.5]}, {"position_m": [5, 0, 3]}],
                   eve={"position_m": [2, 4, 1.5]})
        scene_path = write_scene(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["aoi", scene_path, "--metric", metric,
                     "--out-dir", str(out), "--jobs", "1"]) == 0
        _, _, value = csv_columns(out / f"scene_{metric}_with.csv")
        _, with_ = sweep(parse_scene(json.dumps(doc)), metric)
        np.testing.assert_array_equal(value, bits(with_))
        assert math.isnan(with_[0]) == (metric != "gain_db")

    def test_sse_without_eve_exits_2(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path, SCENE)
        out = tmp_path / "o"
        assert main(["aoi", scene_path, "--metric", "sse_bps_hz",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: secrecy metrics need an eavesdropper in the scene\n")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exits_2_writing_nothing(self, tmp_path, capsys, jobs):
        scene_path = write_scene(tmp_path, SCENE)
        out = tmp_path / "out"
        assert main(["aoi", scene_path, "--metric", "gain_db",
                     "--out-dir", str(out), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    def test_grid_past_the_address_space_exits_3_writing_no_output(self, tmp_path, capsys):
        # 8 x 10^14 cell centres need 1.9 x 10^16 bytes, past the 128 TiB user
        # address space: the allocation fails at once
        doc = json.loads((SCENES / "minimal.json").read_text())
        doc["ue_grid"]["resolution_m"] = 1e-7
        out = tmp_path / "out"
        assert main(["aoi", write_scene(tmp_path, doc), "--metric", "gain_db",
                     "--out-dir", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: cannot allocate the centres of the 40000001 x 20000001 "
                                "grid (19200001440000024 bytes)\n")
        assert not out.exists()

    def test_grid_past_the_index_range_exits_3_writing_no_output(self, tmp_path, capsys):
        # 10^300 x 21 cell centres: numpy refuses the shape itself
        doc = json.loads((SCENES / "minimal.json").read_text())
        doc["ue_grid"].update(x_max=1e300, resolution_m=1)
        grid = parse_scene(json.dumps(doc)).grid
        out = tmp_path / "out"
        assert main(["aoi", write_scene(tmp_path, doc), "--metric", "gain_db",
                     "--out-dir", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot allocate the centres of the {grid.nx} x "
                                f"{grid.ny} grid ({24 * grid.cell_count} bytes)\n")
        assert not out.exists()

    @pytest.mark.parametrize("grid", [{"x_min": -1e308, "x_max": 1e308},
                                      {"x_max": 1e300, "resolution_m": 1e-300}])
    def test_grid_whose_cell_count_overflows_exits_2(self, tmp_path, capsys, grid):
        doc = json.loads((SCENES / "minimal.json").read_text())
        doc["ue_grid"].update(grid)
        out = tmp_path / "out"
        scene_path = write_scene(tmp_path, doc)
        assert main(["aoi", scene_path, "--metric", "gain_db", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {scene_path}: ue_grid.resolution_m: the x span "
                                "over the resolution overflows\n")
        assert not out.exists()

    def test_missing_scene_exits_2(self, tmp_path, capsys):
        assert main(["aoi", str(tmp_path / "gone.json"), "--metric", "gain_db"]) == 2
        assert "scene" in capsys.readouterr().err

    def test_malformed_scene_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["aoi", str(bad), "--metric", "gain_db"]) == 2
        assert capsys.readouterr().err.startswith("error:")


# sha256 of every file `coexist scenes/street_coexistence.json --switch-prob 0.5
# --ue 11,19` writes, run from the repository root; recorded with the per-slot
# simulator and trace writer, so they pin the bytes the codebook-indexed
# trace must keep.
STREET_COEXIST_DIGESTS = {
    ("--slots", "100000"): {
        "manifest.json": "0cd417b14826b50c1c569e09206cf3b9c388763445143302062c180100cc0fd4",
        "street_coexistence_coexist_summary.csv":
            "d8c8df99c2c9d7fb439516c47de769c95ee37991b14b682af9868fce3e03d554",
        "street_coexistence_coexist_trace.csv":
            "15439c861656cd81ac87e5692cf0fd6fd24a22480e9f13b35557ac77151c2e24",
    },
    ("--slots", "5000", "--csi-delay", "3"): {
        "manifest.json": "c599e7b6f2db80f79930464f70e0fcc6847c9b0441c13e2a5c0e13398be49891",
        "street_coexistence_coexist_summary.csv":
            "a0dac5defbbfb71003ad626be529886a0ecb2bbba0c4dc92bf900743bf431745",
        "street_coexistence_coexist_trace.csv":
            "94c2f47043aaaa25222639a9b3d236a2ad29eb365aaf6937f7c602dc91ae409d",
    },
}


class TestCoexist:
    @pytest.mark.parametrize("args", sorted(STREET_COEXIST_DIGESTS),
                             ids=["slots_100000", "slots_5000_csi_delay_3"])
    def test_bundled_street_matches_pinned_digests(self, tmp_path, monkeypatch, capsys, args):
        # manifest.json records the scene path as given, so run from the root
        monkeypatch.chdir(SCENES.parent)
        out = tmp_path / "out"
        assert main(["coexist", "scenes/street_coexistence.json", "--switch-prob", "0.5",
                     "--ue", "11,19", *args, "--out", str(out)]) == 0
        assert {p.name: sha(p) for p in out.iterdir()} == STREET_COEXIST_DIGESTS[args]

    def test_run_emits_trace_summary_manifest(self, tmp_path):
        scene_path = write_scene(tmp_path, COEX_SCENE)
        out = tmp_path / "out"
        assert main(["coexist", scene_path, "--switch-prob", "0.5", "--slots", "400",
                     "--ue", "11,19", "--out", str(out)]) == 0
        trace = (out / "scene_coexist_trace.csv").read_text().splitlines()
        assert trace[0] == "slot,snr_db,selected_rate,actual_capacity,error"
        assert len(trace) == 401
        summary = (out / "scene_coexist_summary.csv").read_text().splitlines()
        assert summary[0] == "slots,transmitting_slots,error_count,bler,ris_direct_ratio_db"
        slots, tx, errors, bler, ratio = summary[1].split(",")
        assert int(slots) == 400
        assert int(tx) == 399
        assert float(bler) == pytest.approx(int(errors) / int(tx))
        assert np.isfinite(float(ratio))
        doc = load_manifest(out)
        assert doc["command"] == "coexist"
        assert doc["config"]["slots"] == 400
        assert doc["config"]["ue"] == [11.0, 19.0, 1.5]
        for entry in doc["outputs"]:
            assert entry["sha256"] == sha(out / entry["path"])

    def test_trace_error_column_consistent_with_summary(self, tmp_path):
        scene_path = write_scene(tmp_path, COEX_SCENE)
        out = tmp_path / "out"
        main(["coexist", scene_path, "--switch-prob", "0.8", "--slots", "600",
              "--ue", "11,19,1.5", "--out", str(out)])
        trace = (out / "scene_coexist_trace.csv").read_text().splitlines()[1:]
        flagged = sum(line.endswith(",1") for line in trace)
        errors = int((out / "scene_coexist_summary.csv").read_text().splitlines()[1].split(",")[2])
        assert flagged == errors

    def test_static_surface_has_zero_bler(self, tmp_path):
        scene_path = write_scene(tmp_path, COEX_SCENE)
        out = tmp_path / "out"
        main(["coexist", scene_path, "--switch-prob", "0", "--slots", "500",
              "--ue", "11,19", "--out", str(out)])
        bler = float((out / "scene_coexist_summary.csv").read_text().splitlines()[1].split(",")[3])
        assert bler == 0.0

    def test_zero_slots_exits_2(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path, COEX_SCENE)
        assert main(["coexist", scene_path, "--switch-prob", "0.5", "--slots", "0",
                     "--ue", "11,19", "--out", str(tmp_path / "o")]) == 2
        assert "slots" in capsys.readouterr().err

    def test_delay_not_below_slots_exits_2_writing_nothing(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path, COEX_SCENE)
        out = tmp_path / "out"
        assert main(["coexist", scene_path, "--switch-prob", "0.5", "--slots", "10",
                     "--csi-delay", "100000", "--ue", "11,19", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: csi_delay_slots (100000) must be below slots (10), or no slot transmits\n")
        assert not out.exists()

    def test_slots_past_the_address_space_exit_3_writing_no_output(self, tmp_path, capsys):
        # 10^15 slots need 10^15 bytes of entries, past the 128 TiB user
        # address space: the allocation fails at once, before the trace file
        # is opened
        scene_path = write_scene(tmp_path, COEX_SCENE)
        out = tmp_path / "out"
        assert main(["coexist", scene_path, "--switch-prob", "0.5", "--slots", str(10**15),
                     "--ue", "11,19", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: cannot allocate the switching draws of "
                                "1000000000000000 slots (1000000000000000 bytes)\n")
        assert not out.exists()

    def test_ue_on_the_only_station_exits_3(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path, COEX_SCENE)
        out = tmp_path / "out"
        assert main(["coexist", scene_path, "--switch-prob", "0.5", "--slots", "10",
                     "--ue", "0,0,10", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: point coincides with the base station at (0.0, 0.0, 10.0)\n")

    def test_ue_on_a_surface_element_exits_3(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path, COEX_SCENE)
        element = surface_element_positions(parse_scene(json.dumps(COEX_SCENE)))[5].tolist()
        assert main(["coexist", scene_path, "--switch-prob", "0.5", "--slots", "10",
                     "--ue", ",".join(map(repr, element)), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"error: point {element} coincides with surface element 5\n")

    def test_ue_on_station_0_of_two_is_served_by_station_1(self, tmp_path, capsys):
        # station 0 drops out of the choice: the run is the one without it
        far = {"position_m": [30, 25, 8], "antenna_count": 2}
        runs = {}
        for name, stations in (("both", [COEX_SCENE["bs"][0], far]), ("far", [far])):
            scene_path = write_scene(tmp_path, dict(COEX_SCENE, bs=stations), f"{name}.json")
            out = tmp_path / name
            assert main(["coexist", scene_path, "--switch-prob", "0.5", "--slots", "300",
                         "--ue", "0,0,10", "--out", str(out)]) == 0
            runs[name] = [(out / f"{name}_coexist_{kind}.csv").read_bytes()
                          for kind in ("trace", "summary")]
        assert capsys.readouterr().err == ""
        assert runs["both"] == runs["far"]

    def test_bad_ue_exits_2(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path, COEX_SCENE)
        assert main(["coexist", scene_path, "--switch-prob", "0.5", "--slots", "10",
                     "--ue", "11", "--out", str(tmp_path / "o")]) == 2
        assert "--ue" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--ue", "nan,5", "--ue coordinates must be finite"),
        ("--ue", "inf,5", "--ue coordinates must be finite"),
        # finite, but the squared distance to every node overflows
        ("--ue", "1e200,5", "--ue '1e200,5' is too far out"),
        ("--ue", "5,-1e155,2", "--ue '5,-1e155,2' is too far out"),
        ("--margin-db", "nan", "snr_margin_db must be finite"),
        ("--gap-db", "nan", "mcs_gap_db must be finite"),
    ], ids=["ue-nan", "ue-inf", "ue-overflow", "ue-overflow-3d", "margin-nan", "gap-nan"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, flag, value, message):
        scene_path = write_scene(tmp_path, COEX_SCENE)
        out = tmp_path / "out"
        args = {"--ue": "11,19", flag: value}
        argv = ["coexist", scene_path, "--switch-prob", "0.5", "--slots", "10",
                "--out", str(out)] + [tok for item in args.items() for tok in item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        scene_path = write_scene(tmp_path, COEX_SCENE)
        out = tmp_path / "out"
        args = ["coexist", scene_path, "--switch-prob", "0.5", "--slots", "300",
                "--ue", "11,19", "--out", str(out)]
        main(args)
        first = {p.name: sha(p) for p in out.iterdir()}
        assert main(args + ["--force"]) == 0
        assert {p.name: sha(p) for p in out.iterdir()} == first

    def test_seed_changes_trace(self, tmp_path):
        scene_path = write_scene(tmp_path, COEX_SCENE)
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["coexist", scene_path, "--switch-prob", "0.5", "--slots", "300",
                "--ue", "11,19"]
        main(base + ["--out", str(a), "--seed", "1"])
        main(base + ["--out", str(b), "--seed", "2"])
        assert (a / "scene_coexist_trace.csv").read_text() != (b / "scene_coexist_trace.csv").read_text()


def seeded_run(tmp_path, command, source, seed):
    """argv and output directory of a small run whose seed comes from ``--seed`` or the scene."""
    doc = dict(SCENE if command == "aoi" else COEX_SCENE)
    if source == "scene":
        doc["seed"] = seed
    out = tmp_path / "out"
    argv = [command, write_scene(tmp_path, doc)]
    if command == "aoi":
        argv += ["--metric", "gain_db", "--jobs", "1", "--out-dir", str(out)]
    else:
        argv += ["--switch-prob", "0.5", "--slots", "10", "--ue", "11,19", "--out", str(out)]
    if source == "flag":
        argv.append(f"--seed={seed}")
    return argv, out


@pytest.mark.parametrize("command", ["aoi", "coexist"])
@pytest.mark.parametrize("source", ["flag", "scene"])
@pytest.mark.parametrize("seed", [-1, 2**64], ids=["minus-one", "two-to-the-64"])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, command, source, seed):
    # streams take the seed as one 64-bit word, so -1 would alias 2**64 - 1
    # and 2**64 would alias 0
    argv, out = seeded_run(tmp_path, command, source, seed)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed: must lie in [0, 2**64)" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["aoi", "coexist"])
@pytest.mark.parametrize("source", ["flag", "scene"])
def test_largest_seed_is_accepted(tmp_path, command, source):
    argv, out = seeded_run(tmp_path, command, source, 2**64 - 1)
    assert main(argv) == 0
    assert load_manifest(out)["seed"] == 2**64 - 1


def small_run(tmp_path, command, out):
    """argv of a small run of ``command`` that writes to ``out``."""
    if command == "boi":
        return ["boi", write_cells(tmp_path, names=("split",)), "--out", str(out)]
    if command == "aoi":
        return ["aoi", write_scene(tmp_path, SCENE), "--metric", "gain_db", "--jobs", "1",
                "--out-dir", str(out)]
    return ["coexist", write_scene(tmp_path, COEX_SCENE), "--switch-prob", "0.5",
            "--slots", "10", "--ue", "11,19", "--out", str(out)]


@pytest.mark.parametrize("command", ["boi", "aoi", "coexist"])
@pytest.mark.parametrize("fault", ["out_is_a_file", "out_under_a_file", "output_is_a_directory"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command, fault):
    # a bad output path is an input problem: one error line, never a traceback
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    if fault == "out_is_a_file":
        out, message = blocker, f"cannot create output directory {blocker}: File exists"
    elif fault == "out_under_a_file":
        out = blocker / "out"
        message = f"cannot create output directory {out}: Not a directory"
    else:
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        message = f"{out / 'manifest.json'} is a directory"
    assert main(small_run(tmp_path, command, out) + ["--force"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["boi", "aoi", "coexist"])
def test_output_name_past_the_name_limit_exits_2(tmp_path, capsys, command):
    # the input names are legal, but the output names built from them run
    # past the 255 bytes one path component may hold
    long = "s" * 245
    out = tmp_path / "out"
    if command == "boi":
        argv = ["boi", rename_cells(write_cells(tmp_path), [long, "weak"]), "--out", str(out)]
        name = f"{long}_contrast.csv"
    elif command == "aoi":
        argv = ["aoi", write_scene(tmp_path, SCENE, f"{long}.json"), "--metric", "gain_db",
                "--out-dir", str(out)]
        name = f"{long}_gain_db_without.csv"
    else:
        argv = ["coexist", write_scene(tmp_path, COEX_SCENE, f"{long}.json"),
                "--switch-prob", "0.5", "--slots", "10", "--ue", "11,19", "--out", str(out)]
        name = f"{long}_coexist_trace.csv"
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {out / name}: File name too long\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_no_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


AOI_LAYERS = {"influence", "linkmetrics", "localization", "secrecy", "beamforming"}
BOI_LAYERS = {"touchstone", "unitcell"}


@pytest.mark.parametrize(
    "argv,needed,unneeded",
    [
        ([], set(), AOI_LAYERS | BOI_LAYERS | {"coexistence"}),
        (["boi", str(SCENES / "cells.json")], BOI_LAYERS, AOI_LAYERS | {"coexistence"}),
        (["aoi", str(SCENES / "minimal.json"), "--metric", "gain_db"],
         {"influence"}, BOI_LAYERS | {"coexistence"}),
        (["coexist", str(SCENES / "street_coexistence.json"), "--switch-prob", "0.3",
          "--slots", "200", "--ue", "11,19"],
         {"coexistence"}, BOI_LAYERS | {"influence", "localization", "secrecy"}),
    ],
    ids=["import", "boi", "aoi", "coexist"],
)
def test_each_command_loads_only_its_own_layers(tmp_path, argv, needed, unneeded):
    # a one-shot process pays to compile and import every module it loads;
    # numpy comes with a command's numeric layer, never with the CLI itself
    if argv:
        argv = [*argv, "--out-dir" if argv[0] == "aoi" else "--out", str(tmp_path / "out")]
    loaded, numpy_loaded, code, _ = loaded_modules(*argv)
    assert code == 0
    assert needed <= loaded
    assert not loaded & unneeded
    assert numpy_loaded == bool(argv)


# every layer module that imports numpy
NUMERIC_LAYERS = AOI_LAYERS | {"unitcell", "coexistence", "propagation", "kernels", "seeding"}


@pytest.mark.parametrize(
    "argv,exit_code",
    [
        (["--version"], 0),
        (["--help"], 0),
        (["aoi", "{bad_scene}", "--metric", "gain_db"], 2),
        (["aoi", str(SCENES / "minimal.json"), "--metric", "gain_db", "--jobs", "0"], 2),
        (["aoi", "{bare_scene}", "--metric", "gain_db"], 2),
        (["aoi", str(SCENES / "minimal.json"), "--metric", "sse_bps_hz"], 2),
        (["coexist", "{bad_scene}", "--switch-prob", "0.3", "--slots", "10", "--ue", "1,1"], 2),
        (["coexist", "{bare_scene}", "--switch-prob", "0.3", "--slots", "10", "--ue", "1,1"], 2),
        *[(["coexist", str(SCENES / "street_coexistence.json"), "--switch-prob", "0.3",
            "--slots", "10", "--ue", "1,1", flag, value], 2)
          for flag, value in (("--slots", "0"), ("--switch-prob", "2"), ("--csi-delay", "0"),
                              ("--gap-db", "-1"), ("--margin-db", "nan"))],
        (["boi", "{bad_manifest}"], 2),
        (["boi", "{string_flag_manifest}"], 2),
        (["boi", str(SCENES / "cells.json"), "--cmin", "3"], 2),
    ],
    ids=["version", "help", "aoi_scene_error", "aoi_jobs_error", "aoi_no_surface",
         "aoi_sse_no_eavesdropper",
         "coexist_scene_error", "coexist_no_surface", "coexist_slots_error",
         "coexist_switch_prob_error", "coexist_csi_delay_error", "coexist_gap_error",
         "coexist_margin_error", "boi_manifest_error", "boi_string_flag_error",
         "boi_cmin_error"],
)
def test_input_paths_leave_numpy_unloaded(tmp_path, argv, exit_code):
    # start-up and every input check ahead of a computation run before any
    # numeric layer, so they never pay for numpy's import
    bad_scene = write_scene(tmp_path, scene_without(SCENE, "carrier_hz"))
    # every scene names its surface: without one no command has a question to answer
    bare_scene = write_scene(tmp_path, scene_without(SCENE, "ris"), "bare.json")
    bad_manifest = tmp_path / "cells.json"
    bad_manifest.write_text(json.dumps({"cells": [{"name": "../x", "states": {"on": "x"}}]}))
    # the bundled cells, whole, but with the flag as a string that reads true
    # to bool(): only the flag check can stop this run
    string_flag_manifest = tmp_path / "string_flag.json"
    doc = json.loads((SCENES / "cells.json").read_text())
    for cell in doc["cells"]:
        cell["states"] = {sid: str(SCENES / rel) for sid, rel in cell["states"].items()}
        cell["use_effective_s11"] = "false"
    string_flag_manifest.write_text(json.dumps(doc))
    bare = "{bare_scene}" in argv
    argv = [a.format(bad_scene=bad_scene, bare_scene=bare_scene, bad_manifest=bad_manifest,
                     string_flag_manifest=string_flag_manifest) for a in argv]
    if argv[0] in ("aoi", "boi", "coexist"):
        argv += ["--out-dir" if argv[0] == "aoi" else "--out", str(tmp_path / "out")]
    loaded, numpy_loaded, code, stderr = loaded_modules(*argv)
    assert code == exit_code
    if exit_code == 2:
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
    if bare:
        assert stderr == f"error: {bare_scene}: ris: missing required key\n"
    assert not numpy_loaded
    assert not loaded & NUMERIC_LAYERS
    assert not (tmp_path / "out").exists()


def test_bundled_inputs_parse_without_numpy():
    # the set-up path of every command: the CLI, each bundled scene and the
    # bundled cell manifest
    scenes = sorted(str(p) for p in SCENES.glob("*.json") if p.name != "cells.json")
    code = (
        "import json, sys, risplan.cli\n"
        "from risplan.scene import load_scene\n"
        "from risplan.touchstone import load_cell_manifest\n"
        "scenes = [load_scene(path) for path in sys.argv[2:]]\n"
        "cells = load_cell_manifest(sys.argv[1])\n"
        "print(json.dumps([len(scenes), len(cells), 'numpy' in sys.modules]))\n"
    )
    done = fresh_interpreter("-c", code, str(SCENES / "cells.json"), *scenes)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [5, 2, False]


# every module a command may load, as the commands import them
EVERY_LAYER = "risplan.cli, risplan.coexistence, risplan.influence, risplan.unitcell"


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; importing the CLI must not load it
    code = (f"import sys, {EVERY_LAYER}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = fresh_interpreter("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_starts_no_process_machinery():
    # every map runs in-process; the CLI must not pay for a worker pool
    code = (f"import sys, {EVERY_LAYER}; print(sorted(m for m in sys.modules "
            "if m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'))")
    done = fresh_interpreter("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_aoi_stderr_names_no_source_file(tmp_path):
    # notes about flat images are plain lines, never a warning that quotes
    # the installed source path and a line number
    scene_path = write_scene(tmp_path, DARK_SCENE, "dark.json")
    out = tmp_path / "out"
    done = fresh_interpreter("-m", "risplan.cli", "aoi", scene_path, "--metric", "peb_m",
                             "--out-dir", str(out))
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    assert lines and all(line.startswith("note: ") for line in lines)
    assert ".py:" not in done.stderr


@pytest.mark.parametrize("exc", [ValueError("cancelled"), np.linalg.LinAlgError("singular")])
def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch, exc):
    def failing_sweep(*args, **kwargs):
        raise exc

    monkeypatch.setattr("risplan.influence.sweep", failing_sweep)
    scene_path = write_scene(tmp_path, SCENE)
    assert main(["aoi", scene_path, "--metric", "peb_m", "--out-dir", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"error: {exc}\n"


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 3.64 TiB for an array with shape (2000000, 2000000) "
                 "and data type bool"),
     "error: out of memory: Unable to allocate 3.64 TiB for an array with shape "
     "(2000000, 2000000) and data type bool\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_allocation_failure_exits_3(tmp_path, capsys, monkeypatch, exc, line):
    def failing_sweep(*args, **kwargs):
        raise exc

    monkeypatch.setattr("risplan.influence.sweep", failing_sweep)
    scene_path = write_scene(tmp_path, SCENE)
    assert main(["aoi", scene_path, "--metric", "gain_db", "--out-dir", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == line
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["office_energy", "street_coexistence"])
def test_one_level_lookup_peb_writes_maps(tmp_path, name):
    # with a single phase level every pilot repeats one configuration; the
    # projection EFIM stays positive semidefinite, so every cell has a
    # reading (finite, or infinite where the position is unidentifiable)
    doc = json.loads((SCENES / f"{name}.json").read_text())
    doc["ris"]["phase_lookup_rad"] = [0.0]
    scene_path = write_scene(tmp_path, doc, f"{name}.json")
    out = tmp_path / "out"
    assert main(["aoi", scene_path, "--metric", "peb_m", "--out-dir", str(out)]) == 0
    fields = {}
    for kind in ("without", "with"):
        rows = np.loadtxt(out / f"{name}_peb_m_{kind}.csv", delimiter=",", skiprows=1)
        fields[kind] = rows[:, 2]
    assert len(fields["with"]) == parse_scene(json.dumps(doc)).grid.cell_count
    assert not np.isnan(fields["without"]).any() and not np.isnan(fields["with"]).any()
    assert np.isfinite(fields["with"]).any()
    finite = np.isfinite(fields["without"])
    assert np.all(fields["with"][finite] <= fields["without"][finite] * (1 + 1e-12))


@pytest.mark.parametrize("name", ["office_energy", "street_coexistence"])
def test_one_level_lookup_peb_has_no_traceback(tmp_path, name):
    # with a single phase level the Schur-complement EFIM cancels; the run
    # must end in maps or in one error line, never in a traceback
    doc = json.loads((SCENES / f"{name}.json").read_text())
    doc["ris"]["phase_lookup_rad"] = [0.0]
    scene_path = write_scene(tmp_path, doc, f"{name}.json")
    done = fresh_interpreter("-m", "risplan.cli", "aoi", scene_path, "--metric", "peb_m",
                             "--jobs", "1", "--out-dir", str(tmp_path / "out"))
    assert done.returncode in (0, 3)
    assert "Traceback" not in done.stderr
    if done.returncode == 3:
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
