"""End-to-end runs of the console entry point against temp scenes."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import risplan
from risplan import __version__
from risplan.cli import main
from risplan.influence import classify, sweep
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


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


# sha256 of every file `boi scenes/cells.json` writes, run from the repository
# root; both kinds were recorded with the line-by-line Touchstone reader, so
# they pin the bytes the array reader and the column-wise normalized table
# must keep.
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
}


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

    def test_cmin_out_of_range_exits_2(self, tmp_path, capsys):
        manifest = write_cells(tmp_path)
        assert main(["boi", manifest, "--cmin", "2.5", "--out", str(tmp_path / "o")]) == 2
        assert "cmin" in capsys.readouterr().err

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
        without, with_ = sweep(scene, "gain_db")
        xy = bits(scene.grid.points()[:, :2]).T
        for field in (without, with_):
            x, y, value = csv_columns(out / f"scene_gain_db_{field.kind}.csv")
            np.testing.assert_array_equal([x, y], xy)
            np.testing.assert_array_equal(value, bits(field.values))

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

    def test_no_surface_delta_is_zero(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path, scene_without(SCENE, "ris"), "bare.json")
        out = tmp_path / "out"
        assert main(["aoi", scene_path, "--metric", "gain_db",
                     "--out-dir", str(out), "--jobs", "1"]) == 0
        assert capsys.readouterr().err == (
            f"note: {out / 'bare_gain_db_delta.ppm'}: flat value range, rendering mid-scale\n")
        _, _, delta = csv_columns(out / "bare_gain_db_delta.csv")
        scene = parse_scene(json.dumps(scene_without(SCENE, "ris")))
        imap = classify(*sweep(scene, "gain_db"), scene.thresholds)
        np.testing.assert_array_equal(delta, bits(imap.delta))
        np.testing.assert_array_equal(delta, bits(np.zeros(6)))
        labels = (out / "bare_gain_db_labels.csv").read_text().splitlines()[1:]
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
        np.testing.assert_array_equal(value, bits(with_.values))
        assert math.isnan(with_.values[0]) == (metric != "gain_db")

    def test_sse_without_eve_exits_3(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path, SCENE)
        assert main(["aoi", scene_path, "--metric", "sse_bps_hz",
                     "--out-dir", str(tmp_path / "o")]) == 3
        assert "eavesdropper" in capsys.readouterr().err

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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_no_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def fresh_interpreter(*args):
    """Run ``python *args`` in a new process that imports this checkout of risplan."""
    src = str(pathlib.Path(risplan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_leaves_scipy_unloaded():
    # scipy serves only a test oracle; a fresh interpreter must not pay for it
    code = "import sys, risplan.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = fresh_interpreter("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_starts_no_process_machinery():
    # every map runs in-process; the CLI must not pay for a worker pool
    code = ("import sys, risplan.cli; print(sorted(m for m in sys.modules "
            "if m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'))")
    done = fresh_interpreter("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_aoi_stderr_names_no_source_file(tmp_path):
    # notes about flat images are plain lines, never a warning that quotes
    # the installed source path and a line number
    scene_path = write_scene(tmp_path, scene_without(SCENE, "ris"), "bare.json")
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

    monkeypatch.setattr("risplan.cli.sweep", failing_sweep)
    scene_path = write_scene(tmp_path, SCENE)
    assert main(["aoi", scene_path, "--metric", "peb_m", "--out-dir", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"error: {exc}\n"


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
