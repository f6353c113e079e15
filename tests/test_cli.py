"""End-to-end command-line tests: dataset generation, fitting, evaluation,
the ablation table, and the determinism/exit-status contract."""
import contextlib
import hashlib
import io
import random
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vehicle3d.cli
import vehicle3d.metrics
import vehicle3d.scene_io
from vehicle3d.cli import main, render_table
from vehicle3d.geometry import BoxStack, wrap_pi
from vehicle3d.metrics import alp
from vehicle3d.refine import initialize, refine, refine_ablation, refine_ladder
from vehicle3d.scene_io import (
    CAR_MODEL,
    STANDARD_NOISE,
    SceneParams,
    emit_labels,
    format_config,
    generate_scene,
    label_to_pose,
    parse_config_text,
    parse_labels,
    parse_measurements,
    pose_to_label,
)
from vehicle3d.shape import MorphableModel, format_model, load_model

from tests.test_scene_io import _mutations


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def tree_bytes(root, skip=()):
    """Relative path -> file bytes for every file under root."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip:
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    code = run_cli("synth", "--out", root, "--seed", 7, "--frames", 4, "--instances", 2)
    assert code == 0
    return root


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_layout_and_manifest(dataset):
    labels = sorted((dataset / "labels").glob("*.txt"))
    meas = sorted((dataset / "meas").glob("*.cfg"))
    assert [p.stem for p in labels] == [f"{i:06d}" for i in range(4)]
    assert [p.stem for p in meas] == [f"{i:06d}" for i in range(4)]
    manifest = parse_config_text((dataset / "manifest.cfg").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == "7"
    assert manifest["frames"] == "4"
    # every label file parses and carries the requested cardinality
    for path in labels:
        assert len(parse_labels(path.read_text())) == 2


def test_synth_reruns_byte_identical(dataset, tmp_path):
    again = tmp_path / "again"
    assert run_cli("synth", "--out", again, "--seed", 7, "--frames", 4, "--instances", 2) == 0
    assert tree_bytes(again) == tree_bytes(dataset)
    other = tmp_path / "other"
    assert run_cli("synth", "--out", other, "--seed", 8, "--frames", 4, "--instances", 2) == 0
    assert tree_bytes(other) != tree_bytes(dataset)


def test_the_seed_7_dataset_keeps_its_bytes(tmp_path):
    """sha256 over the relative path, size and bytes of each file under
    labels/ and meas/ of `synth --seed 7`, in sorted order: a change to the
    default dataset shows here and is re-pinned on purpose."""
    out = tmp_path / "data"
    assert run_cli("synth", "--seed", 7, "--out", out) == 0
    digest = hashlib.sha256()
    for path in sorted(p for top in ("labels", "meas") for p in (out / top).rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    assert digest.hexdigest() == "9a4b8e15072a714c78b3077bc9f4821dc236d5530cb9b7201ec6cea3a354de7a"


def test_a_short_frame_is_a_named_error(tmp_path, monkeypatch, capsys):
    """A frame that cannot place every requested instance in view within
    its retry budget stops synth before it writes, instead of writing a
    frame with fewer instances than the manifest states."""
    sample, kept = vehicle3d.scene_io._sample_pose, []

    def two_in_view(params, rng):
        instance = sample(params, rng)
        if instance is None or len(kept) == 2:
            return None
        kept.append(instance)
        return instance

    monkeypatch.setattr(vehicle3d.scene_io, "_sample_pose", two_in_view)
    out = tmp_path / "out"
    assert run_cli("synth", "--seed", 7, "--instances", 5, "--out", out) == 1
    assert capsys.readouterr().err == "error: frame 0: 2 of 5 instances in view after 1000 draws\n"
    assert not out.exists()


def test_synth_requires_seed(tmp_path, capsys):
    assert run_cli("synth", "--out", tmp_path / "x") == 1
    assert "--seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_v1_is_the_initialization(dataset, tmp_path):
    out = tmp_path / "v1"
    assert run_cli("fit", "--data", dataset, "--out", out, "--variant", "v1") == 0
    for meas_path in sorted((dataset / "meas").glob("*.cfg")):
        _, _, measurements = parse_measurements(meas_path.read_text())
        records = parse_labels((out / "labels" / (meas_path.stem + ".txt")).read_text())
        assert len(records) == len(measurements)
        # predictions sort by score; v1 scores are uniform so file order holds
        for meas, rec in zip(measurements, records):
            start = initialize(meas, CAR_MODEL)
            np.testing.assert_allclose(rec.location[2], start.T[2], rtol=1e-6)
            assert wrap_pi(rec.rotation_y - start.theta) == pytest.approx(0, abs=1e-6)
            assert rec.score == pytest.approx(1.0)


def test_fit_byte_identical_across_jobs_and_reruns(dataset, tmp_path):
    serial = tmp_path / "serial"
    fork = tmp_path / "fork"
    rerun = tmp_path / "rerun"
    assert run_cli("fit", "--data", dataset, "--out", serial, "--jobs", 1) == 0
    assert run_cli("fit", "--data", dataset, "--out", fork, "--jobs", 3) == 0
    assert run_cli("fit", "--data", dataset, "--out", rerun, "--jobs", 1) == 0
    # manifests record the jobs setting, so compare everything else
    assert tree_bytes(serial, skip=("manifest.cfg",)) == tree_bytes(fork, skip=("manifest.cfg",))
    assert tree_bytes(serial) == tree_bytes(rerun)


def test_jobs_split_a_small_dataset_across_workers(tmp_path, monkeypatch):
    # 250 instances fit in one task of _FIT_BLOCK; two workers get 125 each
    data = tmp_path / "data"
    assert run_cli("synth", "--out", data, "--seed", 7) == 0
    sizes, pools = [], []
    parallel_map = vehicle3d.cli._parallel_map

    def recorded(fn, tasks, jobs):
        pools.append(jobs)

        def handed_out():
            for task in tasks:
                sizes.append(len(task[0]))
                yield task
        return parallel_map(fn, handed_out(), jobs)

    monkeypatch.setattr(vehicle3d.cli, "_parallel_map", recorded)
    assert run_cli("fit", "--data", data, "--out", tmp_path / "jobs2", "--jobs", 2) == 0
    assert sizes == [125, 125] and pools == [2]
    # 2 instances make 2 tasks of one, so --jobs 4 starts a pool of 2
    small = tmp_path / "small"
    assert run_cli("synth", "--out", small, "--seed", 7, "--frames", 1, "--instances", 2) == 0
    sizes.clear()
    pools.clear()
    assert run_cli("fit", "--data", small, "--out", tmp_path / "small_fit", "--jobs", 4) == 0
    assert sizes == [1, 1] and pools == [2]
    monkeypatch.undo()
    assert run_cli("fit", "--data", data, "--out", tmp_path / "jobs1", "--jobs", 1) == 0
    assert (tree_bytes(tmp_path / "jobs2", skip=("manifest.cfg",))
            == tree_bytes(tmp_path / "jobs1", skip=("manifest.cfg",)))


def test_fit_diagnostics_parse(dataset, tmp_path):
    out = tmp_path / "diag"
    assert run_cli("fit", "--data", dataset, "--out", out, "--variant", "v2") == 0
    diag = parse_config_text((out / "diag" / "000000.cfg").read_text())
    assert diag["variant"] == "v2"
    assert diag["failures"] == "0"
    assert diag["i0.converged"] in ("true", "false")
    assert int(diag["i0.iterations"]) >= 1
    float(diag["i0.energy"])  # parses


def test_fit_failures_stay_with_their_instance(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", data, "--seed", 7, "--frames", 3, "--instances", 3) == 0
    path = data / "meas" / "000001.cfg"
    mapping = parse_config_text(path.read_text())
    # i0: extents of e^1000 m, finite in the file but overflowing the box term
    mapping["i0.sigma0"] = "1000 1000 1000"
    # i1: no depth, and a box center above the horizon, so its ray meets the
    # ground behind the camera
    del mapping["i1.depth"]
    mapping["i1.box"] = "500.0 60.0 560.0 100.0"
    path.write_text(format_config(mapping))
    # frame 2's i0: one extent of e^800 m, whose corners overflow to an
    # infinite depth: non-finite, not behind the camera; its i1: a finite,
    # absurd box whose finite residuals square to an infinite energy
    path2 = data / "meas" / "000002.cfg"
    path2.write_text(format_config({**parse_config_text(path2.read_text()),
                                    "i0.sigma0": "800 0.6 0.4",
                                    "i1.box": "460 166 594 1e300"}))
    # a trailing frame without instances
    empty = {key: mapping[key] for key in ("camera", "ground")}
    (data / "meas" / "000003.cfg").write_text(format_config({**empty, "instances": "0"}))

    out = tmp_path / "fit"
    assert run_cli("fit", "--data", data, "--out", out) == 1
    assert (out / "labels" / "000003.txt").read_text() == ""
    assert parse_config_text((out / "diag" / "000003.cfg").read_text())["failures"] == "0"
    diag = parse_config_text((out / "diag" / "000001.cfg").read_text())
    assert diag["failures"] == "2"
    assert "non-finite" in diag["i0.error"]
    assert "behind the camera" in diag["i1.error"]
    assert "i2.error" not in diag
    diag2 = parse_config_text((out / "diag" / "000002.cfg").read_text())
    assert diag2["failures"] == "2" and "non-finite" in diag2["i0.error"]
    assert "energy overflows" in diag2["i1.error"] and "i1.energy" not in diag2
    # a run that exits 1 for per-instance failures still echoes its options
    assert parse_config_text((out / "manifest.cfg").read_text())["command"] == "fit"
    for meas_path in sorted((data / "meas").glob("*.cfg")):
        cam, _, measurements = parse_measurements(meas_path.read_text())
        expected = []
        for i, meas in enumerate(measurements):
            if (meas_path.stem, i) in (("000001", 0), ("000001", 1), ("000002", 0),
                                       ("000002", 1)):
                continue
            solo = refine_ablation(meas, CAR_MODEL, "v4")
            expected.append(pose_to_label(solo.vars.pose(), cam,
                                          score=1.0 / (1.0 + solo.final_energy)))
        labels = (out / "labels" / (meas_path.stem + ".txt")).read_text()
        assert labels == emit_labels(expected)

    # blocks that straddle frames, serial or in a worker pool, write the same
    # files; 9 instances make three blocks, and the empty frame takes none
    monkeypatch.setattr(vehicle3d.cli, "_FIT_BLOCK", 3)
    for jobs in (1, 2):
        small = tmp_path / f"blocks_of_3_jobs_{jobs}"
        assert run_cli("fit", "--data", data, "--out", small, "--jobs", jobs) == 1
        assert tree_bytes(small, skip=("manifest.cfg",)) == tree_bytes(out, skip=("manifest.cfg",))


def test_an_unwrapped_yaw_does_not_stop_its_solve(tmp_path):
    """The relative step test measures the yaw wrapped into [0, 2 pi), so a
    yaw hypothesis of 1e300 rad does not make the first step look small."""
    data = tmp_path / "data"
    assert run_cli("synth", "--out", data, "--seed", 7, "--frames", 1) == 0
    path = data / "meas" / "000000.cfg"
    path.write_text(format_config({**parse_config_text(path.read_text()), "i0.theta0": "1e300"}))
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", data, "--out", out) == 0
    diag = parse_config_text((out / "diag" / "000000.cfg").read_text())
    assert (diag["i0.converged"], diag["i0.reason"], diag["i0.iterations"]) == (
        "false", "max_iterations", "50")


@pytest.mark.parametrize("key, value, code", [
    ("i0.box", "460 166 594 1e308", 1),  # residuals that overflow their squares
    ("i0.theta0", "1e300", 0),  # a start whose step norm overflows
], ids=["box_overflow", "yaw_overflow"])
def test_fit_overflow_warns_nothing(tmp_path, key, value, code):
    data = tmp_path / "data"
    assert run_cli("synth", "--out", data, "--seed", 7, "--frames", 1, "--instances", 2) == 0
    path = data / "meas" / "000000.cfg"
    path.write_text(format_config({**parse_config_text(path.read_text()), key: value}))
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        assert run_cli("fit", "--data", data, "--out", tmp_path / "fit") == code
    assert stderr.getvalue() == ""
    diag = parse_config_text((tmp_path / "fit" / "diag" / "000000.cfg").read_text())
    assert ("non-finite" in diag["i0.error"]) if code else ("i0.error" not in diag)


@pytest.mark.parametrize("key, index, value", [
    ("camera", 0, "1e308"), ("camera", 3, "1e308"), ("camera", 3, "-1e308"),
    ("i0.box", 0, "-1e308"), ("i0.box", 1, "-1e308"), ("i0.box", 2, "1e308"),
    ("i0.box", 3, "1e308"), ("i0.depth", 0, "1e308"),
    *(("i0.sigma0", j, v) for j in range(3) for v in ("1e20", "1e308")),
    ("ground", None, "1e308 0 0"), ("ground", None, "1e-200 0 0"),
    ("ground", None, "0 1e-200 0"), ("ground", None, "0 5e-324 0"),
], ids=lambda v: "all" if v is None else str(v))
@pytest.mark.parametrize("command", ["fit", "ablate"])
def test_extreme_finite_measurements_warn_nothing(tmp_path, command, key, index, value):
    """A finite but extreme value in a measurement file is an accepted
    input: the run ends with exit 0 or 1, every instance of every rung
    written has a label or an error, and nothing reaches stderr."""
    data = tmp_path / "data"
    assert run_cli("synth", "--out", data, "--seed", 7, "--frames", 1, "--instances", 2) == 0
    path = data / "meas" / "000000.cfg"
    mapping = parse_config_text(path.read_text())
    tokens = mapping[key].split()
    tokens[slice(None) if index is None else slice(index, index + 1)] = value.split()
    path.write_text(format_config({**mapping, key: " ".join(tokens)}))
    out, stderr = tmp_path / "out", io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        assert run_cli(command, "--data", data, "--out", out) in (0, 1)
    assert stderr.getvalue() == ""
    rungs = [out] if command == "fit" else [out / f"fit_{v}" for v in ("v1", "v2", "v3", "v4")]
    for rung in rungs:
        labels = parse_labels((rung / "labels" / "000000.txt").read_text())
        diag = parse_config_text((rung / "diag" / "000000.cfg").read_text())
        errors = [i for i in (0, 1) if f"i{i}.error" in diag]
        assert len(labels) + len(errors) == 2 and diag["failures"] == str(len(errors))


@pytest.mark.parametrize("pose, error", [
    ({"T": [0.0, 1.65, -5.0]}, "refined box projects behind the camera"),
    # extents that underflow to 0 project every corner to one pixel
    ({"sigma": [-800.0] * 3}, "refined box has no valid image box: "
                              "degenerate 2D box: need right > left and bottom > top"),
], ids=["behind_camera", "no_image_box"])
def test_a_solved_box_without_a_label_is_a_failure(dataset, tmp_path, monkeypatch, pose, error):
    solve = vehicle3d.cli.refine_ladder

    def ladder(*args):  # every rung of frame 0's instance 0 solves to `pose`
        rungs = solve(*args)
        for variant, solved in rungs.items():
            x = solved.x.copy()
            for name, value in pose.items():
                x[0, {"T": slice(1, 4), "sigma": slice(4, 7)}[name]] = value
            rungs[variant] = replace(solved, x=x)
        return rungs

    plain, out = tmp_path / "plain", tmp_path / "patched"
    assert run_cli("fit", "--data", dataset, "--out", plain) == 0
    monkeypatch.setattr(vehicle3d.cli, "refine_ladder", ladder)
    assert run_cli("fit", "--data", dataset, "--out", out) == 1
    diag = parse_config_text((out / "diag" / "000000.cfg").read_text())
    assert diag["i0.error"] == error
    assert not any(key.startswith("i0.") and key != "i0.error" for key in diag)
    assert diag["failures"] == "1"
    # its label line is the one line missing from the frame's label file
    cam, _, measurements = parse_measurements((dataset / "meas" / "000000.cfg").read_text())
    solo = refine_ablation(measurements[0], CAR_MODEL, "v4")
    lost = emit_labels([pose_to_label(solo.vars.pose(), cam, score=1.0 / (1.0 + solo.final_energy))])
    lines = (plain / "labels" / "000000.txt").read_text().splitlines(keepends=True)
    assert lost in lines
    assert (out / "labels" / "000000.txt").read_text() == "".join(
        line for line in lines if line != lost)
    skip = ("manifest.cfg", "000000.txt", "000000.cfg")
    assert tree_bytes(out, skip=skip) == tree_bytes(plain, skip=skip)


def test_an_instance_without_a_depth_has_no_depth_energy(tmp_path):
    """fit writes every term of the rung for each instance, as refine's
    breakdown reads it: energy_md is 0.0 for the one without a depth."""
    data, out = tmp_path / "data", tmp_path / "fit"
    assert run_cli("synth", "--out", data, "--seed", 7, "--frames", 1) == 0
    path = data / "meas" / "000000.cfg"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("i2.depth ")))
    assert run_cli("fit", "--data", data, "--out", out) == 0
    diag = parse_config_text((out / "diag" / "000000.cfg").read_text())
    _, _, block = parse_measurements(path.read_text())
    assert block.has_depth.tolist() == [True, True, False, True, True]
    for i, meas in enumerate(block):
        breakdown = refine(meas, CAR_MODEL).breakdown
        assert list(breakdown) == ["2d3d", "lp", "md", "gp", "s"]
        assert {key: diag[f"i{i}.energy_{key}"] for key in breakdown} == {
            key: repr(value) for key, value in breakdown.items()}
    assert diag["i2.energy_md"] == "0.0"


def _nan_visible_landmark(mapping):
    visible = mapping["i0.visible"].split()
    landmarks = mapping["i0.landmarks"].split()
    landmarks[2 * visible.index("1")] = "nan"
    mapping["i0.landmarks"] = " ".join(landmarks)


@pytest.mark.parametrize("edit, key", [
    (lambda mapping: mapping.pop("i0.theta0"), "i0.theta0"),
    (lambda mapping: mapping.update(camera="1 2 3"), "camera"),
    (lambda mapping: mapping.update({"i1.sigma0": "0.1 0.2 abc"}), "i1.sigma0"),
    (lambda mapping: mapping.update({"i0.box": "nan 100 200 300"}), "i0.box: non-finite value"),
    (lambda mapping: mapping.update(ground="nan 0 0"), "ground: non-finite value"),
    (lambda mapping: mapping.update(camera="nan 700 600 170"), "camera: non-finite value"),
    (lambda mapping: mapping.update({"i0.depth": "nan"}), "i0.depth: non-finite value"),
    (lambda mapping: mapping.update({"i0.theta0": "nan"}), "i0.theta0: non-finite value"),
    (lambda mapping: mapping.update({"i1.sigma0": "0.1 inf 0.3"}), "i1.sigma0: non-finite value"),
    (_nan_visible_landmark, "i0.landmarks: non-finite value"),
    (lambda mapping: mapping.update(instances="1"), "unknown key i1.box"),
], ids=["missing_key", "short_camera", "non_numeric", "nan_box", "nan_ground", "nan_camera",
        "nan_depth", "nan_theta0", "inf_sigma0", "nan_visible_landmark", "unknown_key"])
@pytest.mark.parametrize("argv", [
    ("fit", "--jobs", 1), ("fit", "--jobs", 2), ("ablate", "--jobs", 2), ("shape-learn",),
], ids=lambda argv: "_".join(map(str, argv)))
def test_malformed_measurement_file_is_a_data_error(
    dataset, tmp_path, capfd, monkeypatch, edit, key, argv
):
    data = tmp_path / "data"
    (data / "meas").mkdir(parents=True)
    for path in (dataset / "meas").glob("*.cfg"):
        (data / "meas" / path.name).write_bytes(path.read_bytes())
    bad = data / "meas" / "000002.cfg"
    mapping = parse_config_text(bad.read_text())
    edit(mapping)
    bad.write_text(format_config(mapping))
    # with blocks of 2, frames 0 and 1 fill a task before frame 2 is reached
    monkeypatch.setattr(vehicle3d.cli, "_FIT_BLOCK", 2)
    out = tmp_path / "out"
    assert run_cli(argv[0], "--data", data, "--out", out, *argv[1:]) == 1
    err = capfd.readouterr().err
    assert err.startswith(f"error: {bad}: ") and key in err
    assert "Traceback" not in err
    # every file is parsed before any frame is solved or written, and no
    # directory appears before its first file
    assert not out.exists()


def test_shape_learn_names_a_non_finite_visible_landmark(dataset, tmp_path, capfd):
    data = tmp_path / "data"
    (data / "meas").mkdir(parents=True)
    for path in (dataset / "meas").glob("*.cfg"):
        (data / "meas" / path.name).write_bytes(path.read_bytes())
    bad = data / "meas" / "000001.cfg"
    mapping = parse_config_text(bad.read_text())
    visible = mapping["i1.visible"].split()
    landmarks = mapping["i1.landmarks"].split()
    landmarks[2 * visible.index("0")] = "nan"  # an invisible NaN is ignored
    mapping["i1.landmarks"] = " ".join(landmarks)
    bad.write_text(format_config(mapping))
    assert run_cli("shape-learn", "--data", data, "--out", tmp_path / "ok", "--basis", 0) == 0
    landmarks[2 * visible.index("1") + 1] = "nan"
    mapping["i1.landmarks"] = " ".join(landmarks)
    bad.write_text(format_config(mapping))
    capfd.readouterr()
    assert run_cli("shape-learn", "--data", data, "--out", tmp_path / "bad", "--basis", 0) == 1
    err = capfd.readouterr().err
    assert err == f"error: {bad}: i1.landmarks: non-finite value\n"
    assert not (tmp_path / "bad" / "model.txt").exists()


@pytest.fixture(scope="module")
def ten_frames(tmp_path_factory):
    root = tmp_path_factory.mktemp("ten")
    assert run_cli("synth", "--out", root, "--seed", 7, "--frames", 10) == 0
    return root


@pytest.mark.parametrize("value", ["1e15", "1e16", "1e60", "1e100", "1e300"])
def test_shape_learn_names_a_numerically_singular_fit(ten_frames, tmp_path, capfd, value):
    """One extreme but finite visible landmark: up to 1e15 px the model is
    learned; beyond, the landmark fit turns singular and the run ends with
    one named error line, no file and no warning."""
    data = tmp_path / "data"
    shutil.copytree(ten_frames, data)
    path = data / "meas" / "000000.cfg"
    mapping = parse_config_text(path.read_text())
    landmarks = mapping["i0.landmarks"].split()
    landmarks[2 * mapping["i0.visible"].split().index("1")] = value
    mapping["i0.landmarks"] = " ".join(landmarks)
    path.write_text(format_config(mapping))
    out = tmp_path / "learned"
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("shape-learn", "--data", data, "--out", out)
    err = capfd.readouterr().err
    assert not caught
    if value == "1e15":
        assert (code, err) == (0, "")
        assert (out / "model.txt").exists()
    else:
        assert code == 1
        assert err == "error: landmark fit became numerically singular\n"
        assert not out.exists()


def _cut_landmarks(path, instances):
    """Rewrite the measurement file at path with the given instances cut
    to their first 13 landmarks."""
    mapping = parse_config_text(path.read_text())
    for i in instances:
        mapping[f"i{i}.landmarks"] = " ".join(mapping[f"i{i}.landmarks"].split()[:26])
        mapping[f"i{i}.visible"] = " ".join(mapping[f"i{i}.visible"].split()[:13])
    path.write_text(format_config(mapping))


def test_shape_learn_rejects_inconsistent_landmark_counts(dataset, tmp_path, capfd):
    data = tmp_path / "data"
    (data / "meas").mkdir(parents=True)
    for path in (dataset / "meas").glob("*.cfg"):
        (data / "meas" / path.name).write_bytes(path.read_bytes())
    bad = data / "meas" / "000002.cfg"
    _cut_landmarks(bad, [0])
    out = tmp_path / "learned"
    assert run_cli("shape-learn", "--data", data, "--out", out, "--basis", 0) == 1
    assert capfd.readouterr().err == (
        f"error: {bad}: inconsistent landmark counts: i0 has 13, i1 has 14\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "ablate", "shape-learn"])
@pytest.mark.parametrize("within", [True, False], ids=["within_a_file", "across_files"])
def test_landmark_counts_must_agree(dataset, tmp_path, capfd, command, within):
    """Every instance of a file has instance 0's landmark count, and every
    file of a dataset one count: a mix is a data error before any output."""
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    bad = data / "meas" / "000001.cfg"
    _cut_landmarks(bad, [1] if within else [0, 1])
    out = tmp_path / "out"
    capfd.readouterr()
    assert run_cli(command, "--data", data, "--out", out) == 1
    assert capfd.readouterr().err == (
        f"error: {bad}: inconsistent landmark counts: i0 has 14, i1 has 13\n" if within else
        "error: inconsistent landmark counts\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "ablate"])
def test_a_model_of_another_landmark_count_is_refused_before_any_output(
        dataset, tmp_path, capfd, command):
    """The landmark count is a contract between model and data: a dataset of
    one count that is not the model's is a data error before any output."""
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    for path in (data / "meas").glob("*.cfg"):
        _cut_landmarks(path, [0, 1])
    out = tmp_path / "fit"
    capfd.readouterr()
    assert run_cli(command, "--data", data, "--out", out) == 1
    assert capfd.readouterr().err == "error: measurement has 13 landmarks, the model 14\n"
    assert not out.exists()


def test_fit_rejects_a_non_finite_model(dataset, tmp_path, capfd):
    model = tmp_path / "model.txt"
    tokens = format_model(CAR_MODEL).split()
    tokens[2] = "nan"  # the first value of the mean shape
    model.write_text(" ".join(tokens))
    out = tmp_path / "fit"
    # v2 reads no landmark, so only the file check can fail it
    assert run_cli("fit", "--data", dataset, "--out", out, "--model", model, "--variant", "v2") == 1
    assert capfd.readouterr().err == f"error: cannot load model {model}: {model}: non-finite value\n"
    assert not out.exists()


def test_fit_names_a_non_numeric_model_value(dataset, tmp_path, capfd):
    model = tmp_path / "model.txt"
    tokens = format_model(CAR_MODEL).split()
    tokens[2] = "abc"  # the first value of the mean shape
    model.write_text(" ".join(tokens))
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", dataset, "--out", out, "--model", model) == 1
    assert capfd.readouterr().err == (
        f"error: cannot load model {model}: {model}: non-numeric value 'abc'\n")
    assert not out.exists()


def test_fit_rejects_a_model_outside_the_unit_box(dataset, tmp_path, capfd):
    model = tmp_path / "model.txt"
    model.write_text(format_model(MorphableModel(mean=CAR_MODEL.mean * 50,
                                                 basis=CAR_MODEL.basis * 50)))
    for command in ("fit", "ablate"):
        out = tmp_path / command
        assert run_cli(command, "--data", dataset, "--out", out, "--model", model) == 1
        assert capfd.readouterr().err == (
            f"error: cannot load model {model}: mean shape coordinate 47 lies outside [-2, 2], "
            "the unit-box frame fit expects\n"
        )
        assert not out.exists()


def test_fit_rejects_a_model_basis_outside_the_unit_box(dataset, tmp_path, capfd):
    """A basis coordinate beyond the unit-box reach is a model error before
    any file is written, not a non-finite start in every diag entry."""
    model = tmp_path / "model.txt"
    lines = format_model(CAR_MODEL).splitlines()
    assert lines[38].split()[0] == "0"  # a basis line
    lines[38] = "1e308 -0.015 0"
    model.write_text("\n".join(lines) + "\n")
    for command in ("fit", "ablate"):
        out = tmp_path / command
        assert run_cli(command, "--data", dataset, "--out", out, "--model", model) == 1
        assert capfd.readouterr().err == (
            f"error: cannot load model {model}: basis coordinate 1e+308 lies outside [-2, 2], "
            "the unit-box frame fit expects\n"
        )
        assert not out.exists()
    model.write_text(format_model(CAR_MODEL))  # the built-in model still loads from its file
    assert run_cli("fit", "--data", dataset, "--out", tmp_path / "car", "--model", model) == 0


def test_fit_names_a_bad_model_header(dataset, tmp_path, capfd):
    model = tmp_path / "model.txt"
    lines = format_model(CAR_MODEL).splitlines()
    lines[0] = f"{CAR_MODEL.K} -1"  # the header "K N" with a negative basis count
    model.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", dataset, "--out", out, "--model", model, "--variant", "v2") == 1
    assert capfd.readouterr().err == (
        f"error: cannot load model {model}: {model}: bad header '{CAR_MODEL.K} -1': expected "
        "'K N', integers with K >= 1 landmarks and N >= 0 basis shapes\n"
    )
    assert not out.exists()


def test_fit_missing_data(tmp_path, capsys):
    assert run_cli("fit", "--data", tmp_path / "nope", "--out", tmp_path / "x") == 1
    assert "meas" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, message", [
    (("eval", "--pred", "{tmp}/nope", "--gt", "{tmp}/data"), "no label directory at {tmp}/nope"),
    (("shape-learn", "--data", "{tmp}/data"), "no measurement files under {tmp}/data/meas"),
], ids=["eval_missing_pred", "shape_learn_without_measurements"])
def test_a_missing_input_leaves_no_out(tmp_path, capsys, command, message):
    (tmp_path / "data" / "labels").mkdir(parents=True)
    (tmp_path / "data" / "meas").mkdir()
    argv = [part.format(tmp=tmp_path) for part in command]
    assert run_cli(*argv, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "out").exists()


_UNDECODABLE = b"\xff\xfe\x00bad"
_DECODE_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize("command, bad, message", [
    (("fit", "--data", "{data}"), "data/meas/000001.cfg", "{bad}: "),
    (("ablate", "--data", "{data}", "--jobs", 2), "data/meas/000001.cfg", "{bad}: "),
    (("shape-learn", "--data", "{data}"), "data/meas/000001.cfg", "{bad}: "),
    (("ablate", "--data", "{data}"), "data/labels/000001.txt", "{bad}: "),
    (("eval", "--pred", "{pred}", "--gt", "{data}"), "data/labels/000001.txt", "{bad}: "),
    (("eval", "--pred", "{pred}", "--gt", "{data}"), "pred/000001.txt", "{bad}: "),
    (("fit", "--data", "{data}", "--config", "{bad}"), "run.cfg", "cannot read config {bad}: "),
    (("fit", "--data", "{data}", "--model", "{bad}"), "model.txt",
     "cannot load model {bad}: {bad}: "),
], ids=["fit_meas", "ablate_meas", "shape_learn_meas", "ablate_gt", "eval_gt", "eval_pred",
        "config", "model"])
def test_an_undecodable_input_is_a_data_error(dataset, tmp_path, capfd, command, bad, message):
    """A text input that is not UTF-8 ends the run in one error line naming
    the file, exit 1, and no --out."""
    shutil.copytree(dataset, tmp_path / "data")
    shutil.copytree(dataset / "labels", tmp_path / "pred")
    bad = tmp_path / bad
    bad.write_bytes(_UNDECODABLE)
    paths = {"data": tmp_path / "data", "pred": tmp_path / "pred", "bad": bad}
    out = tmp_path / "out"
    assert run_cli(*[str(part).format(**paths) for part in command], "--out", out) == 1
    assert capfd.readouterr().err == f"error: {message.format(**paths)}{_DECODE_ERROR}\n"
    assert not out.exists()


def test_a_byte_order_mark_changes_no_output(dataset, tmp_path):
    """Measurement, label, config and model files that begin with a UTF-8
    BOM read as the same files without it: fit and eval write the same
    bytes."""
    plain = shutil.copytree(dataset, tmp_path / "plain")
    marked = shutil.copytree(dataset, tmp_path / "bom")
    for path in (*marked.rglob("*.cfg"), *marked.rglob("*.txt")):
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    model = format_model(CAR_MODEL)
    (tmp_path / "model.txt").write_text(model)
    (tmp_path / "bom_model.txt").write_text("\ufeff" + model, encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"\ufeffdata = {marked}\nmodel = {tmp_path / 'bom_model.txt'}\n",
                      encoding="utf-8")
    assert run_cli("fit", "--data", plain, "--model", tmp_path / "model.txt",
                   "--out", tmp_path / "fit_plain") == 0
    assert run_cli("fit", "--config", config, "--out", tmp_path / "fit_bom") == 0
    for side in ("plain", "bom"):
        assert run_cli("eval", "--pred", tmp_path / f"fit_{side}", "--gt", tmp_path / side,
                       "--out", tmp_path / f"eval_{side}", "--curves", "true") == 0
    for step in ("fit", "eval"):
        plain_tree = tree_bytes(tmp_path / f"{step}_plain", skip=("manifest.cfg",))
        assert tree_bytes(tmp_path / f"{step}_bom", skip=("manifest.cfg",)) == plain_tree


@pytest.mark.parametrize("command, out, name", [
    (("fit", "--data", "{data}"), "{data}", "data"),
    (("ablate", "--data", "{data}"), "{data}/../data", "data"),
    (("shape-learn", "--data", "{data}"), "{data}", "data"),
    (("eval", "--pred", "{pred}", "--gt", "{data}"), "{pred}", "pred"),
    (("eval", "--pred", "{pred}", "--gt", "{data}"), "{data}/", "gt"),
], ids=["fit", "ablate", "shape_learn", "eval_pred", "eval_gt"])
def test_out_may_not_be_an_input_directory(dataset, tmp_path, capfd, command, out, name):
    """An --out that resolves to an input directory is refused before
    anything is written, so the input keeps its bytes."""
    paths = {"data": shutil.copytree(dataset, tmp_path / "data"),
             "pred": shutil.copytree(dataset, tmp_path / "pred")}
    before = tree_bytes(tmp_path)
    out = out.format(**paths)
    assert run_cli(*[str(part).format(**paths) for part in command], "--out", out) == 1
    assert capfd.readouterr().err == (f"error: --out {out} is the --{name} directory; "
                                      "writing there would overwrite its files\n")
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize("command, out, name", [
    (("fit", "--data", "{data}"), "{data}/meas", "data"),
    (("fit", "--data", "{data}"), "{data}/labels", "data"),
    (("shape-learn", "--data", "{data}"), "{data}/meas", "data"),
    (("eval", "--pred", "{data}", "--gt", "{data}"), "{data}/labels", "pred"),
    (("eval", "--pred", "{pred}", "--gt", "{data}"), "{pred}/labels", "pred"),
], ids=["fit_meas", "fit_labels", "shape_learn_meas", "eval_labels", "eval_fit_labels"])
def test_out_may_not_be_an_input_directorys_meas_or_labels(
        dataset, tmp_path, capfd, command, out, name):
    """An --out that resolves to the meas/ or labels/ an input directory is
    read through is refused before anything is written: its files would
    join the input's, so the input keeps its bytes."""
    paths = {"data": shutil.copytree(dataset, tmp_path / "data"), "pred": tmp_path / "pred"}
    assert run_cli("fit", "--data", paths["data"], "--out", paths["pred"]) == 0
    before = tree_bytes(tmp_path)
    out = out.format(**paths)
    capfd.readouterr()
    assert run_cli(*[str(part).format(**paths) for part in command], "--out", out) == 1
    assert capfd.readouterr().err == (
        f"error: --out {out} is the --{name} directory's {Path(out).name}/; "
        "writing there would mix outputs into its files\n")
    assert tree_bytes(tmp_path) == before


def test_interrupted_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(*args):
        raise OSError("rename failed")

    monkeypatch.setattr(vehicle3d.cli.os, "replace", fail)
    with pytest.raises(OSError):
        vehicle3d.cli._atomic_write(tmp_path / "000000.txt", "Car\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["synth_under_a_file", "shape_learn_onto_a_directory"])
def test_output_io_error_is_a_message(dataset, tmp_path, child_env, case):
    if case == "synth_under_a_file":
        (tmp_path / "file").write_text("")
        argv = ["synth", "--seed", 7, "--frames", 1, "--out", tmp_path / "file" / "x"]
    else:
        (tmp_path / "learned" / "model.txt").mkdir(parents=True)
        argv = ["shape-learn", "--data", dataset, "--out", tmp_path / "learned", "--basis", 0]
    proc = subprocess.run([sys.executable, "-m", "vehicle3d", *map(str, argv)],
                          env=child_env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not list(tmp_path.rglob("*.tmp"))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_ground_truth_against_itself_is_perfect(dataset, tmp_path, capsys):
    out = tmp_path / "self"
    assert run_cli("eval", "--pred", dataset, "--gt", dataset, "--out", out) == 0
    text = (out / "eval.txt").read_text()
    assert text == capsys.readouterr().out
    # every populated cell must be a perfect 100 percent; row labels never
    # use four decimals so the pattern only sees table cells
    cells = re.findall(r"\d+\.\d{4}", text)
    assert cells and set(cells) == {"100.0000"}


def test_eval_matches_library_numbers(dataset, tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    assert run_cli("fit", "--data", dataset, "--out", fit_dir) == 0
    assert run_cli("eval", "--pred", fit_dir, "--gt", dataset) == 0
    text = capsys.readouterr().out
    frames = []
    for stem in sorted(p.stem for p in (dataset / "labels").glob("*.txt")):
        dets = tuple(parse_labels((fit_dir / "labels" / (stem + ".txt")).read_text()))
        gts = tuple(parse_labels((dataset / "labels" / (stem + ".txt")).read_text()))
        frames.append((dets, gts))
    expected = alp(frames, 1.0, "moderate")
    row = next(line for line in text.splitlines() if line.startswith("1 m"))
    assert f"{expected:.4f}" in row


@pytest.mark.parametrize("index, value", [
    (1, "nan"), (2, "nan"), (3, "inf"), (8, "nan"), (10, "-inf"), (11, "nan"), (13, "inf"),
    (14, "nan"),
], ids=["truncated", "occluded", "alpha", "height", "length", "x", "z", "rotation_y"])
@pytest.mark.parametrize("side", ["pred", "gt"])
def test_non_finite_label_field_is_a_data_error(dataset, tmp_path, capfd, index, value, side):
    for name in ("pred", "gt"):
        (tmp_path / name).mkdir()
        for path in (dataset / "labels").glob("*.txt"):
            (tmp_path / name / path.name).write_bytes(path.read_bytes())
    bad = tmp_path / side / "000001.txt"
    lines = bad.read_text().splitlines()
    tokens = lines[1].split()
    tokens[index] = value
    lines[1] = " ".join(tokens)
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt") == 1
    assert capfd.readouterr().err == f"error: {bad}: line 2: non-finite value\n"


def test_eval_frame_mismatch(dataset, tmp_path, capsys):
    partial = tmp_path / "partial" / "labels"
    partial.mkdir(parents=True)
    for path in sorted((dataset / "labels").glob("*.txt"))[:-1]:
        (partial / path.name).write_bytes(path.read_bytes())
    assert run_cli("eval", "--pred", partial.parent, "--gt", dataset) == 1
    err = capsys.readouterr().err
    assert "frame sets differ" in err and "000003" in err


def test_eval_optional_artifacts(dataset, tmp_path):
    out = tmp_path / "extras"
    assert run_cli("eval", "--pred", dataset, "--gt", dataset, "--out", out,
                   "--curves", "true", "--plot-data", "true") == 0
    curves = list((out / "curves").glob("*.cfg"))
    assert curves
    curve = parse_config_text(curves[0].read_text())
    assert len(curve["recall"].split()) == len(curve["precision"].split())
    plot = parse_config_text((out / "plot" / "000000.cfg").read_text())
    ring = [float(v) for v in plot["gt0.bev"].split()]
    assert len(ring) == 10 and ring[:2] == ring[-2:]  # closed 4-corner loop
    # every outline is its own record's footprint, to the bit
    for path in sorted((dataset / "labels").glob("*.txt")):
        plot = parse_config_text((out / "plot" / (path.stem + ".cfg")).read_text())
        for i, record in enumerate(parse_labels(path.read_text())):
            pose = label_to_pose(record)
            feet = BoxStack.of(pose.theta, pose.T, pose.sigma).feet[0]
            for side in ("pred", "gt"):
                ring = [float(v) for v in plot[f"{side}{i}.bev"].split()]
                assert ring == np.vstack([feet, feet[:1]]).reshape(-1).tolist()
    # a record without positive dimensions keeps its image box, no outline
    pred = tmp_path / "flat"
    shutil.copytree(dataset / "labels", pred)
    lines = (pred / "000000.txt").read_text().splitlines()
    tokens = lines[0].split()
    tokens[8] = "0.0"  # height
    (pred / "000000.txt").write_text("\n".join([" ".join(tokens), *lines[1:]]) + "\n")
    assert run_cli("eval", "--pred", pred, "--gt", dataset, "--out", tmp_path / "flat_eval",
                   "--plot-data", "true") == 0
    plot = parse_config_text((tmp_path / "flat_eval" / "plot" / "000000.cfg").read_text())
    assert "pred0.bbox" in plot and "pred0.bev" not in plot
    assert "pred1.bev" in plot and "gt0.bev" in plot
    # without ground truth no curve is defined, so no curves/ directory appears
    for side in ("none_pred", "none_gt"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "000000.txt").write_text("")
    none = tmp_path / "none_eval"
    assert run_cli("eval", "--pred", tmp_path / "none_pred", "--gt", tmp_path / "none_gt",
                   "--out", none, "--curves", "true") == 0
    assert sorted(p.name for p in none.iterdir()) == ["eval.txt", "manifest.cfg"]


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_ablate_table_matches_direct_evaluation(dataset, tmp_path, capsys):
    out = tmp_path / "ablate"
    assert run_cli("ablate", "--data", dataset, "--out", out) == 0
    text = (out / "ablation.txt").read_text()
    assert text in capsys.readouterr().out
    for variant in ("v1", "v2", "v3", "v4"):
        assert (out / f"fit_{variant}" / "labels" / "000000.txt").is_file()
    # the v4 row of the ALP table equals evaluating fit_v4 output directly
    frames = []
    for stem in sorted(p.stem for p in (dataset / "labels").glob("*.txt")):
        dets = tuple(parse_labels((out / "fit_v4" / "labels" / (stem + ".txt")).read_text()))
        gts = tuple(parse_labels((dataset / "labels" / (stem + ".txt")).read_text()))
        frames.append((dets, gts))
    expected = alp(frames, 1.0, "moderate")
    table = text.split("\n\n")[0].splitlines()
    v4_row = next(line for line in table if line.startswith("v4"))
    header = table[1].split()
    column = header.index("moderate")
    assert v4_row.split()[1 + column] == (f"{expected:.4f}" if expected is not None else "-")


def test_ablate_equals_the_ladder_in_process(tmp_path):
    """The generator's blocks are the blocks synth writes: every label file
    and diag entry of ablate equals, as text, refine_ladder and
    _rung_outcomes on the frames generate_scene gives in process."""
    data, out = tmp_path / "data", tmp_path / "ablate"
    assert run_cli("synth", "--out", data, "--seed", 7, "--frames", 3) == 0
    assert run_cli("ablate", "--data", data, "--out", out) == 0
    for i in range(3):
        block = generate_scene(SceneParams(), STANDARD_NOISE, [7, i])[1]
        for variant, solve in refine_ladder(block, CAR_MODEL).items():
            entries = vehicle3d.cli._rung_outcomes(block, solve)
            fit = out / f"fit_{variant}"
            labels = emit_labels([record for record, _ in entries if record is not None])
            assert (fit / "labels" / f"{i:06d}.txt").read_text() == labels, (variant, i)
            diag = parse_config_text((fit / "diag" / f"{i:06d}.cfg").read_text())
            for n, (_, entry) in enumerate(entries):
                assert {key: diag[f"i{n}.{key}"] for key in entry} == entry, (variant, i, n)


@pytest.mark.parametrize("fault, message", [
    (lambda data: (data / "labels" / "000001.txt").write_text("Car 0 0\n"),
     "{data}/labels/000001.txt: line 1: expected 15 or 16 fields, found 3"),
    (lambda data: (data / "meas" / "000002.cfg").unlink(),
     "frame sets differ; missing predictions for: 000002"),
    (lambda data: (data / "labels" / "000003.txt").unlink(),
     "frame sets differ; missing ground truth for: 000003"),
], ids=["malformed_label", "label_without_measurement", "measurement_without_label"])
def test_ablate_reads_its_ground_truth_before_solving(dataset, tmp_path, capfd, fault, message):
    data = shutil.copytree(dataset, tmp_path / "data")
    fault(data)
    expected = f"error: {message.format(data=data)}\n"
    out = tmp_path / "out"
    assert run_cli("ablate", "--data", data, "--out", out) == 1
    assert capfd.readouterr().err == expected
    assert not out.exists()
    # eval names the same fault, given a prediction file per measurement file
    pred = tmp_path / "pred"
    pred.mkdir()
    for path in (data / "meas").glob("*.cfg"):
        (pred / (path.stem + ".txt")).write_text("")
    assert run_cli("eval", "--pred", pred, "--gt", data) == 1
    assert capfd.readouterr().err == expected


@pytest.fixture(scope="module")
def counted_ablate(tmp_path_factory):
    """(dataset, ablate output, {name: arguments of each call}) of one seed-7
    ablate, counting the label parses, box conversions and difficulty buckets."""
    root = tmp_path_factory.mktemp("counted")
    assert run_cli("synth", "--out", root / "data", "--seed", 7) == 0
    calls = {}
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((vehicle3d.cli, "parse_labels"),
                             (vehicle3d.metrics, "label_pose_fields"),
                             (vehicle3d.metrics, "difficulty_bucket")):
            def counted(arg, log=calls.setdefault(name, []), fn=getattr(module, name)):
                log.append(arg)
                return fn(arg)

            patch.setattr(module, name, counted)
        assert run_cli("ablate", "--data", root / "data", "--out", root / "ablate") == 0
    return root / "data", root / "ablate", calls


def _label_files(labels_dir):
    return [parse_labels(path.read_text()) for path in sorted(labels_dir.glob("*.txt"))]


def test_ablate_parses_each_ground_truth_file_once(counted_ablate):
    data, _, calls = counted_ablate
    frames = len(list((data / "labels").glob("*.txt")))
    # each variant's predictions, plus the ground truth once
    assert frames == 50 and len(calls["parse_labels"]) == 4 * frames + frames


def test_ablate_boxes_each_variants_records_in_one_array_pass(counted_ablate):
    data, out, calls = counted_ablate
    ground_truth = [rec for records in _label_files(data / "labels") for rec in records
                    if min(rec.dimensions) > 0]
    # one conversion per variant: its predictions and the ground truth
    assert len(calls["label_pose_fields"]) == 4
    for variant, converted in zip(("v1", "v2", "v3", "v4"), calls["label_pose_fields"]):
        predicted = [rec for records in _label_files(out / f"fit_{variant}" / "labels")
                     for rec in records if min(rec.dimensions) > 0]
        assert sorted(map(repr, converted)) == sorted(map(repr, predicted + ground_truth))


def test_ablate_buckets_each_ground_truth_once_per_variant(counted_ablate):
    data, _, calls = counted_ablate
    records = sum(map(len, _label_files(data / "labels")))
    # at most once per record and variant (1,000), not once per curve (9,000)
    assert records == 250 and len(calls["difficulty_bucket"]) <= 4 * records


@pytest.mark.parametrize("variant", ["v1", "v2", "v3", "v4"])
def test_fit_writes_the_files_of_ablates_rung(counted_ablate, tmp_path, variant):
    # one code path: fit --variant solves its rung from the initialization,
    # as ablate solves each of its rungs
    data, ablate, _ = counted_ablate
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", data, "--out", out, "--variant", variant) == 0
    for part in ("labels", "diag"):
        assert tree_bytes(out / part) == tree_bytes(ablate / f"fit_{variant}" / part)


# ---------------------------------------------------------------------------
# mutated input files through the command line
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def one_frame(tmp_path_factory):
    root = tmp_path_factory.mktemp("one_frame")
    assert run_cli("synth", "--out", root, "--seed", 7, "--frames", 1, "--instances", 2) == 0
    return root


def _box_swaps(text: str, first: int, marker: str = ""):
    """text with the left and right, or the top and bottom, corners of one
    box swapped: tokens first..first+3 of a line that contains marker."""
    lines = text.splitlines(keepends=True)

    def swapped(i, axis):
        tokens = lines[i].split()
        a, b = first + axis, first + axis + 2
        tokens[a], tokens[b] = tokens[b], tokens[a]
        return "".join(lines[:i] + [" ".join(tokens) + "\n"] + lines[i + 1:])

    rows = [i for i, line in enumerate(lines) if marker in line]
    return st.builds(swapped, st.sampled_from(rows), st.sampled_from([0, 1]))


def _mutate(path: Path, data, first: int, marker: str = "") -> None:
    """Overwrite path with a mutation of its text drawn from data."""
    text = path.read_text()
    path.write_text(data.draw(st.one_of(_mutations(text), _box_swaps(text, first, marker))))


def _assert_clean_exit(argv, bad: Path, out: Path) -> None:
    """main(argv) returns 0 or 1 and raises nothing; a data error is one
    `error: <bad>: ...` line, and then out does not exist."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_cli(*argv)
    assert code in (0, 1)
    if err.getvalue():
        assert code == 1
        assert re.fullmatch(f"error: {re.escape(str(bad))}: [^\n]+\n", err.getvalue())
        assert not out.exists()


_MUTATIONS = settings(max_examples=40, deadline=None)


@_MUTATIONS
@given(data=st.data())
def test_fit_exits_cleanly_on_a_mutated_measurement_file(one_frame, data):
    with tempfile.TemporaryDirectory() as tmp:
        dataset = shutil.copytree(one_frame, Path(tmp) / "data")
        bad = dataset / "meas" / "000000.cfg"
        _mutate(bad, data, 2, ".box =")  # i0.box = left top right bottom
        out = Path(tmp) / "out"
        _assert_clean_exit(("fit", "--data", dataset, "--out", out), bad, out)


@_MUTATIONS
@given(data=st.data())
def test_eval_exits_cleanly_on_a_mutated_label_file(one_frame, data):
    with tempfile.TemporaryDirectory() as tmp:
        for side in ("pred", "gt"):
            shutil.copytree(one_frame / "labels", Path(tmp) / side)
        bad = Path(tmp) / data.draw(st.sampled_from(("pred", "gt"))) / "000000.txt"
        _mutate(bad, data, 4)  # the bbox follows type, truncation, occlusion, alpha
        out = Path(tmp) / "out"
        _assert_clean_exit(("eval", "--pred", Path(tmp) / "pred", "--gt", Path(tmp) / "gt",
                            "--out", out), bad, out)


@_MUTATIONS
@given(data=st.data())
def test_ablate_exits_cleanly_on_a_mutated_label_file(one_frame, data):
    with tempfile.TemporaryDirectory() as tmp:
        dataset = shutil.copytree(one_frame, Path(tmp) / "data")
        bad = dataset / "labels" / "000000.txt"
        _mutate(bad, data, 4)
        out = Path(tmp) / "out"
        _assert_clean_exit(("ablate", "--data", dataset, "--out", out), bad, out)


# Token values the seeded fuzz writes: non-finite, extreme finite, empty,
# a word, and counts that disagree with the file's.
_NON_FINITE = ("nan", "inf", "-inf")
_FUZZ_VALUES = (*_NON_FINITE, "1e308", "-1e308", "5e-324", "", "x7", "0", "3")


def _fuzz(text: str, rng: random.Random) -> tuple:
    """(text with one token of one line replaced, inserted before or
    deleted, or with the line dropped; (line, token index) where the
    mutation wrote a non-finite token, else None)."""
    lines = text.splitlines(keepends=True)
    i = rng.choice([i for i, line in enumerate(lines) if line.split()])
    kind = rng.choice(("replace", "replace", "replace", "insert", "delete", "drop"))
    if kind == "drop":
        return "".join(lines[:i] + lines[i + 1:]), None
    tokens = lines[i].split()
    j, value = rng.randrange(len(tokens)), rng.choice(_FUZZ_VALUES)
    hit = (lines[i], j) if kind != "delete" and value in _NON_FINITE else None
    tokens[j:j + 1] = {"replace": [value], "insert": [value, tokens[j]], "delete": []}[kind]
    return "".join(lines[:i] + [" ".join(tokens) + "\n"] + lines[i + 1:]), hit


def test_seeded_fuzz_of_every_input_kind_exits_cleanly(one_frame, tmp_path):
    """A seeded token fuzz of each input kind through main, in process, on
    1-frame files: every run exits 0 or 1, writes only `error:` lines to
    stderr and records no warning.  A non-finite token written where a
    number is read ends in one error line; the exceptions are a landmark
    value, read only where the landmark is visible, and a label's type."""
    wide = tmp_path / "wide"  # enough instances for shape-learn to run EM
    assert run_cli("synth", "--out", wide, "--seed", 7, "--frames", 1, "--instances", 24) == 0
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "model.txt").write_text(format_model(CAR_MODEL))
    (inputs / "run.cfg").write_text("variant = v4\nlambda1 = 0.3\nlambda4 = 8.0\nmax_iterations = 50\n")

    def landmark(line, j):
        return ".landmarks" in line

    cases = (  # (runs, source, file under it, argv, non-finite token that may pass)
        (120, one_frame, "meas/000000.cfg", ("fit", "--data", "{dir}"), landmark),
        (40, one_frame, "meas/000000.cfg", ("ablate", "--data", "{dir}"), landmark),
        (60, wide, "meas/000000.cfg", ("shape-learn", "--data", "{dir}", "--max-iterations", 3),
         landmark),
        (80, one_frame, "labels/000000.txt", ("eval", "--pred", "{dir}", "--gt", one_frame),
         lambda line, j: j == 0),
        (80, inputs, "model.txt", ("fit", "--data", one_frame, "--model", "{file}"), None),
        (80, inputs, "run.cfg", ("fit", "--data", one_frame, "--config", "{file}"), None),
    )
    rng = random.Random(32)
    for case, (runs, source, name, argv, may_pass) in enumerate(cases):
        for run in range(runs):
            work = shutil.copytree(source, tmp_path / f"{case}-{run}")
            text, hit = _fuzz((work / name).read_text(), rng)
            (work / name).write_text(text)
            err = io.StringIO()
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
                warnings.simplefilter("always")
                code = run_cli(*(str(a).format(dir=work, file=work / name) for a in argv),
                               "--out", work / "out")
            where = f"{argv[0]} on {name}:\n{text}"
            assert code in (0, 1), where
            assert not caught, f"{caught[0].message} in {where}"
            assert all(line.startswith("error: ") for line in err.getvalue().splitlines()), where
            if hit is not None and not (may_pass and may_pass(*hit)):
                assert code == 1 and re.fullmatch("error: [^\n]+\n", err.getvalue()), where


# ---------------------------------------------------------------------------
# shape-learn
# ---------------------------------------------------------------------------

def test_shape_learn_recovers_model(tmp_path):
    data = tmp_path / "clean"
    # noise-free landmarks so EM converges quickly and tightly
    assert run_cli("synth", "--out", data, "--seed", 3, "--frames", 12,
                   "--instances", 2, "--landmark-px", 0, "--occlusion-rate", 0) == 0
    out = tmp_path / "learned"
    assert run_cli("shape-learn", "--data", data, "--out", out, "--basis", 2) == 0
    model = load_model(out / "model.txt")
    assert model.n_basis == 2
    report = parse_config_text((out / "report.cfg").read_text())
    assert int(report["instances_used"]) >= 20
    # wiring smoke test; model quality bounds live in the shape suite
    assert float(report["reproj_rmse_px"]) < 2.0
    assert report["converged"] in ("true", "false")


# ---------------------------------------------------------------------------
# option plumbing and exit statuses
# ---------------------------------------------------------------------------

def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frames = 3\ninstances = 2\n")
    out = tmp_path / "out"
    assert run_cli("synth", "--config", cfg, "--out", out, "--seed", 5, "--frames", 2) == 0
    manifest = parse_config_text((out / "manifest.cfg").read_text())
    assert manifest["frames"] == "2"  # flag beats file
    assert manifest["instances"] == "2"  # file beats default
    assert manifest["with_depth"] == "true"  # default
    assert len(list((out / "labels").glob("*.txt"))) == 2


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("framez = 3\n")
    assert run_cli("synth", "--config", cfg, "--out", tmp_path / "out", "--seed", 5) == 1
    assert "framez" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("command = eval\n", "config {cfg} is for eval, not fit"),
    ("out = elsewhere\n", "unknown config keys: out"),
], ids=["another_command", "out"])
def test_config_rejected_before_any_output(dataset, tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli("fit", "--config", cfg, "--data", dataset, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("synth", "--seed", -1), "seed must be at least 0"),
    (("synth", "--seed", 1, "--instances", 0), "need at least one instance"),
    (("synth", "--seed", 1, "--frames", 0), "frames must be at least 1"),
    (("synth", "--seed", 1, "--landmark-px", -1), "landmark_px_sigma must be non-negative"),
    (("synth", "--seed", 1, "--box-px", "nan"), "box_px_sigma must be non-negative"),
    (("synth", "--seed", 1, "--theta-deg", "inf"), "theta_sigma_deg must be non-negative"),
    (("synth", "--seed", 1, "--occlusion-rate", "nan"),
     "landmark_occlusion_rate must be non-negative"),
    (("fit", "--data", "d", "--lambda1", -1), "lambda1 must be non-negative"),
    (("fit", "--data", "d", "--lambda1", "nan"), "lambda1 must be non-negative"),
    (("ablate", "--data", "d", "--lambda3", "inf"), "lambda3 must be non-negative"),
    (("fit", "--data", "d", "--max-iterations", 0), "max_iterations must be at least 1"),
    (("fit", "--data", "d", "--jobs", 0), "jobs must be at least 1"),
    (("fit", "--data", "d", "--variant", "v9"), "unknown variant 'v9'"),
    (("shape-learn", "--data", "d", "--basis", -1), "basis must be at least 0"),
    (("shape-learn", "--data", "d", "--max-iterations", 0), "max_iterations must be at least 1"),
    (("shape-learn", "--data", "d", "--tol", "nan"), "tol = nan: tol must be a non-negative number"),
    (("shape-learn", "--data", "d", "--tol", -1), "tol = -1.0: tol must be a non-negative number"),
    (("shape-learn", "--data", "d", "--tol", "inf"), "tol = inf: tol must be a non-negative number"),
    (("ablate", "--data", "d", "--points", 0), "points must be at least 2"),
    (("eval", "--pred", "d", "--gt", "d", "--iou3d-thresholds", "nan"),
     "iou3d_thresholds = nan: must be in (0, 1]"),
    (("eval", "--pred", "d", "--gt", "d", "--iou3d-thresholds", -1),
     "iou3d_thresholds = -1.0: must be in (0, 1]"),
    (("eval", "--pred", "d", "--gt", "d", "--bev-thresholds", "0.5,1.5"),
     "bev_thresholds = 0.5,1.5: must be in (0, 1]"),
    (("eval", "--pred", "d", "--gt", "d", "--alp-thresholds", 0),
     "alp_thresholds = 0.0: must be finite and positive"),
    (("eval", "--pred", "d", "--gt", "d", "--alp-gate", -3), "alp_gate = -3.0: must be in (0, 1]"),
    (("ablate", "--data", "d", "--iou3d-threshold", "nan"), "iou3d_threshold = nan: must be in (0, 1]"),
], ids=lambda v: "_".join(map(str, v)) if isinstance(v, tuple) else None)
def test_out_of_range_options_fail_before_any_output(tmp_path, capfd, argv, message):
    out = tmp_path / "out"
    assert run_cli(argv[0], "--out", out, *argv[1:]) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_every_manifest_reruns_its_command(dataset, tmp_path):
    """Each command, run again with its first run's manifest as --config,
    writes a byte-identical tree, manifest included."""
    runs = {
        "synth": ("--seed", 7, "--frames", 2, "--instances", 2),
        "shape-learn": ("--data", dataset, "--basis", 0),
        "fit": ("--data", dataset, "--variant", "v3"),
        "eval": ("--pred", tmp_path / "fit" / "first", "--gt", dataset,
                 "--curves", "true", "--plot-data", "true"),
        "ablate": ("--data", dataset, "--jobs", 2),
    }
    for command, argv in runs.items():
        first, again = tmp_path / command / "first", tmp_path / command / "again"
        assert run_cli(command, "--out", first, *argv) == 0
        assert run_cli(command, "--out", again, "--config", first / "manifest.cfg") == 0
        assert tree_bytes(again) == tree_bytes(first)


def test_a_manifest_reruns_a_dataset_path_holding_a_hash(dataset, tmp_path):
    """A '#' inside a path is no comment, so a fit on a dataset directory
    named run#1 reruns from its manifest into the same tree."""
    data = tmp_path / "run#1"
    shutil.copytree(dataset, data)
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli("fit", "--data", data, "--out", first) == 0
    assert parse_config_text((first / "manifest.cfg").read_text())["data"] == str(data)
    assert run_cli("fit", "--out", again, "--config", first / "manifest.cfg") == 0
    assert tree_bytes(again) == tree_bytes(first)


@pytest.mark.parametrize("name", ["#run", "run #1"])
def test_a_value_no_manifest_line_holds_fails_before_any_output(dataset, tmp_path, monkeypatch,
                                                                capsys, name):
    """A '#' that starts a value or follows a space would start a comment
    in manifest.cfg, which then would not rerun its command: the run stops
    first, naming the option."""
    shutil.copytree(dataset, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert run_cli("fit", "--data", name, "--out", "out") == 1
    assert capsys.readouterr().err == f"error: data = {name!r}: a manifest line cannot hold this value\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option, values, printed", [
    ("iou3d_thresholds", "0.25,0.2500001", "0.25"),
    ("bev_thresholds", "0.5,0.7,0.5", "0.5"),
    ("alp_thresholds", "1,2,2.0000001", "2"),
])
def test_thresholds_that_print_alike_fail_before_any_output(dataset, tmp_path, capsys, option,
                                                            values, printed):
    """eval names each threshold's table row and curve file by its :g form,
    so two thresholds that print alike would share both."""
    out = tmp_path / "out"
    assert run_cli("eval", "--pred", dataset, "--gt", dataset, "--curves", "true", "--out", out,
                   "--" + option.replace("_", "-"), values) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} = ") and err.endswith(f": two values print as {printed}\n")
    assert not out.exists()


def test_none_flag_beats_the_config_file(dataset, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alp_gate = 0.5\n")
    out = tmp_path / "eval"
    assert run_cli("eval", "--pred", dataset, "--gt", dataset, "--out", out,
                   "--config", cfg, "--alp-gate", "none") == 0
    assert parse_config_text((out / "manifest.cfg").read_text())["alp_gate"] == "none"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--seed", 1)  # --out is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--out", "x", "--frames", "many")
    assert exc.value.code == 2


def test_the_parser_is_built_once_and_parses_each_command_apart(capsys):
    """main's parser is built on the first call and reused; parsing keeps no
    state, so two different commands parsed in turn, and a parse that
    fails between them, give independent namespaces."""
    parser = vehicle3d.cli.build_parser()
    assert vehicle3d.cli.build_parser() is parser
    fit = parser.parse_args(["fit", "--data", "d", "--out", "o", "--variant", "v2"])
    with pytest.raises(SystemExit):
        parser.parse_args(["fit", "--data", "e"])  # --out is required
    synth = parser.parse_args(["synth", "--out", "s", "--seed", "3"])
    again = parser.parse_args(["fit", "--out", "p", "--jobs", "2"])
    assert vars(fit) == {"command": "fit", "config": None, "out": "o", "data": "d", "variant": "v2"}
    assert vars(synth) == {"command": "synth", "config": None, "out": "s", "seed": 3}
    assert vars(again) == {"command": "fit", "config": None, "out": "p", "jobs": 2}
    capsys.readouterr()


def test_module_entry_point(tmp_path, child_env):
    out = tmp_path / "cli"
    proc = subprocess.run(
        [sys.executable, "-m", "vehicle3d", "synth", "--out", str(out),
         "--seed", "1", "--frames", "1"],
        env=child_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "labels" / "000000.txt").is_file()


def test_render_table_alignment():
    text = render_table("t", ["", "a", "b"], [("row", [1.0, None]), ("r2", ["x", 0.25])])
    lines = text.splitlines()
    assert lines[0] == "t"
    assert lines[2].split() == ["row", "1.0000", "-"]
    assert lines[3].split() == ["r2", "x", "0.2500"]
