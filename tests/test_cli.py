"""End-to-end command-line tests: dataset generation, fitting, evaluation,
the ablation table, and the determinism/exit-status contract."""
import re
import subprocess
import sys

import numpy as np
import pytest

import vehicle3d.cli
from vehicle3d.cli import main, render_table
from vehicle3d.geometry import wrap_pi
from vehicle3d.metrics import alp
from vehicle3d.refine import initialize, refine_ablation
from vehicle3d.scene_io import (
    CAR_MODEL,
    emit_labels,
    format_config,
    parse_config_text,
    parse_labels,
    parse_measurements,
    pose_to_label,
)
from vehicle3d.shape import load_model


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
    # i0: a NaN in a visible landmark
    visible = mapping["i0.visible"].split()
    landmarks = mapping["i0.landmarks"].split()
    landmarks[2 * visible.index("1")] = "nan"
    mapping["i0.landmarks"] = " ".join(landmarks)
    # i1: no depth, and a box center above the horizon, so its ray meets the
    # ground behind the camera
    del mapping["i1.depth"]
    mapping["i1.box"] = "500.0 60.0 560.0 100.0"
    path.write_text(format_config(mapping))
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
    for meas_path in sorted((data / "meas").glob("*.cfg")):
        cam, _, measurements = parse_measurements(meas_path.read_text())
        expected = []
        for i, meas in enumerate(measurements):
            if meas_path.stem == "000001" and i < 2:
                continue
            solo = refine_ablation(meas, CAR_MODEL, "v4")
            expected.append(pose_to_label(solo.vars.pose(), cam,
                                          score=1.0 / (1.0 + solo.final_energy)))
        labels = (out / "labels" / (meas_path.stem + ".txt")).read_text()
        assert labels == emit_labels(expected)

    # blocks that straddle frames, serial or in a worker pool, write the same
    # files; 9 instances fill three blocks before the empty frame is read
    monkeypatch.setattr(vehicle3d.cli, "_FIT_BLOCK", 3)
    for jobs in (1, 2):
        small = tmp_path / f"blocks_of_3_jobs_{jobs}"
        assert run_cli("fit", "--data", data, "--out", small, "--jobs", jobs) == 1
        assert tree_bytes(small, skip=("manifest.cfg",)) == tree_bytes(out, skip=("manifest.cfg",))


@pytest.mark.parametrize("edit, key", [
    (lambda mapping: mapping.pop("i0.theta0"), "i0.theta0"),
    (lambda mapping: mapping.update(camera="1 2 3"), "camera"),
    (lambda mapping: mapping.update({"i1.sigma0": "0.1 0.2 abc"}), "i1.sigma0"),
    (lambda mapping: mapping.update({"i0.box": "nan 100 200 300"}), "i0.box: non-finite value"),
    (lambda mapping: mapping.update(ground="nan 0 0"), "ground: non-finite value"),
    (lambda mapping: mapping.update(camera="nan 700 600 170"), "camera: non-finite value"),
    (lambda mapping: mapping.update({"i0.depth": "nan"}), "i0: non-finite value"),
], ids=["missing_key", "short_camera", "non_numeric", "nan_box", "nan_ground", "nan_camera",
        "nan_depth"])
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
    # blocks of 2 are handed to the workers before the bad frame is parsed
    monkeypatch.setattr(vehicle3d.cli, "_FIT_BLOCK", 2)
    assert run_cli(argv[0], "--data", data, "--out", tmp_path / "out", *argv[1:]) == 1
    err = capfd.readouterr().err
    assert err.startswith(f"error: {bad}: ") and key in err
    assert "Traceback" not in err


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
    assert err == f"error: {bad}: i1.landmarks: non-finite visible landmark\n"
    assert not (tmp_path / "bad" / "model.txt").exists()


def test_fit_missing_data(tmp_path, capsys):
    assert run_cli("fit", "--data", tmp_path / "nope", "--out", tmp_path / "x") == 1
    assert "meas" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, message", [
    (("synth", "--seed", 1, "--instances", 0), "need at least one instance"),
    (("synth", "--seed", 1, "--frames", 0), "frames must be at least 1"),
    (("synth", "--seed", 1, "--landmark-px", -1), "landmark_px_sigma must be non-negative"),
    (("fit", "--data", "d", "--lambda1", -1), "lambda1 must be non-negative"),
    (("fit", "--data", "d", "--max-iterations", 0), "max_iterations must be at least 1"),
    (("fit", "--data", "d", "--jobs", 0), "jobs must be at least 1"),
    (("fit", "--data", "d", "--variant", "v9"), "unknown variant 'v9'"),
    (("shape-learn", "--data", "d", "--basis", -1), "basis must be at least 0"),
    (("shape-learn", "--data", "d", "--max-iterations", 0), "max_iterations must be at least 1"),
    (("shape-learn", "--data", "d", "--tol", "nan"), "tol = nan: tol must be a non-negative number"),
    (("shape-learn", "--data", "d", "--tol", -1), "tol = -1.0: tol must be a non-negative number"),
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


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli"
    proc = subprocess.run(
        [sys.executable, "-m", "vehicle3d", "synth", "--out", str(out),
         "--seed", "1", "--frames", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "labels" / "000000.txt").is_file()


def test_render_table_alignment():
    text = render_table("t", ["", "a", "b"], [("row", [1.0, None]), ("r2", ["x", 0.25])])
    lines = text.splitlines()
    assert lines[0] == "t"
    assert lines[2].split() == ["row", "1.0000", "-"]
    assert lines[3].split() == ["r2", "x", "0.2500"]
