"""Command-line tool wrapping the library end to end.

Subcommands:
    synth        sample a synthetic dataset: ground-truth label files plus
                 per-frame measurement files
    shape-learn  fit the morphable landmark model to a dataset's landmarks
    fit          refine every measurement file into predicted label files
                 with confidence scores, plus per-instance diagnostics
    eval         score predicted labels against ground-truth labels
    ablate       fit all four energy variants and tabulate the comparison

Configuration precedence: command-line flag, then a `key = value` line in
the --config file, then the built-in default.  The effective configuration
is echoed to <out>/manifest.cfg by every run that writes files.

All outputs are plain text.  Floats use shortest round-trip formatting,
every file is written to a temp name and renamed into place.  fit and
ablate pool a dataset's instances into fixed-size blocks, one batched
solve per block; an instance's result does not depend on which block it
lands in, and blocks are collected in dataset order, so reruns are
byte-identical for a fixed seed at any --jobs setting.

Exit status: 0 on full success; 1 on any failure (bad configuration or
out-of-range option values, I/O, malformed measurement files, mismatched
frame sets, or per-instance fit failures -- the run still completes and
records what it can); 2 for command-line usage errors.
"""
from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .energy import ABLATION_VARIANTS, EnergyConfig, Measurement
from .geometry import BehindCameraError, footprint
from .metrics import DIFFICULTIES, EvalPair, alp, ap_3d, ap_bev, pr_curve
from .refine import InitializationError, SolverOptions, refine_ladder
# Unused here; kept importable as vehicle3d.cli.refine_ablation, the name
# external profilers wrap.
from .refine import refine_ablation  # noqa: F401
from .scene_io import (
    CAR_MODEL,
    STANDARD_NOISE,
    GenerationError,
    LabelFormatError,
    MeasurementFormatError,
    NoiseSpec,
    SceneParams,
    emit_labels,
    emit_measurements,
    format_config,
    generate_scene,
    label_to_pose,
    parse_labels,
    parse_measurements,
    pose_to_label,
    read_config,
)
from .shape import LandmarkObservations, LearnOptions, learn_em, load_model, save_model


class CLIError(RuntimeError):
    """User-facing failure: reported to stderr, exit status 1."""


# ---------------------------------------------------------------------------
# Option plumbing: one option table per subcommand (_COMMANDS, at the end),
# shared by argparse and the config-file reader so precedence is uniform.
# ---------------------------------------------------------------------------

def _as_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _as_float_or_none(text: str):
    lowered = str(text).strip().lower()
    return None if lowered == "none" else float(text)


def _as_float_list(text: str) -> tuple:
    values = tuple(float(part) for part in str(text).split(",") if part.strip())
    if not values:
        raise ValueError("expected a comma-separated list of numbers")
    return values


def _fmt_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


class Option(NamedTuple):
    name: str  # underscores; the flag uses dashes
    conv: Callable
    default: object
    help: str
    field: str | None = None  # "config.field" the value sets, see _CONFIGS
    minimum: int | None = None
    required: bool = False
    choices: tuple | None = None  # the allowed values, checked like minimum
    within: tuple | None = None  # (predicate, message) each given value must pass


# Ranges of metric thresholds: an IoU threshold or gate at or below 0 would
# let disjoint boxes match, and a NaN one would match nothing.
_IOU_RANGE = (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")
_DISTANCE_RANGE = (lambda v: math.isfinite(v) and v > 0.0, "must be finite and positive")


# The config objects behind options: a field option takes its default and
# converter from the field's value here, and its value is set on a copy.
_CONFIGS = {
    "energy": EnergyConfig(),
    "solver": SolverOptions(),
    "noise": STANDARD_NOISE,
    "scene": SceneParams(),
    "learn": LearnOptions(),
}
_CONVERTERS = {bool: _as_bool, int: int, float: float}


def _field_option(name: str, field: str, help_text: str) -> Option:
    config, attr = field.split(".")
    default = getattr(_CONFIGS[config], attr)
    return Option(name, _CONVERTERS[type(default)], default, help_text, field)


def _resolve_options(command: str, args):
    """(effective option values, config objects) of one run.

    Each value comes from its flag, else the --config file, else the
    default.  Required options, minimums, choices, value ranges and
    the config objects' own checks are all applied here, before anything
    is written.
    """
    file_cfg = {}
    if args.config:
        try:
            file_cfg = read_config(args.config)
        except (OSError, ValueError) as exc:
            raise CLIError(f"cannot read config {args.config}: {exc}")
    table = _COMMANDS[command].options
    unknown = sorted(set(file_cfg) - {opt.name for opt in table} - {"command", "out"})
    if unknown:
        raise CLIError(f"unknown config keys: {', '.join(unknown)}")
    effective, configs = {}, {}
    for opt in table:
        if hasattr(args, opt.name):
            value = getattr(args, opt.name)
        elif opt.name in file_cfg:
            try:
                value = opt.conv(file_cfg[opt.name])
            except ValueError as exc:
                raise CLIError(f"config key {opt.name}: {exc}")
        else:
            value = opt.default
        if opt.required and value is None:
            raise CLIError(f"{command} requires --{opt.name.replace('_', '-')}")
        if opt.minimum is not None and value < opt.minimum:
            raise CLIError(f"{opt.name} must be at least {opt.minimum}")
        if opt.choices is not None and value not in opt.choices:
            raise CLIError(f"unknown {opt.name} {value!r}")
        if opt.within is not None and value is not None:
            valid, message = opt.within
            if not all(map(valid, value if isinstance(value, tuple) else (value,))):
                raise CLIError(f"{opt.name} = {_fmt_value(value)}: {message}")
        if opt.field is not None:
            config, attr = opt.field.split(".")
            try:
                configs[config] = replace(configs.get(config, _CONFIGS[config]), **{attr: value})
            except ValueError as exc:
                raise CLIError(f"{opt.name} = {_fmt_value(value)}: {exc}")
        effective[opt.name] = value
    return effective, configs


# ---------------------------------------------------------------------------
# File helpers.
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_manifest(out_dir: Path, command: str, effective: dict) -> None:
    payload = {"command": command}
    payload.update({k: _fmt_value(v) for k, v in effective.items()})
    _atomic_write(out_dir / "manifest.cfg", format_config(payload))


def _labels_dir(path_text: str) -> Path:
    path = Path(path_text)
    if (path / "labels").is_dir():
        return path / "labels"
    if path.is_dir():
        return path
    raise CLIError(f"no label directory at {path}")


def _read_data_file(path: Path, parse):
    """parse(the file's text); a malformed file or an I/O error is a CLIError."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (LabelFormatError, MeasurementFormatError) as exc:
        raise CLIError(f"{path}: {exc}")
    except OSError as exc:
        raise CLIError(str(exc))


# ---------------------------------------------------------------------------
# Tables.
# ---------------------------------------------------------------------------

def render_table(title: str, headers, rows) -> str:
    """Aligned plain-text table; None renders as '-'.

    rows are (label, values) with one value per non-label header.
    """
    def cell(value):
        if value is None:
            return "-"
        if isinstance(value, str):
            return value
        return f"{value:.4f}"

    grid = [[str(h) for h in headers]]
    for label, values in rows:
        grid.append([str(label)] + [cell(v) for v in values])
    widths = [max(len(row[c]) for row in grid) for c in range(len(grid[0]))]
    lines = [title]
    for row in grid:
        first = row[0].ljust(widths[0])
        rest = "  ".join(cell.rjust(widths[c + 1]) for c, cell in enumerate(row[1:]))
        lines.append((first + "  " + rest).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(effective: dict, out_dir: Path, *, noise: NoiseSpec, scene: SceneParams) -> int:
    labels_dir = out_dir / "labels"
    meas_dir = out_dir / "meas"
    labels_dir.mkdir(parents=True, exist_ok=True)
    meas_dir.mkdir(parents=True, exist_ok=True)
    for index in range(effective["frames"]):
        try:
            frame, measurements, labels = generate_scene(
                scene, noise, [effective["seed"], index]
            )
        except GenerationError as exc:
            raise CLIError(f"frame {index}: {exc}")
        name = f"{index:06d}"
        _atomic_write(labels_dir / (name + ".txt"), emit_labels(labels))
        _atomic_write(
            meas_dir / (name + ".cfg"),
            emit_measurements(frame.camera, frame.ground, measurements),
        )
    _write_manifest(out_dir, "synth", effective)
    print(f"wrote {effective['frames']} frames to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# fit (workers solve fixed-size blocks of instances; parent writes in frame order)
# ---------------------------------------------------------------------------

# Instances per batched solve.  Larger blocks amortize more per-call numpy
# overhead but hold more per-iteration temporaries; results do not depend
# on it.
_FIT_BLOCK = 64


def _instance_outcome(meas: Measurement, outcome):
    """(label record or None, diag entries without the instance prefix)."""
    if isinstance(outcome, InitializationError):
        return None, {"error": str(outcome)}
    score = 1.0 / (1.0 + outcome.final_energy)
    try:
        record = pose_to_label(outcome.vars.pose(), meas.cam, score=score)
    except BehindCameraError:
        return None, {"error": "refined box projects behind the camera"}
    except ValueError as exc:
        return None, {"error": f"refined box has no valid image box: {exc}"}
    diag = {
        "converged": _fmt_value(bool(outcome.converged)),
        "iterations": str(outcome.iterations),
        "reason": outcome.reason,
        "energy": repr(float(outcome.final_energy)),
    }
    for term, value in outcome.breakdown.items():
        diag["energy_" + term] = repr(float(value))
    return record, diag


def _fit_block_task(task):
    measurements, variants, model, energy, solver = task
    top = max(variants, key=ABLATION_VARIANTS.index)
    rungs = refine_ladder(measurements, model, top, opts=solver, base=energy)
    return [
        {v: _instance_outcome(meas, rungs[v][i]) for v in variants}
        for i, meas in enumerate(measurements)
    ]


def _parallel_map(fn, tasks, jobs: int):
    """fn over an iterable of tasks, results yielded in task order."""
    if jobs > 1:
        with multiprocessing.get_context("fork").Pool(processes=jobs) as pool:
            yield from pool.imap(fn, tasks, chunksize=1)
    else:
        yield from map(fn, tasks)


def _measurement_files(data_text: str) -> list:
    meas_dir = Path(data_text) / "meas"
    paths = sorted(meas_dir.glob("*.cfg"))
    if not paths:
        raise CLIError(f"no measurement files under {meas_dir}")
    return paths


def _load_fit_model(model_path):
    if model_path:
        try:
            return load_model(model_path)
        except (OSError, ValueError) as exc:
            raise CLIError(f"cannot load model {model_path}: {exc}")
    return CAR_MODEL


def _write_frame(out_dirs: dict, frame_id: str, outcomes) -> int:
    """Write one frame's labels and diag for every rung; returns its failures."""
    failures = 0
    for variant, out_dir in out_dirs.items():
        records, diag = [], {"variant": variant}
        for i, outcome in enumerate(outcomes):
            record, entries = outcome[variant]
            if record is not None:
                records.append(record)
            diag.update({f"i{i}.{key}": value for key, value in entries.items()})
        diag["failures"] = str(len(outcomes) - len(records))
        failures += len(outcomes) - len(records)
        _atomic_write(out_dir / "labels" / (frame_id + ".txt"), emit_labels(records))
        _atomic_write(out_dir / "diag" / (frame_id + ".cfg"), format_config(diag))
    return failures


def _run_fit(effective: dict, out_dirs: dict, energy: EnergyConfig, solver: SolverOptions) -> int:
    """Fit every instance of the dataset up to the highest requested rung
    and write labels/ and diag/ of each rung into out_dirs[variant].

    Instances are pooled across frames in dataset order and solved in
    blocks of _FIT_BLOCK.  A frame is written as soon as its last instance
    is solved, so memory stays bounded by a few blocks, not the dataset.
    """
    meas_files = _measurement_files(effective["data"])
    settings = (tuple(out_dirs), _load_fit_model(effective["model"]), energy, solver)
    for out_dir in out_dirs.values():
        (out_dir / "labels").mkdir(parents=True, exist_ok=True)
        (out_dir / "diag").mkdir(parents=True, exist_ok=True)
    # (frame id, instance count), appended as the files are parsed.  Under
    # a worker pool blocks() runs in the pool's task thread; each frame is
    # appended before any block holding its instances is handed out, and a
    # malformed file's CLIError reaches this thread in block order.
    frames = []

    def blocks():
        pending = []
        for path in meas_files:
            measurements = _read_data_file(path, parse_measurements)[2]
            frames.append((path.stem, len(measurements)))
            pending += measurements
            while len(pending) >= _FIT_BLOCK:
                yield (pending[:_FIT_BLOCK], *settings)
                pending = pending[_FIT_BLOCK:]
        # last, possibly empty: it also releases frames parsed after the
        # last full block
        yield (pending, *settings)

    failures, written, solved = 0, 0, []
    for outcomes in _parallel_map(_fit_block_task, blocks(), effective["jobs"]):
        solved += outcomes
        while written < len(frames) and frames[written][1] <= len(solved):
            frame_id, count = frames[written]
            failures += _write_frame(out_dirs, frame_id, solved[:count])
            del solved[:count]
            written += 1
    return failures


def cmd_fit(effective: dict, out_dir: Path, *, energy: EnergyConfig, solver: SolverOptions) -> int:
    failures = _run_fit(effective, {effective["variant"]: out_dir}, energy, solver)
    _write_manifest(out_dir, "fit", effective)
    print(f"fit complete: {failures} instance failure(s); outputs in {out_dir}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _paired_frames(pred_dir: Path, gt_dir: Path):
    pred_ids = {p.stem: p for p in pred_dir.glob("*.txt")}
    gt_ids = {p.stem: p for p in gt_dir.glob("*.txt")}
    missing_pred = sorted(set(gt_ids) - set(pred_ids))
    missing_gt = sorted(set(pred_ids) - set(gt_ids))
    if missing_pred or missing_gt:
        parts = []
        if missing_pred:
            parts.append("missing predictions for: " + ", ".join(missing_pred))
        if missing_gt:
            parts.append("missing ground truth for: " + ", ".join(missing_gt))
        raise CLIError("frame sets differ; " + "; ".join(parts))
    if not gt_ids:
        raise CLIError(f"no label files under {gt_dir}")
    order = sorted(gt_ids)
    frames = [
        EvalPair(_read_data_file(pred_ids[frame_id], parse_labels),
                 _read_data_file(gt_ids[frame_id], parse_labels))
        for frame_id in order
    ]
    return order, frames


# Eval tables of AP-style metrics: metric -> (title, row label format).
_AP_TABLES = {
    "alp": ("average localization precision (3D center distance)", "{:g} m"),
    "ap3d": ("average precision, 3D IoU", "IoU {:g}"),
    "apbev": ("average precision, bird's-eye IoU", "IoU {:g}"),
}


def _curve_jobs(effective: dict) -> list:
    """(metric, threshold, ALP gate) of every eval table row, in table order."""
    return [
        *[("alp", t, effective["alp_gate"]) for t in effective["alp_thresholds"]],
        *[("ap3d", t, None) for t in effective["iou3d_thresholds"]],
        *[("apbev", t, None) for t in effective["bev_thresholds"]],
        ("ap2d", effective["iou2d_threshold"], None),
    ]


def _eval_curves(frames, jobs, points: int) -> dict:
    """(metric, threshold, difficulty) -> PR curve, or None without valid
    ground truth; each curve is computed once for the tables and the files."""
    return {
        (metric, threshold, difficulty): pr_curve(
            frames, metric, threshold, difficulty, gate_iou=gate, points=points
        )
        for metric, threshold, gate in jobs
        for difficulty in DIFFICULTIES
    }


def _metric_tables(jobs, curves: dict) -> str:
    def row(metric, threshold, field):
        cells = (curves[metric, threshold, d] for d in DIFFICULTIES)
        return [None if curve is None else getattr(curve, field) for curve in cells]

    header = ["", *DIFFICULTIES]
    blocks = [
        render_table(title, header, [
            (label.format(threshold), row(metric, threshold, "ap"))
            for job_metric, threshold, _ in jobs if job_metric == metric
        ])
        for metric, (title, label) in _AP_TABLES.items()
    ]
    threshold = next(t for metric, t, _ in jobs if metric == "ap2d")
    blocks.append(render_table("2D detection", header, [
        (f"AP  IoU {threshold:g}", row("ap2d", threshold, "ap")),
        (f"AOS IoU {threshold:g}", row("ap2d", threshold, "aos")),
    ]))
    return "\n".join(blocks)


def _write_curves(curves: dict, out_dir: Path) -> None:
    curve_dir = out_dir / "curves"
    curve_dir.mkdir(parents=True, exist_ok=True)
    for (metric, threshold, difficulty), curve in curves.items():
        if curve is None:
            continue
        payload = {
            "metric": metric,
            "threshold": repr(float(threshold)),
            "difficulty": difficulty,
            "ap": repr(float(curve.ap)),
            "aos": repr(float(curve.aos)),
            "thresholds": " ".join(repr(float(v)) for v in curve.thresholds),
            "recall": " ".join(repr(float(v)) for v in curve.recall),
            "precision": " ".join(repr(float(v)) for v in curve.precision),
            "similarity": " ".join(repr(float(v)) for v in curve.similarity),
        }
        name = f"{metric}_{threshold:g}_{difficulty}.cfg"
        _atomic_write(curve_dir / name, format_config(payload))


def _record_plot_entries(payload: dict, prefix: str, record) -> None:
    # closed ground-plane outline (x z pairs) plus the image-plane box
    left, top, right, bottom = record.bbox
    payload[prefix + "bbox"] = " ".join(repr(float(v)) for v in (left, top, right, bottom))
    if min(record.dimensions) <= 0:
        return
    feet = footprint(label_to_pose(record))
    ring = np.vstack([feet, feet[:1]]).reshape(-1)
    payload[prefix + "bev"] = " ".join(repr(float(v)) for v in ring)


def _write_plot_data(order, frames, out_dir: Path) -> None:
    plot_dir = out_dir / "plot"
    plot_dir.mkdir(parents=True, exist_ok=True)
    for frame_id, pair in zip(order, frames):
        payload = {}
        for i, det in enumerate(pair.detections):
            _record_plot_entries(payload, f"pred{i}.", det)
        for i, gt in enumerate(pair.ground_truth):
            _record_plot_entries(payload, f"gt{i}.", gt)
        _atomic_write(plot_dir / (frame_id + ".cfg"), format_config(payload))


def cmd_eval(effective: dict, out_dir: Path | None) -> int:
    order, frames = _paired_frames(
        _labels_dir(effective["pred"]), _labels_dir(effective["gt"])
    )
    jobs = _curve_jobs(effective)
    curves = _eval_curves(frames, jobs, effective["points"])
    text = _metric_tables(jobs, curves)
    print(text, end="")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(out_dir / "eval.txt", text)
        if effective["curves"]:
            _write_curves(curves, out_dir)
        if effective["plot_data"]:
            _write_plot_data(order, frames, out_dir)
        _write_manifest(out_dir, "eval", effective)
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def cmd_ablate(effective: dict, out_dir: Path, *, energy: EnergyConfig, solver: SolverOptions) -> int:
    gt_dir = _labels_dir(effective["data"])
    total_failures = _run_fit(
        effective, {variant: out_dir / f"fit_{variant}" for variant in ABLATION_VARIANTS},
        energy, solver,
    )
    points = effective["points"]
    metrics = (
        (f"ALP @ {effective['alp_threshold']:g} m",
         lambda fr, d: alp(fr, effective["alp_threshold"], d, points=points)),
        (f"AP 3D IoU @ {effective['iou3d_threshold']:g}",
         lambda fr, d: ap_3d(fr, effective["iou3d_threshold"], d, points=points)),
        (f"AP bird's-eye IoU @ {effective['bev_threshold']:g}",
         lambda fr, d: ap_bev(fr, effective["bev_threshold"], d, points=points)),
    )
    # One variant's frames (and the pair values they keep) at a time.
    rows = {}  # (metric title, variant) -> values by difficulty
    for variant in ABLATION_VARIANTS:
        frames = _paired_frames(out_dir / f"fit_{variant}" / "labels", gt_dir)[1]
        for title, fn in metrics:
            rows[title, variant] = [fn(frames, d) for d in DIFFICULTIES]
    text = "\n".join(
        render_table(title, ["", *DIFFICULTIES],
                     [(variant, rows[title, variant]) for variant in ABLATION_VARIANTS])
        for title, _ in metrics
    )
    print(text, end="")
    _atomic_write(out_dir / "ablation.txt", text)
    _write_manifest(out_dir, "ablate", effective)
    return 1 if total_failures else 0


# ---------------------------------------------------------------------------
# shape-learn
# ---------------------------------------------------------------------------

def cmd_shape_learn(effective: dict, out_dir: Path, *, learn: LearnOptions) -> int:
    observations = []
    for path in _measurement_files(effective["data"]):
        for i, meas in enumerate(_read_data_file(path, parse_measurements)[2]):
            if not np.isfinite(meas.landmarks_uv[meas.landmarks_visible]).all():
                raise CLIError(f"{path}: i{i}.landmarks: non-finite visible landmark")
            observations.append(
                LandmarkObservations(uv=meas.landmarks_uv, visible=meas.landmarks_visible))
    try:
        result = learn_em(observations, effective["basis"], learn)
    except ValueError as exc:  # too few usable instances
        raise CLIError(str(exc))
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(result.model, out_dir / "model.txt")
    report = {
        "instances_total": str(len(observations)),
        "instances_used": str(int(result.used_mask.sum())),
        "converged": _fmt_value(bool(result.converged)),
        "iterations": str(result.iterations),
        "polish_iterations": str(result.polish_iterations),
        "final_loglik": repr(result.loglik),
        "noise_var": repr(float(result.noise_var)),
        "reproj_rmse_px": repr(float(result.reproj_rmse)),
    }
    _atomic_write(out_dir / "report.cfg", format_config(report))
    _write_manifest(out_dir, "shape-learn", effective)
    print(
        f"learned {effective['basis']}-basis model from "
        f"{int(result.used_mask.sum())} instances in {result.iterations} EM iterations "
        f"({'converged' if result.converged else 'not converged'}) + "
        f"{result.polish_iterations} polish steps; "
        f"reprojection RMSE {result.reproj_rmse:.3f} px"
    )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    summary: str
    handler: Callable  # (effective, out_dir, **configs) -> exit status
    needs_out: bool
    options: tuple


_DATA = Option("data", str, None, "dataset directory from synth", required=True)
_MODEL = Option("model", str, None, "morphable model file (default: built-in)")
_JOBS = Option("jobs", int, 1, "worker processes", minimum=1)
_POINTS = Option("points", int, 11, "AP interpolation points", minimum=2)
_SOLVE = (
    _field_option("lambda1", "energy.lambda1", "landmark term weight"),
    _field_option("lambda2", "energy.lambda2", "depth term weight"),
    _field_option("lambda3", "energy.lambda3", "ground-plane term weight"),
    _field_option("lambda4", "energy.lambda4", "shape-regularity term weight"),
    _field_option("max_iterations", "solver.max_iterations", "solver iteration cap"),
)

_COMMANDS = {
    "synth": Command("generate a synthetic labeled dataset", cmd_synth, True, (
        Option("seed", int, None, "dataset seed", required=True),
        Option("frames", int, 50, "number of frames to generate", minimum=1),
        _field_option("instances", "scene.n_instances", "instances per frame"),
        _field_option("with_depth", "scene.with_depth", "include a crop-depth pseudo-measurement"),
        _field_option("landmark_px", "noise.landmark_px_sigma", "landmark noise, pixels"),
        _field_option("occlusion_rate", "noise.landmark_occlusion_rate", "landmark drop probability"),
        _field_option("box_px", "noise.box_px_sigma", "2D box corner noise, pixels"),
        _field_option("theta_deg", "noise.theta_sigma_deg", "yaw hypothesis noise, degrees"),
        _field_option("sigma_log", "noise.sigma_log_sigma", "log-extent hypothesis noise"),
        _field_option("depth_rel", "noise.depth_rel_sigma", "relative depth noise"),
    )),
    "shape-learn": Command("learn a morphable model from annotated landmarks", cmd_shape_learn, True, (
        _DATA,
        Option("basis", int, 2, "number of basis shapes", minimum=0),
        _field_option("max_iterations", "learn.max_iterations", "EM iteration cap"),
        _field_option("tol", "learn.tol", "relative log-likelihood stop"),
    )),
    "fit": Command("refine 3D boxes for every frame of a dataset", cmd_fit, True, (
        _DATA,
        _MODEL,
        Option("variant", str, "v4", "energy variant v1..v4", choices=ABLATION_VARIANTS),
        _JOBS._replace(help="worker processes for per-frame work"),
        *_SOLVE,
    )),
    "eval": Command("score predictions against ground truth", cmd_eval, False, (
        Option("pred", str, None, "predicted labels: directory or fit output", required=True),
        Option("gt", str, None, "ground-truth labels: directory or dataset", required=True),
        Option("alp_thresholds", _as_float_list, (1.0, 2.0, 3.0), "ALP meters, comma-separated",
               within=_DISTANCE_RANGE),
        Option("iou3d_thresholds", _as_float_list, (0.25, 0.5, 0.7), "3D IoU thresholds",
               within=_IOU_RANGE),
        Option("bev_thresholds", _as_float_list, (0.5, 0.7), "bird's-eye IoU thresholds",
               within=_IOU_RANGE),
        Option("iou2d_threshold", float, 0.7, "2D AP/AOS IoU threshold", within=_IOU_RANGE),
        Option("alp_gate", _as_float_or_none, 0.7, "2D IoU gate for ALP, or 'none'",
               within=_IOU_RANGE),
        _POINTS._replace(help="AP interpolation points, recall 0 to 1 inclusive"),
        Option("curves", _as_bool, False, "write PR curve point files"),
        Option("plot_data", _as_bool, False, "write footprint/wireframe polylines"),
    )),
    "ablate": Command("run all energy variants and tabulate the metrics", cmd_ablate, True, (
        _DATA,
        _MODEL,
        _JOBS,
        *_SOLVE,
        Option("alp_threshold", float, 1.0, "ALP distance for the table, meters",
               within=_DISTANCE_RANGE),
        Option("iou3d_threshold", float, 0.25, "3D IoU for the table", within=_IOU_RANGE),
        Option("bev_threshold", float, 0.5, "bird's-eye IoU for the table", within=_IOU_RANGE),
        _POINTS,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vehicle3d",
        description="synthetic 3D vehicle pose benchmark: generate, fit, evaluate",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.summary)
        sub.add_argument("--config", default=None, help="key = value option file")
        sub.add_argument("--out", default=None, required=command.needs_out,
                         help="output directory")
        for opt in command.options:
            required = " (required)" if opt.required else ""
            sub.add_argument(
                "--" + opt.name.replace("_", "-"),
                dest=opt.name,
                type=opt.conv,
                # unset flags stay off the namespace, so a flag given as
                # 'none' still beats the config file
                default=argparse.SUPPRESS,
                help=f"{opt.help}{required} (default: {_fmt_value(opt.default)})",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        effective, configs = _resolve_options(args.command, args)
        out_dir = Path(args.out) if args.out else None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command].handler(effective, out_dir, **configs)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
