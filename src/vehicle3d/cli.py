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
is echoed to <out>/manifest.cfg, last, by every run given --out that gets
past its inputs; given back as --config, it reruns the same command.  No
directory under --out, nor --out itself, exists before the run writes its
first file there.

All outputs are plain text.  Floats use shortest round-trip formatting,
every file is written to a temp name and renamed into place.  fit, ablate
and shape-learn parse the whole dataset (ablate its ground truth too)
before anything is solved or written.  fit and ablate cut its instances
into tasks, one batched solve per task and rung the command writes (fit
its --variant, ablate v1..v4, each from the initialization); an
instance's result does not depend on which task it lands in, and tasks are
collected in dataset order, so reruns are byte-identical for a fixed seed
at any --jobs setting; labels come from each rung's SolveBlock.detections.
eval and ablate hold their tables as data, rows naming a curve job and the
curve field they print, and render them all through one function.

Exit status: 0 on full success; 1 on any failure (bad configuration or
out-of-range option values, I/O, malformed measurement files, mismatched
frame sets, or per-instance fit failures -- the run still completes and
records what it can); 2 for command-line usage errors.
"""
from __future__ import annotations

import argparse
import functools
import math
import multiprocessing
import os
import sys
from dataclasses import replace
from itertools import chain, islice
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .energy import ABLATION_VARIANTS, EnergyConfig, MeasurementBlock
from .geometry import BoxStack
from .metrics import ALP_GATE, DIFFICULTIES, POINTS, pr_curves
from .refine import SolverOptions, refine_ladder
# Unused here; kept importable as vehicle3d.cli.refine_ablation, the name
# external profilers wrap.
from .refine import refine_ablation  # noqa: F401
from .scene_io import (
    CAR_MODEL,
    FLAT_GROUND,
    KITTI_CAMERA,
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
    label_pose_fields,
    parse_config_text,
    parse_labels,
    parse_measurements,
)
from .shape import LandmarkObservations, LearnOptions, format_model, learn_em, load_model


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


def _or_none(conv: Callable) -> Callable:
    """conv, but the text 'none' (any case) reads as None."""
    def convert(text):
        return None if str(text).strip().lower() == "none" else conv(text)
    convert.__name__ = conv.__name__  # argparse names the type in its errors
    return convert


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
_CONVERTERS = {bool: _as_bool, int: int, float: float, str: str}


def _field_option(name: str, field: str, help_text: str) -> Option:
    config, attr = field.split(".")
    default = getattr(_CONFIGS[config], attr)
    return Option(name, _CONVERTERS[type(default)], default, help_text, field)


def _resolve_options(command: str, args):
    """(effective option values, config objects) of one run.

    Each value comes from its flag, else the --config file, else the
    default.  Required options, minimums, value ranges and the config
    objects' own checks are all applied here, before anything is written,
    as are the manifest's (its line reads each text value back) and eval's
    (list values that name a table row and curve file print apart).
    """
    file_cfg = {}
    if args.config:
        try:
            file_cfg = parse_config_text(Path(args.config).read_text(encoding="utf-8-sig"))
        except (OSError, ValueError) as exc:
            raise CLIError(f"cannot read config {args.config}: {exc}")
    # a manifest names the command it configured
    if file_cfg.get("command", command) != command:
        raise CLIError(f"config {args.config} is for {file_cfg['command']}, not {command}")
    table = _COMMANDS[command].options
    unknown = sorted(set(file_cfg) - {opt.name for opt in table} - {"command"})
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
        if opt.within is not None and value is not None:
            valid, message = opt.within
            if not all(map(valid, value if isinstance(value, tuple) else (value,))):
                raise CLIError(f"{opt.name} = {_fmt_value(value)}: {message}")
        if isinstance(value, str):
            try:
                kept = parse_config_text(format_config({opt.name: value})) == {opt.name: value}
            except ValueError:
                kept = False
            if not kept:
                raise CLIError(f"{opt.name} = {value!r}: a manifest line cannot hold this value")
        printed = [f"{v:g}" for v in value] if isinstance(value, tuple) else []
        twice = [text for text in printed if printed.count(text) > 1]
        if twice:
            raise CLIError(f"{opt.name} = {_fmt_value(value)}: two values print as {twice[0]}")
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
    """Write to <name>.tmp and rename into place, creating the directory
    first: the one place a run's output directories appear.  A failed write
    or rename removes the temp file and re-raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _labels_dir(path_text: str) -> Path:
    path = Path(path_text)
    if (path / "labels").is_dir():
        return path / "labels"
    if path.is_dir():
        return path
    raise CLIError(f"no label directory at {path}")


def _read_data_file(path: Path, parse):
    """parse(the file's UTF-8 text, a leading BOM dropped); a file that is
    malformed or does not decode is a CLIError naming it."""
    try:
        return parse(path.read_text(encoding="utf-8-sig"))
    except (LabelFormatError, MeasurementFormatError, UnicodeDecodeError) as exc:
        raise CLIError(f"{path}: {exc}")


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
    for index in range(effective["frames"]):
        try:
            _, block, labels = generate_scene(scene, noise, [effective["seed"], index])
        except GenerationError as exc:
            raise CLIError(f"frame {index}: {exc}")
        name = f"{index:06d}"
        _atomic_write(out_dir / "labels" / (name + ".txt"), emit_labels(labels))
        _atomic_write(
            out_dir / "meas" / (name + ".cfg"),
            emit_measurements(KITTI_CAMERA, FLAT_GROUND, block),
        )
    print(f"wrote {effective['frames']} frames to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# fit (parse the dataset, solve it in tasks, write frames in dataset order)
# ---------------------------------------------------------------------------

# Most instances per task handed to refine_ladder, which solves a task's
# instances as one batch per written rung: the one limit on the rows of one
# evaluation and on the instances whose outcomes a task holds.
# n instances make tasks of min(_FIT_BLOCK, ceil(n / jobs)), so every worker
# gets a share of a small dataset.  No result depends on it.
_FIT_BLOCK = 256


def _rung_outcomes(block: MeasurementBlock, solve) -> list:
    """(label record or None, diag entries without the instance prefix) of
    each row of a rung's SolveBlock, its records from SolveBlock.detections."""
    records, error = solve.detections(block)
    records = iter(records)
    columns = zip(error, solve.converged.tolist(), solve.iterations.tolist(), solve.reason,
                  solve.energy.tolist(), *(value.tolist() for value in solve.terms.values()))

    def entry(error, converged, iterations, reason, energy, *terms):
        if error is not None:
            return None, {"error": error}
        diag = {"converged": _fmt_value(converged), "iterations": str(iterations),
                "reason": reason, "energy": repr(energy)}
        diag.update(("energy_" + name, repr(value)) for name, value in zip(solve.terms, terms))
        return next(records), diag

    return [entry(*row) for row in columns]


def _fit_block_task(task):
    """{variant: _rung_outcomes entry} of each instance of one task."""
    block, variants, model, energy, solver = task
    rungs = {variant: _rung_outcomes(block, solve) for variant, solve
             in refine_ladder(block, model, energy, solver, variants).items()}
    return [dict(zip(rungs, entries)) for entries in zip(*rungs.values())]


def _parallel_map(fn, tasks, jobs: int):
    """fn over an iterable of tasks, results yielded in task order."""
    if jobs > 1:
        with multiprocessing.get_context("fork").Pool(processes=jobs) as pool:
            yield from pool.imap(fn, tasks, chunksize=1)
    else:
        yield from map(fn, tasks)


def _read_dataset(data_text: str) -> list:
    """(frame id, MeasurementBlock) of each file under <data>/meas, in name order."""
    meas_dir = Path(data_text) / "meas"
    paths = sorted(meas_dir.glob("*.cfg"))
    if not paths:
        raise CLIError(f"no measurement files under {meas_dir}")
    return [(path.stem, _read_data_file(path, parse_measurements)[2]) for path in paths]


def _pooled(dataset: list) -> MeasurementBlock:
    """The parsed dataset's frames as one block; a landmark-count mix is a CLIError."""
    try:
        return MeasurementBlock.concat(block for _, block in dataset)
    except ValueError as exc:
        raise CLIError(str(exc))


# fit scales model points by each instance's extents, so a model lives in
# the unit box (CAR_MODEL stays within 0.94); a mean or basis coordinate
# beyond this bound puts it in another frame, such as shape-learn's EM gauge
_MODEL_REACH = 2.0


def _load_fit_model(model_path):
    if not model_path:
        return CAR_MODEL
    try:
        model = load_model(model_path)
    except (OSError, ValueError) as exc:
        raise CLIError(f"cannot load model {model_path}: {exc}")
    for name, values in (("mean shape", model.mean), ("basis", model.basis)):
        reach = float(np.abs(values).max(initial=0.0))
        if reach > _MODEL_REACH:
            raise CLIError(f"cannot load model {model_path}: {name} coordinate {reach:g} lies outside "
                           f"[-{_MODEL_REACH:g}, {_MODEL_REACH:g}], the unit-box frame fit expects")
    return model


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


def _run_fit(effective: dict, dataset: list, out_dirs: dict, energy: EnergyConfig,
             solver: SolverOptions) -> int:
    """Fit every instance of the parsed dataset at each rung in out_dirs,
    from its initialization and at energy's weights, and write labels/ and
    diag/ of each rung into out_dirs[variant].

    Instances are pooled across frames in dataset order and cut into tasks,
    solved by at most one worker each; each frame is written from the
    outcomes, in that order.
    """
    model, block = _load_fit_model(effective["model"]), _pooled(dataset)
    if len(block) and block.K != model.K:  # refused before anything is written
        raise CLIError(f"measurement has {block.K} landmarks, the model {model.K}")
    settings = (tuple(out_dirs), model, energy, solver)
    size = min(_FIT_BLOCK, max(1, -(-len(block) // effective["jobs"])))
    tasks = [(block[i:i + size], *settings) for i in range(0, len(block), size)]
    jobs = min(effective["jobs"], len(tasks))
    outcomes = chain.from_iterable(_parallel_map(_fit_block_task, tasks, jobs))
    return sum(_write_frame(out_dirs, frame_id, list(islice(outcomes, len(frame))))
               for frame_id, frame in dataset)


def cmd_fit(effective: dict, out_dir: Path, *, energy: EnergyConfig, solver: SolverOptions) -> int:
    dataset = _read_dataset(effective["data"])
    failures = _run_fit(effective, dataset, {effective["variant"]: out_dir}, energy, solver)
    print(f"fit complete: {failures} instance failure(s); outputs in {out_dir}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _read_ground_truth(gt_dir: Path, pred_ids) -> dict:
    """{frame id: parsed records} of every label file under gt_dir, in frame
    order.  Its frame ids are checked against pred_ids, the frames of the
    predictions or of the measurements they come from, before any parse."""
    gt_paths = {p.stem: p for p in gt_dir.glob("*.txt")}
    parts = [f"missing {side} for: " + ", ".join(sorted(ids)) for side, ids in (
        ("predictions", set(gt_paths) - set(pred_ids)),
        ("ground truth", set(pred_ids) - set(gt_paths)),
    ) if ids]
    if parts:
        raise CLIError("frame sets differ; " + "; ".join(parts))
    if not gt_paths:
        raise CLIError(f"no label files under {gt_dir}")
    return {frame_id: _read_data_file(gt_paths[frame_id], parse_labels)
            for frame_id in sorted(gt_paths)}


def _paired_frames(pred_dir: Path, ground_truth: dict) -> list:
    """One (detections, ground truth) pair per frame of ground_truth, in its
    order: pred_dir's label file of that frame against its ground truth."""
    return [(_read_data_file(pred_dir / (frame_id + ".txt"), parse_labels), records)
            for frame_id, records in ground_truth.items()]


def _eval_curves(frames, jobs, points: int) -> dict:
    """((metric, threshold, ALP gate), difficulty) -> PR curve, or None
    without valid ground truth, of each distinct curve job: every curve is
    computed once for the tables and the files, all in one pr_curves call."""
    curve_jobs = [(metric, threshold, difficulty, gate)
                  for metric, threshold, gate in dict.fromkeys(jobs) for difficulty in DIFFICULTIES]
    curves = pr_curves(frames, curve_jobs, points)
    return {((metric, threshold, gate), difficulty): curve
            for (metric, threshold, difficulty, gate), curve in zip(curve_jobs, curves)}


def _render_tables(tables) -> str:
    """Each (title, rows) table with a column per difficulty.  A row is
    (label, curve map, curve job, PRCurve field): the field of the job's
    curve at each difficulty, None where there is no curve."""
    return "\n".join(render_table(title, ["", *DIFFICULTIES], [
        (label, [None if curves[job, d] is None else getattr(curves[job, d], field)
                 for d in DIFFICULTIES])
        for label, curves, job, field in rows
    ]) for title, rows in tables)


def _write_curves(curves: dict, out_dir: Path) -> None:
    for ((metric, threshold, _), difficulty), curve in curves.items():
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
        _atomic_write(out_dir / "curves" / name, format_config(payload))


def _write_plot_data(frame_ids, frames, out_dir: Path) -> None:
    """One plot file per frame: each record's image-plane box and, if its
    dimensions are positive, its closed ground-plane outline (x z pairs).
    The outlines of every frame are boxed in one array pass."""
    named = [[*((f"pred{i}.", det) for i, det in enumerate(dets)),
              *((f"gt{i}.", gt) for i, gt in enumerate(gts))] for dets, gts in frames]
    posed = [record for records in named for _, record in records if min(record.dimensions) > 0]
    feet = iter(BoxStack.of(*label_pose_fields(posed)).feet)
    for frame_id, records in zip(frame_ids, named):
        payload = {}
        for prefix, record in records:
            payload[prefix + "bbox"] = " ".join(repr(float(v)) for v in record.bbox)
            if min(record.dimensions) > 0:
                corners = next(feet)
                ring = np.vstack([corners, corners[:1]]).reshape(-1)
                payload[prefix + "bev"] = " ".join(repr(float(v)) for v in ring)
        _atomic_write(out_dir / "plot" / (frame_id + ".cfg"), format_config(payload))


def cmd_eval(effective: dict, out_dir: Path | None) -> int:
    pred_dir = _labels_dir(effective["pred"])
    pred_ids = [path.stem for path in pred_dir.glob("*.txt")]
    ground_truth = _read_ground_truth(_labels_dir(effective["gt"]), pred_ids)
    frames = _paired_frames(pred_dir, ground_truth)
    gate, iou2d = effective["alp_gate"], effective["iou2d_threshold"]
    alp = [("alp", t, gate) for t in effective["alp_thresholds"]]
    ap3d = [("ap3d", t, None) for t in effective["iou3d_thresholds"]]
    apbev = [("apbev", t, None) for t in effective["bev_thresholds"]]
    ap2d = ("ap2d", iou2d, None)
    curves = _eval_curves(frames, [*alp, *ap3d, *apbev, ap2d], effective["points"])
    text = _render_tables([
        ("average localization precision (3D center distance)",
         [(f"{job[1]:g} m", curves, job, "ap") for job in alp]),
        ("average precision, 3D IoU", [(f"IoU {job[1]:g}", curves, job, "ap") for job in ap3d]),
        ("average precision, bird's-eye IoU",
         [(f"IoU {job[1]:g}", curves, job, "ap") for job in apbev]),
        ("2D detection", [(f"AP  IoU {iou2d:g}", curves, ap2d, "ap"),
                          (f"AOS IoU {iou2d:g}", curves, ap2d, "aos")]),
    ])
    print(text, end="")
    if out_dir is not None:
        _atomic_write(out_dir / "eval.txt", text)
        if effective["curves"]:
            _write_curves(curves, out_dir)
        if effective["plot_data"]:
            _write_plot_data(ground_truth, frames, out_dir)
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def cmd_ablate(effective: dict, out_dir: Path, *, energy: EnergyConfig, solver: SolverOptions) -> int:
    gt_dir = _labels_dir(effective["data"])
    dataset = _read_dataset(effective["data"])
    ground_truth = _read_ground_truth(gt_dir, [frame_id for frame_id, _ in dataset])
    out_dirs = {variant: out_dir / f"fit_{variant}" for variant in ABLATION_VARIANTS}
    total_failures = _run_fit(effective, dataset, out_dirs, energy, solver)
    alp_m, iou3d, bev = (effective[f"{k}_threshold"] for k in ("alp", "iou3d", "bev"))
    jobs = {f"ALP @ {alp_m:g} m": ("alp", alp_m, ALP_GATE),  # title -> curve job
            f"AP 3D IoU @ {iou3d:g}": ("ap3d", iou3d, None),
            f"AP bird's-eye IoU @ {bev:g}": ("apbev", bev, None)}
    curves = {variant: _eval_curves(_paired_frames(out_dirs[variant] / "labels", ground_truth),
                                    jobs.values(), effective["points"])
              for variant in ABLATION_VARIANTS}
    text = _render_tables((title, [(variant, curves[variant], job, "ap")
                                   for variant in ABLATION_VARIANTS])
                          for title, job in jobs.items())
    print(text, end="")
    _atomic_write(out_dir / "ablation.txt", text)
    return 1 if total_failures else 0


# ---------------------------------------------------------------------------
# shape-learn
# ---------------------------------------------------------------------------

def cmd_shape_learn(effective: dict, out_dir: Path, *, learn: LearnOptions) -> int:
    block = _pooled(_read_dataset(effective["data"]))
    try:
        result = learn_em(LandmarkObservations(block.uv, block.visible), effective["basis"], learn)
    except ValueError as exc:  # too few usable instances
        raise CLIError(str(exc))
    _atomic_write(out_dir / "model.txt", format_model(result.model))
    report = {
        "instances_total": str(len(block)),
        "instances_used": str(int(result.used_mask.sum())),
        "converged": _fmt_value(bool(result.converged)),
        "iterations": str(result.iterations),
        "polish_iterations": str(result.polish_iterations),
        "final_loglik": repr(result.loglik),
        "noise_var": repr(float(result.noise_var)),
        "reproj_rmse_px": repr(float(result.reproj_rmse)),
    }
    _atomic_write(out_dir / "report.cfg", format_config(report))
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
_MODEL = Option("model", _or_none(str), None, "morphable model file, or 'none' for the built-in")
_JOBS = Option("jobs", int, 1, "worker processes", minimum=1)
_POINTS = Option("points", int, POINTS, "AP interpolation points", minimum=2)
# eval's ALP gate; ablate's ALP row always uses its default
_ALP_GATE = Option("alp_gate", _or_none(float), ALP_GATE, "2D IoU gate for ALP, or 'none'",
                   within=_IOU_RANGE)
_SOLVE = (
    _field_option("lambda1", "energy.lambda1", "landmark term weight"),
    _field_option("lambda2", "energy.lambda2", "depth term weight"),
    _field_option("lambda3", "energy.lambda3", "ground-plane term weight"),
    _field_option("lambda4", "energy.lambda4", "shape-regularity term weight"),
    _field_option("max_iterations", "solver.max_iterations", "solver iteration cap"),
)

_COMMANDS = {
    "synth": Command("generate a synthetic labeled dataset", cmd_synth, True, (
        Option("seed", int, None, "dataset seed", required=True, minimum=0),
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
        _field_option("variant", "energy.variant", "energy variant v1..v4"),
        _JOBS._replace(help="worker processes for tasks of instances pooled across frames"),
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
        _ALP_GATE,
        _POINTS._replace(help="AP interpolation points, recall 0 to 1 inclusive"),
        Option("curves", _as_bool, False, "write PR curve point files"),
        Option("plot_data", _as_bool, False, "write each record's 2D box and ground footprint"),
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


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on its first call and reused by every
    later one: parse_args keeps no state between calls."""
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
        # never an input directory nor its meas/ or labels/; each is required where present
        for name in [name for name in ("data", "pred", "gt") if name in effective and out_dir]:
            target, given = out_dir.resolve(), Path(effective[name]).resolve()
            if target == given:
                raise CLIError(f"--out {args.out} is the --{name} directory; "
                               "writing there would overwrite its files")
            if target in (given / "meas", given / "labels"):
                raise CLIError(f"--out {args.out} is the --{name} directory's {target.name}/; "
                               "writing there would mix outputs into its files")
        status = _COMMANDS[args.command].handler(effective, out_dir, **configs)
        if out_dir is not None:  # last, so a run stopped by an error has none
            manifest = {k: _fmt_value(v) for k, v in effective.items()}
            _atomic_write(out_dir / "manifest.cfg",
                          format_config({"command": args.command, **manifest}))
        return status
    except (CLIError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
