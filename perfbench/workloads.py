"""The timed workloads: what each one runs, what it writes, and how that
output is checked and scored.

Every workload is one `vehicle3d` CLI stage run in process on a synthetic
dataset.  A pass writes to a fresh directory; the files listed in the
workload's `tree` must be byte-identical across the passes of one run.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

from vehicle3d.metrics import alp, ap_3d, ap_bev
from vehicle3d.scene_io import parse_config_text, parse_labels
from vehicle3d.shape import load_model

_ERROR_KEY = re.compile(r"^i\d+\.error\s*=", re.MULTILINE)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments besides --data and --out
    tree: tuple  # output entries (glob patterns) checked byte for byte
    rungs: int  # fits per instance; 0 means the whole pass is one operation
    v4_labels: str | None  # v4 predictions, relative to the output directory
    why: str

    def command(self, data: Path, out: Path) -> list:
        return [self.argv[0], "--data", str(data), "--out", str(out), *self.argv[1:]]

    def operations(self, instances: int) -> int:
        return instances * self.rungs if self.rungs else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit", ("fit", "--variant", "v4", "--jobs", "1"), ("labels", "diag"), 1,
            "labels",
            "v4 fit, the stage every user runs: 750 LM solves, refine+energy ~90% of a "
            "pass; moves with refine.* and energy.*, bypasses metrics.* and shape.*",
        ),
        Workload(
            "ablate", ("ablate", "--jobs", "1"), ("ablation.txt", "fit_v*"), 4,
            "fit_v4/labels",
            "four variant fits (1500 solves) + 36 PR curves: the only place the one-pass "
            "ladder and match-once scoring show (refine.refine.calls, geometry.*, metrics.*)",
        ),
        Workload(
            "shape-learn", ("shape-learn", "--basis", "2"), ("model.txt", "report.cfg"), 0,
            None,
            "EM shape learning, the only caller of shape.learn_em (em_iter_ms, iterations); "
            "bypasses every solver and metric change",
        ),
    )
}


def tree_digest(out_dir: Path, patterns) -> str:
    """sha256 over the relative paths and bytes of every file under the
    matched entries; an entry that matches nothing changes the digest."""
    digest = hashlib.sha256()
    for pattern in patterns:
        tops = sorted(out_dir.glob(pattern))
        if not tops:
            digest.update(f"missing {pattern}\0".encode())
        for top in tops:
            files = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
            for path in files:
                data = path.read_bytes()
                rel = path.relative_to(out_dir).as_posix()
                digest.update(f"{rel}\0{len(data)}\0".encode())
                digest.update(data)
    return digest.hexdigest()


def error_count(out_dir: Path) -> int:
    """Per-instance fit failures: `iN.error` keys in every diag file."""
    return sum(
        len(_ERROR_KEY.findall(path.read_text(encoding="utf-8")))
        for path in out_dir.glob("**/diag/*.cfg")
    )


def dataset_instances(data: Path) -> int:
    return sum(
        int(parse_config_text(path.read_text(encoding="utf-8"))["instances"])
        for path in (data / "meas").glob("*.cfg")
    )


def _read_frames(pred_dir: Path, gt_dir: Path):
    gt_files = sorted(gt_dir.glob("*.txt"))
    return [
        (tuple(parse_labels((pred_dir / path.name).read_text(encoding="utf-8"))),
         tuple(parse_labels(path.read_text(encoding="utf-8"))))
        for path in gt_files
    ]


def score_output(workload: Workload, out_dir: Path, data: Path) -> tuple[dict, list]:
    """Quality figures of one pass's output, plus a list of structural
    problems (empty when the output is well formed)."""
    problems = []
    if workload.v4_labels is None:
        report = parse_config_text((out_dir / "report.cfg").read_text(encoding="utf-8"))
        load_model(out_dir / "model.txt")  # raises on a malformed model file
        return {
            "em_reproj_rmse_px": float(report["reproj_rmse_px"]),
            "em_iterations": int(report["iterations"]),
            "em_converged": report["converged"] == "true",
        }, problems

    pred_dir = out_dir / workload.v4_labels
    gt_dir = data / "labels"
    missing = sorted({p.name for p in gt_dir.glob("*.txt")} - {p.name for p in pred_dir.glob("*.txt")})
    if missing:
        return {}, [f"no v4 predictions for {len(missing)} frame(s)"]
    frames = _read_frames(pred_dir, gt_dir)
    predictions = [det for dets, _ in frames for det in dets]
    instances = dataset_instances(data)
    errors = error_count(pred_dir.parent)
    if len(predictions) + errors != instances:
        problems.append(
            f"{len(predictions)} v4 predictions + {errors} failures != {instances} instances"
        )
    degenerate = sum(1 for det in predictions if min(det.dimensions) <= 0)
    return {
        "predictions": len(predictions),
        "degenerate": degenerate,
        "degenerate_share": degenerate / len(predictions) if predictions else 0.0,
        "alp_1m_moderate": alp(frames, 1.0, "moderate"),
        "ap3d_0.25_moderate": ap_3d(frames, 0.25, "moderate"),
        "apbev_0.5_moderate": ap_bev(frames, 0.5, "moderate"),
    }, problems
