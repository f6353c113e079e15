"""Detection metrics: localization AP (center distance), 3D and
bird's-eye-view IoU AP, 2D AP with orientation similarity, difficulty
buckets, and PR curves.

Matching protocol (shared by all metric families):
  - detections are processed in descending score; score ties are broken
    by record content (bbox, location, dimensions, yaw, alpha, type),
    never by input position, so results are invariant to input order;
  - each detection greedily takes the best still-unmatched ground truth
    that passes the metric criterion (quality ties again broken by the
    ground truth's content key);
  - ground truth outside the evaluated difficulty (or of a type other
    than OBJECT_TYPE) is "ignored": matching it costs nothing and earns
    nothing; detections of other types are skipped;
  - unmatched detections covered by a don't-care region are dropped,
    the rest are false positives;
  - PR points are recorded at each distinct score threshold, so the
    curve equals what per-threshold rematching would produce.

A bucket with no valid ground truth yields None (absent), never zero.

Match once: the first curve over an EvalPair list scores every frame of
it not yet scored in one vectorized pass, filling four dense (detections x
ground truth) tables per frame -- 3D IoU, BEV IoU, 2D IoU (also ALP's gate)
and center distance -- that every later curve, threshold and difficulty
reads through a threshold mask; the score and content orders are kept the
same way.  Pass the same EvalPair list to every curve to reuse them (a
(detections, ground truth) tuple is wrapped, and so scored, afresh on each
call).  3D and BEV IoU come from one geometry.box_ious call for the whole
list, one footprint clip per pair; pairs whose footprints' bounding boxes
are apart score exactly 0 without a clip, and pairs without two boxes of
positive dimensions score NaN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import BoxStack, box2d_ious, box_ious
from .scene_io import LabelRecord, label_pose_fields
# Unused here; kept importable as vehicle3d.metrics.<name>, the names
# external profilers wrap.
from .geometry import iou_2d, iou_3d, iou_bev  # noqa: F401
from .scene_io import label_to_pose  # noqa: F401

DIFFICULTIES = ("easy", "moderate", "hard")
DONT_CARE_TYPE = "DontCare"
OBJECT_TYPE = "Car"  # the one class every curve evaluates

# difficulty -> (min projected height px, max occlusion, max truncation)
_DIFFICULTY_RULES = {
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}
_RANK = {"easy": 0, "moderate": 1, "hard": 2, "ignored": 3}

# an unmatched detection is absorbed by a don't-care region when the
# region covers at least this fraction of the detection box
_DONTCARE_COVERAGE = 0.5

# Footprint bounding boxes count as apart only beyond this gap, relative to
# the pair's largest coordinate, far above the clipper's rounding.
_APART_RTOL = 1e-9


class PairTable(NamedTuple):
    """Every (detection, ground truth) value of one frame, (n_det, n_gt)
    each; NaN IoU where the pair lacks two boxes of positive dimensions."""

    iou_3d: np.ndarray
    iou_bev: np.ndarray
    iou_2d: np.ndarray
    distance: np.ndarray
    apart: np.ndarray  # footprints apart: 3D and BEV IoU 0.0 without a clip


@dataclass(frozen=True)
class EvalPair:
    """One frame: scored detections against annotated ground truth.

    The matching orders, the ground truths' difficulty ranks and the pair
    table are computed once and kept on the instance, so every curve over
    it reuses them.
    """

    detections: tuple
    ground_truth: tuple

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))
        object.__setattr__(self, "ground_truth", tuple(self.ground_truth))

    @cached_property
    def _det_order(self) -> list:
        """Detection indices by descending score, ties by content."""
        dets = self.detections
        return sorted(range(len(dets)),
                      key=lambda i: (-_score(dets[i]),) + _content_key(dets[i]))

    @cached_property
    def _gt_order(self) -> list:
        gts = self.ground_truth
        return sorted(range(len(gts)), key=lambda j: _content_key(gts[j]))

    @cached_property
    def _gt_rank(self) -> list:
        """Each ground truth's difficulty rank; "ignored" for other types."""
        return [_RANK[difficulty_bucket(gt) if gt.type == OBJECT_TYPE else "ignored"]
                for gt in self.ground_truth]


def _corners(records) -> np.ndarray:
    """(n, 4) pixel boxes through Box2D's log/exp round trip, so the 2D
    IoU table equals iou_2d of Box2D.from_corners(*rec.bbox) bit for bit."""
    left, top, right, bottom = np.array([rec.bbox for rec in records]).reshape(-1, 4).T
    tx, ty = 0.5 * (left + right), 0.5 * (top + bottom)
    hw, hh = 0.5 * np.exp(np.log(right - left)), 0.5 * np.exp(np.log(bottom - top))
    return np.stack([tx - hw, ty - hh, tx + hw, ty + hh], axis=1)


def _centers(records) -> np.ndarray:
    """(n, 3) true 3D box centers: half a height above the bottom-face anchor."""
    centers = np.array([rec.location for rec in records]).reshape(-1, 3)
    centers[:, 1] -= np.array([rec.dimensions[0] for rec in records]) / 2.0
    return centers


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance of each pair of rows (P, 3)."""
    d = a - b
    return np.sqrt((d[:, None] @ d[:, :, None])[:, 0, 0])


def center_distance(a: LabelRecord, b: LabelRecord) -> float:
    """Distance between true 3D box centers: _distances for one pair."""
    return float(_distances(_centers([a]), _centers([b]))[0])


def _score_frames(pairs) -> None:
    """Give every frame not yet scored its PairTable, in one vectorized pass
    over those frames' pairs and one box_ious call.

    The records with positive dimensions become boxes in one
    label_pose_fields call.  A pair whose footprints' bounding boxes are
    apart scores 0.0 without a clip.
    """
    todo = [pair for pair in pairs if "_table" not in vars(pair)]
    if not todo:
        return
    records = [rec for pair in todo for rec in (*pair.detections, *pair.ground_truth)]
    i, j, start = [], [], 0  # record indices of each frame's pairs, detection-major
    for pair in todo:
        n_det, n_gt = len(pair.detections), len(pair.ground_truth)
        di, gj = np.indices((n_det, n_gt)).reshape(2, -1)
        i.append(start + di)
        j.append(start + n_det + gj)
        start += n_det + n_gt
    bounds = np.cumsum([len(frame) for frame in i])[:-1]  # where each frame's pairs end
    i, j = np.concatenate(i), np.concatenate(j)
    posed = np.array([min(rec.dimensions) > 0 for rec in records], dtype=bool)
    boxes = BoxStack.of(*label_pose_fields([rec for rec, p in zip(records, posed) if p]))
    row = np.cumsum(posed) - 1  # record index -> box row, where posed
    two = posed[i] & posed[j]
    a, b = row[i[two]], row[j[two]]
    lo, hi = boxes.feet.min(axis=1), boxes.feet.max(axis=1)
    reach = 1.0 + np.maximum(np.abs(lo), np.abs(hi)).max(axis=1)
    # per axis, the gap between the boxes (negative where they overlap)
    gap = np.maximum(lo[b] - hi[a], lo[a] - hi[b])
    apart = np.zeros(len(i), dtype=bool)
    apart[two] = (gap > _APART_RTOL * np.maximum(reach[a], reach[b])[:, None]).any(axis=1)
    iou3, iou_b = np.full(len(i), np.nan), np.full(len(i), np.nan)
    iou3[two], iou_b[two] = 0.0, 0.0
    clip = two & ~apart
    iou3[clip], iou_b[clip] = box_ious(boxes, row[i[clip]], row[j[clip]])
    corners, centers = _corners(records), _centers(records)
    values = (iou3, iou_b, box2d_ious(corners[i], corners[j]),
              _distances(centers[i], centers[j]), apart)
    for pair, *frame in zip(todo, *(np.split(v, bounds) for v in values)):
        shape = (len(pair.detections), len(pair.ground_truth))
        vars(pair)["_table"] = PairTable(*(v.reshape(shape) for v in frame))


@dataclass(frozen=True)
class PRCurve:
    """Operating points at distinct score thresholds, plus the
    interpolated average precision (percent)."""

    thresholds: np.ndarray
    recall: np.ndarray
    precision: np.ndarray
    ap: float
    similarity: np.ndarray | None = None  # cumulative orientation term
    aos: float | None = None


def difficulty_bucket(gt: LabelRecord) -> str:
    """Finest difficulty the ground truth qualifies for, else "ignored".

    Unknown occlusion/truncation (-1) never qualifies.
    """
    if gt.type == DONT_CARE_TYPE:
        return "ignored"
    height = gt.bbox[3] - gt.bbox[1]
    if gt.occluded < 0 or gt.truncated < 0:
        return "ignored"
    for name in DIFFICULTIES:
        min_h, max_occ, max_tr = _DIFFICULTY_RULES[name]
        if height >= min_h and gt.occluded <= max_occ and gt.truncated <= max_tr:
            return name
    return "ignored"


def _score(det: LabelRecord) -> float:
    return 1.0 if det.score is None else float(det.score)


def _content_key(rec: LabelRecord):
    """Deterministic order for records, independent of input position.

    Records identical under this key are interchangeable for matching,
    so any consistent resolution yields the same metric values.
    """
    return (rec.bbox, rec.location, rec.dimensions, rec.rotation_y,
            rec.alpha, rec.type)


# metric -> the PairTable field its IoU criterion reads
_IOU_FIELD = {"ap3d": "iou_3d", "apbev": "iou_bev", "ap2d": "iou_2d"}


def _quality(table: PairTable, metric: str, threshold: float, gate_iou: float | None):
    """Match quality of every pair (higher is better), NaN where the pair
    fails the metric's criterion: for ALP the negated center distance below
    `threshold` meters with 2D IoU at least `gate_iou`, else the IoU at
    least `threshold`."""
    if metric == "alp":
        passes = table.distance < threshold
        if gate_iou is not None:
            passes &= table.iou_2d >= gate_iou
        return np.where(passes, -table.distance, np.nan)  # closer is better
    iou = getattr(table, _IOU_FIELD[metric])
    return np.where(iou >= threshold, iou, np.nan)


def _orientation_similarity(det: LabelRecord, gt: LabelRecord) -> float:
    return (1.0 + np.cos(gt.alpha - det.alpha)) / 2.0


def _match_frame(pair: EvalPair, quality: np.ndarray, difficulty: str):
    """Flags per kept detection: (score, is_tp, similarity); plus the
    count of valid ground truth.  quality is _quality's matrix."""
    rank = _RANK[difficulty]
    gts = pair.ground_truth
    valid = [gt_rank <= rank for gt_rank in pair._gt_rank]
    dontcare_boxes = [gt.bbox for gt in gts if gt.type == DONT_CARE_TYPE]
    gt_order = pair._gt_order
    quality = quality.tolist()
    taken = [False] * len(gts)
    flags = []
    for i in pair._det_order:
        det = pair.detections[i]
        if det.type != OBJECT_TYPE:
            continue
        best = None  # (quality, position in gt content order)
        for j in gt_order:
            if taken[j] or not valid[j]:
                continue
            q = quality[i][j]
            if not math.isnan(q) and (best is None or q > best[0]):
                best = (q, j)
        if best is not None:
            taken[best[1]] = True
            flags.append((_score(det), True,
                          _orientation_similarity(det, gts[best[1]]),
                          _content_key(det)))
            continue
        absorbed = False
        for j in gt_order:
            if taken[j] or valid[j] or gts[j].type == DONT_CARE_TYPE:
                continue
            if not math.isnan(quality[i][j]):
                taken[j] = True  # matched an ignored ground truth
                absorbed = True
                break
        if not absorbed:
            for dc in dontcare_boxes:
                if _cover_fraction(det.bbox, dc) >= _DONTCARE_COVERAGE:
                    absorbed = True
                    break
        if not absorbed:
            flags.append((_score(det), False, 0.0, _content_key(det)))
    n_valid = sum(1 for v in valid if v)
    return flags, n_valid


def _cover_fraction(det_bbox, region_bbox) -> float:
    """Fraction of the detection pixel box inside the region.

    Raw corner arithmetic, so exact half coverage is exactly 0.5.
    """
    dl, dt, dr, db = det_bbox
    rl, rt, rr, rb = region_bbox
    w = min(dr, rr) - max(dl, rl)
    h = min(db, rb) - max(dt, rt)
    return max(w, 0.0) * max(h, 0.0) / ((dr - dl) * (db - dt))


def _interpolated_ap(recall, values, points: int) -> float:
    """Mean over `points` evenly spaced recall levels from 0 to 1 inclusive
    of the best value at or above each level, in percent.

    The grid always includes recall 0, so points=41 is not AP|R40
    (Simonelli et al., Disentangling Monocular 3D Object Detection, ICCV
    2019), which samples the 40 levels 1/40..1; points=11 is the 11-point
    interpolated AP of the original KITTI benchmark.
    """
    grid = np.linspace(0.0, 1.0, points)
    total = 0.0
    for g in grid:
        at_least = values[recall >= g - 1e-12]
        total += float(at_least.max()) if at_least.size else 0.0
    return 100.0 * total / points


def pr_curve(
    frames,
    metric: str,
    threshold: float,
    difficulty: str = "moderate",
    gate_iou: float | None = 0.7,
    points: int = 11,
) -> PRCurve | None:
    """Match every frame, sweep score thresholds, interpolate.

    metric is one of "alp", "ap3d", "apbev", "ap2d"; threshold is meters
    for "alp" and an IoU otherwise.  Returns None when no valid ground
    truth exists at the difficulty (undefined, not zero).
    """
    if difficulty not in _RANK or difficulty == "ignored":
        raise ValueError(f"unknown difficulty {difficulty!r}")
    if metric != "alp" and metric not in _IOU_FIELD:
        raise ValueError(f"unknown metric {metric!r}")

    pairs = [pair if isinstance(pair, EvalPair) else EvalPair(*pair) for pair in frames]
    _score_frames(pairs)
    flags = []
    n_gt = 0
    for pair in pairs:
        quality = _quality(pair._table, metric, threshold, gate_iou)
        frame_flags, frame_gt = _match_frame(pair, quality, difficulty)
        flags.extend(frame_flags)
        n_gt += frame_gt
    if n_gt == 0:
        return None

    flags.sort(key=lambda f: ((-f[0],) + f[3]))
    scores = np.array([f[0] for f in flags])
    tp = np.cumsum([1 if f[1] else 0 for f in flags])
    fp = np.cumsum([0 if f[1] else 1 for f in flags])
    sim = np.cumsum([f[2] for f in flags])
    if len(flags):
        last_of_group = np.append(scores[1:] != scores[:-1], True)
        keep = np.flatnonzero(last_of_group)
        thresholds = scores[keep]
        recall = tp[keep] / n_gt
        precision = tp[keep] / (tp[keep] + fp[keep])
        similarity = sim[keep] / (tp[keep] + fp[keep])
    else:
        thresholds = np.zeros(0)
        recall = np.zeros(0)
        precision = np.zeros(0)
        similarity = np.zeros(0)
    ap = _interpolated_ap(recall, precision, points)
    aos = _interpolated_ap(recall, similarity, points)
    return PRCurve(
        thresholds=thresholds,
        recall=recall,
        precision=precision,
        ap=ap,
        similarity=similarity,
        aos=aos,
    )


def alp(
    frames,
    threshold_m: float = 1.0,
    difficulty: str = "moderate",
    gate_iou: float | None = 0.7,
    points: int = 11,
) -> float | None:
    curve = pr_curve(frames, "alp", threshold_m, difficulty, gate_iou, points)
    return None if curve is None else curve.ap


def ap_3d(
    frames,
    iou_threshold: float = 0.25,
    difficulty: str = "moderate",
    points: int = 11,
) -> float | None:
    curve = pr_curve(frames, "ap3d", iou_threshold, difficulty, None, points)
    return None if curve is None else curve.ap


def ap_bev(
    frames,
    iou_threshold: float = 0.5,
    difficulty: str = "moderate",
    points: int = 11,
) -> float | None:
    curve = pr_curve(frames, "apbev", iou_threshold, difficulty, None, points)
    return None if curve is None else curve.ap
