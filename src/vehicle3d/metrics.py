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
  - ground truth outside the evaluated difficulty (or of another type)
    is "ignored": matching it costs nothing and earns nothing;
  - unmatched detections covered by a don't-care region are dropped,
    the rest are false positives;
  - PR points are recorded at each distinct score threshold, so the
    curve equals what per-threshold rematching would produce.

A bucket with no valid ground truth yields None (absent), never zero.

Match once: each (detection, ground truth) pair value -- 3D IoU, BEV IoU,
2D IoU (also ALP's gate) and center distance -- is computed at most once
per EvalPair, on first use, and reused by every metric threshold and
difficulty; so are the score and content orders.  Pass the same EvalPair
list to every curve to reuse them (a (detections, ground truth) tuple is
wrapped afresh on each call).  Pairs whose footprints' bounding boxes
are apart score a 3D/BEV IoU of exactly 0 without a polygon clip.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Box2D, footprint, iou_2d, iou_3d, iou_bev
from .scene_io import LabelRecord, label_to_pose

DIFFICULTIES = ("easy", "moderate", "hard")
DONT_CARE_TYPE = "DontCare"

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
# the frame's largest coordinate, far above the clipper's rounding.
_APART_RTOL = 1e-9


@dataclass(frozen=True)
class EvalPair:
    """One frame: scored detections against annotated ground truth.

    The matching orders and each pair value are computed on first use and
    kept on the instance, so every curve over it reuses them.
    """

    detections: tuple
    ground_truth: tuple

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))
        object.__setattr__(self, "ground_truth", tuple(self.ground_truth))
        for det in self.detections:
            if det.score is not None and not np.isfinite(det.score):
                raise ValueError("detection scores must be finite")

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
    def _poses_and_apart(self):
        """(detection poses, ground-truth poses, apart): a pose is None
        unless the record's dimensions are positive; apart[i, j] marks the
        pairs whose footprints' bounding boxes are disjoint."""
        poses = [
            [None if min(rec.dimensions) <= 0 else label_to_pose(rec) for rec in records]
            for records in (self.detections, self.ground_truth)
        ]
        det_b, gt_b = (_footprint_bounds(side) for side in poses)
        # per axis, the gap between the boxes (negative where they overlap)
        gap = np.maximum(gt_b[None, :, :2] - det_b[:, None, 2:],
                         det_b[:, None, :2] - gt_b[None, :, 2:])
        scale = 1.0 + max(np.abs(b[np.isfinite(b)]).max(initial=0.0) for b in (det_b, gt_b))
        return poses[0], poses[1], (gap > _APART_RTOL * scale).any(axis=2)

    @cached_property
    def _values(self) -> dict:
        """(kind, detection index, ground-truth index) -> pair value."""
        return {}

    def _value(self, kind: str, i: int, j: int):
        """Detection i against ground truth j, computed once: kind is
        "iou_3d" or "iou_bev" (None unless both dimensions are positive),
        "iou_2d" or "center_distance"."""
        key = (kind, i, j)
        values = self._values
        if key not in values:
            values[key] = self._compute(kind, i, j)
        return values[key]

    def _compute(self, kind: str, i: int, j: int):
        det, gt = self.detections[i], self.ground_truth[j]
        if kind == "iou_2d":
            return iou_2d(_box(det), _box(gt))
        if kind == "center_distance":
            return center_distance(det, gt)
        det_poses, gt_poses, apart = self._poses_and_apart
        if det_poses[i] is None or gt_poses[j] is None:
            return None
        if apart[i, j]:
            return 0.0
        iou = iou_3d if kind == "iou_3d" else iou_bev
        return iou(det_poses[i], gt_poses[j])


def _footprint_bounds(poses) -> np.ndarray:
    """(n, 4) rows (min x, min z, max x, max z) of each footprint; NaN for
    a missing pose or a non-finite footprint, which is never apart."""
    bounds = np.full((len(poses), 4), np.nan)
    for k, pose in enumerate(poses):
        if pose is not None:
            feet = footprint(pose)
            if np.isfinite(feet).all():
                bounds[k] = (*feet.min(axis=0), *feet.max(axis=0))
    return bounds


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


def difficulty_bucket(gt: LabelRecord, projected_height_px: float | None = None) -> str:
    """Finest difficulty the ground truth qualifies for, else "ignored".

    Unknown occlusion/truncation (-1) never qualifies.
    """
    if gt.type == DONT_CARE_TYPE:
        return "ignored"
    height = projected_height_px
    if height is None:
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


def _box(rec: LabelRecord) -> Box2D:
    return Box2D.from_corners(*rec.bbox)


def _center(rec: LabelRecord) -> np.ndarray:
    x, y, z = rec.location
    return np.array([x, y - rec.dimensions[0] / 2.0, z])


def center_distance(a: LabelRecord, b: LabelRecord) -> float:
    """Distance between true 3D box centers (half a height above the
    bottom-face anchor)."""
    return float(np.linalg.norm(_center(a) - _center(b)))


def _alp_criterion(threshold_m: float, gate_iou: float | None):
    def passes(pair, i, j):
        if gate_iou is not None and pair._value("iou_2d", i, j) < gate_iou:
            return None
        dist = pair._value("center_distance", i, j)
        if dist >= threshold_m:
            return None
        return -dist  # closer is better

    return passes


def _iou_criterion(kind: str, threshold: float):
    def passes(pair, i, j):
        value = pair._value(kind, i, j)
        return value if value is not None and value >= threshold else None

    return passes


def _orientation_similarity(det: LabelRecord, gt: LabelRecord) -> float:
    return (1.0 + np.cos(gt.alpha - det.alpha)) / 2.0


def _match_frame(pair: EvalPair, passes, difficulty: str, object_type: str):
    """Flags per kept detection: (score, is_tp, similarity); plus the
    count of valid ground truth."""
    rank = _RANK[difficulty]
    gts = pair.ground_truth
    valid = []
    dontcare_boxes = []
    for gt in gts:
        if gt.type == DONT_CARE_TYPE:
            dontcare_boxes.append(gt.bbox)
            valid.append(False)
        elif gt.type != object_type:
            valid.append(False)
        else:
            valid.append(_RANK[difficulty_bucket(gt)] <= rank)

    gt_order = pair._gt_order
    taken = [False] * len(gts)
    flags = []
    for i in pair._det_order:
        det = pair.detections[i]
        if det.type != object_type:
            continue
        best = None  # (quality, position in gt content order)
        for j in gt_order:
            if taken[j] or not valid[j]:
                continue
            quality = passes(pair, i, j)
            if quality is not None and (best is None or quality > best[0]):
                best = (quality, j)
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
            if passes(pair, i, j) is not None:
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
    object_type: str = "Car",
) -> PRCurve | None:
    """Match every frame, sweep score thresholds, interpolate.

    metric is one of "alp", "ap3d", "apbev", "ap2d"; threshold is meters
    for "alp" and an IoU otherwise.  Returns None when no valid ground
    truth exists at the difficulty (undefined, not zero).
    """
    if difficulty not in _RANK or difficulty == "ignored":
        raise ValueError(f"unknown difficulty {difficulty!r}")
    criteria = {
        "alp": lambda: _alp_criterion(threshold, gate_iou),
        "ap3d": lambda: _iou_criterion("iou_3d", threshold),
        "apbev": lambda: _iou_criterion("iou_bev", threshold),
        "ap2d": lambda: _iou_criterion("iou_2d", threshold),
    }
    if metric not in criteria:
        raise ValueError(f"unknown metric {metric!r}")
    passes = criteria[metric]()

    flags = []
    n_gt = 0
    for pair in frames:
        if not isinstance(pair, EvalPair):
            pair = EvalPair(*pair)
        frame_flags, frame_gt = _match_frame(pair, passes, difficulty, object_type)
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
    object_type: str = "Car",
) -> float | None:
    curve = pr_curve(
        frames, "alp", threshold_m, difficulty, gate_iou, points, object_type
    )
    return None if curve is None else curve.ap


def ap_3d(
    frames,
    iou_threshold: float = 0.25,
    difficulty: str = "moderate",
    points: int = 11,
    object_type: str = "Car",
) -> float | None:
    curve = pr_curve(
        frames, "ap3d", iou_threshold, difficulty, None, points, object_type
    )
    return None if curve is None else curve.ap


def ap_bev(
    frames,
    iou_threshold: float = 0.5,
    difficulty: str = "moderate",
    points: int = 11,
    object_type: str = "Car",
) -> float | None:
    curve = pr_curve(
        frames, "apbev", iou_threshold, difficulty, None, points, object_type
    )
    return None if curve is None else curve.ap


def ap_2d_aos(
    frames,
    iou_threshold: float = 0.7,
    difficulty: str = "moderate",
    points: int = 11,
    object_type: str = "Car",
):
    """(AP, AOS) percentages, or (None, None) without valid ground truth."""
    curve = pr_curve(
        frames, "ap2d", iou_threshold, difficulty, None, points, object_type
    )
    if curve is None:
        return None, None
    return curve.ap, curve.aos
