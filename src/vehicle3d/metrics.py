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
per EvalPair and reused by every metric threshold and difficulty; so are
the score and content orders.  Pass the same EvalPair list to every curve
to reuse them (a (detections, ground truth) tuple is wrapped afresh on
each call).  The first 3D or BEV curve over a list scores every frame not
yet scored with one footprint clip per pair and one geometry.box_ious call
for the whole list, giving each pair its 3D and BEV IoU together; pairs
whose footprints' bounding boxes are apart score exactly 0 without a clip.
2D IoU and center distance are computed on first use.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

# iou_3d and iou_bev are not called here; perfbench's trace wraps these names.
from .geometry import Box2D, BoxStack, box_ious, iou_2d, iou_3d, iou_bev  # noqa: F401
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
# the pair's largest coordinate, far above the clipper's rounding.
_APART_RTOL = 1e-9


@dataclass(frozen=True)
class EvalPair:
    """One frame: scored detections against annotated ground truth.

    The matching orders and each pair value are computed once and kept on
    the instance, so every curve over it reuses them.
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
    def _values(self) -> dict:
        """(kind, detection index, ground-truth index) -> pair value."""
        return {}

    def _value(self, kind: str, i: int, j: int):
        """Detection i against ground truth j: kind is "iou_3d" or "iou_bev"
        (filled in by _score_boxes; None unless both dimensions are
        positive), or "iou_2d" or "center_distance" (computed once, here)."""
        key = (kind, i, j)
        values = self._values
        if key not in values:
            det, gt = self.detections[i], self.ground_truth[j]
            values[key] = (iou_2d(_box(det), _box(gt)) if kind == "iou_2d"
                           else center_distance(det, gt))
        return values[key]


def _score_boxes(pairs) -> None:
    """Give every (detection, ground truth) pair of the frames not yet
    scored its 3D and BEV IoU, with one box_ious call across those frames.

    Each record with positive dimensions becomes a box once.  A pair
    without two boxes scores None; a pair whose footprints' bounding boxes
    are apart scores 0.0 without a clip, and its frame's `_apart` mask,
    which also marks the frame scored, says so.
    """
    todo = [pair for pair in pairs if "_apart" not in vars(pair)]
    if not todo:
        return
    records = [rec for pair in todo for rec in (*pair.detections, *pair.ground_truth)]
    posed = [k for k, rec in enumerate(records) if min(rec.dimensions) > 0]
    boxes = BoxStack.of([label_to_pose(records[k]) for k in posed])
    row = dict(zip(posed, range(len(posed))))  # record index -> box row
    keys, i, j = [], [], []  # the pairs of two boxes
    start = 0
    for pair in todo:
        n_det, n_gt = len(pair.detections), len(pair.ground_truth)
        vars(pair)["_apart"] = np.zeros((n_det, n_gt), dtype=bool)
        for di, gj in product(range(n_det), range(n_gt)):
            a, b = row.get(start + di), row.get(start + n_det + gj)
            if a is None or b is None:
                pair._values["iou_3d", di, gj] = pair._values["iou_bev", di, gj] = None
            else:
                keys.append((pair, di, gj))
                i.append(a)
                j.append(b)
        start += n_det + n_gt
    i, j = np.array(i, dtype=int), np.array(j, dtype=int)
    lo, hi = boxes.feet.min(axis=1), boxes.feet.max(axis=1)
    reach = 1.0 + np.maximum(np.abs(lo), np.abs(hi)).max(axis=1)
    # per axis, the gap between the boxes (negative where they overlap)
    gap = np.maximum(lo[j] - hi[i], lo[i] - hi[j])
    apart = (gap > _APART_RTOL * np.maximum(reach[i], reach[j])[:, None]).any(axis=1)
    iou3, iou_b = np.zeros(len(i)), np.zeros(len(i))
    iou3[~apart], iou_b[~apart] = box_ious(boxes, i[~apart], j[~apart])
    for (pair, di, gj), v3, vb, off in zip(keys, iou3.tolist(), iou_b.tolist(), apart.tolist()):
        pair._values["iou_3d", di, gj], pair._values["iou_bev", di, gj] = v3, vb
        pair._apart[di, gj] = off


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

    pairs = [pair if isinstance(pair, EvalPair) else EvalPair(*pair) for pair in frames]
    if metric in ("ap3d", "apbev"):
        _score_boxes(pairs)
    flags = []
    n_gt = 0
    for pair in pairs:
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
