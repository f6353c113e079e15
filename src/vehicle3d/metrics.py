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

ALP (average localization precision) takes its name and idea from Xiang
et al., Data-Driven 3D Voxel Patterns for Object Category Recognition (CVPR
2015): a pair passes when the distance between the true 3D box centers,
half a height above each label's bottom-face location, is below the
threshold in meters and, unless the gate is None, the pair's 2D IoU is at
least ALP_GATE (0.7); greedy matching then prefers the closest center.  The
center, the gate and the matching are this module's definitions; agreement
with that paper's evaluation code is neither claimed nor tested.

Match once per call: pr_curves stacks its frames once, padded to (frame,
detection slot, ground-truth slot) arrays in matching order, from one
lexsort of all their records, and scores every pair of that stack in one
vectorized pass: 3D IoU, BEV IoU, 2D IoU (also ALP's gate), center
distance and don't-care coverage.  Every curve, threshold and difficulty of
the call reads the same stack through a threshold mask.  3D and BEV IoU
come from one geometry.box_ious call, one footprint clip per pair; pairs
whose footprints' bounding boxes are apart score exactly 0 without a clip,
and pairs without two boxes of positive dimensions score NaN, as does the
padding.  pr_curve is the one-curve case.  Each curve is then one greedy
pass over all frames, a step per detection slot, with no per-frame or
per-record loop.
"""
from __future__ import annotations

from dataclasses import dataclass
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
POINTS = 11  # interpolated recall levels: the original KITTI 11-point AP
ALP_GATE = 0.7  # 2D IoU an ALP match needs, unless the gate is None

# difficulty -> (min projected height px, max occlusion, max truncation)
_DIFFICULTY_RULES = {
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}
_RANK = {"easy": 0, "moderate": 1, "hard": 2, "ignored": 3}
# Past "ignored": a don't-care region, which no detection takes, and the
# padding of a frame stack.
_DONT_CARE_RANK = 4

# an unmatched detection is absorbed by a don't-care region when the
# region covers at least this fraction of the detection box
_DONTCARE_COVERAGE = 0.5

# Footprint bounding boxes count as apart only beyond this gap, relative to
# the pair's largest coordinate, far above the clipper's rounding.
_APART_RTOL = 1e-9


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance of each pair of rows (P, 3)."""
    d = a - b
    return np.sqrt((d[:, None] @ d[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class PRCurve:
    """Operating points at distinct score thresholds, plus the
    interpolated average precision (percent)."""

    thresholds: np.ndarray
    recall: np.ndarray
    precision: np.ndarray
    ap: float
    similarity: np.ndarray  # cumulative orientation term
    aos: float


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


def _interpolated_ap(recall, values, points: int) -> float:
    """Mean over `points` evenly spaced recall levels from 0 to 1 inclusive
    of the best value at or above each level, in percent.

    recall never decreases, so a level's best value is the maximum of the
    values from the first point reaching it on; levels are summed in grid
    order.  The grid always includes recall 0, so points=41 is not AP|R40
    (Simonelli et al., Disentangling Monocular 3D Object Detection, ICCV
    2019), which samples the 40 levels 1/40..1; points=11 is the 11-point
    interpolated AP of the original KITTI benchmark.
    """
    start = np.searchsorted(recall, np.linspace(0.0, 1.0, points) - 1e-12)
    best = np.append(np.maximum.accumulate(values[::-1])[::-1], 0.0)  # 0 past the last point
    total = 0.0
    for value in best[start].tolist():
        total += value
    return 100.0 * total / points


class _Stack(NamedTuple):
    """What every curve of one pr_curves call reads, built once for all of
    them: each frame's OBJECT_TYPE detections (the only ones matched) in
    D slots by descending score, ties by content, and its ground truth in G
    slots by content, then type.  Pair values are NaN in the padding, and
    the 3D and BEV IoUs also where a pair lacks two positive-dimension boxes."""

    iou_3d: np.ndarray  # (F, D, G)
    iou_bev: np.ndarray  # (F, D, G)
    iou_2d: np.ndarray  # (F, D, G), also ALP's gate
    distance: np.ndarray  # (F, D, G) between true 3D box centers
    apart: np.ndarray  # (F, D, G) footprints apart: 3D and BEV IoU 0.0 without a clip
    dets: np.ndarray  # (F, D) slots holding a detection
    covered: np.ndarray  # (F, D) covered by a don't-care region
    score: np.ndarray  # (F, D)
    alpha: np.ndarray  # (F, D)
    order: np.ndarray  # the flat detection slots by descending score, ties by content
    gt_rank: np.ndarray  # (F, G) difficulty rank, _DONT_CARE_RANK in the padding
    gt_alpha: np.ndarray  # (F, G)

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")
    def of(cls, frames) -> "_Stack":
        """The stack of (detections, ground truth) frames: one sort of their
        records, one label_pose_fields call for those with positive
        dimensions, and one vectorized pass over their pairs.  A finite
        extreme value (a 1e308 edge, say) overflows, silently, to IoU 0 or
        distance inf, so its pair never matches."""
        tagged = [(f, rec) for f, (dets, _) in enumerate(frames)
                  for rec in dets if rec.type == OBJECT_TYPE]
        n_det = len(tagged)
        tagged += [(f, rec) for f, (_, gts) in enumerate(frames) for rec in gts]
        records = [rec for _, rec in tagged]
        frame = np.array([f for f, _ in tagged], dtype=int)
        score = np.array([1.0 if rec.score is None else rec.score for rec in records], dtype=float)
        content = np.array([(*rec.bbox, *rec.location, *rec.dimensions, rec.rotation_y, rec.alpha)
                            for rec in records], dtype=float).reshape(-1, 12)
        type_code = np.unique([rec.type for rec in records], return_inverse=True)[1]
        is_gt = np.arange(len(records)) >= n_det
        # detections, then ground truth; each by frame, then -score (detections
        # only), content and type; lexsort's last key is its first
        order = np.lexsort((type_code, *content.T[::-1], np.where(is_gt, 0.0, -score),
                            frame, is_gt))

        def slots(rows):
            """The (F, width) slots the records of rows fill, each frame's
            in order, and the record in each slot (0 in the padding)."""
            count = np.bincount(frame[rows], minlength=len(frames))
            real = np.arange(count.max()) < count[:, None]
            at = np.zeros(real.shape, dtype=int)
            at[real] = rows
            return real, at

        dets, det_at = slots(order[:n_det])
        gts, gt_at = slots(order[n_det:])
        pairs = dets[:, :, None] & gts[:, None, :]
        i = np.broadcast_to(det_at[:, :, None], pairs.shape)[pairs]
        j = np.broadcast_to(gt_at[:, None, :], pairs.shape)[pairs]

        def spread(values, fill=np.nan):
            """Pair values (P,) in their (F, D, G) slots, fill in the padding."""
            out = np.full(pairs.shape, fill, dtype=values.dtype)
            out[pairs] = values
            return out

        posed = content[:, 7:10].min(axis=1) > 0
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
        iou3, iou_b = np.where(two, 0.0, np.nan), np.where(two, 0.0, np.nan)
        clip = two & ~apart
        iou3[clip], iou_b[clip] = box_ious(boxes, row[i[clip]], row[j[clip]])
        centers = content[:, 4:7].copy()  # true 3D box centers: half a height above the anchor
        centers[:, 1] -= content[:, 7] / 2.0

        # the fraction of each detection box inside each region, from raw
        # corner arithmetic, so exact half coverage is exactly 0.5
        dl, dt, dr, db = content[i, :4].T
        rl, rt, rr, rb = content[j, :4].T
        w = np.minimum(dr, rr) - np.maximum(dl, rl)
        h = np.minimum(db, rb) - np.maximum(dt, rt)
        inside = np.maximum(w, 0.0) * np.maximum(h, 0.0) / ((dr - dl) * (db - dt))
        dont_care = np.array([rec.type == DONT_CARE_TYPE for rec in records], dtype=bool)
        covers = dont_care[j] & (inside >= _DONTCARE_COVERAGE)

        rank = np.full(len(records), _DONT_CARE_RANK)
        rank[n_det:] = [_DONT_CARE_RANK if rec.type == DONT_CARE_TYPE else
                        _RANK[difficulty_bucket(rec) if rec.type == OBJECT_TYPE else "ignored"]
                        for rec in records[n_det:]]
        keys = np.column_stack([-score, content])[order[:n_det]]  # in slot order
        return cls(
            iou_3d=spread(iou3),
            iou_bev=spread(iou_b),
            # on each record's corners as parsed, the raw corners the KITTI
            # devkit scores 2D boxes on
            iou_2d=spread(box2d_ious(content[i, :4], content[j, :4])),
            distance=spread(_distances(centers[i], centers[j])),
            apart=spread(apart, False),
            dets=dets,
            covered=spread(covers, False).any(axis=2),
            score=np.where(dets, score[det_at], 0.0),
            alpha=np.where(dets, content[det_at, 11], 0.0),
            order=np.flatnonzero(dets)[np.lexsort(keys.T[::-1])],  # lexsort is stable
            gt_rank=np.where(gts, rank[gt_at], _DONT_CARE_RANK),
            gt_alpha=np.where(gts, content[gt_at, 11], 0.0),
        )


# metric -> the _Stack field its IoU criterion reads
_IOU_FIELD = {"ap3d": "iou_3d", "apbev": "iou_bev", "ap2d": "iou_2d"}


def _quality(stack: _Stack, metric: str, threshold: float, gate_iou: float | None):
    """Match quality of every pair (higher is better), NaN where the pair
    fails the metric's criterion: for ALP the negated center distance below
    `threshold` meters with 2D IoU at least `gate_iou`, else the IoU at
    least `threshold`."""
    if metric == "alp":
        passes = stack.distance < threshold
        if gate_iou is not None:
            passes &= stack.iou_2d >= gate_iou
        return np.where(passes, -stack.distance, np.nan)  # closer is better
    iou = getattr(stack, _IOU_FIELD[metric])
    return np.where(iou >= threshold, iou, np.nan)


def _curve(stack: _Stack, metric: str, threshold: float, difficulty: str,
           gate_iou: float | None, points: int) -> PRCurve | None:
    """pr_curve of the stacked frames.  The greedy matching runs over all
    frames at once: step k gives each frame's k-th detection its best free
    valid ground truth (the first maximum in content order), else the first
    free ignored one it passes, else leaves it to don't-care coverage."""
    rank = _RANK[difficulty]
    valid = stack.gt_rank <= rank
    n_valid = int(valid.sum())
    if n_valid == 0:
        return None
    ignored = (stack.gt_rank > rank) & (stack.gt_rank <= _RANK["ignored"])  # costs and earns nothing
    quality = _quality(stack, metric, threshold, gate_iou)

    F, D, G = quality.shape
    frame = np.arange(F)
    passes = ~np.isnan(quality)
    # quality is finite where defined, so -inf marks a pair no step may take
    to_match = np.where(passes & valid[:, None], quality, -np.inf)
    to_absorb = passes & ignored[:, None]
    taken = np.zeros((F, G), dtype=bool)
    hit = np.zeros((F, D), dtype=bool)  # true positives
    absorbed = np.zeros((F, D), dtype=bool)
    took = np.zeros((F, D), dtype=int)  # the column each true positive took
    for k in range(D):
        q = np.where(taken, -np.inf, to_match[:, k])
        best = q.argmax(axis=1)  # the first maximum: ties go by content order
        hit[:, k] = q[frame, best] > -np.inf
        spare = to_absorb[:, k] & ~taken
        first = spare.argmax(axis=1)
        absorbed[:, k] = spare[frame, first] & ~hit[:, k]
        took[:, k] = np.where(hit[:, k], best, first)
        taken[frame, took[:, k]] |= hit[:, k] | absorbed[:, k]
    matched_sim = np.zeros((F, D))  # orientation similarity of each true positive
    f, k = np.nonzero(hit)
    matched_sim[f, k] = (1.0 + np.cos(stack.gt_alpha[f, took[f, k]] - stack.alpha[f, k])) / 2.0

    kept = (stack.dets & (hit | ~(absorbed | stack.covered))).reshape(-1)
    flags = stack.order[kept[stack.order]]  # kept detections by descending score, ties by content
    scores = stack.score.reshape(-1)[flags]
    hit = hit.reshape(-1)[flags]
    keep = np.flatnonzero(np.diff(scores, append=-np.inf))  # the last point of each score group
    tp, fp = np.cumsum(hit)[keep], np.cumsum(~hit)[keep]
    recall, precision = tp / n_valid, tp / (tp + fp)
    similarity = np.cumsum(matched_sim.reshape(-1)[flags])[keep] / (tp + fp)
    return PRCurve(thresholds=scores[keep], recall=recall, precision=precision,
                   ap=_interpolated_ap(recall, precision, points), similarity=similarity,
                   aos=_interpolated_ap(recall, similarity, points))


def pr_curves(frames, jobs, points: int) -> list:
    """pr_curve of each job (metric, threshold, difficulty, gate_iou) over
    the same (detections, ground truth) frames, any iterable of them, which
    are scored and stacked once for all jobs."""
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points!r}")
    for metric, _, difficulty, _ in jobs:
        if difficulty not in _RANK or difficulty == "ignored":
            raise ValueError(f"unknown difficulty {difficulty!r}")
        if metric != "alp" and metric not in _IOU_FIELD:
            raise ValueError(f"unknown metric {metric!r}")
    frames = [(tuple(dets), tuple(gts)) for dets, gts in frames]
    if not frames:
        return [None] * len(jobs)
    stack = _Stack.of(frames)
    return [_curve(stack, *job, points) for job in jobs]


def pr_curve(
    frames,
    metric: str,
    threshold: float,
    difficulty: str = "moderate",
    gate_iou: float | None = ALP_GATE,
    points: int = POINTS,
) -> PRCurve | None:
    """Match every frame, sweep score thresholds, interpolate: pr_curves
    for one job.

    frames are (detections, ground truth) pairs of LabelRecord sequences.
    metric is one of "alp", "ap3d", "apbev", "ap2d"; threshold is meters
    for "alp" and an IoU otherwise.  Returns None when no valid ground
    truth exists at the difficulty (undefined, not zero).
    """
    return pr_curves(frames, [(metric, threshold, difficulty, gate_iou)], points)[0]


def alp(
    frames,
    threshold_m: float = 1.0,
    difficulty: str = "moderate",
    gate_iou: float | None = ALP_GATE,
    points: int = POINTS,
) -> float | None:
    curve = pr_curve(frames, "alp", threshold_m, difficulty, gate_iou, points)
    return None if curve is None else curve.ap


def ap_3d(
    frames,
    iou_threshold: float = 0.25,
    difficulty: str = "moderate",
    points: int = POINTS,
) -> float | None:
    curve = pr_curve(frames, "ap3d", iou_threshold, difficulty, None, points)
    return None if curve is None else curve.ap


def ap_bev(
    frames,
    iou_threshold: float = 0.5,
    difficulty: str = "moderate",
    points: int = POINTS,
) -> float | None:
    curve = pr_curve(frames, "apbev", iou_threshold, difficulty, None, points)
    return None if curve is None else curve.ap
