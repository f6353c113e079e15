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

Match once per call: pr_curves scores every (detection, ground truth) pair
of its frames in one vectorized pass, filling four flat tables -- 3D IoU,
BEV IoU, 2D IoU (also ALP's gate) and center distance -- that every curve,
threshold and difficulty of the call reads through a threshold mask.  3D
and BEV IoU come from one geometry.box_ious call, one footprint clip per
pair; pairs whose footprints' bounding boxes are apart score exactly 0
without a clip, and pairs without two boxes of positive dimensions score
NaN.  The same call stacks the frames, padded to (frame, detection rank,
ground truth) arrays, and sorts their detections by score and content;
pr_curve is its one-curve case.  Each curve is then one quality stack and
one greedy pass over all frames, a step per detection rank, with no
per-frame or per-record loop.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import BoxStack, box2d_ious, box2d_round_trip, box_ious
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


class PairTable(NamedTuple):
    """Every (detection, ground truth) value of a frame list, flat: each
    frame's pairs detection-major, one frame after another.  NaN IoU where
    the pair lacks two boxes of positive dimensions."""

    iou_3d: np.ndarray
    iou_bev: np.ndarray
    iou_2d: np.ndarray
    distance: np.ndarray
    apart: np.ndarray  # footprints apart: 3D and BEV IoU 0.0 without a clip


def _corners(records) -> np.ndarray:
    """(n, 4) pixel boxes through Box2D's log/exp round trip, so the 2D
    IoU table equals iou_2d of Box2D.from_corners(*rec.bbox) bit for bit."""
    return box2d_round_trip(np.array([rec.bbox for rec in records]).reshape(-1, 4))


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


def _pair_table(frames) -> PairTable:
    """The PairTable of the (detections, ground truth) frames, in one
    vectorized pass over their pairs and one box_ious call.

    The records with positive dimensions become boxes in one
    label_pose_fields call.  A pair whose footprints' bounding boxes are
    apart scores 0.0 without a clip.
    """
    records = [rec for dets, gts in frames for rec in (*dets, *gts)]
    i, j, start = [], [], 0  # record indices of each frame's pairs, detection-major
    for dets, gts in frames:
        di, gj = np.indices((len(dets), len(gts))).reshape(2, -1)
        i.append(start + di)
        j.append(start + len(dets) + gj)
        start += len(dets) + len(gts)
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
    return PairTable(iou3, iou_b, box2d_ious(corners[i], corners[j]),
                     _distances(centers[i], centers[j]), apart)


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


def _cover_fractions(boxes: np.ndarray, regions: np.ndarray) -> np.ndarray:
    """(n, m) fraction of each pixel box (n, 4) inside each region (m, 4).

    Raw corner arithmetic, so exact half coverage is exactly 0.5.
    """
    dl, dt, dr, db = boxes.T[:, :, None]
    rl, rt, rr, rb = regions.T[:, None, :]
    w = np.minimum(dr, rr) - np.maximum(dl, rl)
    h = np.minimum(db, rb) - np.maximum(dt, rt)
    return np.maximum(w, 0.0) * np.maximum(h, 0.0) / ((dr - dl) * (db - dt))


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


def _padded(rows, real: np.ndarray, fill) -> np.ndarray:
    """The arrays rows[f] of shape (n_f, ...) stacked as (F, width, ...):
    row f's entries fill the slots where real (F, width) holds, in order,
    and fill the rest."""
    flat = np.concatenate(rows)
    out = np.full(real.shape + flat.shape[1:], fill, dtype=flat.dtype)
    out[real] = flat
    return out


def _frame_fields(detections, ground_truth) -> tuple:
    """What matching reads of one frame: the indices of its OBJECT_TYPE
    detections (the only ones matched) by descending score, ties by
    content; their (n, 13) sort keys, -score then the content key's numeric
    fields (their type never breaks a tie); whether don't-care regions cover
    each by at least _DONTCARE_COVERAGE, which drops it if unmatched; the
    indices of its ground truth in content order; and their difficulty
    ranks ("ignored" for other types, _DONT_CARE_RANK for a don't-care
    region) and observation angles."""
    matched = [i for i, det in enumerate(detections) if det.type == OBJECT_TYPE]
    det_order = np.array(sorted(matched, key=lambda i: (-_score(detections[i]),
                                                        *_content_key(detections[i]))), dtype=int)
    dets = [detections[i] for i in det_order]
    keys = np.array([(-_score(det), *det.bbox, *det.location, *det.dimensions, det.rotation_y,
                      det.alpha) for det in dets], dtype=float).reshape(-1, 13)
    regions = [gt.bbox for gt in ground_truth if gt.type == DONT_CARE_TYPE]
    covered = np.zeros(len(dets), dtype=bool)
    if regions:
        fractions = _cover_fractions(np.reshape([det.bbox for det in dets], (-1, 4)),
                                     np.reshape(regions, (-1, 4)))
        covered = (fractions >= _DONTCARE_COVERAGE).any(axis=1)
    gt_order = np.array(sorted(range(len(ground_truth)),
                               key=lambda j: _content_key(ground_truth[j])), dtype=int)
    gts = [ground_truth[j] for j in gt_order]
    rank = np.array([_DONT_CARE_RANK if gt.type == DONT_CARE_TYPE else
                     _RANK[difficulty_bucket(gt) if gt.type == OBJECT_TYPE else "ignored"]
                     for gt in gts], dtype=int)
    return det_order, keys, covered, gt_order, rank, np.array([gt.alpha for gt in gts], dtype=float)


class _Stack(NamedTuple):
    """What every curve of one pr_curves call reads, built once for all of
    them: each frame's detections padded to D slots in matching order, its
    ground truth to G slots in content order (see _frame_fields)."""

    table: PairTable  # the frames' _pair_table
    index: np.ndarray  # (F, D, G) each pair's place in table; -1 in the padding
    dets: np.ndarray  # (F, D) slots holding a detection
    covered: np.ndarray  # (F, D) covered by a don't-care region
    keys: np.ndarray  # (F, D, 13) sort keys
    order: np.ndarray  # the flat detection slots by descending score, ties by content
    gt_rank: np.ndarray  # (F, G) difficulty rank, _DONT_CARE_RANK in the padding
    gt_alpha: np.ndarray  # (F, G)

    @classmethod
    def of(cls, frames) -> "_Stack":
        det_order, keys, covered, gt_order, gt_rank, gt_alpha = zip(
            *(_frame_fields(*frame) for frame in frames))
        n_det = np.array([len(order) for order in det_order])
        n_gt = np.array([len(order) for order in gt_order])
        dets = np.arange(n_det.max()) < n_det[:, None]
        gts = np.arange(n_gt.max()) < n_gt[:, None]
        # each frame's first pair in the table
        start = np.cumsum([0] + [len(d) * len(g) for d, g in frames])[:-1]
        rows = _padded(det_order, dets, 0)
        cols = _padded(gt_order, gts, 0)
        index = start[:, None, None] + rows[:, :, None] * n_gt[:, None, None] + cols[:, None, :]
        keys = _padded(keys, dets, 0.0)
        slots = np.flatnonzero(dets)  # (frame, rank) order; lexsort is stable
        return cls(
            table=_pair_table(frames),
            index=np.where(dets[:, :, None] & gts[:, None, :], index, -1),
            dets=dets,
            covered=_padded(covered, dets, False),
            keys=keys,
            order=slots[np.lexsort(keys.reshape(-1, 13)[slots].T[::-1])],
            gt_rank=_padded(gt_rank, gts, _DONT_CARE_RANK),
            gt_alpha=_padded(gt_alpha, gts, 0.0),
        )


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
    quality = np.append(_quality(stack.table, metric, threshold, gate_iou), np.nan)[stack.index]

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
    matched_sim[f, k] = (1.0 + np.cos(stack.gt_alpha[f, took[f, k]] - stack.keys[f, k, 12])) / 2.0

    kept = (stack.dets & (hit | ~(absorbed | stack.covered))).reshape(-1)
    flags = stack.order[kept[stack.order]]  # kept detections by descending score, ties by content
    scores = -stack.keys.reshape(-1, 13)[flags, 0]
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
