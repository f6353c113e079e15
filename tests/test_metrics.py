"""Detection metric tests.

Hand-built frames have answers derived on paper (PR tables enumerated in
comments).  The randomized sweeps check exact agreement with the
brute-force rematching oracle in tests/oracles.py, which re-runs the
greedy assignment from scratch at every score threshold.
"""
import math

import numpy as np
import pytest

from vehicle3d import metrics
from vehicle3d.geometry import iou_2d, iou_3d, iou_bev
from vehicle3d.metrics import (
    ALP_GATE,
    DIFFICULTIES,
    OBJECT_TYPE,
    POINTS,
    _Stack,
    alp,
    ap_3d,
    ap_bev,
    difficulty_bucket,
    pr_curve,
    pr_curves,
)
from vehicle3d.scene_io import (
    NoiseSpec,
    SceneParams,
    LabelRecord,
    generate_scene,
    label_to_pose,
)

from tests.oracles import oracle_bucket, oracle_pr_metrics


def ap2d_aos(frames, iou_threshold, difficulty="moderate"):
    """(AP, AOS) of the 2D curve, or (None, None) without valid ground truth."""
    curve = pr_curve(frames, "ap2d", iou_threshold, difficulty)
    return (None, None) if curve is None else (curve.ap, curve.aos)


def rec(**kw):
    base = dict(
        type="Car",
        truncated=0.0,
        occluded=0,
        alpha=0.0,
        bbox=(100.0, 100.0, 200.0, 160.0),
        dimensions=(1.5, 1.7, 4.0),
        location=(0.0, 1.65, 12.0),
        rotation_y=0.0,
        score=None,
    )
    base.update(kw)
    return LabelRecord(**base)


def shift(base, dx=0.0, dz=0.0, du=0.0, **kw):
    """Copy of a record displaced in 3D and/or pixel space."""
    x, y, z = base.location
    l, t, r, b = base.bbox
    fields = dict(
        type=base.type,
        truncated=base.truncated,
        occluded=base.occluded,
        alpha=base.alpha,
        bbox=(l + du, t, r + du, b),
        dimensions=base.dimensions,
        location=(x + dx, y, z + dz),
        rotation_y=base.rotation_y,
        score=base.score,
    )
    fields.update(kw)
    return LabelRecord(**fields)


# ---------------------------------------------------------------------------
# Oracle-side criteria.  Distance and the gate use hand arithmetic; the
# rotated-box IoU values are taken from the already-validated geometry
# helpers, since the subject here is matching, not polygon clipping.
# ---------------------------------------------------------------------------

def rect_iou(a, b):
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def oracle_alp_criterion(threshold_m, gate_iou):
    def passes(det, gt):
        if gate_iou is not None:
            if iou_2d(det.bbox, gt.bbox) < gate_iou:
                return None
        dx = det.location[0] - gt.location[0]
        dy = (det.location[1] - det.dimensions[0] / 2.0) - (
            gt.location[1] - gt.dimensions[0] / 2.0
        )
        dz = det.location[2] - gt.location[2]
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        return -dist if dist < threshold_m else None

    return passes


def oracle_iou_criterion(kind, threshold):
    def passes(det, gt):
        if kind == "2d":
            value = iou_2d(det.bbox, gt.bbox)
        else:
            if min(det.dimensions) <= 0 or min(gt.dimensions) <= 0:
                return None
            fn = iou_3d if kind == "3d" else iou_bev
            value = fn(label_to_pose(det), label_to_pose(gt))
        return value if value >= threshold else None

    return passes


def compare_with_oracle(frames, points=11):
    """Assert all four metric families equal the rematching oracle.

    frames are (detections, ground truth) tuples."""
    cases = [
        ("alp", 1.0, 0.7, oracle_alp_criterion(1.0, 0.7)),
        ("ap3d", 0.25, None, oracle_iou_criterion("3d", 0.25)),
        ("apbev", 0.5, None, oracle_iou_criterion("bev", 0.5)),
        ("ap2d", 0.5, None, oracle_iou_criterion("2d", 0.5)),
    ]
    for metric, threshold, gate, criterion in cases:
        for difficulty in DIFFICULTIES:
            curve = pr_curve(frames, metric, threshold, difficulty,
                             gate_iou=gate, points=points)
            want_ap, want_aos = oracle_pr_metrics(frames, criterion, difficulty, points=points)
            if curve is None:
                assert want_ap is None, (metric, difficulty)
            else:
                assert curve.ap == want_ap, (metric, difficulty)
                assert curve.aos == want_aos, (metric, difficulty)


# ---------------------------------------------------------------------------
# Difficulty buckets.
# ---------------------------------------------------------------------------

def test_difficulty_buckets():
    def gt(h, occ, tr):
        return rec(bbox=(100.0, 100.0, 180.0, 100.0 + h), occluded=occ, truncated=tr)

    assert difficulty_bucket(gt(50, 0, 0.0)) == "easy"
    assert difficulty_bucket(gt(40, 0, 0.15)) == "easy"  # inclusive edges
    assert difficulty_bucket(gt(39.9, 0, 0.0)) == "moderate"
    assert difficulty_bucket(gt(30, 1, 0.2)) == "moderate"
    assert difficulty_bucket(gt(25, 2, 0.5)) == "hard"
    assert difficulty_bucket(gt(50, 2, 0.0)) == "hard"
    assert difficulty_bucket(gt(24.9, 0, 0.0)) == "ignored"
    assert difficulty_bucket(gt(20, 0, 0.0)) == "ignored"
    assert difficulty_bucket(gt(50, 3, 0.0)) == "ignored"
    assert difficulty_bucket(gt(50, -1, 0.0)) == "ignored"
    assert difficulty_bucket(gt(50, 0, -1.0)) == "ignored"
    dc = rec(type="DontCare", occluded=-1, truncated=-1.0)
    assert difficulty_bucket(dc) == "ignored"
    # oracle table agrees everywhere
    for h in (20, 24.9, 25, 30, 39.9, 40, 50):
        for occ in (-1, 0, 1, 2, 3):
            for tr in (-1.0, 0.0, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6):
                g = gt(h, occ, tr)
                assert difficulty_bucket(g) == oracle_bucket(g)


# ---------------------------------------------------------------------------
# Hand-built frames with paper-derived answers.
# ---------------------------------------------------------------------------

def test_single_perfect_match_scores_100():
    gt = rec()
    det = rec(truncated=-1.0, occluded=-1, score=0.9)
    frames = [((det,), (gt,))]
    assert alp(frames, 1.0) == 100.0
    assert ap_3d(frames, 0.7) == 100.0
    assert ap_bev(frames, 0.7) == 100.0
    assert ap2d_aos(frames, 0.7) == (100.0, 100.0)


def test_center_miss_scores_zero():
    gt = rec()
    det = shift(rec(truncated=-1.0, occluded=-1, score=0.9), dx=2.5)
    frames = [((det,), (gt,))]
    # same pixel box, so only the distance test decides
    assert alp(frames, 2.0) == 0.0
    assert alp(frames, 3.0) == 100.0


def test_three_frame_ap_with_one_false_positive():
    # Three frames, one ground truth each.  True positives at scores
    # 0.9, 0.8, 0.6 and a far false positive at 0.7 give the PR table
    #   t=0.9: recall 1/3, precision 1
    #   t=0.8: recall 2/3, precision 1
    #   t=0.7: recall 2/3, precision 2/3
    #   t=0.6: recall 1,   precision 3/4
    # Interpolated precision is 1 for recall grid points up to 2/3 and
    # 3/4 beyond, so AP11 = 100*(7*1 + 4*0.75)/11 and
    # AP41 = 100*(27*1 + 14*0.75)/41.
    g1, g2, g3 = rec(), shift(rec(), dx=30.0, du=400.0), shift(rec(), dx=-30.0, du=-90.0)
    d1 = shift(g1, score=0.9)
    d2 = shift(g2, score=0.8)
    d3 = shift(g3, score=0.6)
    fp = shift(g2, dx=20.0, du=250.0, score=0.7)
    frames = [((d1,), (g1,)), ((d2, fp), (g2,)), ((d3,), (g3,))]
    for metric, threshold in (("alp", 1.0), ("ap3d", 0.25), ("apbev", 0.5), ("ap2d", 0.5)):
        curve11 = pr_curve(frames, metric, threshold, points=11)
        curve41 = pr_curve(frames, metric, threshold, points=41)
        assert curve11.ap == 100.0 * 10.0 / 11
        assert curve41.ap == 100.0 * (27 + 14 * 0.75) / 41
    compare_with_oracle(frames)
    compare_with_oracle(frames, points=41)


def test_iou_straddle_one_third():
    # Unit cube offset by half its side: intersection 0.5, union 1.5,
    # IoU 1/3 in 3D and in bird's eye view.
    gt = rec(dimensions=(1.0, 1.0, 1.0))
    det = shift(rec(dimensions=(1.0, 1.0, 1.0), truncated=-1.0, occluded=-1, score=0.5), dx=0.5)
    frames = [((det,), (gt,))]
    assert ap_3d(frames, 0.25) == 100.0
    assert ap_3d(frames, 0.5) == 0.0
    assert ap_bev(frames, 0.25) == 100.0
    assert ap_bev(frames, 0.5) == 0.0


def test_aos_orientation_extremes():
    gt1, gt2 = rec(), shift(rec(), dx=30.0, du=400.0)
    exact = [
        ((shift(gt1, score=0.9), shift(gt2, score=0.8)), (gt1, gt2)),
    ]
    ap, aos = ap2d_aos(exact, 0.7)
    assert ap == 100.0 and aos == ap
    flipped = [
        (
            (
                shift(gt1, score=0.9, alpha=gt1.alpha + np.pi),
                shift(gt2, score=0.8, alpha=gt2.alpha + np.pi),
            ),
            (gt1, gt2),
        )
    ]
    ap, aos = ap2d_aos(flipped, 0.7)
    assert ap == 100.0 and aos == 0.0


def test_aos_two_detection_hand_table():
    # det1 (score 0.9) aligned with its ground truth, det2 (score 0.6)
    # off by pi/2.  Orientation similarity at the two operating points:
    #   t=0.9: 1/1 = 1        t=0.6: (1 + 0.5)/2 = 0.75
    # AOS11 = 100*(6*1 + 5*0.75)/11, AP stays 100.
    gt1, gt2 = rec(), shift(rec(), dx=30.0, du=400.0)
    det1 = shift(gt1, score=0.9)
    det2 = shift(gt2, score=0.6, alpha=gt2.alpha + np.pi / 2)
    frames = [((det1,), (gt1,)), ((det2,), (gt2,))]
    ap, aos = ap2d_aos(frames, 0.7)
    assert ap == 100.0
    assert aos == 100.0 * (6 + 5 * 0.75) / 11
    compare_with_oracle(frames)


def test_score_tie_uses_content_order_not_input_order():
    # Two detections with equal scores compete for one ground truth.
    # The record with the smaller content key (alpha 0 < alpha pi)
    # matches first regardless of list order, so the matched similarity
    # is 1 and the leftover detection is a false positive:
    #   single point: recall 1, precision 1/2, similarity 1/2.
    gt = rec()
    winner = shift(gt, score=0.5)
    loser = shift(gt, score=0.5, alpha=gt.alpha + np.pi)
    for dets in ((winner, loser), (loser, winner)):
        ap, aos = ap2d_aos([(dets, (gt,))], 0.7)
        assert ap == 50.0
        assert aos == 50.0


def test_ground_truth_tie_uses_content_order():
    # One detection equidistant (0.5 m) from two ground truths.  The
    # content-smaller one (x = -0.5) must win; its alpha matches the
    # detection, so AOS equals AP.  Were the other chosen, similarity
    # would be 0.  One of two ground truths matched: recall stops at
    # 1/2, so AP11 = 100*6/11.
    det = rec(truncated=-1.0, occluded=-1, score=0.9)
    gt_neg = shift(rec(), dx=-0.5)
    gt_pos = shift(rec(), dx=+0.5, alpha=rec().alpha + np.pi)
    frames = [((det,), (gt_neg, gt_pos))]
    ap, aos = ap2d_aos(frames, 0.7)
    assert ap == 100.0 * 6 / 11
    assert aos == ap
    compare_with_oracle(frames)


def test_quality_tie_and_later_absorption_in_one_frame():
    # gt_a and gt_b share one pixel box, so det1's 2D IoU with each is
    # exactly 1.  The tie goes to the content-smaller gt_a (x = 0 < 0.5),
    # whose alpha matches det1 (similarity 1); gt_b's alpha is pi off
    # (similarity 0).  det2 sits on a Van, ignored ground truth, and is
    # absorbed without a flag.  det3 takes the gt_b left over, pi/2 off
    # (similarity 1/2).  Operating points:
    #   t=0.9: recall 1/2, precision 1, similarity 1
    #   t=0.7: recall 1,   precision 1, similarity (1 + 1/2)/2 = 0.75
    # AP11 = 100; AOS11 = 100*(6*1 + 5*0.75)/11.
    gt_a = rec()
    gt_b = shift(rec(), dx=0.5, alpha=np.pi)
    van = rec(type="Van", bbox=(400.0, 100.0, 480.0, 150.0), location=(8.0, 1.65, 18.0))
    det1 = shift(gt_a, truncated=-1.0, occluded=-1, score=0.9)
    det2 = shift(van, type="Car", truncated=-1.0, occluded=-1, score=0.8)
    det3 = shift(gt_a, truncated=-1.0, occluded=-1, score=0.7, alpha=np.pi / 2)
    frames = [((det3, det1, det2), (van, gt_b, gt_a))]
    ap, aos = ap2d_aos(frames, 0.7)
    assert ap == 100.0
    assert aos == 100.0 * (6 + 5 * 0.75) / 11
    curve = pr_curve(frames, "ap2d", 0.7)
    assert curve.thresholds.tolist() == [0.9, 0.7]
    assert curve.similarity.tolist() == [1.0, 0.75]
    compare_with_oracle(frames)


def test_ignored_ground_truth_absorbs_detection():
    # Evaluated at "easy": the second ground truth is hard-only, so the
    # high-scoring detection on it must be dropped, not counted as a
    # false positive.  Without that ground truth the same detection is
    # a false positive ahead of the true positive and halves AP.
    gt_easy = rec()
    gt_hard = shift(
        rec(bbox=(500.0, 100.0, 560.0, 130.0), occluded=2, truncated=0.4), dx=30.0
    )
    det_easy = shift(gt_easy, truncated=-1.0, occluded=-1, score=0.8)
    det_hard = shift(gt_hard, truncated=-1.0, occluded=-1, score=0.9)
    with_ignored = [((det_easy, det_hard), (gt_easy, gt_hard))]
    without = [((det_easy, det_hard), (gt_easy,))]
    assert alp(with_ignored, 1.0, difficulty="easy") == 100.0
    assert alp(without, 1.0, difficulty="easy") == 50.0
    compare_with_oracle(with_ignored)
    compare_with_oracle(without)


def test_dontcare_region_absorbs_unmatched_detections():
    gt = rec()
    tp = shift(gt, truncated=-1.0, occluded=-1, score=0.8)
    region = rec(
        type="DontCare",
        truncated=-1.0,
        occluded=-1,
        alpha=-10.0,
        bbox=(600.0, 100.0, 800.0, 200.0),
        dimensions=(-1.0, -1.0, -1.0),
        location=(-1000.0, -1000.0, -1000.0),
        rotation_y=-10.0,
    )
    # covered exactly half by the region: absorbed (>= 0.5 rule)
    half_in = rec(
        truncated=-1.0, occluded=-1, score=0.9,
        bbox=(550.0, 100.0, 650.0, 200.0), location=(25.0, 1.65, 40.0),
    )
    # only a quarter covered: stays a false positive
    quarter_in = rec(
        truncated=-1.0, occluded=-1, score=0.9,
        bbox=(550.0, 150.0, 650.0, 250.0), location=(25.0, 1.65, 40.0),
    )
    absorbed = [((tp, half_in), (gt, region))]
    penalized = [((tp, quarter_in), (gt, region))]
    assert alp(absorbed, 1.0) == 100.0
    assert alp(penalized, 1.0) == 50.0
    compare_with_oracle(absorbed)
    compare_with_oracle(penalized)


def test_other_type_records_are_ignored_not_penalized():
    van_gt = rec(type="Van", bbox=(400.0, 100.0, 520.0, 170.0), location=(8.0, 1.65, 18.0))
    car_gt = rec()
    det_on_van = shift(van_gt, type="Car", truncated=-1.0, occluded=-1, score=0.9)
    det_on_car = shift(car_gt, truncated=-1.0, occluded=-1, score=0.8)
    van_det = shift(car_gt, type="Van", truncated=-1.0, occluded=-1, score=1.0)
    frames = [((det_on_van, det_on_car, van_det), (van_gt, car_gt))]
    # the Van ground truth absorbs its detection; the Van detection is
    # dropped entirely; only the Car pair is scored
    assert alp(frames, 1.0) == 100.0
    assert ap2d_aos(frames, 0.5) == (100.0, 100.0)
    compare_with_oracle(frames)


def test_alp_gate_requires_2d_overlap():
    gt = rec()
    # 0.3 m away in 3D but the pixel box is shifted far right
    det = shift(rec(truncated=-1.0, occluded=-1, score=0.9), dx=0.3, du=60.0)
    frames = [((det,), (gt,))]
    assert alp(frames, 1.0, gate_iou=0.7) == 0.0
    assert alp(frames, 1.0, gate_iou=None) == 100.0


def test_no_valid_ground_truth_reports_absent():
    tiny = rec(bbox=(100.0, 100.0, 180.0, 120.0))  # 20 px: below every bucket
    det = shift(tiny, truncated=-1.0, occluded=-1, score=0.9)
    frames = [((det,), (tiny,))]
    assert alp(frames, 1.0) is None
    assert ap_3d(frames, 0.25) is None
    assert ap_bev(frames, 0.5) is None
    assert ap2d_aos(frames, 0.5) == (None, None)
    # easy bucket empty while moderate is populated
    mod = rec(bbox=(100.0, 100.0, 180.0, 130.0), occluded=1)
    frames = [((shift(mod, truncated=-1.0, occluded=-1, score=0.9),), (mod,))]
    assert alp(frames, 1.0, difficulty="easy") is None
    assert alp(frames, 1.0, difficulty="moderate") == 100.0


def test_empty_detections_score_zero():
    frames = [((), (rec(),))]
    assert alp(frames, 1.0) == 0.0
    assert ap_3d(frames, 0.25) == 0.0
    assert ap_bev(frames, 0.5) == 0.0
    assert ap2d_aos(frames, 0.5) == (0.0, 0.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        rec(score=float("inf"), truncated=-1.0, occluded=-1)
    with pytest.raises(ValueError):
        pr_curve([((), (rec(),))], "nope", 0.5)
    with pytest.raises(ValueError):
        pr_curve([((), (rec(),))], "ap2d", 0.5, difficulty="trivial")
    for points in (0, -3):
        with pytest.raises(ValueError, match="points"):
            pr_curve([((), (rec(),))], "ap2d", 0.5, points=points)


# ---------------------------------------------------------------------------
# Randomized frames: invariants and oracle equivalence.
# ---------------------------------------------------------------------------

def draw_score(rng):
    # coarse grid forces plenty of exact score ties
    return None if rng.random() < 0.08 else float(rng.choice([0.2, 0.4, 0.6, 0.8]))


def random_frames(rng):
    frames = []
    for _ in range(int(rng.integers(1, 4))):
        gts, dets = [], []
        for _ in range(int(rng.integers(0, 4))):
            roll = rng.random()
            if roll < 0.15:
                left = float(rng.uniform(50, 900))
                top = float(rng.uniform(50, 250))
                region = rec(
                    type="DontCare", truncated=-1.0, occluded=-1, alpha=-10.0,
                    bbox=(left, top, left + float(rng.uniform(40, 200)),
                          top + float(rng.uniform(25, 90))),
                    dimensions=(-1.0, -1.0, -1.0),
                    location=(-1000.0, -1000.0, -1000.0), rotation_y=-10.0,
                )
                gts.append(region)
                if rng.random() < 0.5:
                    l, t, r, b = region.bbox
                    dets.append(rec(
                        truncated=-1.0, occluded=-1,
                        alpha=float(rng.uniform(-np.pi, np.pi)),
                        bbox=(l + 2.0, t + 2.0, r - 2.0, b - 2.0),
                        location=(float(rng.uniform(-30, 30)), 1.65,
                                  float(rng.uniform(40, 80))),
                        rotation_y=float(rng.uniform(-np.pi, np.pi)),
                        score=draw_score(rng),
                    ))
                continue
            kind = "Van" if roll < 0.27 else "Car"
            h_px = float(rng.choice([20.0, 30.0, 50.0]))
            left = float(rng.uniform(50, 1000))
            top = float(rng.uniform(40, 280))
            gt = rec(
                type=kind,
                truncated=float(rng.choice([0.0, 0.2, 0.4])),
                occluded=int(rng.choice([0, 1, 2])),
                alpha=float(rng.uniform(-np.pi, np.pi)),
                bbox=(left, top, left + h_px * float(rng.uniform(1.3, 2.6)),
                      top + h_px),
                dimensions=(float(rng.uniform(1.3, 1.8)),
                            float(rng.uniform(1.5, 1.9)),
                            float(rng.uniform(3.4, 4.6))),
                location=(float(rng.uniform(-8, 8)), 1.65,
                          float(rng.uniform(8, 30))),
                rotation_y=float(rng.uniform(-np.pi, np.pi)),
            )
            gts.append(gt)
            if rng.random() < 0.75:
                du = float(rng.normal(0, 4))
                dv = float(rng.normal(0, 4))
                dets.append(rec(
                    type="Van" if rng.random() < 0.08 else "Car",
                    truncated=-1.0, occluded=-1,
                    alpha=float(rng.uniform(-np.pi, np.pi)),
                    bbox=(gt.bbox[0] + du, gt.bbox[1] + dv,
                          gt.bbox[2] + du + float(rng.normal(0, 2)),
                          gt.bbox[3] + dv + float(rng.normal(0, 2))),
                    dimensions=tuple(
                        d * float(rng.uniform(0.9, 1.1)) for d in gt.dimensions
                    ),
                    location=(gt.location[0] + float(rng.normal(0, 0.5)),
                              gt.location[1] + float(rng.normal(0, 0.1)),
                              gt.location[2] + float(rng.normal(0, 0.5))),
                    rotation_y=gt.rotation_y + float(rng.normal(0, 0.4)),
                    score=draw_score(rng),
                ))
        if rng.random() < 0.4:
            left = float(rng.uniform(50, 1100))
            dets.append(rec(
                truncated=-1.0, occluded=-1,
                alpha=float(rng.uniform(-np.pi, np.pi)),
                bbox=(left, 60.0, left + 70.0, 110.0),
                location=(float(rng.uniform(20, 40)), 1.65,
                          float(rng.uniform(50, 90))),
                rotation_y=float(rng.uniform(-np.pi, np.pi)),
                score=draw_score(rng),
            ))
        frames.append((tuple(dets), tuple(gts)))
    return frames


def test_matches_bruteforce_oracle_on_random_frames():
    for seed in range(150):
        rng = np.random.default_rng(seed)
        compare_with_oracle(random_frames(rng))


def test_matches_bruteforce_oracle_41_point():
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        compare_with_oracle(random_frames(rng), points=41)


def test_input_order_invariance():
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        frames = random_frames(rng)
        shuffled = []
        for dets, gts in frames:
            dets = list(dets)
            gts = list(gts)
            rng.shuffle(dets)
            rng.shuffle(gts)
            shuffled.append((tuple(dets), tuple(gts)))
        shuffled.reverse()
        for metric, threshold, gate in (
            ("alp", 1.0, 0.7), ("ap3d", 0.25, None),
            ("apbev", 0.5, None), ("ap2d", 0.5, None),
        ):
            for difficulty in DIFFICULTIES:
                a = pr_curve(frames, metric, threshold, difficulty, gate_iou=gate)
                b = pr_curve(shuffled, metric, threshold, difficulty, gate_iou=gate)
                if a is None:
                    assert b is None
                else:
                    assert a.ap == b.ap and a.aos == b.aos


# pr_curves jobs: two thresholds of each metric at every difficulty
SWEEP_JOBS = [(metric, threshold, difficulty, ALP_GATE if metric == "alp" else None)
              for metric, thresholds in (("alp", (1.0, 2.0)), ("ap3d", (0.25, 0.7)),
                                         ("apbev", (0.5, 0.7)), ("ap2d", (0.5, 0.7)))
              for threshold in thresholds for difficulty in DIFFICULTIES]


def test_finite_extreme_labels_score_without_warnings():
    """A finite but extreme label value (a 1e308 box edge, extent or
    location coordinate) overflows its pair's arithmetic: the pair scores
    IoU 0 or distance inf, so it never matches, and no RuntimeWarning is
    raised, on either side of the pair.  Every other value of the pair is
    that of two equal records."""
    big = 1e308
    cases = [({"bbox": (-big, 100.0, 200.0, 160.0)}, {"iou_2d": 0.0}),
             ({"bbox": (100.0, 100.0, big, 160.0)}, {"iou_2d": 0.0}),
             ({"bbox": (100.0, -big, 200.0, 160.0)}, {"iou_2d": 0.0}),
             ({"bbox": (100.0, 100.0, 200.0, big)}, {"iou_2d": 0.0}),
             ({"dimensions": (big, 1.7, 4.0)}, {"iou_3d": 0.0, "distance": math.inf}),
             ({"dimensions": (1.5, big, 4.0)}, {"iou_3d": 0.0, "iou_bev": 0.0}),
             ({"dimensions": (1.5, 1.7, big)}, {"iou_3d": 0.0, "iou_bev": 0.0})]
    for axis in range(3):
        for value in (big, -big):
            location = [0.0, 1.65, 12.0]
            location[axis] = value
            moved = {"iou_3d": 0.0, "distance": math.inf}
            cases.append(({"location": tuple(location)},
                          moved if axis == 1 else {**moved, "iou_bev": 0.0}))
    for extreme, want in cases:
        for det, gt in ((rec(score=0.9, **extreme), rec()), (rec(score=0.9), rec(**extreme))):
            frames = [([det], [gt])]
            assert len(pr_curves(frames, SWEEP_JOBS, POINTS)) == len(SWEEP_JOBS)
            stack = _Stack.of(frames)
            got = {field: float(getattr(stack, field)[0, 0, 0])
                   for field in ("iou_3d", "iou_bev", "iou_2d", "distance")}
            assert got == {"iou_3d": 1.0, "iou_bev": 1.0, "iou_2d": 1.0, "distance": 0.0,
                           **want}, extreme


def test_frames_may_be_any_iterable_of_pairs():
    frames = random_frames(np.random.default_rng(7))
    want = pr_curves(frames, SWEEP_JOBS, POINTS)
    for given in ((frame for frame in frames),  # a generator of frames
                  [[list(dets), list(gts)] for dets, gts in frames]):  # frames as lists
        for a, b in zip(want, pr_curves(given, SWEEP_JOBS, POINTS), strict=True):
            if a is None:
                assert b is None
            else:
                for field in ("thresholds", "recall", "precision", "similarity"):
                    assert getattr(a, field).tolist() == getattr(b, field).tolist(), field
                assert (a.ap, a.aos) == (b.ap, b.aos)


def test_aos_never_exceeds_ap():
    for seed in range(40):
        rng = np.random.default_rng(600 + seed)
        frames = random_frames(rng)
        for difficulty in DIFFICULTIES:
            ap, aos = ap2d_aos(frames, 0.5, difficulty)
            if ap is not None:
                assert 0.0 <= aos <= ap <= 100.0


def test_zero_score_false_positive_never_increases_ap():
    away = rec(
        truncated=-1.0, occluded=-1, bbox=(1150.0, 40.0, 1230.0, 90.0),
        location=(60.0, 1.65, 150.0), score=0.0,
    )
    for seed in range(30):
        rng = np.random.default_rng(900 + seed)
        frames = random_frames(rng)
        dets0, gts0 = frames[0]
        spiked = [(tuple(dets0) + (away,), gts0)] + frames[1:]
        for metric, threshold, gate in (
            ("alp", 1.0, 0.7), ("ap3d", 0.25, None),
            ("apbev", 0.5, None), ("ap2d", 0.5, None),
        ):
            for difficulty in DIFFICULTIES:
                before = pr_curve(frames, metric, threshold, difficulty, gate_iou=gate)
                after = pr_curve(spiked, metric, threshold, difficulty, gate_iou=gate)
                if before is None:
                    assert after is None
                else:
                    assert after.ap <= before.ap


def test_curve_shape_invariants():
    for seed in range(25):
        rng = np.random.default_rng(1500 + seed)
        curve = pr_curve(random_frames(rng), "ap2d", 0.5, "hard")
        if curve is None or curve.recall.size == 0:
            continue
        assert np.all(np.diff(curve.recall) >= 0)
        assert np.all(np.diff(curve.thresholds) < 0)
        assert np.all((curve.precision >= 0) & (curve.precision <= 1))
        assert np.all(curve.similarity <= curve.precision)
        assert 0.0 <= curve.ap <= 100.0


def test_ground_truth_self_evaluation_is_perfect():
    params = SceneParams(n_instances=6)
    quiet = NoiseSpec(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    frames = []
    hard_gt = 0
    for seed in (11, 12, 13):
        _, _, labels = generate_scene(params, quiet, seed)
        hard_gt += sum(1 for g in labels if difficulty_bucket(g) != "ignored")
        frames.append((tuple(labels), tuple(labels)))
    assert hard_gt > 0
    assert alp(frames, 1.0, difficulty="hard") == 100.0
    assert ap_3d(frames, 0.7, difficulty="hard") == 100.0
    assert ap_bev(frames, 0.7, difficulty="hard") == 100.0
    assert ap2d_aos(frames, 0.7, difficulty="hard") == (100.0, 100.0)


# ---------------------------------------------------------------------------
# Match once per call: the pair values every curve of a pr_curves call reads,
# in the padded (frame, detection slot, ground-truth slot) stack.
# ---------------------------------------------------------------------------

# _Stack field -> the scalar kernel behind its entries
TABLE_KERNELS = (("iou_3d", "iou_3d"), ("iou_bev", "iou_bev"),
                 ("iou_2d", "iou_2d"), ("distance", "distance"))


def scalar_pair_value(kind, det, gt):
    """The scalar kernel behind one pair value."""
    if kind == "iou_2d":
        return iou_2d(det.bbox, gt.bbox)
    if kind == "distance":  # the batched kernel for one pair, between true 3D box centers
        centers = np.array([rec.location for rec in (det, gt)])
        centers[:, 1] -= np.array([rec.dimensions[0] for rec in (det, gt)]) / 2.0
        return float(metrics._distances(centers[:1], centers[1:])[0])
    if min(det.dimensions) <= 0 or min(gt.dimensions) <= 0:
        return None
    fn = iou_3d if kind == "iou_3d" else iou_bev
    return fn(label_to_pose(det), label_to_pose(gt))


def stack_layout(frames):
    """Each frame's records in their stack slots, as documented: the
    OBJECT_TYPE detections by descending score, ties by content; the ground
    truth by content, then type."""
    def content(r):
        return (r.bbox, r.location, r.dimensions, r.rotation_y, r.alpha)

    return [(sorted((det for det in dets if det.type == OBJECT_TYPE),
                    key=lambda det: (-(1.0 if det.score is None else det.score), *content(det))),
             sorted(gts, key=lambda gt: (*content(gt), gt.type)))
            for dets, gts in frames]


def real_pairs(layout):
    """(F, D, G) mask of the stack slots that hold a (detection, ground truth)
    pair, from a stack_layout."""
    n_det = np.array([len(dets) for dets, _ in layout])
    n_gt = np.array([len(gts) for _, gts in layout])
    dets = np.arange(n_det.max()) < n_det[:, None]
    gts = np.arange(n_gt.max()) < n_gt[:, None]
    return dets[:, :, None] & gts[:, None, :]


def check_reused_tables(frames) -> int:
    """Run every curve over the frames, then require every real (frame,
    detection, ground truth) slot of the four pair-value stacks to equal its
    scalar kernel exactly, NaN where the kernel gives None, and the padding
    to read NaN.  Returns how many 3D or BEV entries came from the
    apart-footprints shortcut."""
    compare_with_oracle(frames)
    stack = _Stack.of(frames)
    layout = stack_layout(frames)
    real = real_pairs(layout)
    assert stack.apart.shape == real.shape and not stack.apart[~real].any()
    assert stack.dets.sum(axis=1).tolist() == [len(dets) for dets, _ in layout]
    shortcuts = 0
    for field, kind in TABLE_KERNELS:
        values = getattr(stack, field)
        assert values.shape == real.shape and values.dtype == np.float64, field
        assert np.isnan(values[~real]).all(), field
        for f, (dets, gts) in enumerate(layout):
            for k, det in enumerate(dets):
                for g, gt in enumerate(gts):
                    value = float(values[f, k, g])
                    want = scalar_pair_value(kind, det, gt)
                    if want is None:
                        assert math.isnan(value), (field, f, k, g, value)
                    else:
                        assert value == want, (field, f, k, g, value, want)
                    if field in ("iou_3d", "iou_bev") and stack.apart[f, k, g]:
                        assert value == 0.0
                        shortcuts += 1
    return shortcuts


def hand_frames():
    """The acceptance suite's hand cases: perfect, miss, tie, don't-care
    region with dimensions -1, foreign type, empty detections, empty
    ground truth."""
    gt = rec()
    return [
        ((rec(score=0.9),), (gt,)),
        ((shift(gt, dx=5.0, score=0.8),), (gt,)),
        ((rec(score=0.5), shift(gt, du=300.0, score=0.5)), (gt, shift(gt, du=300.0))),
        (
            (rec(score=0.7), shift(gt, du=500.0, score=0.6)),
            (gt, rec(type="DontCare", bbox=(590.0, 90.0, 720.0, 170.0),
                     truncated=-1.0, occluded=-1, dimensions=(-1.0, -1.0, -1.0))),
        ),
        ((rec(score=0.4), rec(type="Van", score=0.9)), (rec(type="Van"), gt)),
        ((), (gt,)),
        ((rec(score=0.3),), ()),
    ]


def test_reused_tables_equal_the_scalar_kernels():
    check_reused_tables(hand_frames())
    shortcuts = sum(
        check_reused_tables(random_frames(np.random.default_rng(seed)))
        for seed in range(150)
    )
    assert shortcuts > 0  # apart pairs were read, each at exactly 0.0


def count_metric_calls(monkeypatch, names):
    """Wrap each named metrics global; returns the list of (name, args) calls."""
    calls = []

    def counted(name):
        inner = getattr(metrics, name)

        def wrapper(*args):
            calls.append((name, args))
            return inner(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(metrics, name, counted(name))
    return calls


def test_each_pair_value_is_computed_once(monkeypatch):
    frames = random_frames(np.random.default_rng(7))
    stack = _Stack.of(frames)  # read before the kernels are counted
    log = count_metric_calls(monkeypatch, (
        "box_ious", "box2d_ious", "_distances", "iou_3d", "iou_bev", "iou_2d",
        "label_pose_fields"))

    def count(name):
        return sum(1 for called, _ in log if called == name)

    def sizes(kernel):  # P, the pair count, of each call of a batched kernel
        return [len(args[1]) for called, args in log if called == kernel]

    assert len(pr_curves(frames, SWEEP_JOBS, POINTS)) == len(SWEEP_JOBS) == 24
    # 3D/BEV entries of two boxes whose footprints are not apart, in one call
    clipped = int((~np.isnan(stack.iou_bev) & ~stack.apart).sum())
    assert sizes("box_ious") == [clipped] and clipped > 0
    # every pair of a matched (OBJECT_TYPE) detection, in one call
    n_pairs = sum(len(dets) * len(gts) for dets, gts in stack_layout(frames))
    for kernel in ("box2d_ious", "_distances"):
        assert sizes(kernel) == [n_pairs] and n_pairs > 0, kernel
    for kind in ("iou_2d", "iou_3d", "iou_bev"):
        assert count(kind) == 0, kind  # the batched kernels score every pair
    posed = sum(1 for dets, gts in stack_layout(frames) for rec in (*dets, *gts)
                if min(rec.dimensions) > 0)
    # every posed record becomes a box row in one array conversion
    assert [len(args[0]) for called, args in log if called == "label_pose_fields"] == [posed]


def test_alp_sweep_fills_every_table(monkeypatch):
    log = count_metric_calls(monkeypatch, ("iou_2d", "_curve"))
    frames = random_frames(np.random.default_rng(7))
    pr_curves(frames, [job for job in SWEEP_JOBS if job[0] == "alp"], POINTS)
    stacks = [args[0] for called, args in log if called == "_curve"]
    assert len(stacks) == 6 and all(stack is stacks[0] for stack in stacks)  # one stack per call
    assert [called for called, _ in log if called != "_curve"] == []  # no scalar 2D IoU
    stack = stacks[0]
    real = real_pairs(stack_layout(frames))
    assert real.any()
    for field, _ in TABLE_KERNELS:
        assert getattr(stack, field).shape == real.shape, field
    assert not np.isnan(stack.iou_2d[real]).any()
    assert not np.isnan(stack.distance[real]).any()
    # the 3D and BEV stacks were filled by the same pass
    assert (~np.isnan(stack.iou_3d)).any()
