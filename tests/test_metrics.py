"""Detection metric tests.

Hand-built frames have answers derived on paper (PR tables enumerated in
comments).  The randomized sweeps check exact agreement with the
brute-force rematching oracle in tests/oracles.py, which re-runs the
greedy assignment from scratch at every score threshold.
"""
import math

import numpy as np
import pytest

from vehicle3d.geometry import Box2D, iou_2d, iou_3d, iou_bev
from vehicle3d.metrics import (
    DIFFICULTIES,
    EvalPair,
    alp,
    ap_3d,
    ap_bev,
    center_distance,
    difficulty_bucket,
    pr_curve,
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
            boxes = (Box2D.from_corners(*det.bbox), Box2D.from_corners(*gt.bbox))
            if iou_2d(*boxes) < gate_iou:
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
            value = iou_2d(Box2D.from_corners(*det.bbox), Box2D.from_corners(*gt.bbox))
        else:
            if min(det.dimensions) <= 0 or min(gt.dimensions) <= 0:
                return None
            fn = iou_3d if kind == "3d" else iou_bev
            value = fn(label_to_pose(det), label_to_pose(gt))
        return value if value >= threshold else None

    return passes


def compare_with_oracle(frames, points=11):
    """Assert all four metric families equal the rematching oracle.

    frames are (detections, ground truth) tuples or EvalPairs."""
    oracle_frames = [
        (f.detections, f.ground_truth) if isinstance(f, EvalPair) else f for f in frames
    ]
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
            want_ap, want_aos = oracle_pr_metrics(
                oracle_frames, criterion, difficulty, points=points
            )
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
    # explicit projected height wins over the pixel box
    assert difficulty_bucket(gt(20, 0, 0.0), projected_height_px=45.0) == "easy"
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
        EvalPair((rec(score=float("inf"), truncated=-1.0, occluded=-1),), ())
    with pytest.raises(ValueError):
        pr_curve([((), (rec(),))], "nope", 0.5)
    with pytest.raises(ValueError):
        pr_curve([((), (rec(),))], "ap2d", 0.5, difficulty="trivial")


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
# Match once: the pair values an EvalPair keeps for its curves.
# ---------------------------------------------------------------------------

def scalar_pair_value(kind, det, gt):
    """The scalar kernel behind one EvalPair table entry."""
    if kind == "iou_2d":
        return iou_2d(Box2D.from_corners(*det.bbox), Box2D.from_corners(*gt.bbox))
    if kind == "center_distance":
        return center_distance(det, gt)
    if min(det.dimensions) <= 0 or min(gt.dimensions) <= 0:
        return None
    fn = iou_3d if kind == "iou_3d" else iou_bev
    return fn(label_to_pose(det), label_to_pose(gt))


def check_reused_tables(frames) -> int:
    """Run every curve over one EvalPair list, then require each pair value
    a curve read to equal its scalar kernel exactly.  Returns how many 3D
    or BEV entries came from the apart-footprints shortcut."""
    pairs = [EvalPair(*frame) for frame in frames]
    compare_with_oracle(pairs)
    shortcuts = 0
    for pair in pairs:
        apart = vars(pair).get("_apart")
        for (kind, i, j), value in pair._values.items():
            want = scalar_pair_value(kind, pair.detections[i], pair.ground_truth[j])
            assert value == want and type(value) is type(want), (kind, i, j, value, want)
            if kind in ("iou_3d", "iou_bev") and apart[i, j]:
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


def test_each_pair_value_is_computed_once(monkeypatch):
    import vehicle3d.metrics as metrics

    calls = []
    sizes = []  # P, the pair count, of each box_ious call

    def counted(name):
        inner = getattr(metrics, name)

        def wrapper(*args):
            calls.append(name)
            if name == "box_ious":
                sizes.append(len(args[1]))
            return inner(*args)

        return wrapper

    for name in ("box_ious", "iou_3d", "iou_bev", "iou_2d", "center_distance",
                 "label_to_pose"):
        monkeypatch.setattr(metrics, name, counted(name))
    pairs = [EvalPair(*frame) for frame in random_frames(np.random.default_rng(7))]
    jobs = [(metric, threshold, difficulty)
            for metric, thresholds in (("alp", (1.0, 2.0)), ("ap3d", (0.25, 0.7)),
                                       ("apbev", (0.5, 0.7)), ("ap2d", (0.5, 0.7)))
            for threshold in thresholds for difficulty in DIFFICULTIES]
    for job in jobs:
        pr_curve(pairs, *job)
    first = len(calls)
    assert calls.count("box_ious") == 1 and sizes[0] > 0  # one call for the sweep
    for job in jobs:
        pr_curve(pairs, *job)
    assert len(calls) == first > 0  # a second sweep scores nothing

    def scored(kind, frames):
        return sum(
            1 for pair in frames for (k, i, j), value in pair._values.items()
            if k == kind and value is not None
            and not (kind in ("iou_3d", "iou_bev") and pair._apart[i, j])
        )

    for kind in ("iou_2d", "center_distance"):
        assert calls.count(kind) == scored(kind, pairs), kind
    for kind in ("iou_3d", "iou_bev"):
        assert calls.count(kind) == 0, kind  # the kernel scores both at once
        assert sum(sizes) == scored(kind, pairs), kind
    posed = sum(1 for p in pairs for rec in (*p.detections, *p.ground_truth)
                if min(rec.dimensions) > 0)
    assert calls.count("label_to_pose") == posed
    # scored and new frames in one list: one call, over the new frames only
    fresh = [EvalPair(*frame) for frame in random_frames(np.random.default_rng(8))]
    pr_curve(pairs + fresh, "apbev", 0.5)
    assert calls.count("box_ious") == 2 and sizes[1] == scored("iou_bev", fresh) > 0
