"""Independent reference implementations used to validate the library.

Everything here is deliberately written from first principles (sampling,
brute force, finite differences) rather than by calling back into the
code under test, so agreement is meaningful.
"""
from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Monte-Carlo IoU for gravity-aligned rotated boxes.
# ---------------------------------------------------------------------------

def _box_params(pose):
    L, H, W = np.exp(np.asarray(pose.sigma, dtype=float))
    return float(pose.theta), np.asarray(pose.T, dtype=float), L, H, W


def _corners3d(pose):
    """Box corners, computed here from scratch (loop form, no shared code)."""
    theta, T, L, H, W = _box_params(pose)
    c, s = np.cos(theta), np.sin(theta)
    out = []
    for sx in (+0.5, -0.5):
        for sy in (0.0, -1.0):
            for sz in (+0.5, -0.5):
                x, y, z = sx * L, sy * H, sz * W
                out.append([c * x + s * z + T[0], y + T[1], -s * x + c * z + T[2]])
    return np.array(out)


def _inside3d(pose, pts):
    """Boolean membership of an (n, 3) point cloud in a gravity-aligned box."""
    theta, T, L, H, W = _box_params(pose)
    c, s = np.cos(theta), np.sin(theta)
    dx = pts[:, 0] - T[0]
    dy = pts[:, 1] - T[1]
    dz = pts[:, 2] - T[2]
    # Inverse yaw rotation applied row-wise.
    lx = c * dx - s * dz
    lz = s * dx + c * dz
    return (
        (np.abs(lx) <= 0.5 * L)
        & (dy <= 0.0)
        & (dy >= -H)
        & (np.abs(lz) <= 0.5 * W)
    )


def _inside_bev(pose, pts):
    """Membership of (n, 2) ground-plane points in the box footprint."""
    theta, T, L, _, W = _box_params(pose)
    c, s = np.cos(theta), np.sin(theta)
    dx = pts[:, 0] - T[0]
    dz = pts[:, 1] - T[2]
    lx = c * dx - s * dz
    lz = s * dx + c * dz
    return (np.abs(lx) <= 0.5 * L) & (np.abs(lz) <= 0.5 * W)


def mc_iou_3d(a, b, unit_samples: np.ndarray) -> float:
    """Volume IoU estimated by point sampling over the union's bounding box.

    unit_samples: (n, 3) uniform draws in [0, 1), reusable across pairs.
    """
    corners = np.vstack([_corners3d(a), _corners3d(b)])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    pts = lo + unit_samples * (hi - lo)
    in_a = _inside3d(a, pts)
    in_b = _inside3d(b, pts)
    n_either = int(np.count_nonzero(in_a | in_b))
    if n_either == 0:
        return 0.0
    return float(np.count_nonzero(in_a & in_b) / n_either)


def mc_iou_bev(a, b, unit_samples: np.ndarray) -> float:
    """Footprint IoU estimated by 2D point sampling; unit_samples is (n, 2)."""
    corners = np.vstack([_corners3d(a)[:, [0, 2]], _corners3d(b)[:, [0, 2]]])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    pts = lo + unit_samples * (hi - lo)
    in_a = _inside_bev(a, pts)
    in_b = _inside_bev(b, pts)
    n_either = int(np.count_nonzero(in_a | in_b))
    if n_either == 0:
        return 0.0
    return float(np.count_nonzero(in_a & in_b) / n_either)


def loop_clip_ious(a, b) -> tuple:
    """(3D IoU, BEV IoU) from a vertex-by-vertex Sutherland-Hodgman clip of
    one footprint by the other, with box areas and volumes from the extents."""
    def feet(pose):
        theta, T, L, _, W = _box_params(pose)
        c, s = np.cos(theta), np.sin(theta)
        return [(c * x + s * z + T[0], -s * x + c * z + T[2])
                for x, z in ((L / 2, W / 2), (-L / 2, W / 2), (-L / 2, -W / 2), (L / 2, -W / 2))]

    poly, clip = feet(a), feet(b)
    for (ax, az), (bx, bz) in zip(clip, clip[1:] + clip[:1]):
        def side(p):  # >= 0 on the inner (left) side of the edge
            return (bx - ax) * (p[1] - az) - (bz - az) * (p[0] - ax)

        out = []
        for prev, cur in zip(poly[-1:] + poly[:-1], poly):
            if (side(cur) >= 0) != (side(prev) >= 0):
                t = side(prev) / (side(prev) - side(cur))
                out.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
            if side(cur) >= 0:
                out.append(cur)
        poly = out
    inter = 0.5 * abs(sum(x0 * z1 - x1 * z0 for (x0, z0), (x1, z1) in zip(poly, poly[1:] + poly[:1])))
    (_, Ta, La, Ha, Wa), (_, Tb, Lb, Hb, Wb) = _box_params(a), _box_params(b)
    dy = max(0.0, min(Ta[1], Tb[1]) - max(Ta[1] - Ha, Tb[1] - Hb))
    return (inter * dy / (La * Ha * Wa + Lb * Hb * Wb - inter * dy),
            inter / (La * Wa + Lb * Wb - inter))


# ---------------------------------------------------------------------------
# Weak-perspective landmark dataset with known ground truth, for testing the
# shape learner.  Written directly from the generative story.
# ---------------------------------------------------------------------------

def random_orthonormal_rows(rng: np.random.Generator) -> np.ndarray:
    """First two rows of a random orthogonal 3x3 matrix."""
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return Q[:2]


def pose_absorbable_directions(mean_pts: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning deformation directions that a weak-
    perspective camera absorbs per instance to first order: uniform
    landmark translations plus scaling and infinitesimal rotation of the
    mean shape.  A basis with components here is not identifiable from
    2D data, so test models are built orthogonal to this span."""
    K = len(mean_pts)
    cols = []
    for j in range(3):
        t = np.zeros((K, 3))
        t[:, j] = 1.0
        cols.append(t.reshape(-1))
    cols.append(mean_pts.reshape(-1).copy())
    for a, b in ((0, 1), (0, 2), (1, 2)):
        rot = np.zeros((K, 3))
        rot[:, a] = -mean_pts[:, b]
        rot[:, b] = mean_pts[:, a]
        cols.append(rot.reshape(-1))
    Q, _ = np.linalg.qr(np.stack(cols, axis=1))
    return Q


def make_ortho_dataset(
    mean_pts: np.ndarray,
    basis_pts: np.ndarray,
    n_instances: int,
    noise_px: float,
    occlusion_rate: float,
    rng: np.random.Generator,
    min_visible: int = 6,
):
    """Sample (uv, visible) landmark annotations from a known linear model.

    Returns (observations, ground_truth) where observations is a list of
    (uv (K,2), visible (K,) bool) and ground_truth records alphas and poses.
    """
    K = len(mean_pts)
    N = len(basis_pts)
    observations, truth = [], []
    for _ in range(n_instances):
        alpha = rng.normal(size=N)
        pts = mean_pts + np.tensordot(alpha, basis_pts, axes=1) if N else mean_pts.copy()
        R = random_orthonormal_rows(rng)
        c = rng.uniform(50.0, 150.0)
        d = np.array([rng.uniform(400, 800), rng.uniform(100, 300)])
        uv = c * pts @ R.T + d
        if noise_px > 0:
            uv = uv + rng.normal(size=(K, 2)) * noise_px
        while True:
            visible = rng.random(K) >= occlusion_rate
            if int(visible.sum()) >= min_visible:
                break
        observations.append((uv, visible))
        truth.append({"alpha": alpha, "c": c, "R": R, "d": d, "points": pts})
    return observations, truth


def register_points(src: np.ndarray, dst: np.ndarray):
    """Similarity registration (scale + orthogonal map, reflections allowed)
    of centered point sets: returns (s, Rg) with s * src @ Rg ~= dst."""
    from scipy.linalg import orthogonal_procrustes

    src_c = src - src.mean(axis=0)
    dst_c = dst - dst.mean(axis=0)
    Rg, raw_scale = orthogonal_procrustes(src_c, dst_c)
    s = raw_scale / float(np.sum(src_c * src_c))
    return s, Rg


def subspace_angles_deg(learned_basis: np.ndarray, true_basis: np.ndarray,
                        learned_mean: np.ndarray, true_mean: np.ndarray):
    """Principal angles between basis row-spans after gauge registration.

    The learner fixes its own 3D frame, so the learned model is first
    registered onto the truth with a similarity transform estimated from
    the mean shapes, applied blockwise per landmark.
    """
    from scipy.linalg import subspace_angles

    K = learned_mean.size // 3
    s, Rg = register_points(
        learned_mean.reshape(K, 3), true_mean.reshape(K, 3)
    )
    aligned = np.stack(
        [s * (row.reshape(K, 3) @ Rg).reshape(-1) for row in learned_basis]
    )
    return np.degrees(subspace_angles(aligned.T, true_basis.T))


def random_pose_pairs(n_pairs: int, rng: np.random.Generator):
    """Box pairs whose IoUs span [0, 1]: a base box plus a perturbed copy."""
    from vehicle3d.geometry import PoseBox3D

    pairs = []
    for _ in range(n_pairs):
        dims = rng.uniform(0.8, 5.0, size=3)
        sigma = np.log(dims)
        T = np.array([rng.uniform(-20, 20), rng.uniform(0.5, 2.5), rng.uniform(5, 60)])
        theta = rng.uniform(0.0, 2.0 * np.pi)
        a = PoseBox3D(theta=theta, T=T, sigma=sigma)
        # Offset scaled to the box size so overlaps range from full to none.
        scale = rng.uniform(0.0, 1.5)
        offset = rng.normal(size=3) * dims[[0, 1, 2]] * scale * 0.5
        dtheta = rng.normal() * 0.6
        dsigma = rng.normal(size=3) * 0.15
        b = PoseBox3D(theta=theta + dtheta, T=T + offset, sigma=sigma + dsigma)
        pairs.append((a, b))
    return pairs


# ---------------------------------------------------------------------------
# Brute-force detection matching and PR sweep.
#
# The matching protocol is re-implemented here the slow, definitional way:
# for every distinct score threshold the frame is re-matched from scratch
# over the detections at or above that threshold.  The library instead
# matches once and accumulates; agreement proves the shortcut.  The metric
# criterion (IoU or center distance) is injected by the caller, since the
# geometry itself is validated elsewhere (Monte Carlo); what is under test
# here is assignment, ignore/don't-care handling, and interpolation.
# ---------------------------------------------------------------------------

def oracle_bucket(gt) -> str:
    if gt.type == "DontCare" or gt.occluded < 0 or gt.truncated < 0:
        return "ignored"
    h = gt.bbox[3] - gt.bbox[1]
    if h >= 40.0 and gt.occluded <= 0 and gt.truncated <= 0.15:
        return "easy"
    if h >= 25.0 and gt.occluded <= 1 and gt.truncated <= 0.30:
        return "moderate"
    if h >= 25.0 and gt.occluded <= 2 and gt.truncated <= 0.50:
        return "hard"
    return "ignored"


def _rect_cover_fraction(det_bbox, region_bbox) -> float:
    """Fraction of the detection box covered by the region box."""
    dl, dt, dr, db = det_bbox
    rl, rt, rr, rb = region_bbox
    iw = max(min(dr, rr) - max(dl, rl), 0.0)
    ih = max(min(db, rb) - max(dt, rt), 0.0)
    return iw * ih / ((dr - dl) * (db - dt))


def _oracle_score(det) -> float:
    return 1.0 if det.score is None else float(det.score)


def _oracle_key(rec):
    """Content ordering mirroring the documented score-tie rule."""
    return (rec.bbox, rec.location, rec.dimensions, rec.rotation_y,
            rec.alpha, rec.type)


def _oracle_match_frame(dets, gts, criterion, difficulty, threshold,
                        object_type):
    """Greedy assignment over detections scoring at or above threshold.

    Returns (tp, fp, [(sort key, similarity), ...]) for this frame.
    """
    ranks = {"easy": 0, "moderate": 1, "hard": 2, "ignored": 3}
    valid = [
        gt.type == object_type and ranks[oracle_bucket(gt)] <= ranks[difficulty]
        for gt in gts
    ]
    regions = [gt.bbox for gt in gts if gt.type == "DontCare"]
    order = sorted(range(len(dets)),
                   key=lambda i: (-_oracle_score(dets[i]),) + _oracle_key(dets[i]))
    gt_order = sorted(range(len(gts)), key=lambda j: _oracle_key(gts[j]))
    taken = [False] * len(gts)
    tp = fp = 0
    sims = []
    for i in order:
        det = dets[i]
        if _oracle_score(det) < threshold:
            continue
        best_j, best_q = None, None
        for j in gt_order:
            if taken[j] or not valid[j]:
                continue
            q = criterion(det, gts[j])
            if q is not None and (best_q is None or q > best_q):
                best_j, best_q = j, q
        if best_j is not None:
            taken[best_j] = True
            tp += 1
            sim = (1.0 + np.cos(gts[best_j].alpha - det.alpha)) / 2.0
            sims.append(((-_oracle_score(det),) + _oracle_key(det), sim))
            continue
        absorbed = False
        for j in gt_order:
            if taken[j] or valid[j] or gts[j].type == "DontCare":
                continue
            if criterion(det, gts[j]) is not None:
                taken[j] = True
                absorbed = True
                break
        if not absorbed:
            for region in regions:
                if _rect_cover_fraction(det.bbox, region) >= 0.5:
                    absorbed = True
                    break
        if not absorbed:
            fp += 1
    return tp, fp, sims


def oracle_pr_metrics(frames, criterion, difficulty="moderate",
                      object_type="Car", points=11):
    """(AP, AOS) in percent by per-threshold rematching; (None, None)
    when the difficulty bucket holds no valid ground truth."""
    ranks = {"easy": 0, "moderate": 1, "hard": 2, "ignored": 3}
    prepared = []
    n_gt = 0
    for dets, gts in frames:
        dets = [d for d in dets if d.type == object_type]
        prepared.append((dets, list(gts)))
        n_gt += sum(
            1
            for gt in gts
            if gt.type == object_type and ranks[oracle_bucket(gt)] <= ranks[difficulty]
        )
    if n_gt == 0:
        return None, None

    thresholds = sorted(
        {_oracle_score(d) for dets, _ in prepared for d in dets}, reverse=True
    )
    recalls, precisions, orientations = [], [], []
    for t in thresholds:
        tp = fp = 0
        sims = []
        for dets, gts in prepared:
            f_tp, f_fp, f_sims = _oracle_match_frame(dets, gts, criterion,
                                                     difficulty, t, object_type)
            tp += f_tp
            fp += f_fp
            sims.extend(f_sims)
        if tp + fp == 0:
            continue  # every detection at this threshold was ignored
        sims.sort(key=lambda e: e[0])
        total_sim = 0.0
        for _, s in sims:
            total_sim += s
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
        orientations.append(total_sim / (tp + fp))

    def interpolate(values):
        total = 0.0
        for k in range(points):
            g = k / (points - 1)
            best = 0.0
            seen = False
            for r, v in zip(recalls, values):
                if r >= g - 1e-12 and (not seen or v > best):
                    best, seen = v, True
            total += best
        return 100.0 * total / points

    return interpolate(precisions), interpolate(orientations)
