"""Tests for the residual terms, the weighted energy, and its Jacobian.

The Jacobian is checked against central finite differences; box-hull
configurations with near-tied extreme corners are resampled because the
analytic form differentiates through the active corner only.
"""
from dataclasses import fields, replace

import numpy as np
import pytest

from vehicle3d.energy import (
    ABLATION_VARIANTS,
    RUNG_TERMS,
    EnergyConfig,
    MeasurementBlock,
    Variables,
    ablation_config,
    block_residuals,
    jacobian,
    stacked_residuals,
    term_rows,
    total_energy,
)
from vehicle3d.geometry import (
    BehindCameraError,
    box_corners,
    place_points,
    project,
    project_box3d,
)
from vehicle3d.refine import initialize
from vehicle3d.scene_io import CAR_MODEL, STANDARD_NOISE, SceneParams, generate_scene
from vehicle3d.shape import MorphableModel, instantiate

CAM = (721.5, 721.5, 609.6, 172.9)  # (fx, fy, cx, cy)
GROUND = np.array([0.0, 1.0 / 1.65, 0.0])  # the plane's normal
HULL_GAP_PX = 1e-2  # min spacing between hull-extreme corner competitors
BOX_SCALE = np.array([1.0, 1.0, 0.3, 0.3])  # the box residual's component scale


def center_log(box):
    """A box (left, top, right, bottom) as the box residual reads it:
    center, then log width and height."""
    left, top, right, bottom = box
    return np.array([0.5 * (left + right), 0.5 * (top + bottom),
                     np.log(right - left), np.log(bottom - top)])


def one_block(box, uv, visible, theta0, sigma0, ground=GROUND, cam=CAM, depth=None):
    """The one-row MeasurementBlock of one instance: box its corners (left,
    top, right, bottom), ground a normal row, cam a row (fx, fy, cx, cy),
    depth None without a crop depth."""
    return MeasurementBlock(
        box=[box], uv=[uv], visible=[visible], depth=[0.0 if depth is None else depth],
        has_depth=[depth is not None], ground=[ground], cam=[cam], theta0=[theta0],
        sigma0=[sigma0])


# A measurement with every landmark hidden, for the terms that do not read them.
BLANK = one_block((-0.5, -0.5, 0.5, 0.5), np.zeros((14, 2)), np.zeros(14, dtype=bool),
                  0.0, np.zeros(3))


@pytest.mark.parametrize("variant", ABLATION_VARIANTS)
def test_an_empty_block_evaluates_to_empty_stacks(variant):
    """An empty block projects nothing: its stacks have 0 rows and the
    rung's row count, at every rung."""
    empty = generate_scene(SceneParams(), STANDARD_NOISE, [7, 0])[1][:0]
    cfg = ablation_config(variant)
    layout = term_rows(cfg, CAR_MODEL.K, CAR_MODEL.n_basis)
    m, D = layout[-1][2].stop if layout else 0, 7 + CAR_MODEL.n_basis
    res = block_residuals(np.zeros((0, D)), empty, CAR_MODEL, cfg)
    assert (res.r.shape, res.unweighted.shape, res.JT.shape, res.behind.shape) == (
        (0, m), (0, m), (0, D, m), (0,))


def random_model(n_basis, rng, K=14):
    mean = rng.uniform([-0.45, -0.9, -0.45], [0.45, -0.05, 0.45], size=(K, 3))
    basis = 0.05 * rng.standard_normal((n_basis, 3 * K))
    return MorphableModel(mean=mean.reshape(-1), basis=basis)


def random_vars(rng, n_alpha):
    return Variables(
        theta=rng.uniform(0.0, 2.0 * np.pi),
        T=np.array([rng.uniform(-8, 8), rng.uniform(0.8, 2.0), rng.uniform(6, 50)]),
        sigma=rng.uniform(-0.2, 1.5, size=3),
        alpha=0.7 * rng.standard_normal(n_alpha),
    )


def measurement_for(vars, model, rng, with_depth=True, exact=False):
    """One-row block near (or exactly at) the forward projection of vars."""
    pose = vars.pose()
    box = project_box3d(CAM, pose)
    pts = instantiate(model, vars.alpha) if model.n_basis else model.mean_points()
    uv = project(CAM, place_points(pts, pose.theta, pose.T, pose.sigma)[0])
    vis = np.ones(len(pts), dtype=bool)
    zb = float(vars.T[2])
    if not exact:  # center moved by up to 20 px, extents scaled by up to e^0.3
        tx, ty, w, h = center_log(box)
        tx, ty = tx + rng.uniform(-20, 20), ty + rng.uniform(-20, 20)
        hw, hh = 0.5 * np.exp(w + rng.uniform(-0.3, 0.3)), 0.5 * np.exp(h + rng.uniform(-0.3, 0.3))
        box = np.array([tx - hw, ty - hh, tx + hw, ty + hh])
        uv = uv + rng.normal(0.0, 5.0, size=uv.shape)
        vis = rng.random(len(pts)) > 0.25
        zb += rng.normal(0.0, 2.0)
        zb = max(zb, 1.0)
    return one_block(box, uv, vis, vars.theta, vars.sigma, depth=zb if with_depth else None)


def term(name, vars, meas=BLANK, model=None):
    """One term's unweighted residual rows and Jacobian rows, read through
    term_rows from the v4 stack of block_residuals at unit weights.  The
    box rows carry the component scale BOX_SCALE.  The model must match the
    measurement's landmark count and the coefficient count, and vars must
    be in front of the camera."""
    cfg = EnergyConfig(lambda1=1.0, lambda2=1.0, lambda3=1.0, lambda4=1.0)
    model = model or random_model(vars.alpha.size, np.random.default_rng(0))
    res = block_residuals(vars.to_vector()[None, :], meas, model, cfg)
    assert not res.behind[0]
    [rows] = [rows for n, _, rows in term_rows(cfg, model.K, vars.alpha.size) if n == name]
    return res.unweighted[0, rows], res.JT[0, :, rows].T


# ---------------------------------------------------------------------------
# 2D box consistency
# ---------------------------------------------------------------------------

def test_box_residual_zero_when_consistent():
    rng = np.random.default_rng(0)
    vars = random_vars(rng, 0)
    meas = measurement_for(vars, random_model(0, rng), rng, exact=True)
    np.testing.assert_allclose(term("2d3d", vars, meas)[0], 0.0, atol=1e-12)


def test_box_residual_pure_translation():
    rng = np.random.default_rng(1)
    vars = random_vars(rng, 0)
    model = random_model(0, rng)
    meas = measurement_for(vars, model, rng, exact=True)
    meas2 = replace(meas, box=meas.box + [5.0, 0.0, 5.0, 0.0])
    # residual convention is measured minus projected
    np.testing.assert_allclose(term("2d3d", vars, meas2)[0], [5.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_box_residual_matches_geometry_recompute():
    rng = np.random.default_rng(2)
    for _ in range(50):
        vars = random_vars(rng, 0)
        meas = measurement_for(vars, random_model(0, rng), rng)
        proj = project_box3d(CAM, vars.pose())
        expected = center_log(meas.box[0]) - center_log(proj)
        np.testing.assert_allclose(term("2d3d", vars, meas)[0], expected * BOX_SCALE, atol=1e-10)


def test_box_residual_behind_camera_raises():
    rng = np.random.default_rng(3)
    vars = random_vars(rng, 0)
    model = random_model(0, rng)
    meas = measurement_for(vars, model, rng)
    bad = Variables(theta=vars.theta, T=np.array([0.0, 1.0, -5.0]), sigma=vars.sigma, alpha=vars.alpha)
    with pytest.raises(BehindCameraError):  # v2: the box term is the only projection
        stacked_residuals(bad, meas, model, ablation_config("v2"))


# ---------------------------------------------------------------------------
# Landmark projection
# ---------------------------------------------------------------------------

def test_landmark_residual_zero_on_forward_projection():
    rng = np.random.default_rng(4)
    model = random_model(2, rng)
    vars = random_vars(rng, 2)
    meas = measurement_for(vars, model, rng, exact=True)
    np.testing.assert_allclose(term("lp", vars, meas, model)[0], 0.0, atol=1e-10)


def test_landmark_residual_visibility_gating():
    rng = np.random.default_rng(5)
    model = random_model(2, rng)
    vars = random_vars(rng, 2)
    meas = measurement_for(vars, model, rng)
    vis = meas.visible.copy()
    vis[0, [3, 7]] = False
    gated = replace(meas, visible=vis)
    r, J = term("lp", vars, gated, model)
    for k in (3, 7):
        assert r[2 * k] == 0.0 and r[2 * k + 1] == 0.0
        assert np.all(J[2 * k] == 0.0) and np.all(J[2 * k + 1] == 0.0)


def test_landmark_energy_matches_loop():
    rng = np.random.default_rng(6)
    for _ in range(20):
        model = random_model(3, rng)
        vars = random_vars(rng, 3)
        meas = measurement_for(vars, model, rng)
        r = term("lp", vars, meas, model)[0]
        pose = vars.pose()
        placed = place_points(instantiate(model, vars.alpha), pose.theta, pose.T, pose.sigma)[0]
        total = 0.0
        for k in range(meas.K):
            if meas.visible[0, k]:
                uv_k = project(CAM, placed[k : k + 1])[0]
                total += float(np.sum((meas.uv[0, k] - uv_k) ** 2))
        np.testing.assert_allclose(float(r @ r), total, rtol=1e-12)


# ---------------------------------------------------------------------------
# Depth, ground plane, shape regularity
# ---------------------------------------------------------------------------

def test_depth_residual_values():
    rng = np.random.default_rng(7)
    vars = Variables(theta=0.3, T=np.array([1.0, 1.6, 10.0]), sigma=np.zeros(3), alpha=np.zeros(0))
    model = random_model(0, rng)
    meas = measurement_for(vars, model, rng)
    m12 = replace(meas, theta0=[0.0], sigma0=np.zeros((1, 3)), depth=[12.0])
    assert term("md", vars, m12)[0] == [-2.0]
    m10 = replace(m12, depth=[10.0])
    assert term("md", vars, m10)[0] == [0.0]
    r, J = term("md", vars, m12)
    np.testing.assert_array_equal(J, [[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])


def test_depth_term_absent_or_disabled():
    """Without a measured depth the depth term stays in its rung as a zero
    row with a zero gradient, so md reads 0.0 and v4 equals v3 exactly; a
    rung without the term (v3) has no md key and one row fewer."""
    rng = np.random.default_rng(8)
    model = random_model(2, rng)
    vars = random_vars(rng, 2)
    meas_nd = measurement_for(vars, model, rng, with_depth=False)
    r, J = term("md", vars, meas_nd, model)
    assert r == [0.0] and not J.any()
    cfg, off = EnergyConfig(), ablation_config("v3")  # v3: v4 without the depth term
    [md] = [rows for name, _, rows in term_rows(cfg, model.K, 2) if name == "md"]
    e_nd, breakdown = total_energy(vars, meas_nd, model, cfg)
    assert breakdown["md"] == 0.0
    assert e_nd == total_energy(vars, meas_nd, model, off)[0]
    assert stacked_residuals(vars, meas_nd, model, cfg)[md].tolist() == [0.0]
    assert not jacobian(vars, meas_nd, model, cfg)[md].any()
    meas_d = measurement_for(vars, model, rng)
    assert jacobian(vars, meas_nd, model, cfg).shape == jacobian(vars, meas_d, model, cfg).shape
    e_off, bd_off = total_energy(vars, meas_d, model, off)
    assert "md" not in bd_off
    # disabling contributes nothing to the gradient stack either
    J_off = jacobian(vars, meas_d, model, off)
    e_on, bd_on = total_energy(vars, meas_d, model, cfg)
    assert e_on - e_off == pytest.approx(bd_on["md"])
    assert jacobian(vars, meas_d, model, cfg).shape[0] == J_off.shape[0] + 1


def test_ground_residual():
    vars = Variables(theta=0.0, T=np.array([4.0, 1.65, 20.0]), sigma=np.zeros(3), alpha=np.zeros(0))
    assert term("gp", vars)[0] == pytest.approx([0.0], abs=1e-15)
    level = Variables(theta=0.0, T=np.array([0.0, 0.0, 10.0]), sigma=np.zeros(3), alpha=np.zeros(0))
    assert term("gp", level)[0] == [-1.0]  # N . T = 0
    r, J = term("gp", vars)
    np.testing.assert_array_equal(J[0, 1:4], GROUND)
    assert np.all(J[0, [0, 4, 5, 6]] == 0.0)
    # affine in T: finite displacement reproduces N . d exactly
    rng = np.random.default_rng(9)
    d = rng.normal(size=3)
    moved = Variables(theta=0.0, T=vars.T + d, sigma=np.zeros(3), alpha=np.zeros(0))
    assert term("gp", moved)[0] - term("gp", vars)[0] == pytest.approx([GROUND @ d], rel=1e-12)


def test_shape_residual_zero_center():
    # the default: pull coefficients toward the learning prior's origin
    v = Variables(theta=0.0, T=np.array([0, 1, 10.0]), sigma=np.zeros(3), alpha=np.array([1.0, -1.0]))
    np.testing.assert_allclose(term("s", v)[0], [1.0, -1.0])
    r, J = term("s", v)
    np.testing.assert_array_equal(J[:, 7:], np.eye(2))


# ---------------------------------------------------------------------------
# Total energy
# ---------------------------------------------------------------------------

def brute_energy(vars, meas, model, cfg):
    """From-scratch recomputation of every enabled term."""
    pose = vars.pose()
    terms = RUNG_TERMS[cfg.variant]
    E = 0.0
    cam = meas.cam[0]
    if "2d3d" in terms:
        d = (center_log(meas.box[0]) - center_log(project_box3d(cam, pose))) * BOX_SCALE
        E += float(d @ d)
    if "lp" in terms:
        pts = instantiate(model, vars.alpha) if model.n_basis else model.mean_points()
        placed = place_points(pts, pose.theta, pose.T, pose.sigma)[0]
        for k in range(meas.K):
            if meas.visible[0, k]:
                uv_k = project(cam, placed[k : k + 1])[0]
                E += cfg.lambda1 * float(np.sum((meas.uv[0, k] - uv_k) ** 2))
    if "md" in terms and meas.has_depth[0]:
        E += cfg.lambda2 * (vars.T[2] - meas.depth[0]) ** 2
    if "gp" in terms:
        E += cfg.lambda3 * float(meas.ground[0] @ vars.T - 1.0) ** 2
    if "s" in terms:
        E += cfg.lambda4 * float(vars.alpha @ vars.alpha)
    return E


def test_total_energy_zero_at_ground_truth():
    rng = np.random.default_rng(10)
    for n_basis in (0, 3):
        model = random_model(n_basis, rng)
        vars = random_vars(rng, n_basis)
        # ground truth sits on the plane (N . T = 1) with coefficients at the prior mean
        T = np.array([vars.T[0], 1.65, vars.T[2]])
        vars = Variables(theta=vars.theta, T=T, sigma=vars.sigma, alpha=np.zeros(n_basis))
        meas = measurement_for(vars, model, rng, exact=True)
        e, breakdown = total_energy(vars, meas, model, EnergyConfig())
        assert e < 1e-8
        assert all(v >= 0.0 for v in breakdown.values())


def test_total_energy_weight_linearity():
    rng = np.random.default_rng(11)
    model = random_model(2, rng)
    vars = random_vars(rng, 2)
    meas = measurement_for(vars, model, rng)
    _, base = total_energy(vars, meas, model, EnergyConfig(lambda1=1.0))
    _, doubled = total_energy(vars, meas, model, EnergyConfig(lambda1=2.0))
    assert doubled["lp"] == pytest.approx(2.0 * base["lp"], rel=1e-12)
    for name in ("2d3d", "md", "gp", "s"):
        assert doubled[name] == pytest.approx(base[name], rel=1e-12)


def test_total_energy_matches_bruteforce():
    rng = np.random.default_rng(12)
    for _ in range(30):
        model = random_model(int(rng.integers(0, 4)), rng)
        vars = random_vars(rng, model.n_basis)
        meas = measurement_for(vars, model, rng, with_depth=bool(rng.integers(0, 2)))
        cfg = EnergyConfig(
            lambda1=float(rng.uniform(0.1, 5)),
            lambda2=float(rng.uniform(0.1, 5)),
            lambda3=float(rng.uniform(0.1, 20)),
            lambda4=float(rng.uniform(0.01, 1)),
            variant=ABLATION_VARIANTS[int(rng.integers(0, 4))],
        )
        e, breakdown = total_energy(vars, meas, model, cfg)
        assert e == pytest.approx(brute_energy(vars, meas, model, cfg), rel=1e-12, abs=1e-12)
        assert e == pytest.approx(sum(breakdown.values()), rel=1e-12, abs=1e-15)
        r = stacked_residuals(vars, meas, model, cfg)
        assert e == pytest.approx(float(r @ r), rel=1e-12, abs=1e-12)


def test_energy_theta_wrap_invariance():
    rng = np.random.default_rng(13)
    model = random_model(2, rng)
    vars = random_vars(rng, 2)
    meas = measurement_for(vars, model, rng)
    cfg = EnergyConfig()
    e0, _ = total_energy(vars, meas, model, cfg)
    for dk in (2 * np.pi, -2 * np.pi, 4 * np.pi):
        shifted = Variables(theta=vars.theta + dk, T=vars.T, sigma=vars.sigma, alpha=vars.alpha)
        e1, _ = total_energy(shifted, meas, model, cfg)
        assert e1 == pytest.approx(e0, rel=1e-9)


def test_energy_monotone_in_weights():
    rng = np.random.default_rng(14)
    model = random_model(2, rng)
    vars = random_vars(rng, 2)
    meas = measurement_for(vars, model, rng)
    base = EnergyConfig()
    e0, _ = total_energy(vars, meas, model, base)
    for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
        bumped = EnergyConfig(**{name: getattr(base, name) * 3.0})
        e1, _ = total_energy(vars, meas, model, bumped)
        assert e1 >= e0


# ---------------------------------------------------------------------------
# Jacobian vs central finite differences
# ---------------------------------------------------------------------------

def fd_jacobian(vars, meas, model, cfg, step=1e-6):
    x0 = vars.to_vector()

    def at(x):  # the Variables of a state vector in to_vector's layout
        return Variables(theta=float(x[0]), T=x[1:4], sigma=x[4:7], alpha=x[7:])

    cols = []
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += step
        xm[i] -= step
        rp = stacked_residuals(at(xp), meas, model, cfg)
        rm = stacked_residuals(at(xm), meas, model, cfg)
        cols.append((rp - rm) / (2.0 * step))
    return np.stack(cols, axis=1)


def hull_has_clear_extremes(vars, min_gap=HULL_GAP_PX):
    """Reject poses whose box hull has two corners competing for an extreme.

    Vertical-edge partners (bottom corner i, top corner 4 + i) share u exactly
    for a y-rotated box and depend on the variables identically, so that tie is
    benign; u competition is between the four distinct edges.
    """
    pose = vars.pose()
    uv = project(CAM, box_corners(pose.theta, pose.T, pose.sigma)[0])
    us = np.sort(uv[:4, 0])
    vs = np.sort(uv[:, 1])
    for s in (us, vs):
        if s[1] - s[0] < min_gap or s[-1] - s[-2] < min_gap:
            return False
    return True


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(15)
    worst = 0.0
    checked = 0
    while checked < 300:
        n_basis = int(rng.integers(0, 4))
        model = random_model(n_basis, rng)
        vars = random_vars(rng, n_basis)
        if not hull_has_clear_extremes(vars):
            continue
        meas = measurement_for(vars, model, rng, with_depth=bool(rng.integers(0, 2)))
        cfg = EnergyConfig(
            lambda1=float(rng.uniform(0.1, 5)),
            lambda2=float(rng.uniform(0.1, 5)),
            lambda3=float(rng.uniform(0.1, 20)),
            lambda4=float(rng.uniform(0.01, 1)),
        )
        J = jacobian(vars, meas, model, cfg)
        J_fd = fd_jacobian(vars, meas, model, cfg)
        assert J.shape == J_fd.shape == (J.shape[0], 7 + n_basis)
        rel = np.abs(J - J_fd) / np.maximum(1.0, np.maximum(np.abs(J), np.abs(J_fd)))
        worst = max(worst, float(rel.max()))
        checked += 1
    assert worst < 1e-5, f"worst relative disagreement {worst:.3e}"


def test_jacobian_matches_fd_per_variant():
    rng = np.random.default_rng(16)
    model = random_model(2, rng)
    for variant in ("v2", "v3", "v4"):
        cfg = ablation_config(variant)
        for _ in range(10):
            vars = random_vars(rng, 2)
            if not hull_has_clear_extremes(vars):
                continue
            meas = measurement_for(vars, model, rng)
            rel = np.abs(jacobian(vars, meas, model, cfg) - fd_jacobian(vars, meas, model, cfg))
            rel /= np.maximum(1.0, np.abs(jacobian(vars, meas, model, cfg)))
            assert rel.max() < 1e-5


@pytest.mark.parametrize("n_basis", [0, 3])
def test_block_jacobian_matches_finite_differences(n_basis):
    """The J^T of a block of 8 instances, alpha columns included, against
    central differences of the same block."""
    rng = np.random.default_rng(18 + n_basis)
    model = random_model(n_basis, rng)
    starts = []
    while len(starts) < 8:
        vars = random_vars(rng, n_basis)
        if hull_has_clear_extremes(vars):
            starts.append(vars)
    block = MeasurementBlock.concat(measurement_for(vars, model, rng, with_depth=bool(i % 2))
                                    for i, vars in enumerate(starts))
    x, cfg, step = np.array([vars.to_vector() for vars in starts]), EnergyConfig(), 1e-6
    JT = block_residuals(x, block, model, cfg).JT
    assert JT.shape[:2] == (8, 7 + n_basis)
    for j in range(x.shape[1]):
        dx = np.zeros_like(x)
        dx[:, j] = step
        fd = (block_residuals(x + dx, block, model, cfg).r
              - block_residuals(x - dx, block, model, cfg).r) / (2.0 * step)
        rel = np.abs(JT[:, j] - fd) / np.maximum(1.0, np.maximum(np.abs(JT[:, j]), np.abs(fd)))
        assert rel.max() < 1e-5, f"column {j}: worst relative disagreement {rel.max():.3e}"


def test_concat_rejects_mixed_landmark_counts():
    meas = generate_scene(SceneParams(n_instances=1), STANDARD_NOISE, 7)[1]
    short = replace(meas, uv=meas.uv[:, :13], visible=meas.visible[:, :13])
    assert (meas.K, short.K) == (14, 13)
    for blocks in ([meas, short], [short, meas]):
        with pytest.raises(ValueError, match="^inconsistent landmark counts$"):
            MeasurementBlock.concat(blocks)


def same_block(a, b) -> bool:
    """The two blocks hold the same arrays, bit for bit."""
    return all(getattr(a, f.name).dtype == getattr(b, f.name).dtype
               and getattr(a, f.name).shape == getattr(b, f.name).shape
               and getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes()
               for f in fields(MeasurementBlock))


def test_block_rows_and_sub_blocks():
    block = MeasurementBlock.concat(generate_scene(SceneParams(), STANDARD_NOISE, [7, index])[1]
                                    for index in range(3))
    assert (len(block), block.K) == (15, 14)
    rows = list(block)
    assert len(rows) == 15
    for i, row in enumerate(rows):
        assert len(row) == 1
        assert same_block(row, block[i]) and same_block(row, block[i - 15])
        for f in fields(MeasurementBlock):
            assert getattr(row, f.name)[0].tobytes() == getattr(block, f.name)[i].tobytes()
    assert same_block(MeasurementBlock.concat(rows), block)
    mask = np.arange(15) % 3 == 1
    assert same_block(block[mask], MeasurementBlock.concat(rows[1::3]))
    assert same_block(block[4:9], MeasurementBlock.concat(rows[4:9]))
    assert same_block(block[np.array([6, 2])], MeasurementBlock.concat([rows[6], rows[2]]))
    with pytest.raises(IndexError):
        block[15]


def test_concat_skips_empty_blocks():
    frame = generate_scene(SceneParams(n_instances=2), STANDARD_NOISE, 3)[1]
    empty = frame[:0]
    assert (len(empty), empty.K) == (0, 14)
    no_landmarks = replace(empty, uv=np.zeros((0, 0, 2)), visible=np.zeros((0, 0)))
    assert no_landmarks.K == 0  # an empty frame's block, whose count is unknown
    joined = MeasurementBlock.concat([no_landmarks, frame, empty, frame[:1], no_landmarks])
    assert same_block(joined, MeasurementBlock.concat([*frame, frame[0]]))
    assert same_block(MeasurementBlock.concat([no_landmarks, no_landmarks]), no_landmarks)


@pytest.mark.parametrize("function", [total_energy, stacked_residuals, jacobian])
def test_one_instance_functions_reject_other_lengths(function):
    rng = np.random.default_rng(19)
    model = random_model(0, rng)
    vars = random_vars(rng, 0)
    meas = measurement_for(vars, model, rng)
    for block in (MeasurementBlock.concat([meas, meas]), meas[:0]):
        with pytest.raises(ValueError, match=rf"^{function.__name__} takes a one-row "
                                             rf"MeasurementBlock, not {len(block)} rows$"):
            function(vars, block, model, EnergyConfig())


# ---------------------------------------------------------------------------
# Batch invariance
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def seed7_starts():
    """The 250 starts of `synth --seed 7` (50 frames of 5 instances) and their block."""
    block = MeasurementBlock.concat(generate_scene(SceneParams(), STANDARD_NOISE, [7, index])[1]
                                    for index in range(50))
    x = np.array([initialize(meas, CAR_MODEL).to_vector() for meas in block])
    return x, block


@pytest.mark.parametrize("variant", ["v2", "v3", "v4"])
def test_rows_do_not_depend_on_the_block(seed7_starts, variant):
    """Each instance's residual, J^T and unweighted rows are bit-identical
    alone and inside a block of every start, in either order."""
    x, block = seed7_starts
    assert len(x) == 250
    cfg = ablation_config(variant)
    order = np.arange(len(x))[::-1]
    together = block_residuals(x, block, CAR_MODEL, cfg)
    reversed_ = block_residuals(x[order], block[order], CAR_MODEL, cfg)
    for b in range(len(x)):
        alone = block_residuals(x[b:b + 1], block[b], CAR_MODEL, cfg)
        for field in ("r", "JT", "unweighted", "behind"):
            one = getattr(alone, field)[0].tobytes()
            assert one == getattr(together, field)[b].tobytes(), (b, field)
            assert one == getattr(reversed_, field)[len(x) - 1 - b].tobytes(), (b, field)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def test_ablation_config_toggles():
    def stacked(variant):
        return [name for name, _, _ in term_rows(ablation_config(variant), 14, 2)]

    assert stacked("v1") == []
    assert stacked("v2") == ["2d3d", "gp"]
    assert stacked("v3") == ["2d3d", "lp", "gp", "s"]
    assert stacked("v4") == ["2d3d", "lp", "md", "gp", "s"]
    assert ABLATION_VARIANTS == ("v1", "v2", "v3", "v4")
    assert EnergyConfig().variant == "v4"
    base = EnergyConfig(lambda3=42.0)
    assert ablation_config("v2", base).lambda3 == 42.0
    with pytest.raises(ValueError, match="unknown variant 'v5'"):
        ablation_config("v5")


def test_config_validation():
    with pytest.raises(ValueError):
        EnergyConfig(lambda2=-0.1)
    with pytest.raises(ValueError):
        EnergyConfig(variant="v9")
    box = (-0.5, -0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match=r"^uv has shape \(1, 3, 2\), not \(1, 2, 2\)$"):
        one_block(box, np.zeros((3, 2)), np.zeros(2, dtype=bool), 0.0, np.zeros(3))
    with pytest.raises(ValueError, match="^i0: depth hypothesis must be positive$"):
        one_block(box, np.zeros((3, 2)), np.zeros(3, dtype=bool), 0.0, np.zeros(3), depth=-4.0)


def test_variables_vector_layout():
    # the state layout block_residuals and refine_batch read: theta, T, sigma, alpha
    rng = np.random.default_rng(17)
    vars = random_vars(rng, 3)
    x = vars.to_vector()
    assert x.shape == (10,) and x[0] == vars.theta
    np.testing.assert_array_equal(x[1:4], vars.T)
    np.testing.assert_array_equal(x[4:7], vars.sigma)
    np.testing.assert_array_equal(x[7:], vars.alpha)
