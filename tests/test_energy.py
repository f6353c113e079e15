"""Tests for the residual terms, the weighted energy, and its Jacobian.

The Jacobian is checked against central finite differences; box-hull
configurations with near-tied extreme corners are resampled because the
analytic form differentiates through the active corner only.
"""
import numpy as np
import pytest

from vehicle3d.energy import (
    ABLATION_VARIANTS,
    RUNG_TERMS,
    EnergyConfig,
    Measurement,
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
    Box2D,
    CameraIntrinsics,
    GroundPlane,
    box3d_corners,
    project,
    project_box3d,
)
from vehicle3d.refine import initialize
from vehicle3d.scene_io import CAR_MODEL, STANDARD_NOISE, SceneParams, generate_scene
from vehicle3d.shape import MorphableModel, ShapeCoefficients, instantiate, place_in_camera

CAM = CameraIntrinsics(fx=721.5, fy=721.5, cx=609.6, cy=172.9)
GROUND = GroundPlane(N=np.array([0.0, 1.0 / 1.65, 0.0]))
HULL_GAP_PX = 1e-2  # min spacing between hull-extreme corner competitors
BOX_SCALE = np.array([1.0, 1.0, 0.3, 0.3])  # the box residual's component scale
# A measurement with every landmark hidden, for the terms that do not read them.
BLANK = Measurement(
    box2d=Box2D(tx=0, ty=0, w=0, h=0), landmarks_uv=np.zeros((14, 2)),
    landmarks_visible=np.zeros(14, dtype=bool), theta0=0.0, sigma0=np.zeros(3),
    ground=GROUND, cam=CAM,
)


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
    """Measurement near (or exactly at) the forward projection of vars."""
    pose = vars.pose()
    box = project_box3d(CAM, pose)
    pts = instantiate(model, vars.alpha) if model.n_basis else model.mean_points()
    uv = project(CAM, place_in_camera(pts, pose))
    vis = np.ones(len(pts), dtype=bool)
    zb = float(vars.T[2])
    if not exact:
        box = Box2D(
            tx=box.tx + rng.uniform(-20, 20),
            ty=box.ty + rng.uniform(-20, 20),
            w=box.w + rng.uniform(-0.3, 0.3),
            h=box.h + rng.uniform(-0.3, 0.3),
        )
        uv = uv + rng.normal(0.0, 5.0, size=uv.shape)
        vis = rng.random(len(pts)) > 0.25
        zb += rng.normal(0.0, 2.0)
        zb = max(zb, 1.0)
    return Measurement(
        box2d=box,
        landmarks_uv=uv,
        landmarks_visible=vis,
        theta0=vars.theta,
        sigma0=vars.sigma,
        ground=GROUND,
        cam=CAM,
        depth_zb=zb if with_depth else None,
    )


def term(name, vars, meas=BLANK, model=None):
    """One term's unweighted residual rows and Jacobian rows, read through
    term_rows from the v4 stack of block_residuals at unit weights.  The
    box rows carry the component scale BOX_SCALE.  The model must match the
    measurement's landmark count and the coefficient count, and vars must
    be in front of the camera."""
    cfg = EnergyConfig(lambda1=1.0, lambda2=1.0, lambda3=1.0, lambda4=1.0)
    model = model or random_model(vars.alpha.size, np.random.default_rng(0))
    res = block_residuals(vars.to_vector()[None, :], MeasurementBlock.stack([meas]), model, cfg)
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
    shifted = Box2D(tx=meas.box2d.tx + 5.0, ty=meas.box2d.ty, w=meas.box2d.w, h=meas.box2d.h)
    meas2 = Measurement(
        box2d=shifted,
        landmarks_uv=meas.landmarks_uv,
        landmarks_visible=meas.landmarks_visible,
        theta0=meas.theta0,
        sigma0=meas.sigma0,
        ground=meas.ground,
        cam=meas.cam,
        depth_zb=meas.depth_zb,
    )
    # residual convention is measured minus projected
    np.testing.assert_allclose(term("2d3d", vars, meas2)[0], [5.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_box_residual_matches_geometry_recompute():
    rng = np.random.default_rng(2)
    for _ in range(50):
        vars = random_vars(rng, 0)
        meas = measurement_for(vars, random_model(0, rng), rng)
        proj = project_box3d(CAM, vars.pose())
        expected = np.array(
            [
                meas.box2d.tx - proj.tx,
                meas.box2d.ty - proj.ty,
                meas.box2d.w - proj.w,
                meas.box2d.h - proj.h,
            ]
        )
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
    vis = meas.landmarks_visible.copy()
    vis[3] = False
    vis[7] = False
    gated = Measurement(
        box2d=meas.box2d,
        landmarks_uv=meas.landmarks_uv,
        landmarks_visible=vis,
        theta0=meas.theta0,
        sigma0=meas.sigma0,
        ground=meas.ground,
        cam=meas.cam,
        depth_zb=meas.depth_zb,
    )
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
        placed = place_in_camera(instantiate(model, ShapeCoefficients(alpha=vars.alpha)), vars.pose())
        total = 0.0
        for k in range(meas.K):
            if meas.landmarks_visible[k]:
                uv_k = project(CAM, placed[k : k + 1])[0]
                total += float(np.sum((meas.landmarks_uv[k] - uv_k) ** 2))
        np.testing.assert_allclose(float(r @ r), total, rtol=1e-12)


# ---------------------------------------------------------------------------
# Depth, ground plane, shape regularity
# ---------------------------------------------------------------------------

def test_depth_residual_values():
    rng = np.random.default_rng(7)
    vars = Variables(theta=0.3, T=np.array([1.0, 1.6, 10.0]), sigma=np.zeros(3), alpha=np.zeros(0))
    model = random_model(0, rng)
    meas = measurement_for(vars, model, rng)
    m12 = Measurement(
        box2d=meas.box2d, landmarks_uv=meas.landmarks_uv, landmarks_visible=meas.landmarks_visible,
        theta0=0.0, sigma0=np.zeros(3), ground=GROUND, cam=CAM, depth_zb=12.0,
    )
    assert term("md", vars, m12)[0] == [-2.0]
    m10 = Measurement(
        box2d=meas.box2d, landmarks_uv=meas.landmarks_uv, landmarks_visible=meas.landmarks_visible,
        theta0=0.0, sigma0=np.zeros(3), ground=GROUND, cam=CAM, depth_zb=10.0,
    )
    assert term("md", vars, m10)[0] == [0.0]
    r, J = term("md", vars, m12)
    np.testing.assert_array_equal(J, [[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])


def test_depth_term_absent_or_disabled():
    rng = np.random.default_rng(8)
    model = random_model(2, rng)
    vars = random_vars(rng, 2)
    meas_nd = measurement_for(vars, model, rng, with_depth=False)
    assert term("md", vars, meas_nd, model)[0] == [0.0]
    cfg = EnergyConfig()
    _, breakdown = total_energy(vars, meas_nd, model, cfg)
    assert "md" not in breakdown
    meas_d = measurement_for(vars, model, rng)
    off = ablation_config("v3")  # v4 without the depth term
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
    np.testing.assert_array_equal(J[0, 1:4], GROUND.N)
    assert np.all(J[0, [0, 4, 5, 6]] == 0.0)
    # affine in T: finite displacement reproduces N . d exactly
    rng = np.random.default_rng(9)
    d = rng.normal(size=3)
    moved = Variables(theta=0.0, T=vars.T + d, sigma=np.zeros(3), alpha=np.zeros(0))
    assert term("gp", moved)[0] - term("gp", vars)[0] == pytest.approx([GROUND.N @ d], rel=1e-12)


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
    if "2d3d" in terms:
        p = project_box3d(meas.cam, pose)
        d = np.array(
            [meas.box2d.tx - p.tx, meas.box2d.ty - p.ty, meas.box2d.w - p.w, meas.box2d.h - p.h]
        ) * BOX_SCALE
        E += float(d @ d)
    if "lp" in terms:
        pts = instantiate(model, vars.alpha) if model.n_basis else model.mean_points()
        placed = place_in_camera(pts, pose)
        for k in range(meas.K):
            if meas.landmarks_visible[k]:
                uv_k = project(meas.cam, placed[k : k + 1])[0]
                E += cfg.lambda1 * float(np.sum((meas.landmarks_uv[k] - uv_k) ** 2))
    if "md" in terms and meas.depth_zb is not None:
        E += cfg.lambda2 * (vars.T[2] - meas.depth_zb) ** 2
    if "gp" in terms:
        E += cfg.lambda3 * float(meas.ground.N @ vars.T - 1.0) ** 2
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
    uv = project(CAM, box3d_corners(vars.pose()))
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
    block = MeasurementBlock.stack([measurement_for(vars, model, rng, with_depth=bool(i % 2))
                                    for i, vars in enumerate(starts)])
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


# ---------------------------------------------------------------------------
# Batch invariance
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def seed7_starts():
    """The 250 starts of `synth --seed 7` (50 frames of 5 instances) and their block."""
    measurements = [meas for index in range(50)
                    for meas in generate_scene(SceneParams(), STANDARD_NOISE, [7, index])[1]]
    x = np.array([initialize(meas, CAR_MODEL).to_vector() for meas in measurements])
    return x, MeasurementBlock.stack(measurements)


@pytest.mark.parametrize("variant", ["v2", "v3", "v4"])
def test_rows_do_not_depend_on_the_block(seed7_starts, variant):
    """Each instance's residual, J^T and unweighted rows are bit-identical
    alone and inside a block of every start, in either order."""
    x, block = seed7_starts
    assert len(x) == 250
    cfg = ablation_config(variant)
    order = np.arange(len(x))[::-1]
    together = block_residuals(x, block, CAR_MODEL, cfg)
    reversed_ = block_residuals(x[order], block.take(order), CAR_MODEL, cfg)
    for b in range(len(x)):
        alone = block_residuals(x[b:b + 1], block.take([b]), CAR_MODEL, cfg)
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
    with pytest.raises(ValueError):
        Measurement(
            box2d=Box2D(tx=0, ty=0, w=0, h=0), landmarks_uv=np.zeros((3, 2)),
            landmarks_visible=np.zeros(2, dtype=bool), theta0=0.0, sigma0=np.zeros(3),
            ground=GROUND, cam=CAM,
        )
    with pytest.raises(ValueError):
        Measurement(
            box2d=Box2D(tx=0, ty=0, w=0, h=0), landmarks_uv=np.zeros((3, 2)),
            landmarks_visible=np.zeros(3, dtype=bool), theta0=0.0, sigma0=np.zeros(3),
            ground=GROUND, cam=CAM, depth_zb=-4.0,
        )


def test_variables_vector_layout():
    # the state layout block_residuals and refine_batch read: theta, T, sigma, alpha
    rng = np.random.default_rng(17)
    vars = random_vars(rng, 3)
    x = vars.to_vector()
    assert x.shape == (10,) and x[0] == vars.theta
    np.testing.assert_array_equal(x[1:4], vars.T)
    np.testing.assert_array_equal(x[4:7], vars.sigma)
    np.testing.assert_array_equal(x[7:], vars.alpha)
