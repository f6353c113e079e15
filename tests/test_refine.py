"""Solver tests: initialization geometry, convergence on synthetic
instances, monotonicity, determinism, and the ablation ladder."""
import numpy as np
import pytest

from vehicle3d.energy import EnergyConfig, Measurement, Variables, ablation_config
from vehicle3d.geometry import (
    Box2D,
    CameraIntrinsics,
    GroundPlane,
    project,
    project_box3d,
    wrap_pi,
)
from vehicle3d.refine import (
    InitializationError,
    RefineResult,
    SolverOptions,
    _damped_steps,
    initialize,
    refine,
    refine_ablation,
    refine_batch,
    refine_ladder,
)
from vehicle3d.scene_io import CAR_MODEL, STANDARD_NOISE, SceneParams, generate_scene
from vehicle3d.shape import MorphableModel, instantiate, place_in_camera

CAM = CameraIntrinsics(fx=721.5, fy=721.5, cx=609.6, cy=172.9)
GROUND = GroundPlane(N=np.array([0.0, 1.0 / 1.65, 0.0]))


def toy_model(rng, n_basis=2, K=14):
    mean = rng.uniform([-0.45, -0.9, -0.45], [0.45, -0.05, 0.45], size=(K, 3))
    basis = 0.04 * rng.standard_normal((n_basis, 3 * K))
    return MorphableModel(mean=mean.reshape(-1), basis=basis)


def make_instance(
    rng,
    model,
    lm_noise=0.0,
    box_noise=0.0,
    theta_noise=0.0,
    sigma_noise=0.0,
    depth_rel_noise=0.0,
    occlusion=0.0,
    alpha_sigma=0.0,
    with_depth=True,
):
    """Forward-generated ground truth plus a corrupted measurement."""
    truth = Variables(
        theta=rng.uniform(0.0, 2.0 * np.pi),
        T=np.array([rng.uniform(-8, 8), 1.65, rng.uniform(8, 40)]),
        sigma=np.log(
            [rng.uniform(3.2, 4.6), rng.uniform(1.4, 1.9), rng.uniform(1.5, 1.9)]
        ),
        alpha=alpha_sigma * rng.standard_normal(model.n_basis),
    )
    pose = truth.pose()
    box = project_box3d(CAM, pose)
    corners = np.array(box.corners()) + box_noise * rng.standard_normal(4)
    if corners[2] - corners[0] < 2.0:
        corners[2] = corners[0] + 2.0
    if corners[3] - corners[1] < 2.0:
        corners[3] = corners[1] + 2.0
    uv = project(CAM, place_in_camera(instantiate(model, truth.alpha), pose))
    uv = uv + lm_noise * rng.standard_normal(uv.shape)
    vis = rng.random(len(uv)) >= occlusion
    while vis.sum() < 6:
        vis[rng.integers(0, len(uv))] = True
    zb = float(truth.T[2]) * (1.0 + depth_rel_noise * rng.standard_normal())
    meas = Measurement(
        box2d=Box2D.from_corners(*corners),
        landmarks_uv=uv,
        landmarks_visible=vis,
        theta0=truth.theta + theta_noise * rng.standard_normal(),
        sigma0=truth.sigma + sigma_noise * rng.standard_normal(3),
        ground=GROUND,
        cam=CAM,
        depth_zb=max(zb, 1.0) if with_depth else None,
    )
    return truth, meas


def standard_noisy(rng, model):
    return make_instance(
        rng,
        model,
        lm_noise=2.0,
        box_noise=3.0,
        theta_noise=np.deg2rad(8.0),
        sigma_noise=0.05,
        depth_rel_noise=0.07,
        occlusion=0.2,
        alpha_sigma=0.5,
    )


def pose_errors(truth, vars):
    dT = float(np.linalg.norm(vars.T - truth.T))
    dtheta = abs(np.degrees(wrap_pi(vars.theta - truth.theta)))
    dsigma = float(np.max(np.abs(vars.sigma - truth.sigma)))
    return dT, dtheta, dsigma


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def empty_meas(box, depth=None):
    return Measurement(
        box2d=box,
        landmarks_uv=np.zeros((0, 2)),
        landmarks_visible=np.zeros(0, dtype=bool),
        theta0=0.4,
        sigma0=np.array([1.0, 0.5, 0.4]),
        ground=GROUND,
        cam=CAM,
        depth_zb=depth,
    )


def test_initialize_axial_ray():
    meas = empty_meas(Box2D(tx=CAM.cx, ty=CAM.cy, w=4.0, h=3.5), depth=10.0)
    model = MorphableModel(mean=np.zeros(42), basis=np.zeros((2, 42)))
    vars = initialize(meas, model)
    np.testing.assert_array_equal(vars.T, [0.0, 0.0, 10.0])
    assert vars.theta == 0.4
    np.testing.assert_array_equal(vars.sigma, meas.sigma0)
    np.testing.assert_array_equal(vars.alpha, np.zeros(2))


def test_initialize_ground_intersection():
    # ray direction (0, 0.165, 1) meets N.T = 1 at depth 10, height 1.65
    meas = empty_meas(Box2D(tx=CAM.cx, ty=CAM.cy + 0.165 * CAM.fy, w=4.0, h=3.5))
    vars = initialize(meas, MorphableModel(mean=np.zeros(42), basis=np.zeros((0, 42))))
    np.testing.assert_allclose(vars.T, [0.0, 1.65, 10.0], atol=1e-12)
    assert vars.alpha.size == 0


def test_initialize_parallel_ray_raises():
    meas = empty_meas(Box2D(tx=CAM.cx, ty=CAM.cy, w=4.0, h=3.5))
    with pytest.raises(InitializationError):
        initialize(meas, MorphableModel(mean=np.zeros(42), basis=np.zeros((0, 42))))


def test_initialize_ray_away_from_plane_raises():
    meas = empty_meas(Box2D(tx=CAM.cx, ty=CAM.cy - 50.0, w=4.0, h=3.5))
    with pytest.raises(InitializationError):
        initialize(meas, MorphableModel(mean=np.zeros(42), basis=np.zeros((0, 42))))


# ---------------------------------------------------------------------------
# Convergence
# ---------------------------------------------------------------------------

def test_refine_noise_free_recovery():
    rng = np.random.default_rng(20)
    model = toy_model(rng)
    for _ in range(30):
        truth, meas = make_instance(rng, model)
        result = refine(meas, model)
        dT, dtheta, dsigma = pose_errors(truth, result.vars)
        assert dT < 1e-3
        assert dtheta < 0.1
        assert dsigma < 1e-3
        assert result.final_energy < 1e-8


def test_refine_fixed_point():
    rng = np.random.default_rng(21)
    model = toy_model(rng)
    truth, meas = make_instance(rng, model)
    result = refine(meas, model, initial=truth)
    assert result.iterations <= 1
    np.testing.assert_allclose(result.vars.T, truth.T, atol=1e-10)
    np.testing.assert_allclose(result.vars.sigma, truth.sigma, atol=1e-10)
    assert abs(wrap_pi(result.vars.theta - truth.theta)) < 1e-10


def test_refine_monotone_energy_path():
    rng = np.random.default_rng(22)
    model = toy_model(rng)
    for _ in range(25):
        _, meas = standard_noisy(rng, model)
        result = refine(meas, model)
        assert np.all(np.diff(result.energy_path) < 0.0)
        assert result.final_energy <= result.energy_path[0]
        assert result.final_energy == pytest.approx(result.energy_path[-1], rel=1e-9)


def test_refine_deterministic():
    rng = np.random.default_rng(23)
    model = toy_model(rng)
    _, meas = standard_noisy(rng, model)
    a = refine(meas, model)
    b = refine(meas, model)
    assert np.array_equal(a.vars.to_vector(), b.vars.to_vector())
    assert a.iterations == b.iterations
    assert a.final_energy == b.final_energy


def test_theta_readout_range():
    rng = np.random.default_rng(24)
    model = toy_model(rng)
    for _ in range(10):
        _, meas = standard_noisy(rng, model)
        result = refine(meas, model)
        assert 0.0 <= result.vars.theta < 2.0 * np.pi


def test_noise_monotone_median_error():
    rng = np.random.default_rng(26)
    model = toy_model(rng)
    medians = []
    for eps in (0.0, 0.5, 2.0):
        errs = []
        for _ in range(40):
            truth, meas = make_instance(rng, model, lm_noise=eps)
            result = refine(meas, model)
            errs.append(np.linalg.norm(result.vars.T - truth.T))
        medians.append(float(np.median(errs)))
    assert medians[0] < 1e-3
    assert medians[0] <= medians[1] <= medians[2]


def test_median_iterations_on_noisy_instances():
    rng = np.random.default_rng(27)
    model = toy_model(rng)
    counts = []
    for _ in range(100):
        _, meas = standard_noisy(rng, model)
        counts.append(refine(meas, model).iterations)
    assert np.median(counts) <= 30


def test_iteration_budget_respected():
    rng = np.random.default_rng(28)
    model = toy_model(rng)
    _, meas = standard_noisy(rng, model)
    result = refine(meas, model, opts=SolverOptions(max_iterations=3))
    assert result.iterations <= 3
    assert isinstance(result, RefineResult)


def test_single_residual_rank_deficiency_is_fine():
    rng = np.random.default_rng(29)
    model = toy_model(rng)
    _, meas = standard_noisy(rng, model)
    cfg = EnergyConfig(
        enable_2d3d=False, enable_lp=False, enable_md=False, enable_s=False
    )
    result = refine(meas, model, cfg=cfg)
    assert result.final_energy < 1e-12  # one scalar constraint, easily met


# ---------------------------------------------------------------------------
# Ablation ladder
# ---------------------------------------------------------------------------

def test_v1_returns_initialization_verbatim():
    rng = np.random.default_rng(30)
    model = toy_model(rng)
    _, meas = standard_noisy(rng, model)
    start = initialize(meas, model)
    result = refine_ablation(meas, model, "v1")
    assert result.iterations == 0
    np.testing.assert_array_equal(result.vars.T, start.T)
    np.testing.assert_array_equal(result.vars.sigma, start.sigma)
    np.testing.assert_array_equal(result.vars.alpha, start.alpha)


def test_v2_never_updates_alpha():
    rng = np.random.default_rng(31)
    model = toy_model(rng)
    for _ in range(5):
        _, meas = standard_noisy(rng, model)
        result = refine_ablation(meas, model, "v2")
        assert np.array_equal(result.vars.alpha, np.zeros(model.n_basis))
        assert result.iterations >= 1


def test_upper_rungs_warm_start_from_previous():
    # v3/v4 without an explicit start must equal an explicit warm start
    # from the previous rung's solution (a coarse-to-fine cascade).
    rng = np.random.default_rng(33)
    model = toy_model(rng)
    _, meas = standard_noisy(rng, model)
    r2 = refine_ablation(meas, model, "v2")
    r3 = refine_ablation(meas, model, "v3")
    r3_explicit = refine(meas, model, ablation_config("v3"), initial=r2.vars)
    np.testing.assert_array_equal(r3.vars.to_vector(), r3_explicit.vars.to_vector())
    r4 = refine_ablation(meas, model, "v4")
    r4_explicit = refine(meas, model, ablation_config("v4"), initial=r3.vars)
    np.testing.assert_array_equal(r4.vars.to_vector(), r4_explicit.vars.to_vector())
    # each solve only ever lowers its own objective from the warm start
    assert r4.energy_path[-1] <= r4.energy_path[0] + 1e-12


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)


def test_unusable_initial_point_raises():
    rng = np.random.default_rng(32)
    model = toy_model(rng)
    _, meas = standard_noisy(rng, model)
    behind = Variables(
        theta=0.0, T=np.array([0.0, 1.65, -5.0]), sigma=np.zeros(3), alpha=np.zeros(2)
    )
    with pytest.raises(InitializationError, match="behind the camera"):
        refine(meas, model, initial=behind)
    # a NaN in a visible landmark is reported as such, not as a camera problem
    uv = meas.landmarks_uv.copy()
    uv[np.flatnonzero(meas.landmarks_visible)[0], 0] = np.nan
    nan_meas = Measurement(
        box2d=meas.box2d, landmarks_uv=uv, landmarks_visible=meas.landmarks_visible,
        theta0=meas.theta0, sigma0=meas.sigma0, ground=GROUND, cam=CAM,
        depth_zb=meas.depth_zb,
    )
    with pytest.raises(InitializationError, match="non-finite"):
        refine(nan_meas, model)


# ---------------------------------------------------------------------------
# Block batching
# ---------------------------------------------------------------------------

def _seed7_frames(n_frames=4):
    return [generate_scene(SceneParams(), STANDARD_NOISE, [7, index])[1]
            for index in range(n_frames)]


def _fingerprint(outcome):
    if isinstance(outcome, InitializationError):
        return str(outcome)
    return (outcome.vars.to_vector().tobytes(), outcome.iterations, outcome.reason,
            outcome.converged, outcome.energy_path.tobytes())


def _ladder_in_blocks(blocks):
    """{(variant, instance id): fingerprint} from one ladder pass per block of
    (instance id, measurement) pairs."""
    out = {}
    for block in blocks:
        rungs = refine_ladder([meas for _, meas in block], CAR_MODEL, "v4")
        for variant, outcomes in rungs.items():
            for (key, _), outcome in zip(block, outcomes):
                out[variant, key] = _fingerprint(outcome)
    return out


@pytest.mark.parametrize("grouping", ["per_frame", "one_block", "reversed"])
def test_results_do_not_depend_on_the_block(grouping):
    frames = _seed7_frames()
    instances = [((f, i), meas) for f, frame in enumerate(frames)
                 for i, meas in enumerate(frame)]
    alone = _ladder_in_blocks([[pair] for pair in instances])
    blocks = {
        "per_frame": [[((f, i), meas) for i, meas in enumerate(frame)]
                      for f, frame in enumerate(frames)],
        "one_block": [instances],
        "reversed": [instances[::-1]],
    }[grouping]
    assert _ladder_in_blocks(blocks) == alone
    # the single-instance entry points are the same computation
    (f, i), meas = instances[-1]
    for variant in ("v1", "v2", "v3", "v4"):
        assert _fingerprint(refine_ablation(meas, CAR_MODEL, variant)) == alone[variant, (f, i)]


def test_explicit_initial_starts_the_rung_directly():
    meas = _seed7_frames(1)[0][0]
    rungs = refine_ladder([meas], CAR_MODEL, "v3")
    from_v2 = refine(meas, CAR_MODEL, ablation_config("v3"), initial=rungs["v2"][0].vars)
    assert _fingerprint(from_v2) == _fingerprint(rungs["v3"][0])
    direct = refine(meas, CAR_MODEL, ablation_config("v3"), initial=initialize(meas, CAR_MODEL))
    assert _fingerprint(direct) != _fingerprint(rungs["v3"][0])


def test_failing_instance_leaves_its_block_alone():
    frame = _seed7_frames(1)[0]
    good = refine_batch(frame, CAR_MODEL)
    behind = Variables(theta=0.0, T=np.array([0.0, 1.65, -5.0]), sigma=np.zeros(3),
                       alpha=np.zeros(CAR_MODEL.n_basis))
    starts = [initialize(meas, CAR_MODEL) for meas in frame]
    starts[2] = behind
    mixed = refine_batch(frame, CAR_MODEL, initial=starts)
    assert isinstance(mixed[2], InitializationError)
    assert "behind the camera" in str(mixed[2])
    for i in (0, 1, 3, 4):
        assert _fingerprint(mixed[i]) == _fingerprint(good[i])


def test_singular_system_fails_only_its_own_instance():
    rng = np.random.default_rng(34)
    A = rng.standard_normal((3, 4, 4))
    H = A @ A.transpose(0, 2, 1)
    H[1] = 0.0  # singular without damping
    g = rng.standard_normal((3, 4))
    dx, solved = _damped_steps(H, g, np.zeros(3))
    np.testing.assert_array_equal(solved, [True, False, True])
    for i in (0, 2):
        np.testing.assert_array_equal(dx[i], np.linalg.solve(H[i], -g[i]))
