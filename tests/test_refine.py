"""Solver tests: initialization geometry, convergence on synthetic
instances, monotonicity, determinism, and the ablation ladder."""
import importlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from vehicle3d.energy import (
    ABLATION_VARIANTS,
    EnergyConfig,
    KernelPlan,
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
    place_points,
    project,
    wrap_pi,
)
from vehicle3d.refine import (
    InitializationError,
    RefineResult,
    SolverOptions,
    _damped_steps,
    _starts,
    initialize,
    refine,
    refine_ablation,
    refine_batch,
    refine_ladder,
)
from vehicle3d.scene_io import (
    CAR_MODEL,
    STANDARD_NOISE,
    SceneParams,
    emit_measurements,
    generate_scene,
    parse_measurements,
    pose_to_label,
    self_occlusion_masks,
)
from vehicle3d.shape import MorphableModel, instantiate
from tests.oracles import back_projected_start, projected_hull
from tests.test_energy import one_block

# the module, not the package's `refine` function of the same name
REFINE = importlib.import_module("vehicle3d.refine")

CAM = (721.5, 721.5, 609.6, 172.9)
_, FY, CX, CY = CAM
GROUND = np.array([0.0, 1.0 / 1.65, 0.0])


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
    corners = projected_hull(CAM, pose) + box_noise * rng.standard_normal(4)
    if corners[2] - corners[0] < 2.0:
        corners[2] = corners[0] + 2.0
    if corners[3] - corners[1] < 2.0:
        corners[3] = corners[1] + 2.0
    uv = project(CAM, place_points(instantiate(model, truth.alpha), pose.theta, pose.T, pose.sigma)[0])
    uv = uv + lm_noise * rng.standard_normal(uv.shape)
    vis = rng.random(len(uv)) >= occlusion
    while vis.sum() < 6:
        vis[rng.integers(0, len(uv))] = True
    zb = float(truth.T[2]) * (1.0 + depth_rel_noise * rng.standard_normal())
    meas = one_block(corners, uv, vis,
                     truth.theta + theta_noise * rng.standard_normal(),
                     truth.sigma + sigma_noise * rng.standard_normal(3), GROUND, CAM,
                     depth=max(zb, 1.0) if with_depth else None)
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

def box_at(tx, ty, w, h):
    """The corners of the box of center (tx, ty) and extents (e^w, e^h)."""
    hw, hh = 0.5 * np.exp(w), 0.5 * np.exp(h)
    return (tx - hw, ty - hh, tx + hw, ty + hh)


def empty_meas(box, depth=None):
    return one_block(box, np.zeros((0, 2)), np.zeros(0, dtype=bool), 0.4,
                     np.array([1.0, 0.5, 0.4]), GROUND, CAM, depth=depth)


def test_initialize_axial_ray():
    meas = empty_meas(box_at(tx=CX, ty=CY, w=4.0, h=3.5), depth=10.0)
    model = MorphableModel(mean=np.zeros(42), basis=np.zeros((2, 42)))
    vars = initialize(meas, model)
    np.testing.assert_array_equal(vars.T, [0.0, 0.0, 10.0])
    assert vars.theta == 0.4
    np.testing.assert_array_equal(vars.sigma, meas.sigma0[0])
    np.testing.assert_array_equal(vars.alpha, np.zeros(2))


def test_initialize_ground_intersection():
    # ray direction (0, 0.165, 1) meets N.T = 1 at depth 10, height 1.65
    meas = empty_meas(box_at(tx=CX, ty=CY + 0.165 * FY, w=4.0, h=3.5))
    vars = initialize(meas, MorphableModel(mean=np.zeros(42), basis=np.zeros((0, 42))))
    np.testing.assert_allclose(vars.T, [0.0, 1.65, 10.0], atol=1e-12)
    assert vars.alpha.size == 0


def test_initialize_parallel_ray_raises():
    meas = empty_meas(box_at(tx=CX, ty=CY, w=4.0, h=3.5))
    with pytest.raises(InitializationError):
        initialize(meas, MorphableModel(mean=np.zeros(42), basis=np.zeros((0, 42))))


def test_initialize_ray_away_from_plane_raises():
    meas = empty_meas(box_at(tx=CX, ty=CY - 50.0, w=4.0, h=3.5))
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


def test_refine_fixed_point(monkeypatch):
    rng = np.random.default_rng(21)
    model = toy_model(rng)
    truth, meas = make_instance(rng, model)
    monkeypatch.setattr(REFINE, "_starts", lambda block, n_basis: (
        truth.to_vector()[None, :], np.array([None])))
    result = refine(meas, model)
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


def test_every_rung_is_solved_from_the_initialization():
    # each rung of the ladder is its own solve from initialize, at the
    # ladder's weights and options, whatever rungs are solved beside it
    frame = _seed7_frames(1)[0]
    cfg, opts = EnergyConfig(lambda1=0.5, lambda3=5.0), SolverOptions(max_iterations=20)
    rungs = refine_ladder(frame, CAR_MODEL, cfg, opts)
    assert list(rungs) == ["v1", "v2", "v3", "v4"]
    for variant, solve in rungs.items():
        for i, meas in enumerate(frame):
            solo = refine(meas, CAR_MODEL, ablation_config(variant, cfg), opts)
            assert _row_fingerprint(solve, i) == _fingerprint(solo)
    # a ladder of one rung solves only that rung
    assert list(refine_ladder(frame, CAR_MODEL, cfg, opts, ["v3"])) == ["v3"]
    solve = refine_ladder(frame, CAR_MODEL, variants=["v3"])["v3"]
    for i, meas in enumerate(frame):
        assert _row_fingerprint(solve, i) == _fingerprint(refine_ablation(meas, CAR_MODEL, "v3"))


def test_the_path_is_as_wide_as_the_longest_solve():
    """The accepted-energy path is 1 + max(iterations) columns wide, however
    high the iteration cap, and each row is the path refine gives for that
    instance alone, then NaN."""
    frame = _seed7_frames(1)[0]
    opts = SolverOptions(max_iterations=10**6)
    solve = refine_batch(frame, CAR_MODEL, opts=opts)
    assert solve.path.shape == (len(frame), 1 + max(solve.iterations)) == (5, 8)
    for i, meas in enumerate(frame):
        alone = refine(meas, CAR_MODEL, opts=opts).energy_path
        assert solve.path[i, :len(alone)].tobytes() == alone.tobytes()
        assert np.isnan(solve.path[i, len(alone):]).all()


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)


def test_unusable_initial_point_raises():
    rng = np.random.default_rng(32)
    model = toy_model(rng)
    _, meas = standard_noisy(rng, model)
    # a crop depth of 1 cm puts the start's far corners behind the camera
    solve = refine_batch(replace(meas, depth=[0.01]), model)
    assert solve.error.tolist() == ["initial point projects behind the camera"]
    # a NaN in a visible landmark is reported as such, not as a camera problem
    uv = meas.uv.copy()
    uv[0, np.flatnonzero(meas.visible[0])[0], 0] = np.nan
    with pytest.raises(InitializationError, match="non-finite"):
        refine(replace(meas, uv=uv), model)


def test_an_empty_block_solves_to_nothing():
    """An empty slice of a frame and a parsed frame without instances (whose
    landmark count is 0) each solve, through the kernel like any block, to
    a 0-row SolveBlock carrying its rung's terms."""
    sliced = _seed7_frames(1)[0][:0]
    parsed = parse_measurements(emit_measurements(CAM, (0.0, 1 / 1.65, 0.0), sliced))[2]
    assert [(len(empty), empty.K) for empty in (sliced, parsed)] == [(0, 14), (0, 0)]
    for empty in (sliced, parsed):
        rungs = refine_ladder(empty, CAR_MODEL)
        assert list(rungs) == list(ABLATION_VARIANTS)
        for variant, solve in rungs.items():
            assert list(solve.terms) == [name for name, _, _ in term_rows(
                ablation_config(variant), CAR_MODEL.K, CAR_MODEL.n_basis)]
            assert solve.x.shape == (0, 7 + CAR_MODEL.n_basis) and solve.path.shape == (0, 1)
            columns = (solve.error, solve.converged, solve.iterations, solve.reason,
                       solve.energy, *solve.terms.values())
            assert all(len(column) == 0 for column in columns)


def test_a_model_of_another_landmark_count_raises_at_every_rung():
    """The landmark count is a contract between the block and the model, so a
    mismatch is raised, at every rung v1 included, and fails no row."""
    frame = _seed7_frames(1)[0]
    other = toy_model(np.random.default_rng(35), K=10)
    for variant in ABLATION_VARIANTS:
        with pytest.raises(ValueError, match="^measurement has 14 landmarks, the model 10$"):
            refine_ladder(frame, other, variants=[variant])


@pytest.mark.parametrize("variant", ABLATION_VARIANTS)
def test_every_reader_of_landmarks_names_a_count_mismatch(variant):
    """The kernel and each function built on it raise the one named error for
    a block of 13 landmarks against a 14-landmark model, not numpy's text."""
    frame = _seed7_frames(1)[0]
    cut = replace(frame, uv=frame.uv[:, :13], visible=frame.visible[:, :13])
    cfg, x = ablation_config(variant), _starts(frame, CAR_MODEL.n_basis)[0]
    vars = Variables(theta=x[0, 0], T=x[0, 1:4], sigma=x[0, 4:7], alpha=x[0, 7:])
    for call in (lambda: block_residuals(x, cut, CAR_MODEL, cfg),
                 lambda: total_energy(vars, cut[0], CAR_MODEL, cfg),
                 lambda: stacked_residuals(vars, cut[0], CAR_MODEL, cfg),
                 lambda: jacobian(vars, cut[0], CAR_MODEL, cfg),
                 lambda: refine_batch(cut, CAR_MODEL, cfg),
                 lambda: refine(cut[0], CAR_MODEL, cfg)):
        with pytest.raises(ValueError, match="^measurement has 13 landmarks, the model 14$"):
            call()


@pytest.mark.parametrize("function, args", [
    (initialize, ()), (refine, ()), (refine_ablation, ("v4",)),
], ids=["initialize", "refine", "refine_ablation"])
def test_one_instance_functions_reject_other_lengths(function, args):
    frame = _seed7_frames(1)[0]
    for block in (frame[:2], frame[:0]):
        with pytest.raises(ValueError, match=rf"^{function.__name__} takes a one-row "
                                             rf"MeasurementBlock, not {len(block)} rows$"):
            function(block, CAR_MODEL, *args)


# ---------------------------------------------------------------------------
# Block batching
# ---------------------------------------------------------------------------

def _seed7_frames(n_frames=4):
    return [generate_scene(SceneParams(), STANDARD_NOISE, [7, index])[1]
            for index in range(n_frames)]


def _fingerprint(result):
    """The bytes of a RefineResult's solution, its iterations, reason,
    convergence and the bytes of its accepted-energy path."""
    return (result.vars.to_vector().tobytes(), result.iterations, result.reason,
            result.converged, result.energy_path.tobytes())


def _row_fingerprint(solve, i):
    """Row i of a SolveBlock as _fingerprint reads a RefineResult, or its
    error message; its path holds only NaN after the accepted energies."""
    if solve.error[i] is not None:
        return solve.error[i]
    path = solve.path[i]
    accepted = np.count_nonzero(~np.isnan(path))
    assert np.isnan(path[accepted:]).all()
    return (solve.x[i].tobytes(), int(solve.iterations[i]), solve.reason[i],
            bool(solve.converged[i]), path[:accepted].tobytes())


def _ladder_in_blocks(blocks):
    """{(variant, instance id): fingerprint} from one ladder pass per block of
    (instance id, measurement) pairs."""
    out = {}
    for block in blocks:
        rungs = refine_ladder(MeasurementBlock.concat(meas for _, meas in block), CAR_MODEL)
        for variant, solve in rungs.items():
            for i, (key, _) in enumerate(block):
                out[variant, key] = _row_fingerprint(solve, i)
    return out


@pytest.mark.parametrize("grouping", ["per_instance", "per_frame", "one_block", "reversed"])
def test_results_do_not_depend_on_the_block(grouping):
    frames = _seed7_frames()
    instances = [((f, i), meas) for f, frame in enumerate(frames)
                 for i, meas in enumerate(frame)]
    # each instance and rung solved on its own
    alone = {(variant, key): _fingerprint(refine_ablation(meas, CAR_MODEL, variant))
             for key, meas in instances for variant in ABLATION_VARIANTS}
    blocks = {
        "per_instance": [[pair] for pair in instances],
        "per_frame": [[((f, i), meas) for i, meas in enumerate(frame)]
                      for f, frame in enumerate(frames)],
        "one_block": [instances],
        "reversed": [instances[::-1]],
    }[grouping]
    assert _ladder_in_blocks(blocks) == alone


def test_failing_instance_leaves_its_block_alone():
    frame = _seed7_frames(1)[0]
    good = refine_batch(frame, CAR_MODEL)
    depth = frame.depth.copy()
    depth[2] = 0.01  # a start behind the camera
    mixed = refine_batch(replace(frame, depth=depth), CAR_MODEL)
    assert mixed.error[2] == "initial point projects behind the camera"
    for i in (0, 1, 3, 4):
        assert good.error[i] is None
        assert _row_fingerprint(mixed, i) == _row_fingerprint(good, i)


def test_detections_are_each_row_refined_and_labelled_alone():
    """At every rung, SolveBlock.detections gives the records that
    pose_to_label makes of each row's one-row refine, scored
    1 / (1 + final energy), in row order; its error column holds the
    solve's message or "refined " and pose_to_label's.  Two edge rows: a
    start behind the camera, which v2-v4 cannot solve and v1 solves to a
    box behind the camera, and a box whose extents underflow to 0, which v1
    solves to a box without a valid image box."""
    frames = _seed7_frames(3)
    behind = replace(frames[0][1], depth=np.array([0.01]))
    flat = replace(frames[0][2], sigma0=np.full((1, 3), -800.0))
    block = MeasurementBlock.concat([frames[0], behind, *frames[1:], flat])
    edges = {"v1": ["refined box projects behind the camera",
                    "refined box has no valid image box: "
                    "degenerate 2D box: need right > left and bottom > top"],
             "v4": ["initial point projects behind the camera",
                    "initial point has non-finite residuals (NaN or inf in the measurement or start)"]}
    for variant, solve in refine_ladder(block, CAR_MODEL).items():
        records, error = solve.detections(block)
        want, messages = [], []
        for i, cam in enumerate(block.cam):
            try:
                result = refine(block[i], CAR_MODEL, ablation_config(variant))
            except InitializationError as err:
                messages.append(str(err))
                continue
            try:
                want.append(pose_to_label(result.vars.pose(), cam,
                                          1.0 / (1.0 + result.final_energy)))
            except ValueError as err:
                assert type(err) is ValueError
                messages.append("refined " + str(err))
                continue
            messages.append(None)
        assert records == want, variant
        assert error.tolist() == messages, variant
        assert len(records) == messages.count(None) >= 15
        if variant in edges:
            assert [error[5], error[-1]] == edges[variant]


@pytest.mark.parametrize("right", ["left", "left - 5"])
def test_an_inverted_box_fails_only_its_own_instance(right):
    """The block does not check its boxes: a row with right <= left, from a
    direct caller, has non-finite box rows, so it fails by name at v2-v4
    and v1 returns its start; every other row equals its solve alone, and
    nothing is warned."""
    frame = _seed7_frames(1)[0]
    box = frame.box.copy()
    box[2, 2] = box[2, 0] - (5.0 if right == "left - 5" else 0.0)
    inverted = replace(frame, box=box)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rungs = {variant: refine_batch(inverted, CAR_MODEL, ablation_config(variant))
                 for variant in ABLATION_VARIANTS}
    assert not caught
    assert rungs["v1"].error[2] is None
    for variant, solve in rungs.items():
        if variant != "v1":
            assert solve.error[2] == ("initial point has non-finite residuals "
                                      "(NaN or inf in the measurement or start)")
        for i in (0, 1, 3, 4):
            alone = refine_ablation(frame[i], CAR_MODEL, variant)
            assert _row_fingerprint(solve, i) == _fingerprint(alone), (variant, i)


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


def _parallel_ray(block, i):
    """block with its instance i without a crop depth and with its box
    center on the principal row, so on flat ground its box-center ray never
    meets the ground."""
    box, depth, has_depth = block.box.copy(), block.depth.copy(), block.has_depth.copy()
    box[i, [1, 3]] = block.cam[i, 3] + [-10.0, 10.0]  # center row cy
    depth[i], has_depth[i] = 0.0, False
    return replace(block, box=box, depth=depth, has_depth=has_depth)


PARALLEL = "box-center ray is parallel to the ground plane and no depth is available"


def test_every_live_start_is_evaluated_in_one_batch(monkeypatch):
    """The first evaluation carries every start, in input order, a failed
    one as its NaN row; then one evaluation per iteration, over the
    instances still iterating, so no later evaluation carries more rows
    than the one before it."""
    measurements = _parallel_ray(MeasurementBlock.concat(_seed7_frames(15)), 3)
    starts = np.array([np.full(7 + CAR_MODEL.n_basis, np.nan) if i == 3 else
                       initialize(meas, CAR_MODEL).to_vector()
                       for i, meas in enumerate(measurements)])
    assert len(starts) > 64
    calls = []
    evaluate = KernelPlan.evaluate

    def recorded(plan, x, rows):
        calls.append(x.copy())
        return evaluate(plan, x, rows)

    monkeypatch.setattr(KernelPlan, "evaluate", recorded)
    solve = refine_batch(measurements, CAR_MODEL)
    assert calls[0].tobytes() == starts.tobytes()
    assert solve.error[3] == PARALLEL
    rows = [len(x) for x in calls]
    assert all(later <= earlier for earlier, later in zip(rows, rows[1:]))
    iterations = solve.iterations[np.equal(solve.error, None)].tolist()
    assert len(iterations) == len(starts) - 1
    assert len(calls) == 1 + max(iterations)
    assert sum(rows) == len(starts) + sum(iterations)


def test_each_evaluation_carries_one_rung(monkeypatch):
    """A ladder evaluates each rung apart, at that rung's row layout: one
    evaluation of every start, then one per iteration over the rung's
    instances still iterating."""
    measurements = MeasurementBlock.concat(_seed7_frames(4))
    calls = []
    evaluate = KernelPlan.evaluate

    def recorded(plan, x, rows):
        calls.append((plan.cfg.variant, len(x)))
        return evaluate(plan, x, rows)

    monkeypatch.setattr(KernelPlan, "evaluate", recorded)
    rungs = refine_ladder(measurements, CAR_MODEL)
    for variant, solve in rungs.items():
        rows = [n for called, n in calls if called == variant]
        iterations = solve.iterations.tolist()
        assert rows[0] == len(measurements)
        assert len(rows) == 1 + max(iterations)
        assert sum(rows) == len(measurements) + sum(iterations)
    assert len(calls) == sum(1 + max(solve.iterations) for solve in rungs.values())


def test_each_solve_builds_one_plan(monkeypatch):
    """Each refine_batch call builds one KernelPlan, for its rung and the
    model's coefficient count, and reads its block through it once; every
    evaluation of the solve is that plan's."""
    measurements = _parallel_ray(MeasurementBlock.concat(_seed7_frames(4)), 2)
    plans, measured, evaluated = [], [], []
    build, measure, evaluate = KernelPlan.__init__, KernelPlan.measure, KernelPlan.evaluate

    def built(plan, cfg, model, D):
        plans.append((plan, cfg.variant, D))
        build(plan, cfg, model, D)

    def read(plan, block):
        measured.append((plan, len(block)))
        return measure(plan, block)

    def recorded(plan, x, rows):
        evaluated.append(plan)
        return evaluate(plan, x, rows)

    monkeypatch.setattr(KernelPlan, "__init__", built)
    monkeypatch.setattr(KernelPlan, "measure", read)
    monkeypatch.setattr(KernelPlan, "evaluate", recorded)
    for variant in ABLATION_VARIANTS:
        plans.clear(), measured.clear(), evaluated.clear()
        solve = refine_batch(measurements, CAR_MODEL, ablation_config(variant))
        assert [(v, D) for _, v, D in plans] == [(variant, 7 + CAR_MODEL.n_basis)]
        assert measured == [(plans[0][0], len(measurements))]
        assert evaluated and all(plan is plans[0][0] for plan in evaluated)
        assert len(evaluated) == 1 + solve.iterations.max()


@pytest.mark.parametrize("variant", ABLATION_VARIANTS)
def test_no_returned_array_aliases_a_workspace(variant):
    """A plan's evaluation returns views of its workspaces, so what a caller
    keeps must be copied: the arrays of one block_residuals call are not
    changed by a later call, and the rows a solve returns equal those of
    a fresh one-row solve of the same instance, failed rows included, at
    every rung (v1's rows never iterate)."""
    plain = MeasurementBlock.concat(_seed7_frames(2))
    depth = plain.depth.copy()
    depth[1] = 0.01  # a start behind the camera
    block = _parallel_ray(replace(plain, depth=depth), 6)
    cfg = ablation_config(variant)
    x = _starts(block, CAR_MODEL.n_basis)[0]
    first = block_residuals(x[:4], block[:4], CAR_MODEL, cfg)
    kept = [array.copy() for array in first]
    block_residuals(x[4:], block[4:], CAR_MODEL, cfg)
    assert all(array.tobytes() == copy.tobytes() for array, copy in zip(first, kept))
    solve = refine_batch(block, CAR_MODEL, cfg)
    assert solve.error[6] == PARALLEL
    assert (solve.error[1] is None) == (variant == "v1")
    for i in range(len(block)):
        alone = refine_batch(block[i], CAR_MODEL, cfg)
        assert _row_fingerprint(solve, i) == _row_fingerprint(alone, 0), (variant, i)
        assert solve.energy[i].tobytes() == alone.energy[0].tobytes(), (variant, i)
        assert all(solve.terms[name][i].tobytes() == alone.terms[name][0].tobytes()
                   for name in alone.terms), (variant, i)


def test_each_solve_starts_its_block_in_one_pass(monkeypatch):
    """Each refine_batch call computes the starts of its whole block in one
    _starts call, so every rung of a ladder starts from bit-identical rows;
    an instance without a start fails at every rung, v1 included, whose
    empty residual stack alone would pass its NaN row."""
    frame = _parallel_ray(_seed7_frames(1)[0], 1)
    calls = []
    starts = REFINE._starts

    def recorded(block, n_basis):
        x, failures = starts(block, n_basis)
        calls.append(x.copy())
        return x, failures

    monkeypatch.setattr(REFINE, "_starts", recorded)
    rungs = refine_ladder(frame, CAR_MODEL, variants=list(ABLATION_VARIANTS))
    assert list(rungs) == list(ABLATION_VARIANTS)
    assert len(calls) == len(ABLATION_VARIANTS)
    assert all(x.shape[0] == len(frame) and x.tobytes() == calls[0].tobytes() for x in calls)
    for solve in rungs.values():
        assert solve.error.tolist() == [None, PARALLEL, None, None, None]
    for i in (0, 2, 3, 4):
        assert rungs["v1"].x[i, 1:].tobytes() == calls[0][i, 1:].tobytes()


def _random_measurements(rng, n):
    """n one-row blocks of random cameras, ground normals, box centers and
    hypotheses, a third of them without a crop depth, and some on the
    principal row of a flat ground or with a ray above the horizon."""
    out = []
    for i in range(n):
        cam = (rng.uniform(200.0, 1500.0), rng.uniform(200.0, 1500.0),  # fx, fy, cx, cy
               rng.uniform(0.0, 1200.0), rng.uniform(0.0, 400.0))
        tilt = rng.normal(scale=0.05, size=3) if i % 4 else np.zeros(3)
        normal = np.array([0.0, 1.0, 0.0]) + tilt
        ground = normal / np.linalg.norm(normal) / rng.uniform(1.0, 2.5)
        ty = cam[3] if i % 7 == 0 else cam[3] + rng.uniform(-200.0, 250.0)
        out.append(one_block(
            box_at(tx=rng.uniform(-100.0, 1300.0), ty=ty, w=rng.uniform(1.0, 6.0),
                  h=rng.uniform(1.0, 6.0)),
            np.zeros((0, 2)), np.zeros(0, dtype=bool), rng.uniform(-7.0, 7.0),
            rng.normal(size=3), ground, cam, depth=rng.uniform(0.5, 80.0) if i % 3 else None))
    return out


@pytest.mark.parametrize("n_basis", [0, 2])
def test_array_starts_equal_the_scalar_back_projection(n_basis):
    """_starts over a block equals the scalar back-projection bit for bit in
    every row, and each row its one-row block; a failed row is NaN, with
    the scalar path's message."""
    ms = _random_measurements(np.random.default_rng(36), 600)
    ms.append(empty_meas(box_at(tx=CX, ty=CY, w=4.0, h=3.5), depth=10.0))  # slope 0
    x, failures = _starts(MeasurementBlock.concat(ms), n_basis)
    assert x.shape == (len(ms), 7 + n_basis)
    for i, meas in enumerate(ms):
        want = back_projected_start(meas, n_basis)
        one_x, one_failure = _starts(meas, n_basis)
        assert one_x.tobytes() == x[i].tobytes() and one_failure[0] == failures[i]
        if isinstance(want, str):
            assert failures[i] == want and np.isnan(x[i]).all()
        else:
            assert failures[i] is None and x[i].tobytes() == want.tobytes()
    assert set(failures) == {None, PARALLEL,
                             "box-center ray meets the ground plane behind the camera"}
    assert x[-1, 1:4].tolist() == [0.0, 0.0, 10.0]


# ---------------------------------------------------------------------------
# The row rule: a solved row carries every term of its rung, a failed row no number
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ABLATION_VARIANTS)
@pytest.mark.parametrize("with_depth", [True, False], ids=["depth", "no_depth"])
def test_every_term_of_the_rung_is_reported(variant, with_depth):
    """refine's breakdown and total_energy's parts name every term of the
    rung, md included without a measured depth; each term_rows slice of
    the one-instance residuals and Jacobian is that slice of
    block_residuals bit for bit; the breakdown sums to the final energy."""
    cfg = ablation_config(variant)
    for meas in _seed7_frames(1)[0]:
        if not with_depth:
            meas = replace(meas, depth=[0.0], has_depth=[False])
        result = refine(meas, CAR_MODEL, cfg)
        layout = term_rows(cfg, CAR_MODEL.K, CAR_MODEL.n_basis)
        _, parts = total_energy(result.vars, meas, CAR_MODEL, cfg)
        assert set(result.breakdown) == set(parts) == {name for name, _, _ in layout}
        kernel = block_residuals(result.vars.to_vector()[None], meas, CAR_MODEL, cfg)
        r = stacked_residuals(result.vars, meas, CAR_MODEL, cfg)
        J = jacobian(result.vars, meas, CAR_MODEL, cfg)
        for _, _, rows in layout:
            assert r[rows].tobytes() == kernel.r[0, rows].tobytes()
            assert J[rows].tobytes() == kernel.JT[0, :, rows].T.tobytes()
        assert sum(result.breakdown.values()) == pytest.approx(result.final_energy, rel=1e-12)


def _assert_failed_row(solve, i):
    """Row i of solve is a failed row: an error and no numbers."""
    assert solve.error[i] is not None
    assert np.isnan(solve.energy[i]) and np.isnan(solve.path[i]).all()
    assert all(np.isnan(value[i]) for value in solve.terms.values())
    assert (bool(solve.converged[i]), int(solve.iterations[i]), solve.reason[i]) == (False, 0, None)


@pytest.mark.parametrize("variant", ABLATION_VARIANTS)
def test_a_failed_row_carries_no_numbers(variant):
    """In a block holding a start behind the camera, a box-center ray that
    meets the ground behind the camera and solved rows, each failed row
    reads the one failed-row rule, whatever its failure, and the solved
    rows equal their solve in a block without the failed ones.  A rung
    without rows (v1) evaluates no point, so only the ray fails there.  A
    landmark count the model does not have fails no row: it raises."""
    plain = MeasurementBlock.concat(_seed7_frames(2))
    depth, has_depth, box = plain.depth.copy(), plain.has_depth.copy(), plain.box.copy()
    depth[1] = 0.01  # a start behind the camera
    box[6, [1, 3]] = plain.cam[6, 3] - [60.0, 20.0]  # a box center above the horizon
    depth[6], has_depth[6] = 0.0, False
    block = replace(plain, depth=depth, has_depth=has_depth, box=box)
    cfg = ablation_config(variant)
    solve = refine_batch(block, CAR_MODEL, cfg)
    failed = {6: "box-center ray meets the ground plane behind the camera"}
    if variant != "v1":
        failed[1] = "initial point projects behind the camera"
    assert {i: e for i, e in enumerate(solve.error) if e is not None} == failed
    for i in failed:
        _assert_failed_row(solve, i)
    solved = [i for i in range(len(block)) if i not in failed]
    alone = refine_batch(block[solved], CAR_MODEL, cfg)
    for j, i in enumerate(solved):
        assert _row_fingerprint(solve, i) == _row_fingerprint(alone, j)
        assert solve.energy[i].tobytes() == alone.energy[j].tobytes()
        assert all(solve.terms[name][i].tobytes() == alone.terms[name][j].tobytes()
                   for name in alone.terms)
    with pytest.raises(ValueError, match="^measurement has 14 landmarks, the model 10$"):
        refine_batch(block, toy_model(np.random.default_rng(35), K=10), cfg)


# ---------------------------------------------------------------------------
# Principal-point invariance
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def seed7_ladder():
    """The pooled 50 frames of `synth --seed 7` and their v2-v4 solves."""
    block = MeasurementBlock.concat(_seed7_frames(50))
    return block, refine_ladder(block, CAR_MODEL, variants=("v2", "v3", "v4"))


@pytest.mark.parametrize("offset", [(0.1, -0.1), (1000.0, 1000.0), (-37.25, 12.5)])
def test_a_principal_point_shift_moves_no_solution(seed7_ladder, offset):
    """Shifting cx, cy, every box corner and every landmark pixel by one
    (dx, dy) leaves every image-plane difference, so every solve, as it
    is: the solutions agree to 1e-8 and the iterations, reasons and errors
    exactly."""
    block, rungs = seed7_ladder
    shift = np.array(offset)
    shifted = replace(block, cam=block.cam + np.r_[0.0, 0.0, shift],
                      box=block.box + np.tile(shift, 2), uv=block.uv + shift)
    moved = refine_ladder(shifted, CAR_MODEL, variants=tuple(rungs))
    for variant, solve in rungs.items():
        np.testing.assert_allclose(moved[variant].x, solve.x, rtol=0.0, atol=1e-8)
        for column in ("iterations", "reason", "error"):
            assert getattr(moved[variant], column).tolist() == getattr(solve, column).tolist()


# ---------------------------------------------------------------------------
# Mirror symmetry
# ---------------------------------------------------------------------------

# Each landmark's mirror image: CAR_MODEL lists left before right in each pair.
_MIRRORED_LANDMARKS = np.arange(CAR_MODEL.K).reshape(-1, 2)[:, ::-1].reshape(-1)


def test_a_mirrored_block_solves_to_the_mirrored_solutions(seed7_ladder):
    """CAR_MODEL is left-right symmetric, so reflecting every frame about
    its principal column (u -> 2 cx - u on boxes and landmarks, each
    landmark swapped with its mirror image, yaw hypotheses theta0 -> pi -
    theta0, the ground normal's x negated) reflects every solution: theta
    -> pi - theta and T_x -> -T_x, the rest as it is, to 1e-8, with the
    same iterations, reasons and errors at v1-v4."""
    block, rungs = seed7_ladder
    rungs = {"v1": refine_batch(block, CAR_MODEL, ablation_config("v1")), **rungs}
    cx = block.cam[:, 2:3]
    uv = block.uv[:, _MIRRORED_LANDMARKS].copy()
    uv[..., 0] = 2.0 * cx - uv[..., 0]
    mirrored = replace(block, box=np.hstack([2.0 * cx - block.box[:, 2:3], block.box[:, 1:2],
                                             2.0 * cx - block.box[:, 0:1], block.box[:, 3:4]]),
                       uv=uv, visible=block.visible[:, _MIRRORED_LANDMARKS],
                       theta0=np.pi - block.theta0, ground=block.ground * [-1.0, 1.0, 1.0])
    reflected = refine_ladder(mirrored, CAR_MODEL, variants=tuple(rungs))
    for variant, solve in rungs.items():
        x, y = solve.x, reflected[variant].x
        np.testing.assert_allclose(wrap_pi(y[:, 0] - (np.pi - x[:, 0])), 0.0, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(y[:, 1], -x[:, 1], rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(y[:, 2:], x[:, 2:], rtol=0.0, atol=1e-8)
        for column in ("iterations", "reason", "error"):
            assert getattr(reflected[variant], column).tolist() == getattr(solve, column).tolist()


def test_self_occlusion_masks_mirror_exactly():
    """The pose reflected in the camera's x = 0 plane (yaw pi - theta, T_x
    -> -T_x) sees each landmark's mirror image exactly when the pose sees
    the landmark."""
    rng = np.random.default_rng(18)
    n = 20_000
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    T = np.column_stack([rng.uniform(-20, 20, n), rng.uniform(0.5, 2.5, n), rng.uniform(1, 60, n)])
    masks = self_occlusion_masks(theta, T)
    np.testing.assert_array_equal(self_occlusion_masks(np.pi - theta, T * [-1.0, 1.0, 1.0]),
                                  masks[:, _MIRRORED_LANDMARKS])
    assert masks.any(axis=0).all() and not masks.all()  # every landmark seen, some hidden
