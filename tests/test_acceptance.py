"""Release gate: nine end-to-end checks with pinned tolerances.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s or on
failure) and enforces a wall-clock budget.  These intentionally re-run the
expensive whole-pipeline checks at full scale rather than trusting the
faster per-module suites.
"""
import time

import numpy as np
import pytest

from vehicle3d.cli import main as cli_main
from vehicle3d.energy import EnergyConfig, ablation_config, jacobian
from vehicle3d.geometry import (
    UNIT_CORNERS,
    PoseBox3D,
    iou_3d,
    iou_bev,
    rot_y,
    wrap_pi,
)
from vehicle3d.metrics import alp, ap_3d, ap_bev
from vehicle3d.refine import refine, refine_ablation
from vehicle3d.scene_io import (
    CAR_MODEL,
    KITTI_CAMERA,
    STANDARD_NOISE,
    LabelFormatError,
    LabelRecord,
    NoiseSpec,
    SceneParams,
    emit_labels,
    generate_scene,
    parse_labels,
    pose_to_label,
)
from vehicle3d.shape import instantiate, learn_em, ortho_project

from tests.oracles import make_ortho_dataset, subspace_angles_deg
from tests.test_energy import (
    fd_jacobian,
    hull_has_clear_extremes,
    measurement_for,
    random_model,
    random_vars,
)
from tests.test_metrics import compare_with_oracle, random_frames, rec, shift
from tests.test_scene_io import SAMPLE
from tests.test_shape import obs_list, toy_true_model

BENCHMARK_SEED = 777  # fixed benchmark identity; see the ablation test


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. analytic Jacobian vs central finite differences
# ---------------------------------------------------------------------------

def test_01_jacobian_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(910)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n_basis = int(rng.integers(0, 4))
        model = random_model(n_basis, rng)
        vars = random_vars(rng, n_basis)
        if not hull_has_clear_extremes(vars):
            continue  # FD step must not flip the active hull corner
        meas = measurement_for(vars, model, rng, with_depth=bool(rng.integers(0, 2)))
        if checked % 4 == 0:
            cfg = ablation_config(("v2", "v3", "v4")[checked % 3])
        else:
            cfg = EnergyConfig(
                lambda1=float(rng.uniform(0.1, 5)),
                lambda2=float(rng.uniform(0.001, 5)),
                lambda3=float(rng.uniform(0.1, 20)),
                lambda4=float(rng.uniform(0.01, 10)),
            )
        J = jacobian(vars, meas, model, cfg)
        J_fd = fd_jacobian(vars, meas, model, cfg)
        rel = np.abs(J - J_fd) / np.maximum(1.0, np.maximum(np.abs(J), np.abs(J_fd)))
        worst = max(worst, float(rel.max()))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    report(1, ok, f"worst relative error {worst:.2e} over 1000 points, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. exact recovery on noise-free scenes
# ---------------------------------------------------------------------------

def test_02_noise_free_exact_recovery():
    t0 = time.perf_counter()
    # mean-shape instances: zero coefficients make the regularizer's global
    # optimum coincide with the ground truth, so energy can reach zero
    params = SceneParams(n_instances=1, alpha_sigma=0.0)
    clean = NoiseSpec()
    worst_T = worst_theta = worst_sigma = worst_E = 0.0
    for index in range(200):
        scene, measurements, _ = generate_scene(params, clean, [1234, index])
        truth, _ = scene.instances[0]
        result = refine(measurements[0], CAR_MODEL)
        worst_T = max(worst_T, float(np.linalg.norm(result.vars.T - truth.T)))
        worst_theta = max(
            worst_theta, abs(float(np.degrees(wrap_pi(result.vars.theta - truth.theta))))
        )
        worst_sigma = max(worst_sigma, float(np.max(np.abs(result.vars.sigma - truth.sigma))))
        worst_E = max(worst_E, float(result.final_energy))
    elapsed = time.perf_counter() - t0
    ok = (worst_T < 1e-3 and worst_theta < 0.1 and worst_sigma < 1e-3
          and worst_E < 1e-8 and elapsed < 60.0)
    report(2, ok, (f"200 scenes: |dT| {worst_T:.2e} m, |dtheta| {worst_theta:.2e} deg, "
                   f"|dsigma| {worst_sigma:.2e}, E {worst_E:.2e}, {elapsed:.1f}s"))
    assert worst_T < 1e-3
    assert worst_theta < 0.1
    assert worst_sigma < 1e-3
    assert worst_E < 1e-8
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. iteration budget on noisy instances
# ---------------------------------------------------------------------------

def test_03_median_iterations_within_budget():
    t0 = time.perf_counter()
    params = SceneParams(n_instances=5)
    iterations = []
    for index in range(100):
        _, measurements, _ = generate_scene(params, STANDARD_NOISE, [4321, index])
        for meas in measurements:
            iterations.append(refine(meas, CAR_MODEL).iterations)
    median = float(np.median(iterations))
    elapsed = time.perf_counter() - t0
    ok = len(iterations) == 500 and median <= 30.0 and elapsed < 120.0
    report(3, ok, f"median {median:g} LM iterations over 500 noisy instances, {elapsed:.1f}s")
    assert len(iterations) == 500
    assert median <= 30.0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 4. term-ablation trend on the standard noisy benchmark
# ---------------------------------------------------------------------------

def test_04_ablation_trend():
    t0 = time.perf_counter()
    params = SceneParams(n_instances=5)
    variants = ("v1", "v2", "v3", "v4")
    per_variant = {v: [] for v in variants}
    for index in range(100):
        _, measurements, labels = generate_scene(
            params, STANDARD_NOISE, [BENCHMARK_SEED, index]
        )
        gts = tuple(labels)
        dets = {v: [] for v in variants}
        for meas in measurements:
            for v in variants:
                result = refine_ablation(meas, CAR_MODEL, v)
                dets[v].append(
                    pose_to_label(result.vars.pose(), KITTI_CAMERA,
                                  score=1.0 / (1.0 + result.final_energy))
                )
        for v in variants:
            per_variant[v].append((tuple(dets[v]), gts))
    table = {}
    for name, fn in (("ALP@1m", lambda fr: alp(fr, 1.0, "moderate")),
                     ("AP3D@0.25", lambda fr: ap_3d(fr, 0.25, "moderate")),
                     ("BEV@0.5", lambda fr: ap_bev(fr, 0.5, "moderate"))):
        table[name] = [fn(per_variant[v]) for v in variants]
    elapsed = time.perf_counter() - t0
    monotone = all(
        row[i + 1] >= row[i] for row in table.values() for i in range(3)
    )
    gap = table["ALP@1m"][3] - table["ALP@1m"][1]
    ok = monotone and gap >= 2.0 and elapsed < 300.0
    rows = "; ".join(
        f"{name} " + "/".join(f"{v:.1f}" for v in row) for name, row in table.items()
    )
    report(4, ok, f"{rows}; v4-v2 ALP gap {gap:+.1f} pts, {elapsed:.1f}s")
    assert monotone, table
    assert gap >= 2.0, table
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 5. rotated-box IoU vs a Monte-Carlo point-sampling oracle
# ---------------------------------------------------------------------------

def _random_pose(rng, near=None):
    dims = np.array([rng.uniform(2.5, 5.5), rng.uniform(1.2, 2.2), rng.uniform(1.4, 2.3)])
    if near is None:
        T = np.array([rng.uniform(-2, 2), rng.uniform(1.2, 2.0), rng.uniform(12, 18)])
    else:
        T = near + np.array([rng.uniform(-3, 3), rng.uniform(-0.8, 0.8), rng.uniform(-3, 3)])
    return PoseBox3D(theta=rng.uniform(0, 2 * np.pi), T=T, sigma=np.log(dims))


def _mc_iou(pose1, pose2, n_samples, rng):
    """Intersection by sampling inside box 1; unions from exact volumes."""
    lo = UNIT_CORNERS.min(axis=0) * pose1.dims
    hi = UNIT_CORNERS.max(axis=0) * pose1.dims
    p = lo + (hi - lo) * rng.random((n_samples, 3))
    world = p @ rot_y(pose1.theta).T + pose1.T
    q = (world - pose2.T) @ rot_y(pose2.theta)
    lo2 = UNIT_CORNERS.min(axis=0) * pose2.dims
    hi2 = UNIT_CORNERS.max(axis=0) * pose2.dims
    inside_xz = (
        (q[:, 0] >= lo2[0]) & (q[:, 0] <= hi2[0])
        & (q[:, 2] >= lo2[2]) & (q[:, 2] <= hi2[2])
    )
    inside = inside_xz & (q[:, 1] >= lo2[1]) & (q[:, 1] <= hi2[1])
    vol1 = float(np.prod(pose1.dims))
    vol2 = float(np.prod(pose2.dims))
    inter3 = vol1 * inside.mean()
    area1 = float(pose1.dims[0] * pose1.dims[2])
    area2 = float(pose2.dims[0] * pose2.dims[2])
    inter2 = area1 * inside_xz.mean()
    return inter2 / (area1 + area2 - inter2), inter3 / (vol1 + vol2 - inter3)


def test_05_iou_matches_monte_carlo():
    t0 = time.perf_counter()
    worst_bev = worst_3d = 0.0
    for pair in range(1000):
        rng = np.random.default_rng([9100, pair])
        pose1 = _random_pose(rng)
        pose2 = pose1 if pair % 97 == 0 else _random_pose(rng, near=pose1.T)
        mc_bev, mc_3d = _mc_iou(pose1, pose2, 1_000_000, rng)
        worst_bev = max(worst_bev, abs(iou_bev(pose1, pose2) - mc_bev))
        worst_3d = max(worst_3d, abs(iou_3d(pose1, pose2) - mc_3d))
    elapsed = time.perf_counter() - t0
    ok = worst_bev < 1e-2 and worst_3d < 1e-2 and elapsed < 300.0
    report(5, ok, (f"1000 pairs x 1e6 samples: max |bev err| {worst_bev:.2e}, "
                   f"max |3d err| {worst_3d:.2e}, {elapsed:.1f}s"))
    assert worst_bev < 1e-2
    assert worst_3d < 1e-2
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 6. detection metrics vs the brute-force rematching oracle
# ---------------------------------------------------------------------------

def test_06_metrics_match_bruteforce_oracle():
    t0 = time.perf_counter()
    # hand cases: perfect, miss, tie, don't-care absorption, foreign type
    gt = rec()
    hand_frames = [
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
    compare_with_oracle(hand_frames)
    cases = 1
    for seed in range(300):
        compare_with_oracle(random_frames(np.random.default_rng(seed)))
        cases += 1
    elapsed = time.perf_counter() - t0
    report(6, True, f"{cases} frame suites match the rematching oracle exactly, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. EM shape learning from a known two-basis model
# ---------------------------------------------------------------------------

def test_07_shape_learning_recovers_subspace():
    t0 = time.perf_counter()
    rng = np.random.default_rng(912)
    mean, basis = toy_true_model(2, rng)
    raw, _ = make_ortho_dataset(mean, basis, 200, 0.5, 0.0, rng)
    result = learn_em(obs_list(raw), n_basis=2)
    loglik = np.asarray(result.loglik_path)
    monotone = bool(np.all(np.diff(loglik) >= -1e-9 * np.maximum(1.0, np.abs(loglik[:-1]))))
    errs = []
    for (uv, vis), pose, coef in zip(raw, result.poses, result.coeffs):
        pts = instantiate(result.model, coef)
        errs.extend(np.linalg.norm(ortho_project(pose, pts)[vis] - uv[vis], axis=1))
    mean_err = float(np.mean(errs))
    angles = subspace_angles_deg(
        result.model.basis, basis.reshape(2, -1), result.model.mean, mean.reshape(-1)
    )
    elapsed = time.perf_counter() - t0
    ok = monotone and mean_err <= 0.75 and angles.max() < 5.0 and elapsed < 120.0
    report(7, ok, (f"loglik monotone {monotone}, mean reprojection {mean_err:.3f} px, "
                   f"max principal angle {angles.max():.2f} deg, {elapsed:.1f}s"))
    assert monotone
    assert mean_err <= 0.75
    assert angles.max() < 5.0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 8. label format fidelity
# ---------------------------------------------------------------------------

def _random_record(rng):
    left = rng.uniform(0, 1100)
    top = rng.uniform(0, 300)
    return LabelRecord(
        type=str(rng.choice(["Car", "Van", "Pedestrian", "DontCare"])),
        truncated=float(rng.choice([0.0, 0.25, 0.5, -1.0])),
        occluded=int(rng.choice([0, 1, 2, 3, -1])),
        alpha=float(rng.uniform(-np.pi, np.pi)),
        bbox=(left, top, left + rng.uniform(5, 300), top + rng.uniform(5, 120)),
        dimensions=(float(rng.uniform(1, 2)), float(rng.uniform(1, 2)),
                    float(rng.uniform(3, 5))),
        location=(float(rng.uniform(-40, 40)), float(rng.uniform(0, 3)),
                  float(rng.uniform(1, 100))),
        rotation_y=float(rng.uniform(-np.pi, np.pi)),
        score=float(rng.uniform(0, 1)),
    )


def test_08_label_round_trip_and_rejection():
    t0 = time.perf_counter()
    # bit-exact on the documented sample, record level
    first = parse_labels(SAMPLE)
    again = parse_labels(emit_labels(first))
    assert again == first
    # fuzzed numeric fidelity at the emitter's fixed precision; emission
    # orders by descending score, so sort the originals the same way
    rng = np.random.default_rng(913)
    worst = 0.0
    remaining = 1000
    while remaining > 0:
        chunk = [_random_record(rng) for _ in range(min(7, remaining))]
        remaining -= len(chunk)
        parsed = parse_labels(emit_labels(chunk))
        assert len(parsed) == len(chunk)
        for match, orig in zip(parsed, sorted(chunk, key=lambda r: -r.score)):
            assert match.type == orig.type and match.occluded == orig.occluded
            for a, b in (
                (match.truncated, orig.truncated), (match.alpha, orig.alpha),
                (match.rotation_y, orig.rotation_y), (match.score, orig.score),
            ):
                worst = max(worst, abs(a - b))
            worst = max(worst, float(np.max(np.abs(np.array(match.bbox) - orig.bbox))))
            worst = max(worst, float(np.max(np.abs(np.array(match.dimensions) - orig.dimensions))))
            worst = max(worst, float(np.max(np.abs(np.array(match.location) - orig.location))))
    # malformed lines are rejected with their line number
    good = SAMPLE
    rejected = 0
    for bad, line_no in (
        (good + "\nCar 0 0 0 1 2 3", 2),          # wrong field count
        (good + "\n" + good + "\nCar x 0 0 1 2 3 4 1 1 1 0 0 10 0", 3),
        ("Car 2.0 0 0 1 2 3 4 1 1 1 0 0 10 0", 1),  # truncation out of range
        ("Car 0.0 7 0 1 2 3 4 1 1 1 0 0 10 0", 1),  # bad occlusion enum
    ):
        with pytest.raises(LabelFormatError) as err:
            parse_labels(bad)
        assert err.value.line_number == line_no
        assert f"line {line_no}:" in str(err.value)
        rejected += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6
    report(8, ok, (f"documented sample bit-exact; 1000 fuzzed records max error "
                   f"{worst:.2e}; {rejected} malformed lines rejected with line numbers"))
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# 9. command-line determinism across reruns and --jobs
# ---------------------------------------------------------------------------

def _tree(root, skip=()):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def test_09_cli_byte_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    run("synth", "--out", d1, "--seed", 99, "--frames", 3, "--instances", 2)
    run("synth", "--out", d2, "--seed", 99, "--frames", 3, "--instances", 2)
    assert _tree(d1) == _tree(d2)

    f1, f2, f3 = tmp_path / "f1", tmp_path / "f2", tmp_path / "f3"
    run("fit", "--data", d1, "--out", f1, "--jobs", 1)
    run("fit", "--data", d1, "--out", f2, "--jobs", 2)
    run("fit", "--data", d1, "--out", f3, "--jobs", 1)
    assert _tree(f1) == _tree(f3)  # rerun, manifest included
    # the manifest echoes the jobs setting; every result file must match
    assert _tree(f1, skip=("manifest.cfg",)) == _tree(f2, skip=("manifest.cfg",))

    e1, e2, e3 = tmp_path / "e1", tmp_path / "e2", tmp_path / "e3"
    run("eval", "--pred", f1, "--gt", d1, "--out", e1, "--curves", "true")
    run("eval", "--pred", f1, "--gt", d1, "--out", e2, "--curves", "true")
    assert _tree(e1) == _tree(e2)  # identical invocation, manifest included
    # jobs-2 predictions evaluate to the same results; only the manifest
    # echoes the differing --pred path
    run("eval", "--pred", f2, "--gt", d1, "--out", e3, "--curves", "true")
    assert _tree(e1, skip=("manifest.cfg",)) == _tree(e3, skip=("manifest.cfg",))
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    report(9, True, f"synth/fit/eval byte-identical across reruns and jobs 1/2, {elapsed:.1f}s")
