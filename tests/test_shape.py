import numpy as np
import pytest

from vehicle3d.geometry import PoseBox3D, rot_y
from vehicle3d.shape import (
    InsufficientDataError,
    LandmarkObservations,
    LearnOptions,
    MorphableModel,
    OrthoCamPose,
    ShapeCoefficients,
    instantiate,
    learn_em,
    load_model,
    ortho_project,
    place_in_camera,
    save_model,
)
from tests.oracles import make_ortho_dataset, random_orthonormal_rows, subspace_angles_deg
from tests.test_geometry import inside_box


def toy_true_model(n_basis, rng, K=14):
    """A well-spread K-point mean in the unit box plus small basis rows.

    Basis rows are kept orthogonal to the pose-absorbable deformation
    directions (otherwise the subspace is not identifiable from 2D data)
    and mutually orthogonal, each with per-point RMS 0.05 model units.
    """
    from tests.oracles import pose_absorbable_directions

    mean = rng.uniform([-0.45, -0.9, -0.45], [0.45, -0.05, 0.45], size=(K, 3))
    basis = rng.normal(size=(n_basis, K, 3))
    if n_basis:
        flat = basis.reshape(n_basis, -1)
        Qw = pose_absorbable_directions(mean)
        flat = flat - (flat @ Qw) @ Qw.T
        q, _ = np.linalg.qr(flat.T)
        flat = (q.T * 0.05 * np.sqrt(3 * K))[:n_basis]
        basis = flat.reshape(n_basis, K, 3)
    return mean, basis


def obs_list(raw):
    return [LandmarkObservations(uv=uv, visible=vis) for uv, vis in raw]


class TestInstantiate:
    def setup_method(self):
        rng = np.random.default_rng(20)
        mean, basis = toy_true_model(3, rng)
        self.model = MorphableModel(mean=mean.reshape(-1), basis=basis.reshape(3, -1))

    def test_zero_alpha_gives_mean(self):
        pts = instantiate(self.model, np.zeros(3))
        assert np.allclose(pts, self.model.mean_points())

    def test_one_hot(self):
        pts = instantiate(self.model, np.array([0.0, 1.0, 0.0]))
        expected = self.model.mean_points() + self.model.basis_points()[1]
        assert np.allclose(pts, expected)

    def test_affine_linearity(self):
        rng = np.random.default_rng(21)
        a1, a2 = rng.normal(size=3), rng.normal(size=3)
        lhs = instantiate(self.model, a1) + instantiate(self.model, a2)
        rhs = instantiate(self.model, a1 + a2) + self.model.mean_points()
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            instantiate(self.model, np.zeros(5))

    def test_accepts_coefficients_type(self):
        pts = instantiate(self.model, ShapeCoefficients(alpha=np.zeros(3)))
        assert np.allclose(pts, self.model.mean_points())


class TestPlaceInCamera:
    def test_identity_pose(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(14, 3))
        pose = PoseBox3D(theta=0.0, T=np.zeros(3), sigma=np.zeros(3))
        assert np.allclose(place_in_camera(pts, pose), pts)

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(14, 3))
        pose = PoseBox3D(
            theta=1.1, T=np.array([2.0, 1.65, 14.0]), sigma=np.log([3.9, 1.6, 1.6])
        )
        placed = place_in_camera(pts, pose)
        back = ((placed - pose.T) @ rot_y(pose.theta)) / pose.dims
        assert np.allclose(back, pts, atol=1e-10)

    def test_containment_in_box(self):
        # Model points inside the unit box stay inside the 3D box after
        # placement, for coefficient draws within 3 sigma.
        rng = np.random.default_rng(24)
        mean, basis = toy_true_model(2, rng)
        model = MorphableModel(mean=mean.reshape(-1), basis=basis.reshape(2, -1))
        pose = PoseBox3D(
            theta=0.8, T=np.array([-1.0, 1.65, 22.0]), sigma=np.log([3.9, 1.6, 1.6])
        )
        for _ in range(50):
            alpha = np.clip(rng.normal(size=2), -3, 3)
            pts = instantiate(model, alpha)
            if np.all(np.abs(pts[:, 0]) <= 0.5) and np.all(
                (-1 <= pts[:, 1]) & (pts[:, 1] <= 0)
            ) and np.all(np.abs(pts[:, 2]) <= 0.5):
                for p in place_in_camera(pts, pose):
                    assert inside_box(pose, p)


class TestOrthoProject:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(25)
        pts = rng.normal(size=(14, 3))
        R = random_orthonormal_rows(rng)
        pose = OrthoCamPose(c=80.0, R=R, t=np.array([0.5, -0.2, 3.0]))
        expected = 80.0 * (pts + pose.t) @ R.T
        assert np.allclose(ortho_project(pose, pts), expected)

    def test_invalid_pose_rejected(self):
        with pytest.raises(ValueError):
            OrthoCamPose(c=-1.0, R=np.eye(3)[:2], t=np.zeros(3))
        with pytest.raises(ValueError):
            OrthoCamPose(c=1.0, R=np.ones((2, 3)), t=np.zeros(3))


class TestLearnEM:
    def test_noise_free_one_basis(self):
        rng = np.random.default_rng(26)
        mean, basis = toy_true_model(1, rng)
        raw, _ = make_ortho_dataset(mean, basis, 40, 0.0, 0.0, rng)
        result = learn_em(obs_list(raw), n_basis=1)
        # Data lies exactly in the model class: reprojections must match.
        for (uv, vis), pose, coef in zip(raw, result.poses, result.coeffs):
            pts = instantiate(result.model, coef)
            err = np.linalg.norm(ortho_project(pose, pts)[vis] - uv[vis], axis=1)
            assert err.max() < 1e-6

    def test_noisy_two_basis_recovery(self):
        rng = np.random.default_rng(27)
        mean, basis = toy_true_model(2, rng)
        raw, _ = make_ortho_dataset(mean, basis, 200, 0.5, 0.0, rng)
        result = learn_em(obs_list(raw), n_basis=2)
        errs = []
        for (uv, vis), pose, coef in zip(raw, result.poses, result.coeffs):
            pts = instantiate(result.model, coef)
            errs.extend(np.linalg.norm(ortho_project(pose, pts)[vis] - uv[vis], axis=1))
        assert np.mean(errs) <= 0.75
        # reproj_rmse is the RMS over image coordinates (u and v separately)
        # of the final posterior-mean reprojections.
        sq, n_coords = 0.0, 0
        for (uv, vis), pose, coef in zip(raw, result.poses, result.coeffs):
            r = ortho_project(pose, instantiate(result.model, coef))[vis] - uv[vis]
            sq += float(np.sum(r * r))
            n_coords += r.size
        assert result.reproj_rmse == pytest.approx(np.sqrt(sq / n_coords), rel=1e-9)
        angles = subspace_angles_deg(
            result.model.basis,
            basis.reshape(2, -1),
            result.model.mean,
            mean.reshape(-1),
        )
        assert angles.max() < 5.0

    def test_report_final_loglik_is_the_returned_models(self, tmp_path):
        from vehicle3d.cli import main
        from vehicle3d.scene_io import parse_config_text, parse_measurements

        data, out = tmp_path / "data", tmp_path / "model"
        assert main(["synth", "--out", str(data), "--seed", "7", "--frames", "8"]) == 0
        assert main(["shape-learn", "--data", str(data), "--out", str(out),
                     "--basis", "2", "--max-iterations", "40"]) == 0
        observations = [
            LandmarkObservations(uv=meas.landmarks_uv, visible=meas.landmarks_visible)
            for path in sorted((data / "meas").glob("*.cfg"))
            for meas in parse_measurements(path.read_text())[2]
        ]
        result = learn_em(observations, 2, LearnOptions(max_iterations=40))
        report = parse_config_text((out / "report.cfg").read_text())
        assert report["final_loglik"] == repr(result.loglik)
        # loglik is the marginal log-likelihood of the used observations
        # under the returned model, poses and noise (alpha ~ N(0, I)):
        # p ~ N(cR(mean + B alpha) + c R t, noise_var I), per instance.
        used = [o for o, u in zip(observations, result.used_mask) if u]
        mean, basis = result.model.mean_points(), result.model.basis_points()
        want = 0.0
        for obs, pose in zip(used, result.poses):
            vis = obs.visible
            r = (obs.uv[vis] - ortho_project(pose, mean[vis])).reshape(-1)
            design = np.stack([(b[vis] @ (pose.c * pose.R).T).reshape(-1) for b in basis], axis=1)
            cov = result.noise_var * np.eye(r.size) + design @ design.T
            _, logdet = np.linalg.slogdet(cov)
            want -= 0.5 * (r.size * np.log(2 * np.pi) + logdet + r @ np.linalg.solve(cov, r))
        assert result.loglik == pytest.approx(want, rel=1e-9)

    def test_rigid_factorization_n0(self):
        rng = np.random.default_rng(28)
        mean, _ = toy_true_model(0, rng)
        raw, _ = make_ortho_dataset(mean, np.zeros((0, 14, 3)), 30, 0.0, 0.0, rng)
        result = learn_em(obs_list(raw), n_basis=0)
        assert result.model.n_basis == 0
        assert result.reproj_rmse < 1e-6

    def test_loglik_monotone(self):
        rng = np.random.default_rng(29)
        mean, basis = toy_true_model(2, rng)
        raw, _ = make_ortho_dataset(mean, basis, 60, 1.0, 0.2, rng)
        result = learn_em(obs_list(raw), n_basis=2)
        ll = result.loglik_path
        slack = 1e-9 * np.maximum(np.abs(ll[:-1]), 1.0)
        assert np.all(np.diff(ll) >= -slack)

    def test_gauge_invariants(self):
        rng = np.random.default_rng(30)
        mean, basis = toy_true_model(3, rng)
        raw, _ = make_ortho_dataset(mean, basis, 80, 0.5, 0.1, rng)
        result = learn_em(obs_list(raw), n_basis=3)
        model = result.model
        assert np.linalg.norm(model.mean_points().mean(axis=0)) < 1e-9
        gram = model.basis @ model.basis.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-6 * max(np.max(np.diag(gram)), 1.0)

    def test_occlusion_agreement(self):
        rng = np.random.default_rng(31)
        mean, basis = toy_true_model(2, rng)
        raw_full, _ = make_ortho_dataset(mean, basis, 150, 0.5, 0.0, rng)
        occluded = []
        for uv, vis in raw_full:
            while True:
                mask = rng.random(len(vis)) >= 0.2
                if mask.sum() >= 6:
                    break
            occluded.append((uv, mask))
        res_full = learn_em(obs_list(raw_full), n_basis=2)
        res_occ = learn_em(obs_list(occluded), n_basis=2)
        for res in (res_full, res_occ):
            angles = subspace_angles_deg(
                res.model.basis, basis.reshape(2, -1), res.model.mean, mean.reshape(-1)
            )
            assert angles.max() < 10.0

    def test_insufficient_data(self):
        rng = np.random.default_rng(32)
        mean, basis = toy_true_model(2, rng)
        raw, _ = make_ortho_dataset(mean, basis, 10, 0.5, 0.0, rng)
        with pytest.raises(InsufficientDataError):
            learn_em(obs_list(raw), n_basis=2)  # needs 20

    def test_low_visibility_instances_dropped(self):
        rng = np.random.default_rng(33)
        mean, basis = toy_true_model(1, rng)
        raw, _ = make_ortho_dataset(mean, basis, 12, 0.0, 0.0, rng)
        uv0, _ = raw[0]
        starved = [(uv0, np.zeros(14, dtype=bool))] + raw[1:]
        result = learn_em(obs_list(starved), n_basis=1)
        assert not result.used_mask[0]
        assert result.used_mask[1:].all()

    def test_max_iterations_flag(self):
        rng = np.random.default_rng(34)
        mean, basis = toy_true_model(1, rng)
        raw, _ = make_ortho_dataset(mean, basis, 15, 1.0, 0.0, rng)
        result = learn_em(
            obs_list(raw), n_basis=1, opts=LearnOptions(max_iterations=2)
        )
        assert not result.converged
        assert result.iterations == 2


def test_invisible_landmarks_never_reach_the_result():
    rng = np.random.default_rng(37)
    mean, basis = toy_true_model(2, rng)
    raw, _ = make_ortho_dataset(mean, basis, 30, 0.5, 0.3, rng)
    # one instance with fewer than 6 visible landmarks, so it is dropped
    raw[4] = (raw[4][0], np.arange(14) < 3)
    fills = np.array([np.nan, 1e300, -1e300])
    poisoned = []
    for uv, vis in raw:
        uv = uv.copy()
        hidden = np.flatnonzero(~vis)
        uv[hidden] = fills[np.arange(len(hidden)) % 3][:, None]
        poisoned.append((uv, vis))
    opts = LearnOptions(max_iterations=60)
    clean, dirty = (learn_em(obs_list(r), n_basis=2, opts=opts) for r in (raw, poisoned))
    assert np.array_equal(clean.model.mean, dirty.model.mean)
    assert np.array_equal(clean.model.basis, dirty.model.basis)
    for a, b in zip(clean.poses, dirty.poses):
        assert a.c == b.c and np.array_equal(a.R, b.R) and np.array_equal(a.t, b.t)
    for a, b in zip(clean.coeffs, dirty.coeffs):
        assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(clean.loglik_path, dirty.loglik_path)
    assert clean.loglik == dirty.loglik
    assert clean.iterations == dirty.iterations
    assert clean.polish_iterations == dirty.polish_iterations
    assert clean.noise_var == dirty.noise_var
    assert clean.reproj_rmse == dirty.reproj_rmse
    assert np.array_equal(clean.used_mask, dirty.used_mask) and not clean.used_mask[4]


def test_non_finite_visible_landmark_is_named():
    rng = np.random.default_rng(38)
    mean, basis = toy_true_model(1, rng)
    raw, _ = make_ortho_dataset(mean, basis, 12, 0.0, 0.2, rng)
    uv, vis = raw[3]
    uv = uv.copy()
    uv[np.flatnonzero(vis)[0], 1] = np.inf
    raw[3] = (uv, vis)
    with pytest.raises(ValueError, match="instance 3: non-finite visible landmark"):
        learn_em(obs_list(raw), n_basis=1)


def test_shape_learn_keeps_the_per_instance_learners_numbers(tmp_path):
    """Seed 7, 8 frames, 40 EM iterations, against the values of the
    per-instance EM loop the batched one replaced.  Summation order differs
    between the two, so the values agree to a tolerance, not bit for bit."""
    from vehicle3d.cli import main
    from vehicle3d.scene_io import parse_config_text

    data, out = tmp_path / "data", tmp_path / "model"
    assert main(["synth", "--out", str(data), "--seed", "7", "--frames", "8"]) == 0
    assert main(["shape-learn", "--data", str(data), "--out", str(out),
                 "--basis", "2", "--max-iterations", "40"]) == 0
    report = parse_config_text((out / "report.cfg").read_text())
    assert report["iterations"] == "40"
    assert report["converged"] == "false"
    assert float(report["final_loglik"]) == pytest.approx(-1236.0278505816996, rel=1e-9)
    assert float(report["noise_var"]) == pytest.approx(2.224115376419328, rel=1e-9)
    assert float(report["reproj_rmse_px"]) == pytest.approx(1.402251364836654, rel=1e-9)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(36)
        mean, basis = toy_true_model(4, rng)
        model = MorphableModel(mean=mean.reshape(-1), basis=basis.reshape(4, -1))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.K == model.K and loaded.n_basis == model.n_basis
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.basis, model.basis)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("14 2\n1 2 3\n")
        with pytest.raises(ValueError):
            load_model(path)
