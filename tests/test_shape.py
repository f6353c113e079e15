import numpy as np
import pytest

from vehicle3d.geometry import PoseBox3D, place_points, rot_y
from vehicle3d.shape import (
    InsufficientDataError,
    LandmarkObservations,
    LearnOptions,
    MorphableModel,
    OrthoCamPose,
    format_model,
    instantiate,
    learn_em,
    load_model,
    ortho_project,
)
from vehicle3d.shape import _SOLVE_CUTOFF, _affine_optimum, _cofactors, _observe, _orthonormalize_rows
from vehicle3d.shape import _pose_noise_step
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
    """The (uv, visible) pairs of make_ortho_dataset, stacked."""
    raw = list(raw)
    return LandmarkObservations(uv=[uv for uv, _ in raw], visible=[vis for _, vis in raw])


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

    def test_rows_give_one_instance_each(self):
        rows = np.random.default_rng(21).normal(size=(4, 3))
        pts = instantiate(self.model, rows)
        assert pts.shape == (4, self.model.K, 3)
        for row, instance in zip(rows, pts):
            assert np.allclose(instance, instantiate(self.model, row), rtol=0.0, atol=1e-15)


class TestPlaceInCamera:
    def test_identity_pose(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(14, 3))
        pose = PoseBox3D(theta=0.0, T=np.zeros(3), sigma=np.zeros(3))
        assert np.allclose(place_points(pts, pose.theta, pose.T, pose.sigma)[0], pts)

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(14, 3))
        pose = PoseBox3D(
            theta=1.1, T=np.array([2.0, 1.65, 14.0]), sigma=np.log([3.9, 1.6, 1.6])
        )
        placed = place_points(pts, pose.theta, pose.T, pose.sigma)[0]
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
                for p in place_points(pts, pose.theta, pose.T, pose.sigma)[0]:
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
        observations = obs_list(
            (meas.uv[0], meas.visible[0])
            for path in sorted((data / "meas").glob("*.cfg"))
            for meas in parse_measurements(path.read_text())[2]
        )
        result = learn_em(observations, 2, LearnOptions(max_iterations=40))
        report = parse_config_text((out / "report.cfg").read_text())
        assert report["final_loglik"] == repr(result.loglik)
        # loglik is the marginal log-likelihood of the used observations
        # under the returned model, poses and noise (alpha ~ N(0, I)):
        # p ~ N(cR(mean + B alpha) + c R t, noise_var I), per instance.
        used = result.used_mask
        mean, basis = result.model.mean_points(), result.model.basis_points()
        want = 0.0
        for uv, vis, pose in zip(observations.uv[used], observations.visible[used], result.poses):
            r = (uv[vis] - ortho_project(pose, mean[vis])).reshape(-1)
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
    assert np.array_equal(clean.coeffs, dirty.coeffs)
    assert np.array_equal(clean.loglik_path, dirty.loglik_path)
    assert clean.loglik == dirty.loglik
    assert clean.iterations == dirty.iterations
    assert clean.polish_iterations == dirty.polish_iterations
    assert clean.noise_var == dirty.noise_var
    assert clean.reproj_rmse == dirty.reproj_rmse
    assert np.array_equal(clean.used_mask, dirty.used_mask) and not clean.used_mask[4]


def test_observations_are_one_stack():
    with pytest.raises(ValueError, match="uv must be an"):
        LandmarkObservations(uv=np.zeros((3, 14, 2)), visible=np.ones((3, 13), dtype=bool))
    with pytest.raises(ValueError, match="uv must be an"):
        LandmarkObservations(uv=np.zeros((14, 2)), visible=np.ones(14, dtype=bool))
    with pytest.raises(InsufficientDataError, match="no instances supplied"):
        learn_em(LandmarkObservations(uv=np.zeros((0, 14, 2)),
                                      visible=np.zeros((0, 14), dtype=bool)), n_basis=0)


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


def random_stack(rng, n, ratio_range):
    """n 2x3 matrices U diag(s1, s2) V^T with random orthonormal U, V, random
    scales over ten decades and s2 / s1 drawn log-uniform in ratio_range."""
    U = np.linalg.qr(rng.normal(size=(n, 2, 2)))[0]
    V = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0][..., :2]
    s1 = 10.0 ** rng.uniform(-5, 5, size=n)
    s2 = s1 * 10.0 ** rng.uniform(*np.log10(ratio_range), size=n)
    return U @ (np.stack([s1, s2], axis=-1)[..., None] * V.transpose(0, 2, 1))


class TestSmallKernels:
    def test_polar_factor_matches_svd(self):
        rng = np.random.default_rng(40)
        A = np.concatenate([rng.normal(size=(500, 2, 3)), random_stack(rng, 500, (1e-2, 1.0))])
        R, ok = _orthonormalize_rows(A)
        U, _, Vt = np.linalg.svd(A, full_matrices=False)
        assert ok.all()
        assert np.abs(R - U @ Vt).max() <= 1e-13
        # works on any leading shape, as the pose step's (M, T) stacks need
        R2, ok2 = _orthonormalize_rows(A.reshape(10, 100, 2, 3))
        assert np.array_equal(R2.reshape(A.shape), R) and np.array_equal(ok2.ravel(), ok)

    def test_accepted_polar_factors_are_orthonormal(self):
        rng = np.random.default_rng(41)
        R, ok = _orthonormalize_rows(random_stack(rng, 20000, (1e-8, 1.0)))
        assert 0 < ok.sum() < ok.size  # both sides of the cutoff are drawn
        assert np.abs(R @ R.transpose(0, 2, 1) - np.eye(2)).max() <= 1e-12

    def test_degenerate_rows_are_rejected_with_finite_rows(self):
        a = np.array([1.0, -2.0, 0.5])
        A = np.stack([
            np.zeros((2, 3)),  # zero
            np.stack([a, -3.0 * a]),  # rank 1
            np.stack([a, 2.0 * a + 1e-9 * np.array([0.3, 0.1, -0.2])]),  # near rank 1
            np.stack([a, [np.nan, 0.0, 1.0]]),  # non-finite
        ])
        with np.errstate(divide="raise", invalid="raise"):
            R, ok = _orthonormalize_rows(A[:3])
        assert not ok.any()
        R, ok = _orthonormalize_rows(A)
        assert not ok.any()
        assert np.array_equal(R, np.broadcast_to(np.eye(3)[:2], A.shape))

    def test_affine_optimum_solves_well_conditioned_systems(self):
        rng = np.random.default_rng(42)
        dq = rng.normal(size=(50, 14, 3)) * rng.uniform(0.1, 10.0, size=(50, 1, 3))
        C_qq = dq.transpose(0, 2, 1) @ dq
        C_pq = rng.normal(size=(50, 2, 3))
        pinv = np.linalg.pinv(C_qq, rcond=3 * np.finfo(float).eps) @ C_pq.transpose(0, 2, 1)
        assert np.allclose(_affine_optimum(C_pq, C_qq), pinv.transpose(0, 2, 1), rtol=1e-11, atol=0)

    def test_closed_form_solve_matches_lapack(self):
        """SPD stacks Q diag(lam) Q^T with condition numbers up to 1 / _SOLVE_CUTOFF.

        Tolerances: the cofactor determinant is within 64 eps perm(|C|) of
        np.linalg.det's (the expansion itself rounds within about 3 eps
        perm(|C|); LU's determinant was off by up to 31 eps perm(|C|) on this
        draw), so the well/ill decision agrees with det's wherever det is
        farther than that from the cutoff.  On well rows A* is within
        100 cond eps of np.linalg.solve's, relative in Frobenius norm; ill
        rows give pinv's answer exactly."""
        rng = np.random.default_rng(47)
        n, eps = 4000, np.finfo(float).eps
        Q = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
        lam = 10.0 ** rng.uniform(-3, 3, size=(n, 1)) * 10.0 ** -rng.uniform(0, 6, size=(n, 3))
        C_qq = (Q * lam[:, None, :]) @ Q.transpose(0, 2, 1)
        C_pq = rng.normal(size=(n, 2, 3)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1))
        cond = lam.max(axis=1) / lam.min(axis=1)
        assert cond.max() <= 1 / _SOLVE_CUTOFF

        _, det = _cofactors(C_qq)
        absC = np.abs(C_qq)
        perm = sum(absC[:, 0, j] * (absC[:, 1, (j + 1) % 3] * absC[:, 2, (j + 2) % 3]
                                    + absC[:, 1, (j + 2) % 3] * absC[:, 2, (j + 1) % 3]) for j in range(3))
        want_det = np.linalg.det(C_qq)
        band = 64 * eps * perm
        assert np.all(np.abs(det - want_det) <= band)

        cutoff = _SOLVE_CUTOFF * np.trace(C_qq, axis1=1, axis2=2) ** 3
        clear = np.abs(want_det - cutoff) > band
        assert np.array_equal((det > cutoff)[clear], (want_det > cutoff)[clear])
        well = want_det > cutoff
        assert 0 < well.sum() < n  # both branches are drawn

        got = _affine_optimum(C_pq, C_qq)
        want = np.linalg.solve(C_qq[well], C_pq[well].transpose(0, 2, 1)).transpose(0, 2, 1)
        err = np.linalg.norm(got[well] - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert np.all(err <= 100 * cond[well] * eps)
        ill = ~well & clear
        pinv = np.linalg.pinv(C_qq[ill], rcond=3 * eps) @ C_pq[ill].transpose(0, 2, 1)
        assert np.array_equal(got[ill], pinv.transpose(0, 2, 1))

    def test_planar_points_take_the_pinv_branch(self):
        rng = np.random.default_rng(43)
        dq = rng.normal(size=(4, 14, 3))
        dq[1, :, 2] = 0.0  # planar: C_qq is singular
        dq[3] = dq[3] @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
        dq[3, :, 2] = dq[3, :, 0]  # planar in a tilted plane
        C_qq = dq.transpose(0, 2, 1) @ dq
        C_pq = rng.normal(size=(4, 2, 3))
        got = _affine_optimum(C_pq, C_qq)
        for m in (1, 3):
            want = np.linalg.pinv(C_qq[m : m + 1], rcond=3 * np.finfo(float).eps) @ C_pq[m].T
            assert np.array_equal(got[m], want[0].T)
        assert np.allclose(got[1][:, 2], 0.0)  # minimum norm: nothing along the missing axis

    def test_pose_step_keeps_the_current_pose_of_a_degenerate_instance(self):
        rng = np.random.default_rng(44)
        mean, basis = toy_true_model(1, rng)
        raw, _ = make_ortho_dataset(mean, basis, 3, 0.5, 0.0, rng)
        P = np.array([uv for uv, _ in raw])
        P[1] = P[1, :1] + np.linspace(-20.0, 20.0, 14)[:, None] * [0.6, 0.8]  # collinear
        P[2] = P[2, :1]  # every landmark on one pixel
        vis = np.ones((3, 14), dtype=bool)
        pose = (np.full(3, 100.0), np.broadcast_to(random_orthonormal_rows(rng), (3, 2, 3)).copy(),
                P.mean(axis=1))
        mu, Sig = np.zeros((3, 1)), np.tile(np.eye(1), (3, 1, 1))
        with np.errstate(divide="raise", invalid="raise"):
            new_pose, noise = _pose_noise_step(pose, mean, basis, _observe(P, vis), mu, Sig, False)
        assert np.isfinite(noise) and all(np.isfinite(arr).all() for arr in new_pose)
        for m in (1, 2):  # both polar targets are degenerate: no candidate beats the current
            assert new_pose[0][m] == pose[0][m] and np.array_equal(new_pose[1][m], pose[1][m])
        assert not np.array_equal(new_pose[1][0], pose[1][0])

    def test_collinear_landmark_instance_learns_finite_results(self):
        rng = np.random.default_rng(45)
        mean, basis = toy_true_model(1, rng)
        raw, _ = make_ortho_dataset(mean, basis, 30, 0.5, 0.0, rng)
        uv, vis = raw[7]
        raw[7] = (uv[:1] + np.linspace(-30.0, 30.0, 14)[:, None] * [0.8, -0.6], vis)
        result = learn_em(obs_list(raw), n_basis=1)
        assert result.used_mask.all()
        assert np.isfinite(result.model.mean).all() and np.isfinite(result.model.basis).all()
        assert np.isfinite([result.loglik, result.noise_var, result.reproj_rmse]).all()
        for pose, coef in zip(result.poses, result.coeffs):
            OrthoCamPose(c=pose.c, R=pose.R, t=pose.t)  # raises unless c > 0 and R R^T = I
            assert np.isfinite(pose.t).all() and np.isfinite(coef).all()
            assert np.abs(pose.R @ pose.R.T - np.eye(2)).max() <= 1e-12


def test_instance_order_does_not_change_the_model_frame():
    rng = np.random.default_rng(41)
    mean, basis = toy_true_model(2, rng)
    raw, _ = make_ortho_dataset(mean, basis, 40, 0.5, 0.1, rng)
    forward, backward = learn_em(obs_list(raw), 2), learn_em(obs_list(raw[::-1]), 2)
    assert np.abs(forward.model.mean - backward.model.mean).max() <= 1e-9
    assert np.abs(forward.model.basis - backward.model.basis).max() <= 1e-9
    for a, b in zip(forward.poses, backward.poses[::-1]):
        assert np.abs(a.R - b.R).max() <= 1e-9
    assert forward.loglik == pytest.approx(backward.loglik, rel=1e-12)


def test_model_axes_and_basis_rows_follow_the_sign_rule():
    """Per model axis and per basis row, the first landmark-indexed entry at
    least half the largest in magnitude is positive.  (The flips are exact;
    test_report_final_loglik_is_the_returned_models checks the likelihood.)"""
    rng = np.random.default_rng(46)
    mean, basis = toy_true_model(2, rng)
    raw, _ = make_ortho_dataset(mean, basis, 40, 0.5, 0.1, rng)
    model = learn_em(obs_list(raw), 2).model
    for row in (*model.mean_points().T, *model.basis):
        mag = np.abs(row)
        assert row[np.flatnonzero(mag >= 0.5 * mag.max())[0]] > 0


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(36)
        mean, basis = toy_true_model(4, rng)
        model = MorphableModel(mean=mean.reshape(-1), basis=basis.reshape(4, -1))
        path = tmp_path / "model.txt"
        path.write_text(format_model(model))
        loaded = load_model(path)
        assert loaded.K == model.K and loaded.n_basis == model.n_basis
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.basis, model.basis)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        rng = np.random.default_rng(36)
        mean, basis = toy_true_model(4, rng)
        path = tmp_path / "model.txt"
        model = MorphableModel(mean=mean.reshape(-1), basis=basis.reshape(4, -1))
        tokens = format_model(model).split()
        tokens[5] = value  # a mean coordinate
        path.write_text(" ".join(tokens))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: non-finite value"

    def test_non_numeric_value_rejected(self, tmp_path):
        rng = np.random.default_rng(36)
        mean, basis = toy_true_model(4, rng)
        path = tmp_path / "model.txt"
        model = MorphableModel(mean=mean.reshape(-1), basis=basis.reshape(4, -1))
        tokens = format_model(model).split()
        tokens[5] = "abc"  # a mean coordinate
        path.write_text(" ".join(tokens))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: non-numeric value 'abc'"

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("14 2\n1 2 3\n")
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("header", ["14 -1", "0 0", "-14 2", "x 2", "14 2.0", "1e1 0"])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n" + " ".join(["0.5"] * 42) + "\n")
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == (
            f"{path}: bad header '{header}': expected 'K N', "
            "integers with K >= 1 landmarks and N >= 0 basis shapes"
        )

    def test_header_without_basis_loads(self, tmp_path):
        path = tmp_path / "mean_only.txt"
        path.write_text("2 0\n0 1 2\n3 4 5\n")
        model = load_model(path)
        assert model.K == 2 and model.n_basis == 0
        assert np.array_equal(model.mean, np.arange(6.0))
