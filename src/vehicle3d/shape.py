"""Linear morphable wireframe model over an indexed landmark set.

A shape instance is mean + sum(alpha_n * basis_n) over 3K-dimensional
stacked landmark coordinates.  The model is learned from 2D landmark
annotations alone under a weak-perspective camera: each observation is
p_k = c * R * (P_k + t) + noise with scalar scale c, row-orthonormal
2x3 R, and latent coefficients alpha ~ N(0, I).  Learning is EM with
the exact Gaussian posterior over alpha in the E-step; M-step updates
are conditional maximizations, so the observed-data log-likelihood is
non-decreasing by construction.  The EM loop is followed by a polish
phase with the shape frozen, which re-settles poses and the noise level.
The reported reprojection RMSE is per image coordinate (u and v each
count once), not per landmark.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PoseBox3D, rot_y

# Landmarks per vehicle in the packaged template.
LANDMARK_COUNT = 14

# Noise variance floor (px^2): keeps the likelihood finite on noise-free data.
_MIN_NOISE_VAR = 1e-12


class InsufficientDataError(ValueError):
    """Raised when too few usable instances are supplied to the learner."""


@dataclass(frozen=True)
class MorphableModel:
    """Mean shape plus N linear basis shapes, each a stacked 3K-vector."""

    mean: np.ndarray  # (3K,)
    basis: np.ndarray  # (N, 3K)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        if mean.size % 3 != 0:
            raise ValueError("mean length must be a multiple of 3")
        basis = np.asarray(self.basis, dtype=float).reshape(-1, mean.size)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)

    @property
    def K(self) -> int:
        return self.mean.size // 3

    @property
    def n_basis(self) -> int:
        return self.basis.shape[0]

    def mean_points(self) -> np.ndarray:
        return self.mean.reshape(-1, 3)

    def basis_points(self) -> np.ndarray:
        return self.basis.reshape(self.n_basis, self.K, 3)


@dataclass(frozen=True)
class ShapeCoefficients:
    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float).reshape(-1)
        if not np.all(np.isfinite(a)):
            raise ValueError("shape coefficients must be finite")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class LandmarkObservations:
    """One instance's annotated landmarks: pixel positions + visibility."""

    uv: np.ndarray  # (K, 2)
    visible: np.ndarray  # (K,) bool

    def __post_init__(self):
        uv = np.asarray(self.uv, dtype=float).reshape(-1, 2)
        vis = np.asarray(self.visible, dtype=bool).reshape(-1)
        if len(uv) != len(vis):
            raise ValueError("uv and visibility lengths differ")
        object.__setattr__(self, "uv", uv)
        object.__setattr__(self, "visible", vis)

    @property
    def K(self) -> int:
        return len(self.visible)

    @property
    def n_visible(self) -> int:
        return int(np.count_nonzero(self.visible))


@dataclass(frozen=True)
class OrthoCamPose:
    """Weak-perspective camera pose: p = c * R * (P + t)."""

    c: float
    R: np.ndarray  # (2, 3), row-orthonormal
    t: np.ndarray  # (3,)

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float).reshape(2, 3)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(3))
        if self.c <= 0:
            raise ValueError("orthographic scale must be positive")
        if not np.allclose(R @ R.T, np.eye(2), atol=1e-8):
            raise ValueError("R rows must be orthonormal")


def instantiate(model: MorphableModel, alpha) -> np.ndarray:
    """Shape instance S = mean + sum(alpha_n basis_n), as (K, 3) points."""
    if isinstance(alpha, ShapeCoefficients):
        alpha = alpha.alpha
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    if alpha.size != model.n_basis:
        raise ValueError(
            f"expected {model.n_basis} coefficients, got {alpha.size}"
        )
    flat = model.mean if alpha.size == 0 else model.mean + alpha @ model.basis
    return flat.reshape(-1, 3)


def place_in_camera(points: np.ndarray, pose: PoseBox3D) -> np.ndarray:
    """Scale model points per-axis by the box extents, rotate, translate."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return (pts * pose.dims) @ rot_y(pose.theta).T + pose.T


def ortho_project(pose: OrthoCamPose, points: np.ndarray) -> np.ndarray:
    """Weak-perspective projection of (K, 3) points to (K, 2) pixels."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return pose.c * (pts + pose.t) @ pose.R.T


@dataclass
class LearnOptions:
    tol: float = 1e-6  # relative log-likelihood change
    max_iterations: int = 500
    min_visible: int = 6  # instances with fewer visible landmarks are dropped

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class LearnResult:
    model: MorphableModel
    poses: list  # OrthoCamPose per instance
    coeffs: list  # ShapeCoefficients per instance (posterior means)
    loglik_path: np.ndarray  # per EM-loop iteration
    converged: bool
    iterations: int
    noise_var: float
    reproj_rmse: float  # px, RMS per image coordinate
    used_mask: np.ndarray  # which input instances participated
    loglik: float  # log-likelihood of the returned model, poses and noise


# ---------------------------------------------------------------------------
# Internal helpers for the EM learner.  Poses are carried as (c, R, d) with
# d the 2D image offset; the public OrthoCamPose lifts d back to a 3-vector
# t = R^T d / c, which reproduces the same projection.
# ---------------------------------------------------------------------------

def _project_affine(c, R, d, pts):
    return c * pts @ R.T + d


def _orthonormalize_rows(A: np.ndarray) -> np.ndarray:
    """Nearest row-orthonormal 2x3 matrix in Frobenius norm (via SVD)."""
    U, _, Vt = np.linalg.svd(A, full_matrices=False)
    return U @ Vt


def _rigid_init(uvs, vises, K):
    """Rank-3 factorization of centered landmarks -> mean shape + poses.

    Missing entries are imputed with the instance's visible centroid
    (zero after centering).  A metric upgrade solves for the symmetric
    Q = G G^T that makes every instance's motion rows equal-norm and
    orthogonal, in least squares.
    """
    M = len(uvs)
    D = np.zeros((2 * M, K))
    centroids = np.zeros((M, 2))
    for m, (uv, vis) in enumerate(zip(uvs, vises)):
        cen = uv[vis].mean(axis=0)
        centroids[m] = cen
        centered = uv - cen
        centered[~vis] = 0.0  # mean-imputed after centering
        D[2 * m] = centered[:, 0]
        D[2 * m + 1] = centered[:, 1]

    U, s, Vt = np.linalg.svd(D, full_matrices=False)
    r = 3
    Mhat = U[:, :r] * np.sqrt(s[:r])
    Shat = (np.sqrt(s[:r])[:, None]) * Vt[:r]

    # Metric upgrade: x Q x^T = y Q y^T, x Q y^T = 0 per instance, plus a
    # scale-fixing row sum(x Q x^T) = M, all linear in the 6 entries of Q.
    def quad_row(a, b):
        # coefficients of [Q11,Q22,Q33,Q12,Q13,Q23] in a Q b^T
        return np.array(
            [
                a[0] * b[0],
                a[1] * b[1],
                a[2] * b[2],
                a[0] * b[1] + a[1] * b[0],
                a[0] * b[2] + a[2] * b[0],
                a[1] * b[2] + a[2] * b[1],
            ]
        )

    rows, rhs = [], []
    scale_row = np.zeros(6)
    for m in range(M):
        x, y = Mhat[2 * m], Mhat[2 * m + 1]
        rows.append(quad_row(x, x) - quad_row(y, y))
        rhs.append(0.0)
        rows.append(quad_row(x, y))
        rhs.append(0.0)
        scale_row += quad_row(x, x)
    rows.append(scale_row)
    rhs.append(float(M))
    q, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    Q = np.array(
        [
            [q[0], q[3], q[4]],
            [q[3], q[1], q[5]],
            [q[4], q[5], q[2]],
        ]
    )
    # Q should be PSD; clip stray negative curvature from noise.
    evals, evecs = np.linalg.eigh(Q)
    evals = np.maximum(evals, 1e-8 * max(evals.max(), 1e-12))
    G = evecs @ np.diag(np.sqrt(evals))

    motion = Mhat @ G
    shape0 = np.linalg.solve(G, Shat)  # (3, K)

    poses = []
    for m in range(M):
        A = motion[2 * m : 2 * m + 2]
        c = float(np.sqrt(0.5 * (A[0] @ A[0] + A[1] @ A[1])))
        c = max(c, 1e-9)
        R = _orthonormalize_rows(A)
        poses.append((c, R, centroids[m].copy()))
    return shape0.T.reshape(-1), poses  # mean as (3K,), landmark-major


def _posterior(mean_vis, basis_vis, c, R, d, p_vis, noise_var):
    """Gaussian posterior over alpha for one instance; returns stats."""
    A = c * R
    V = len(mean_vis)
    b = mean_vis @ A.T + d  # (V, 2)
    r = (p_vis - b).reshape(-1)
    N = basis_vis.shape[0]
    if N == 0:
        mu = np.zeros(0)
        Sig = np.zeros((0, 0))
        Mt_r = np.zeros(0)
        quad = r @ r / noise_var
        logdet_sig = 0.0
    else:
        # Mdes[2v:2v+2, n] = A @ basis_vis[n, v]
        proj = np.einsum("ij,nvj->vin", A, basis_vis)  # (V, 2, N)
        Mdes = proj.reshape(2 * V, N)
        F = Mdes.T @ Mdes
        Sig = np.linalg.inv(np.eye(N) + F / noise_var)
        Mt_r = Mdes.T @ r
        mu = Sig @ Mt_r / noise_var
        quad = (r @ r - Mt_r @ (Sig @ Mt_r) / noise_var) / noise_var
        sign, logdet_sig = np.linalg.slogdet(Sig)
    loglik = -0.5 * (2 * V * np.log(2 * np.pi * noise_var) - logdet_sig + quad)
    return mu, Sig, float(loglik)


def _weak_family(mean_flat: np.ndarray) -> np.ndarray:
    """Orthonormal span of basis-row directions that per-instance poses can
    absorb to first order: landmark-uniform translations, scaling of the
    mean, and infinitesimal rotations of the mean (7 directions).

    Components of basis rows along this family are nearly unidentifiable
    from data, so the learner removes them; this is the canonical gauge of
    the returned model.
    """
    K = mean_flat.size // 3
    mean_pts = mean_flat.reshape(K, 3)
    dirs = []
    for j in range(3):
        t = np.zeros((K, 3))
        t[:, j] = 1.0
        dirs.append(t.reshape(-1))
    dirs.append(mean_flat.copy())
    generators = (
        np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
    )
    for Om in generators:
        dirs.append((mean_pts @ Om.T).reshape(-1))
    Q, _ = np.linalg.qr(np.stack(dirs).T)
    return Q


def _expected_points(mean_vis, basis_vis, mu):
    """E[q] = mean + sum_n mu_n basis_n over one instance's visible landmarks."""
    return mean_vis if mu.size == 0 else mean_vis + np.einsum("n,nvj->vj", mu, basis_vis)


def _expected_sq_residual(Eq, basis_vis, Sig, pose, p_vis):
    """E||p - c R q - d||^2 summed over this instance's visible landmarks."""
    c, R, d = pose
    A = c * R
    resid = p_vis - (Eq @ A.T + d)
    total = float(np.sum(resid * resid))
    if Sig.size:
        # Variance term: sum_k tr(A V_k Sig V_k^T A^T).
        AV = np.einsum("ij,nvj->nvi", A, basis_vis)  # (N, V, 2)
        total += float(np.einsum("nvi,nm,mvi->", AV, Sig, AV))
    return total


def _e_step(mean_pts, basis_pts, poses, vis_idx, p_vis, noise_var):
    """Exact Gaussian posterior per instance: (mus, Sigs, total log-likelihood)."""
    mus, Sigs = [], []
    total_ll = 0.0
    for (c, R, d), vi, p in zip(poses, vis_idx, p_vis):
        mu, Sig, ll = _posterior(mean_pts[vi], basis_pts[:, vi], c, R, d, p, noise_var)
        mus.append(mu)
        Sigs.append(Sig)
        total_ll += ll
    return mus, Sigs, total_ll


def _update_pose(pose, Eq, basis_vis, Sig, p, refresh_current):
    """Conditional M-step for one instance's (c, R, d).

    Candidates are the current pose, then (c, d) refreshed in closed form
    at trial rotations: the current R (only with refresh_current), the SVD
    projection of the cross-covariance, and the projection of the
    unconstrained affine optimum.  The smallest expected squared residual
    wins, ties going to the first, so the step never worsens the expected
    objective.  Returns (pose, its expected squared residual).
    """
    pbar, qbar = p.mean(axis=0), Eq.mean(axis=0)
    dp, dq = p - pbar, Eq - qbar
    C_pq = dp.T @ dq  # (2, 3)
    C_qq = dq.T @ dq
    if Sig.size:
        # Posterior covariance adds Cov[q_k] = B_k Sig B_k^T per point.
        C_qq = C_qq + np.einsum("nvj,nm,mvl->jl", basis_vis, Sig, basis_vis)
    trial_Rs = [pose[1]] if refresh_current else []
    if np.linalg.norm(C_pq) > 0:
        U, _, Vt = np.linalg.svd(C_pq, full_matrices=False)
        trial_Rs.append(U @ Vt)
        # The unconstrained affine optimum accounts for the posterior
        # covariance (C_qq anisotropy); its projection is usually the
        # strongest candidate.
        Astar, *_ = np.linalg.lstsq(C_qq, C_pq.T, rcond=None)
        if np.all(np.isfinite(Astar)) and np.linalg.norm(Astar) > 0:
            trial_Rs.append(_orthonormalize_rows(Astar.T))
    best, best_obj = pose, _expected_sq_residual(Eq, basis_vis, Sig, pose, p)
    for R in trial_Rs:
        denom = float(np.trace(R @ C_qq @ R.T))
        if denom <= 0:
            continue
        c = float(np.trace(R @ C_pq.T)) / denom
        if c <= 1e-12:
            continue
        cand = (c, R, pbar - c * (R @ qbar))
        obj = _expected_sq_residual(Eq, basis_vis, Sig, cand, p)
        if obj < best_obj:
            best, best_obj = cand, obj
    return best, best_obj


def _pose_noise_step(poses, mean_pts, basis_pts, vis_idx, p_vis, mus, Sigs, n_coords,
                     refresh_current):
    """Update every pose, then the noise variance (floored) at the new poses:
    the mean expected squared residual per image coordinate."""
    new_poses = []
    total_sq = 0.0
    for pose, vi, p, mu, Sig in zip(poses, vis_idx, p_vis, mus, Sigs):
        bvis = basis_pts[:, vi]
        Eq = _expected_points(mean_pts[vi], bvis, mu)
        pose, sq = _update_pose(pose, Eq, bvis, Sig, p, refresh_current)
        new_poses.append(pose)
        total_sq += sq
    return new_poses, max(total_sq / n_coords, _MIN_NOISE_VAR)


def _settled(prev, cur, tol):
    """Relative log-likelihood change within tol."""
    return abs(cur - prev) <= tol * max(abs(prev), 1.0)


def learn_em(
    observations,
    n_basis: int,
    opts: LearnOptions | None = None,
) -> LearnResult:
    """Fit the morphable model to 2D landmark annotations by EM.

    Instances with fewer than opts.min_visible visible landmarks are
    excluded (reported via used_mask).  Raises InsufficientDataError when
    fewer than max(3, 10 * n_basis) instances remain.

    The EM loop alternates the E-step with a shape M-step, a pose update
    and a noise update.  A polish phase with the shape frozen then
    re-settles poses and noise.  reproj_rmse is the RMS residual per image
    coordinate at the posterior-mean shapes.
    """
    opts = opts or LearnOptions()
    if n_basis < 0:
        raise ValueError("basis count must be non-negative")
    obs = list(observations)
    if not obs:
        raise InsufficientDataError("no instances supplied")
    K = obs[0].K
    for o in obs:
        if o.K != K:
            raise InsufficientDataError("inconsistent landmark counts")
    used = np.array([o.n_visible >= opts.min_visible for o in obs])
    needed = max(3, 10 * n_basis)
    if int(used.sum()) < needed:
        raise InsufficientDataError(
            f"need at least {needed} instances with >= {opts.min_visible} "
            f"visible landmarks, have {int(used.sum())}"
        )
    uvs = [obs[i].uv for i in np.flatnonzero(used)]
    vises = [obs[i].visible for i in np.flatnonzero(used)]
    M = len(uvs)

    n_coords = int(sum(2 * v.sum() for v in vises))
    mean_flat, poses = _rigid_init(uvs, vises, K)
    mean_pts = mean_flat.reshape(K, 3)

    # Rigid residuals seed both the noise level and the deformation basis.
    resid_shapes = np.zeros((M, 3 * K))
    sq_sum = 0.0
    for m in range(M):
        c, R, d = poses[m]
        vis = vises[m]
        r2 = uvs[m][vis] - _project_affine(c, R, d, mean_pts[vis])
        sq_sum += float(np.sum(r2 * r2))
        # Lift image residuals to model space through the pose pseudo-inverse.
        lifted = r2 @ (R / c)  # (V, 3); (cR)^+ = R^T / c applied row-wise
        full = np.zeros((K, 3))
        full[vis] = lifted
        resid_shapes[m] = full.reshape(-1)
    noise_var = max(sq_sum / max(n_coords, 1), 1e-4)

    basis = np.zeros((n_basis, 3 * K))
    if n_basis > 0:
        _, sv, Vt = np.linalg.svd(resid_shapes - resid_shapes.mean(axis=0), full_matrices=False)
        n_avail = min(n_basis, len(sv))
        scale = sv[:n_avail] / np.sqrt(M)
        basis[:n_avail] = Vt[:n_avail] * scale[:, None]
        # Degenerate directions get a small deterministic seed so the EM
        # update cannot stall on an exactly zero basis row.
        rms = float(np.sqrt(np.mean(mean_flat**2)))
        init_rng = np.random.default_rng(0)
        for n in range(n_basis):
            if np.linalg.norm(basis[n]) < 1e-9 * max(rms, 1.0):
                basis[n] = init_rng.normal(size=3 * K) * 1e-3 * max(rms, 1e-3)

    vis_idx = [np.flatnonzero(v) for v in vises]
    p_vis = [uvs[m][vis_idx[m]] for m in range(M)]

    logliks = []
    converged = False
    it = 0
    for it in range(1, opts.max_iterations + 1):
        basis_pts = basis.reshape(n_basis, K, 3)
        mus, Sigs, total_ll = _e_step(mean_pts, basis_pts, poses, vis_idx, p_vis, noise_var)
        logliks.append(total_ll)
        if len(logliks) > 1 and _settled(logliks[-2], total_ll, opts.tol):
            converged = True
            break

        # M-step part 1: per-landmark shape update (mean and basis jointly).
        # With abar = [1, alpha], G = E[abar abar^T], solve for each landmark
        # the 3x(N+1) block W_k from sum_m (A^T A) W_k G_m = A^T y E[abar]^T.
        dim = 3 * (n_basis + 1)
        lhs = np.zeros((K, dim, dim))
        rhs = np.zeros((K, dim))
        for m in range(M):
            mu = mus[m]
            abar = np.concatenate([[1.0], mu])
            G = np.zeros((n_basis + 1, n_basis + 1))
            G[0, 0] = 1.0
            if n_basis:
                G[0, 1:] = mu
                G[1:, 0] = mu
                G[1:, 1:] = Sigs[m] + np.outer(mu, mu)
            c, R, d = poses[m]
            A = c * R
            block = np.kron(A.T @ A, G)  # row-major vec of (3,(N+1)) blocks
            y = p_vis[m] - d
            Aty = y @ A  # (V, 3)
            contrib = np.einsum("vi,j->vij", Aty, abar).reshape(len(y), dim)
            for row, k in enumerate(vis_idx[m]):
                lhs[k] += block
                rhs[k] += contrib[row]
        # C order: the basis below is a view of Wk, and einsum's summation
        # order (so the last bits of every result) follows operand strides.
        Wk = np.empty((K, 3, n_basis + 1))
        Wk[:, :, 0] = mean_pts
        Wk[:, :, 1:] = basis_pts.transpose(1, 2, 0)
        for k in range(K):
            if np.linalg.norm(rhs[k]) == 0.0:
                continue  # landmark never observed: keep
            sol = np.linalg.solve(
                lhs[k] + 1e-12 * np.eye(dim) * max(np.trace(lhs[k]) / dim, 1e-12),
                rhs[k],
            )
            Wk[k] = sol.reshape(3, n_basis + 1)
        mean_pts = Wk[:, :, 0]
        basis = Wk[:, :, 1:].transpose(2, 0, 1).reshape(n_basis, 3 * K)
        basis_pts = basis.reshape(n_basis, K, 3)

        # M-step parts 2 and 3: per-instance pose, then the noise variance.
        poses, noise_var = _pose_noise_step(
            poses, mean_pts, basis_pts, vis_idx, p_vis, mus, Sigs, n_coords,
            refresh_current=True,
        )

        # Parameter-expanded acceleration: fit the coefficient prior
        # covariance, then absorb its Cholesky factor into the basis.  This
        # is an exact reparameterization back to alpha ~ N(0, I), so the
        # observed likelihood cannot decrease, and it removes the classic
        # slow crawl of EM along basis-scale directions.
        if n_basis:
            Gamma = np.zeros((n_basis, n_basis))
            for m in range(M):
                Gamma += Sigs[m] + np.outer(mus[m], mus[m])
            Gamma /= M
            try:
                L = np.linalg.cholesky(Gamma)
                basis = L.T @ basis
            except np.linalg.LinAlgError:
                pass  # degenerate posterior; skip the expansion this round

    # Canonical gauge: drop basis components that per-instance poses absorb
    # to first order (see _weak_family); the likelihood is nearly flat along
    # them, so they are noise-driven if left in.  A short polish phase with
    # the shape frozen then re-settles poses and the noise level; each polish
    # step is a conditional maximization, so it is monotone on its own.
    if n_basis:
        Qw = _weak_family(mean_pts.reshape(-1))
        basis = basis - (basis @ Qw) @ Qw.T
        basis_pts = basis.reshape(n_basis, K, 3)
        last_ll = None
        for _ in range(100):
            mus, Sigs, total_ll = _e_step(mean_pts, basis_pts, poses, vis_idx, p_vis, noise_var)
            if last_ll is not None and _settled(last_ll, total_ll, opts.tol):
                break
            last_ll = total_ll
            poses, noise_var = _pose_noise_step(
                poses, mean_pts, basis_pts, vis_idx, p_vis, mus, Sigs, n_coords,
                refresh_current=False,
            )

    # Remaining gauge moves are exactly likelihood-preserving: center the
    # mean (absorbed into the image offsets) and rotate the basis rows to
    # mutual orthogonality (absorbed into the coefficients).
    centroid = mean_pts.mean(axis=0)
    mean_pts = mean_pts - centroid
    poses = [(c, R, d + c * (R @ centroid)) for (c, R, d) in poses]
    if n_basis:
        # basis' = S V^T from the SVD keeps span and prior (alpha' = U^T alpha
        # is still standard normal), so the likelihood is unchanged.
        _, sv, Vt = np.linalg.svd(basis, full_matrices=False)
        basis = sv[:, None] * Vt
    basis_pts = basis.reshape(n_basis, K, 3)
    model = MorphableModel(mean=mean_pts.reshape(-1), basis=basis)

    # Final posterior pass for the reported coefficients and residuals.
    mus, _, loglik = _e_step(mean_pts, basis_pts, poses, vis_idx, p_vis, noise_var)
    sq_sum = 0.0
    for (c, R, d), vi, p, mu in zip(poses, vis_idx, p_vis, mus):
        r = p - _project_affine(c, R, d, _expected_points(mean_pts[vi], basis_pts[:, vi], mu))
        sq_sum += float(np.sum(r * r))

    return LearnResult(
        model=model,
        poses=[OrthoCamPose(c=c, R=R, t=R.T @ d / c) for c, R, d in poses],
        coeffs=[ShapeCoefficients(alpha=mu) for mu in mus],
        loglik_path=np.array(logliks),
        converged=converged,
        iterations=it,
        noise_var=float(noise_var),
        reproj_rmse=float(np.sqrt(sq_sum / n_coords)),
        used_mask=used,
        loglik=float(loglik),
    )


# ---------------------------------------------------------------------------
# Plain-text model persistence: header "K N", K mean rows, N blocks of K
# basis rows, 17 significant digits.
# ---------------------------------------------------------------------------

def save_model(model: MorphableModel, path) -> None:
    lines = [f"{model.K} {model.n_basis}"]
    for row in model.mean_points():
        lines.append(" ".join(f"{v:.17g}" for v in row))
    for block in model.basis_points():
        for row in block:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MorphableModel:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: truncated model file")
    K, N = int(tokens[0]), int(tokens[1])
    vals = np.array([float(t) for t in tokens[2:]])
    expected = 3 * K * (N + 1)
    if vals.size != expected:
        raise ValueError(
            f"{path}: expected {expected} values for K={K} N={N}, got {vals.size}"
        )
    mean = vals[: 3 * K]
    basis = vals[3 * K :].reshape(N, 3 * K)
    return MorphableModel(mean=mean, basis=basis)
