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

# Instances with fewer visible landmarks are left out of learning.
_MIN_VISIBLE = 6


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

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tol >= 0:  # a NaN or negative tol never stops EM
            raise ValueError("tol must be a non-negative number")


@dataclass
class LearnResult:
    model: MorphableModel
    poses: list  # OrthoCamPose per instance
    coeffs: list  # ShapeCoefficients per instance (posterior means)
    loglik_path: np.ndarray  # per EM-loop iteration
    converged: bool
    iterations: int  # EM-loop iterations
    polish_iterations: int  # pose and noise steps of the polish phase
    noise_var: float
    reproj_rmse: float  # px, RMS per image coordinate
    used_mask: np.ndarray  # which input instances participated
    loglik: float  # log-likelihood of the returned model, poses and noise


# ---------------------------------------------------------------------------
# Internal state of the EM learner, batched over the M used instances.  The
# poses are stacked arrays c (M,), R (M, 2, 3) and d (M, 2), with d the 2D
# image offset; the public OrthoCamPose lifts d back to a 3-vector
# t = R^T d / c, which reproduces the same projection.  The observations are
# P (M, K, 2), zero-filled where invisible, and the (M, K) boolean
# visibility mask vis; every sum over landmarks skips invisible entries.
# Anything derived from P is masked with np.where, never by a product with
# the mask: nan * 0 is nan, so an invisible value would leak.
# ---------------------------------------------------------------------------

def _orthonormalize_rows(A: np.ndarray) -> np.ndarray:
    """Nearest row-orthonormal matrix in Frobenius norm (via SVD), for each
    2x3 matrix of a stack."""
    U, _, Vt = np.linalg.svd(A, full_matrices=False)
    return U @ Vt


def _residuals(A, d, pts, P, vis):
    """p - (A q + d) per landmark, zero where invisible.  A (..., 2, 3) and
    d (..., 2) broadcast against pts (..., K, 3), P (..., K, 2), vis (..., K)."""
    return np.where(vis[..., None], P - (pts @ np.swapaxes(A, -1, -2) + d[..., None, :]), 0.0)


def _rigid_init(P, vis):
    """Rank-3 factorization of centered landmarks -> mean shape + poses.

    Missing entries are imputed with the instance's visible centroid
    (zero after centering).  A metric upgrade solves for the symmetric
    Q = G G^T that makes every instance's motion rows equal-norm and
    orthogonal, in least squares.
    """
    M, K, _ = P.shape
    centroids = P.sum(axis=1) / vis.sum(axis=1)[:, None]
    # Mean-imputed after centering.  A product with the mask would also leave
    # -0.0 entries, which change the signs LAPACK picks for the SVD below
    # (and so the frame of the learned model).
    centered = np.where(vis[..., None], P - centroids[:, None], 0.0)
    D = centered.transpose(0, 2, 1).reshape(2 * M, K)

    U, s, Vt = np.linalg.svd(D, full_matrices=False)
    r = 3
    Mhat = U[:, :r] * np.sqrt(s[:r])
    Shat = (np.sqrt(s[:r])[:, None]) * Vt[:r]

    # Metric upgrade: x Q x^T = y Q y^T, x Q y^T = 0 per instance, plus a
    # scale-fixing row sum(x Q x^T) = M, all linear in the 6 entries of Q.
    def quad_rows(a, b):
        # coefficients of [Q11,Q22,Q33,Q12,Q13,Q23] in a Q b^T, one row per
        # column of the (3, M) operands
        return np.stack(
            [
                a[0] * b[0],
                a[1] * b[1],
                a[2] * b[2],
                a[0] * b[1] + a[1] * b[0],
                a[0] * b[2] + a[2] * b[0],
                a[1] * b[2] + a[2] * b[1],
            ],
            axis=-1,
        )

    x, y = Mhat[0::2].T, Mhat[1::2].T
    xx = quad_rows(x, x)
    rows = np.stack([xx - quad_rows(y, y), quad_rows(x, y)], axis=1).reshape(2 * M, 6)
    rhs = np.zeros(2 * M + 1)
    rhs[-1] = M
    q, *_ = np.linalg.lstsq(np.vstack([rows, xx.sum(axis=0)]), rhs, rcond=None)
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

    motion = (Mhat @ G).reshape(M, 2, 3)
    shape0 = np.linalg.solve(G, Shat)  # (3, K)
    c = np.maximum(np.sqrt(0.5 * np.sum(motion * motion, axis=(1, 2))), 1e-9)
    pose = (c, _orthonormalize_rows(motion), centroids)
    return shape0.T.reshape(-1), pose  # mean as (3K,), landmark-major


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


def _affine(pose):
    c, R, _ = pose
    return c[..., None, None] * R


def _expected_points(mean_pts, basis_pts, mu):
    """E[q] = mean + sum_n mu_n basis_n for every instance: (M, K, 3)."""
    N, K, _ = basis_pts.shape
    return mean_pts + (mu @ basis_pts.reshape(N, 3 * K)).reshape(-1, K, 3)


def _e_step(mean_pts, basis_pts, pose, P, vis, noise_var):
    """Exact Gaussian posterior of every instance's alpha:
    (mu (M, N), Sig (M, N, N), total log-likelihood)."""
    M, K, _ = P.shape
    N = basis_pts.shape[0]
    A = _affine(pose)
    r = _residuals(A, pose[2], mean_pts, P, vis).reshape(M, 2 * K)
    # Design rows Mdes[m, 2k+i, n] = (A_m basis_n,k)_i, zero where invisible.
    Mdes = (basis_pts.reshape(N * K, 3) @ A.transpose(0, 2, 1)).reshape(M, N, K, 2)
    Mdes = (Mdes * vis[:, None, :, None]).transpose(0, 2, 3, 1).reshape(M, 2 * K, N)
    MdesT = Mdes.transpose(0, 2, 1)
    Sig = np.linalg.inv(np.eye(N) + MdesT @ Mdes / noise_var)
    Mt_r = (MdesT @ r[..., None])[..., 0]
    mu = (Sig @ Mt_r[..., None])[..., 0] / noise_var
    quad = (np.sum(r * r, axis=1) - np.sum(Mt_r * mu, axis=1)) / noise_var
    _, logdet_sig = np.linalg.slogdet(Sig)
    n_coords = 2 * vis.sum(axis=1)
    loglik = -0.5 * (n_coords * np.log(2 * np.pi * noise_var) - logdet_sig + quad)
    return mu, Sig, float(loglik.sum())


def _pose_noise_step(pose, mean_pts, basis_pts, P, vis, mu, Sig, n_coords, refresh_current):
    """Conditional M-step for every instance's (c, R, d), then the noise
    variance (floored) at the new poses: the mean expected squared residual
    per image coordinate.

    Candidates are the current pose, then (c, d) refreshed in closed form
    at trial rotations: the current R (only with refresh_current), the SVD
    projection of the cross-covariance, and the projection of the
    unconstrained affine optimum.  The smallest expected squared residual
    wins, ties going to the first, so the step never worsens the expected
    objective.
    """
    M, K, _ = P.shape
    N = basis_pts.shape[0]
    c, R, d = pose
    Eq = _expected_points(mean_pts, basis_pts, mu)
    mask = vis[..., None]
    n_vis = vis.sum(axis=1)[:, None]
    pbar = P.sum(axis=1) / n_vis
    qbar = np.where(mask, Eq, 0.0).sum(axis=1) / n_vis
    dp = np.where(mask, P - pbar[:, None], 0.0)
    dq = np.where(mask, Eq - qbar[:, None], 0.0)
    C_pq = dp.transpose(0, 2, 1) @ dq  # (M, 2, 3)
    # Posterior covariance adds Cov[q_k] = B_k^T Sig B_k per visible point,
    # with B_k the (N, 3) basis rows of landmark k.
    BB = np.einsum("nkj,lkh->knljh", basis_pts, basis_pts).reshape(K, N * N * 9)
    Vq = (Sig.reshape(M, 1, N * N) @ (vis @ BB).reshape(M, N * N, 9)).reshape(M, 3, 3)
    C_qq = dq.transpose(0, 2, 1) @ dq + Vq

    trials, usable = ([R], [np.ones(M, dtype=bool)]) if refresh_current else ([], [])
    has_pq = np.linalg.norm(C_pq, axis=(1, 2)) > 0
    trials.append(_orthonormalize_rows(C_pq))
    usable.append(has_pq)
    # The unconstrained affine optimum accounts for the posterior covariance
    # (C_qq anisotropy); its projection is usually the strongest candidate.
    # pinv at lstsq's own cutoff keeps lstsq's minimum-norm rank handling.
    Astar = np.linalg.pinv(C_qq, rcond=3 * np.finfo(float).eps) @ C_pq.transpose(0, 2, 1)
    ok = has_pq & np.all(np.isfinite(Astar), axis=(1, 2)) & (np.linalg.norm(Astar, axis=(1, 2)) > 0)
    trials.append(_orthonormalize_rows(np.where(ok[:, None, None], Astar.transpose(0, 2, 1), 0.0)))
    usable.append(ok)

    Rt = np.stack(trials, axis=1)  # (M, T, 2, 3)
    denom = np.sum((Rt @ C_qq[:, None]) * Rt, axis=(2, 3))
    ct = np.sum(Rt * C_pq[:, None], axis=(2, 3)) / np.where(denom > 0, denom, np.inf)
    usable = np.stack(usable, axis=1) & (ct > 1e-12)
    dt = pbar[:, None] - ct[..., None] * (Rt @ qbar[:, None, :, None])[..., 0]

    cands = (
        np.concatenate([c[:, None], ct], axis=1),
        np.concatenate([R[:, None], Rt], axis=1),
        np.concatenate([d[:, None], dt], axis=1),
    )
    A = _affine(cands)
    resid = _residuals(A, cands[2], Eq[:, None], P[:, None], vis[:, None])
    # E||p - A q - d||^2 = squared residual at E[q] + tr(A Vq A^T).
    obj = np.sum(resid * resid, axis=(2, 3)) + np.sum((A @ Vq[:, None]) * A, axis=(2, 3))
    obj[:, 1:][~usable] = np.inf
    obj[~np.isfinite(obj)] = np.inf
    best = np.argmin(obj, axis=1)
    rows = np.arange(M)
    new_pose = tuple(arr[rows, best] for arr in cands)
    return new_pose, max(float(obj[rows, best].sum()) / n_coords, _MIN_NOISE_VAR)


def _settled(prev, cur, tol):
    """Relative log-likelihood change within tol."""
    return abs(cur - prev) <= tol * max(abs(prev), 1.0)


def learn_em(
    observations,
    n_basis: int,
    opts: LearnOptions | None = None,
) -> LearnResult:
    """Fit the morphable model to 2D landmark annotations by EM.

    Instances with fewer than 6 visible landmarks (_MIN_VISIBLE) are
    excluded (reported via used_mask).  Raises InsufficientDataError when
    fewer than max(3, 10 * n_basis) instances remain, and ValueError when a
    visible landmark is not finite.

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
    for i, o in enumerate(obs):
        if not np.all(np.isfinite(o.uv[o.visible])):
            raise ValueError(f"instance {i}: non-finite visible landmark")
    used = np.array([o.n_visible >= _MIN_VISIBLE for o in obs])
    needed = max(3, 10 * n_basis)
    if int(used.sum()) < needed:
        raise InsufficientDataError(
            f"need at least {needed} instances with >= {_MIN_VISIBLE} "
            f"visible landmarks, have {int(used.sum())}"
        )
    vis = np.array([o.visible for o in obs])[used]
    P = np.where(vis[..., None], np.array([o.uv for o in obs])[used], 0.0)
    M = len(P)

    n_coords = int(2 * vis.sum())
    mean_flat, pose = _rigid_init(P, vis)
    mean_pts = mean_flat.reshape(K, 3)

    # Rigid residuals seed both the noise level and the deformation basis.
    c, R, _ = pose
    r2 = _residuals(_affine(pose), pose[2], mean_pts, P, vis)
    noise_var = max(float(np.sum(r2 * r2)) / max(n_coords, 1), 1e-4)

    basis = np.zeros((n_basis, 3 * K))
    if n_basis > 0:
        # Lift image residuals to model space through the pose pseudo-inverse:
        # (cR)^+ = R^T / c applied row-wise.
        resid_shapes = (r2 @ (R / c[:, None, None])).reshape(M, 3 * K)
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

    logliks = []
    converged = False
    it = 0
    nb = n_basis + 1
    dim = 3 * nb
    for it in range(1, opts.max_iterations + 1):
        basis_pts = basis.reshape(n_basis, K, 3)
        mu, Sig, total_ll = _e_step(mean_pts, basis_pts, pose, P, vis, noise_var)
        logliks.append(total_ll)
        if len(logliks) > 1 and _settled(logliks[-2], total_ll, opts.tol):
            converged = True
            break

        # M-step part 1: per-landmark shape update (mean and basis jointly).
        # With abar = [1, alpha], G = E[abar abar^T], solve for each landmark
        # the 3x(N+1) block W_k from sum_m (A^T A) W_k G_m = A^T y E[abar]^T,
        # summed over the instances that see landmark k.
        A = _affine(pose)
        abar = np.concatenate([np.ones((M, 1)), mu], axis=1)
        G = abar[:, :, None] * abar[:, None, :]
        G[:, 1:, 1:] += Sig
        AtA = A.transpose(0, 2, 1) @ A
        # kron(A^T A, G) per instance: entry (i nb + a, j nb + b) is AtA_ij G_ab.
        block = np.einsum("mij,mab->miajb", AtA, G).reshape(M, dim * dim)
        lhs = (vis.T @ block).reshape(K, dim, dim)
        Aty = np.where(vis[..., None], (P - pose[2][:, None]) @ A, 0.0)  # (M, K, 3)
        rhs = (Aty.transpose(1, 2, 0) @ abar).reshape(K, dim)
        Wk = np.concatenate([mean_pts[:, :, None], basis_pts.transpose(1, 2, 0)], axis=2)
        seen = np.linalg.norm(rhs, axis=1) != 0.0  # a landmark never observed keeps its rows
        reg = 1e-12 * np.maximum(np.trace(lhs[seen], axis1=1, axis2=2) / dim, 1e-12)
        sol = np.linalg.solve(lhs[seen] + reg[:, None, None] * np.eye(dim), rhs[seen][..., None])
        Wk[seen] = sol.reshape(-1, 3, nb)
        mean_pts = Wk[:, :, 0]
        basis = Wk[:, :, 1:].transpose(2, 0, 1).reshape(n_basis, 3 * K)
        basis_pts = basis.reshape(n_basis, K, 3)

        # M-step parts 2 and 3: every pose, then the noise variance.
        pose, noise_var = _pose_noise_step(
            pose, mean_pts, basis_pts, P, vis, mu, Sig, n_coords, refresh_current=True,
        )

        # Parameter-expanded acceleration: fit the coefficient prior
        # covariance, then absorb its Cholesky factor into the basis.  This
        # is an exact reparameterization back to alpha ~ N(0, I), so the
        # observed likelihood cannot decrease, and it removes the classic
        # slow crawl of EM along basis-scale directions.
        if n_basis:
            Gamma = (Sig.sum(axis=0) + mu.T @ mu) / M
            try:
                L = np.linalg.cholesky(Gamma)
                basis = L.T @ basis
            except np.linalg.LinAlgError:
                pass  # degenerate posterior; skip the expansion this round

    # Canonical gauge: drop basis components that per-instance poses absorb
    # to first order (see _weak_family); the likelihood is nearly flat along
    # them, so they are noise-driven if left in.  This projection does not
    # preserve the likelihood, so the returned model's loglik can end below
    # loglik_path[-1] (seed 7, 8 frames, --basis 2: -1197.81 at the end of
    # the EM loop, -1214.75 returned).  A short polish phase with the shape
    # frozen then re-settles poses and the noise level; each polish step is
    # a conditional maximization, so it is monotone on its own.
    polish_iterations = 0
    if n_basis:
        Qw = _weak_family(mean_pts.reshape(-1))
        basis = basis - (basis @ Qw) @ Qw.T
        basis_pts = basis.reshape(n_basis, K, 3)
        last_ll = None
        for _ in range(100):
            mu, Sig, total_ll = _e_step(mean_pts, basis_pts, pose, P, vis, noise_var)
            if last_ll is not None and _settled(last_ll, total_ll, opts.tol):
                break
            last_ll = total_ll
            pose, noise_var = _pose_noise_step(
                pose, mean_pts, basis_pts, P, vis, mu, Sig, n_coords, refresh_current=False,
            )
            polish_iterations += 1

    # Remaining gauge moves are exactly likelihood-preserving: center the
    # mean (absorbed into the image offsets) and rotate the basis rows to
    # mutual orthogonality (absorbed into the coefficients).
    centroid = mean_pts.mean(axis=0)
    mean_pts = mean_pts - centroid
    c, R, d = pose
    pose = (c, R, d + c[:, None] * (R @ centroid))
    if n_basis:
        # basis' = S V^T from the SVD keeps span and prior (alpha' = U^T alpha
        # is still standard normal), so the likelihood is unchanged.
        _, sv, Vt = np.linalg.svd(basis, full_matrices=False)
        basis = sv[:, None] * Vt
    basis_pts = basis.reshape(n_basis, K, 3)
    model = MorphableModel(mean=mean_pts.reshape(-1), basis=basis)

    # Final posterior pass for the reported coefficients and residuals.
    mu, _, loglik = _e_step(mean_pts, basis_pts, pose, P, vis, noise_var)
    r = _residuals(_affine(pose), pose[2], _expected_points(mean_pts, basis_pts, mu), P, vis)

    return LearnResult(
        model=model,
        poses=[OrthoCamPose(c=float(cm), R=Rm, t=Rm.T @ dm / cm) for cm, Rm, dm in zip(*pose)],
        coeffs=[ShapeCoefficients(alpha=a) for a in mu],
        loglik_path=np.array(logliks),
        converged=converged,
        iterations=it,
        polish_iterations=polish_iterations,
        noise_var=float(noise_var),
        reproj_rmse=float(np.sqrt(np.sum(r * r) / n_coords)),
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
