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

The pose step takes no SVD and no LAPACK solve: the nearest
row-orthonormal 2x3 matrix comes in closed form from the 2x2 square-root
identity (_orthonormalize_rows), and the affine optimum from the adjugate
of each 3x3 C_qq, with the determinant expanded from the same cofactors,
where C_qq is well conditioned (_affine_optimum).  Statistics of the fixed
observations (visible centroids, centered landmarks, coordinate counts)
are computed once per learn_em call (_Observed).  The returned model is in
a canonical frame: the sign of each model axis and of each basis row is
fixed by a landmark-indexed rule (_canonical_signs), so the same data give
the same model whatever the order of the instances.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Landmarks per vehicle in the packaged template.
LANDMARK_COUNT = 14

# Noise variance floor (px^2): keeps the likelihood finite on noise-free data.
_MIN_NOISE_VAR = 1e-12

# Instances with fewer visible landmarks are left out of learning.
_MIN_VISIBLE = 6

# A 2x3 polar factor is accepted where det(A A^T) > _POLAR_CUTOFF * tr(A A^T)^2,
# roughly where A's smaller singular value exceeds 1e-3 of its larger one.
# Below that the factor's second row is set by rounding and noise in A, not
# by the data.  Accepted factors are row-orthonormal to 1e-12 or better.
_POLAR_CUTOFF = 1e-6
# C_qq is solved in closed form through its adjugate where det C_qq >
# _SOLVE_CUTOFF * (tr C_qq)^3, which bounds its condition number by
# 1 / _SOLVE_CUTOFF.
_SOLVE_CUTOFF = 1e-6
_IDENTITY_ROWS = np.eye(3)[:2]
# Cyclic successors of the indices 0, 1, 2, which pick a cofactor's entries.
_NEXT1 = np.array([1, 2, 0])
_NEXT2 = np.array([2, 0, 1])


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
class LandmarkObservations:
    """M instances' annotated landmarks, stacked: pixel positions + visibility."""

    uv: np.ndarray  # (M, K, 2)
    visible: np.ndarray  # (M, K) bool

    def __post_init__(self):
        uv, vis = np.asarray(self.uv, dtype=float), np.asarray(self.visible, dtype=bool)
        if vis.ndim != 2 or uv.shape != (*vis.shape, 2):
            raise ValueError("uv must be an (M, K, 2) array and visibility (M, K)")
        object.__setattr__(self, "uv", uv)
        object.__setattr__(self, "visible", vis)


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
    """Shape instance S = mean + sum(alpha_n basis_n) as (K, 3) points, of
    one coefficient row (N,); (n, K, 3) of rows (n, N)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[-1:] != (model.n_basis,):
        raise ValueError(f"expected rows of {model.n_basis} coefficients, got shape {alpha.shape}")
    return (model.mean + alpha @ model.basis).reshape(*alpha.shape[:-1], -1, 3)


def ortho_project(pose: OrthoCamPose, points: np.ndarray) -> np.ndarray:
    """Weak-perspective projection of (K, 3) points to (K, 2) pixels."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return pose.c * (pts + pose.t) @ pose.R.T


@dataclass(frozen=True)
class LearnOptions:
    tol: float = 1e-6  # relative log-likelihood change
    max_iterations: int = 500

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (np.isfinite(self.tol) and self.tol >= 0):  # NaN, inf or < 0: EM misjudges
            raise ValueError("tol must be a non-negative number and finite")


@dataclass
class LearnResult:
    model: MorphableModel
    poses: list  # OrthoCamPose per instance
    coeffs: np.ndarray  # (M, N) posterior-mean coefficients, a row per used instance
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
# Anything derived from P is masked with np.where or np.copyto, never by a
# product with the mask: nan * 0 is nan, so an invisible value would leak.
# ---------------------------------------------------------------------------

class _Observed(NamedTuple):
    """The observations and the statistics that depend on them alone, built
    once per learn_em call (_observe) and read by every EM and polish step."""

    P: np.ndarray  # (M, K, 2), zero where invisible
    vis: np.ndarray  # (M, K) bool
    # ~vis repeated over each landmark's image and model coordinates: a
    # mask spelled out to the array's full shape keeps masking a
    # contiguous pass, where a (M, K, 1) mask broadcast is far slower.
    hidden_uv: np.ndarray  # (M, K, 2) bool
    hidden_xyz: np.ndarray  # (M, K, 3) bool
    n_vis: np.ndarray  # (M, 1) visible landmarks
    pbar: np.ndarray  # (M, 2) visible centroid
    dpT: np.ndarray  # (M, 2, K) P - pbar, zero where invisible, transposed
    n_coords: np.ndarray  # (M,) image coordinates seen: 2 per visible landmark


def _observe(P: np.ndarray, vis: np.ndarray) -> _Observed:
    hidden = ~vis[..., None]
    n_vis = vis.sum(axis=1)[:, None]
    pbar = P.sum(axis=1) / n_vis
    dp = np.where(hidden, 0.0, P - pbar[:, None])
    return _Observed(
        P=P,
        vis=vis,
        hidden_uv=np.repeat(hidden, 2, axis=2),
        hidden_xyz=np.repeat(hidden, 3, axis=2),
        n_vis=n_vis,
        pbar=pbar,
        dpT=np.ascontiguousarray(dp.transpose(0, 2, 1)),
        n_coords=2 * n_vis[:, 0],
    )


def _cross(x, y):
    """Cross product over the last axis of (..., 3) stacks."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    return np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=-1)


def _orthonormalize_rows(A: np.ndarray):
    """Polar factor (A A^T)^(-1/2) A of each 2x3 matrix of a stack, the
    nearest row-orthonormal matrix in Frobenius norm, in closed form:
    (R (..., 2, 3), ok (...,) bool).

    For the 2x2 SPD S = A A^T with d = sqrt(det S), sqrt(S) = (S + d I) /
    sqrt(tr S + 2 d), and its inverse is (adj S + d I) / (d sqrt(tr S + 2 d)).
    With rows a, b of A and n = a x b, det S = |n|^2 and the rows of adj(S) A
    are the triple products b x n and n x a, so

        R = [a + b x n/|n|;  b + n/|n| x a] / sqrt(|a|^2 + |b|^2 + 2 |n|),

    with no cancellation beyond the cross product's own.  ok is false where
    det S <= _POLAR_CUTOFF * (tr S)^2: zero, rank-1 and near-rank-1 matrices,
    and non-finite ones.  Those get the first two rows of the identity, so R
    is always finite and row-orthonormal.
    """
    a, b = A[..., 0, :], A[..., 1, :]
    n = _cross(a, b)
    det = np.sum(n * n, axis=-1)
    tr = np.sum(A * A, axis=(-2, -1))
    ok = det > _POLAR_CUTOFF * tr * tr
    root = np.sqrt(det)
    u = n / np.where(ok, root, 1.0)[..., None]
    R = (A + np.stack([_cross(b, u), _cross(u, a)], axis=-2)) / np.sqrt(
        np.where(ok, tr + 2.0 * root, 1.0)
    )[..., None, None]
    return np.where(ok[..., None, None], R, _IDENTITY_ROWS), ok


def _cofactors(C: np.ndarray):
    """Cofactor matrices and determinants of a stack of 3x3 matrices:
    (cof (M, 3, 3), det (M,)).  cof[i, j] = C[i+1, j+1] C[i+2, j+2] -
    C[i+1, j+2] C[i+2, j+1], indices mod 3, and det expands the first row,
    so C^-1 = cof^T / det."""
    cof = C[:, _NEXT1[:, None], _NEXT1] * C[:, _NEXT2[:, None], _NEXT2]
    cof -= C[:, _NEXT1[:, None], _NEXT2] * C[:, _NEXT2[:, None], _NEXT1]
    return cof, np.sum(C[:, 0] * cof[:, 0], axis=1)


def _affine_optimum(C_pq: np.ndarray, C_qq: np.ndarray) -> np.ndarray:
    """Unconstrained affine optimum A* = C_pq C_qq^+ of each instance, (M, 2, 3).

    Where C_qq is well conditioned (_SOLVE_CUTOFF), A* = C_pq cof / det in
    closed form (_cofactors; C_qq^-T = cof / det); pinv at lstsq's own
    cutoff (3 eps) for the rest, which keeps lstsq's minimum-norm rank
    handling, e.g. for a planar shape.
    """
    cof, det = _cofactors(C_qq)
    well = det > _SOLVE_CUTOFF * np.trace(C_qq, axis1=1, axis2=2) ** 3
    Astar = C_pq @ cof
    Astar /= np.where(well, det, 1.0)[:, None, None]
    if not well.all():
        rest = ~well
        Astar[rest] = (
            np.linalg.pinv(C_qq[rest], rcond=3 * np.finfo(float).eps)
            @ C_pq[rest].transpose(0, 2, 1)
        ).transpose(0, 2, 1)
    return Astar


def _residuals(A, d, pts, P, hidden):
    """p - (A q + d) per landmark, zero where invisible, in the shape of
    pts (..., K, 3) @ A^T (..., 3, 2); d (..., 2), P (..., K, 2) and the
    invisible-coordinate mask hidden (..., K, 2) broadcast against it.
    Built in place, in the order of that formula."""
    r = pts @ np.ascontiguousarray(np.swapaxes(A, -1, -2))
    # the offset as one (..., 2K) row: an add over a 2-wide last axis is slow
    r.reshape(*r.shape[:-2], -1)[...] += np.tile(d, r.shape[-2])
    np.subtract(P, r, out=r)
    np.copyto(r, 0.0, where=hidden)
    return r


def _rigid_init(P, vis):
    """Rank-3 factorization of centered landmarks -> mean shape + poses.

    Missing entries are imputed with the instance's visible centroid
    (zero after centering).  A metric upgrade solves for the symmetric
    Q = G G^T that makes every instance's motion rows equal-norm and
    orthogonal, in least squares.
    """
    M, K, _ = P.shape
    centroids = P.sum(axis=1) / vis.sum(axis=1)[:, None]
    # Mean-imputed after centering: exactly 0.0 where invisible.  A product
    # with the mask would leave -0.0 entries, which change the signs LAPACK
    # picks for the SVD below; the final gauge moves fix the model's frame
    # either way, but not the path EM takes to it.
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
    # An instance whose motion fails the polar cutoff starts from the
    # identity rows; its first pose step replaces them.
    pose = (c, _orthonormalize_rows(motion)[0], centroids)
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


def _e_step(mean_pts, basis_pts, pose, obs, noise_var):
    """Exact Gaussian posterior of every instance's alpha:
    (mu (M, N), Sig (M, N, N), total log-likelihood)."""
    M, K, _ = obs.P.shape
    N = basis_pts.shape[0]
    A = _affine(pose)
    r = _residuals(A, pose[2], mean_pts, obs.P, obs.hidden_uv).reshape(M, 2 * K)
    # The design's transpose, C-contiguous: DesT[m, n, 2k+i] = (A_m basis_n,k)_i,
    # zero where invisible.
    DesT = basis_pts.reshape(N * K, 3) @ np.ascontiguousarray(A.transpose(0, 2, 1))
    np.copyto(DesT.reshape(M, N, K, 2), 0.0, where=obs.hidden_uv[:, None])
    DesT = DesT.reshape(M, N, 2 * K)
    Des = np.ascontiguousarray(DesT.transpose(0, 2, 1))
    Sig = np.linalg.inv(np.eye(N) + DesT @ Des / noise_var)
    mu = (Sig @ (DesT @ r[..., None]))[..., 0] / noise_var
    # r^T (noise_var I + Des Des^T)^-1 r, as |r - Des mu|^2 / noise_var +
    # |mu|^2: the equal form (r.r - mu.Des^T r) / noise_var cancels two
    # terms of order |r|^2 / noise_var, which near the noise floor leaves
    # rounding noise larger than the EM stopping tolerance.
    fit = r - (Des @ mu[..., None])[..., 0]
    quad = np.einsum("mk,mk->m", fit, fit) / noise_var + np.einsum("mn,mn->m", mu, mu)
    _, logdet_sig = np.linalg.slogdet(Sig)
    loglik = -0.5 * (obs.n_coords * np.log(2 * np.pi * noise_var) - logdet_sig + quad)
    return mu, Sig, float(loglik.sum())


def _pose_noise_step(pose, mean_pts, basis_pts, obs, mu, Sig, refresh_current):
    """Conditional M-step for every instance's (c, R, d), then the noise
    variance (floored) at the new poses: the mean expected squared residual
    per image coordinate.

    Candidates are the current pose, then (c, d) refreshed in closed form
    at trial rotations: the current R (only with refresh_current), and the
    polar factors (_orthonormalize_rows) of the cross-covariance and of the
    unconstrained affine optimum (_affine_optimum).  The smallest expected
    squared residual wins, ties going to the first, so the step never
    worsens the expected objective.  No SVD is taken per step unless some
    C_qq is ill conditioned.
    """
    M, K, _ = obs.P.shape
    N = basis_pts.shape[0]
    c, R, d = pose
    Eq = _expected_points(mean_pts, basis_pts, mu)
    qbar = np.einsum("mkj->mj", np.where(obs.hidden_xyz, 0.0, Eq)) / obs.n_vis
    dq = Eq - qbar[:, None]
    np.copyto(dq, 0.0, where=obs.hidden_xyz)
    C_pq = obs.dpT @ dq  # (M, 2, 3)
    # Posterior covariance adds Cov[q_k] = B_k^T Sig B_k per visible point,
    # with B_k the (N, 3) basis rows of landmark k.
    BB = np.einsum("nkj,lkh->knljh", basis_pts, basis_pts).reshape(K, N * N * 9)
    Vq = (Sig.reshape(M, 1, N * N) @ (obs.vis @ BB).reshape(M, N * N, 9)).reshape(M, 3, 3)
    C_qq = np.ascontiguousarray(dq.transpose(0, 2, 1)) @ dq + Vq

    # The projection of the cross-covariance, then that of the unconstrained
    # affine optimum, which accounts for the posterior covariance (C_qq
    # anisotropy) and is usually the strongest candidate.  A target whose
    # polar factor fails the cutoff (zero, rank-1, non-finite) is unusable.
    Rt, usable = _orthonormalize_rows(np.stack([C_pq, _affine_optimum(C_pq, C_qq)], axis=1))
    if refresh_current:
        Rt = np.concatenate([R[:, None], Rt], axis=1)  # (M, T, 2, 3)
        usable = np.concatenate([np.ones((M, 1), dtype=bool), usable], axis=1)
    denom = np.einsum("mtij,mtij->mt", Rt @ C_qq[:, None], Rt)
    ct = np.einsum("mtij,mij->mt", Rt, C_pq) / np.where(denom > 0, denom, np.inf)
    usable &= ct > 1e-12
    dt = obs.pbar[:, None] - ct[..., None] * (Rt @ qbar[:, None, :, None])[..., 0]

    cands = (
        np.concatenate([c[:, None], ct], axis=1),
        np.concatenate([R[:, None], Rt], axis=1),
        np.concatenate([d[:, None], dt], axis=1),
    )
    A = _affine(cands)
    resid = _residuals(A, cands[2], Eq[:, None], obs.P[:, None], obs.hidden_uv[:, None])
    # E||p - A q - d||^2 = squared residual at E[q] + tr(A Vq A^T).
    resid = resid.reshape(M, -1, 2 * K)
    obj = np.einsum("mtk,mtk->mt", resid, resid) + np.einsum("mtij,mtij->mt", A @ Vq[:, None], A)
    obj[:, 1:][~usable] = np.inf
    obj[~np.isfinite(obj)] = np.inf
    best = np.argmin(obj, axis=1)
    rows = np.arange(M)
    new_pose = tuple(arr[rows, best] for arr in cands)
    n_coords = int(obs.n_coords.sum())
    return new_pose, max(float(obj[rows, best].sum()) / n_coords, _MIN_NOISE_VAR)


def _canonical_signs(X: np.ndarray) -> np.ndarray:
    """+1 or -1 per row of X (..., n): the sign of the row's first entry, in
    index order, whose magnitude is at least half the row's largest, so that
    entry is positive after the flip.  A row of zeros gets +1.

    The model's rows are landmark-indexed, so this rule names the same
    landmark on any run that learns the same shape, whatever the frame it
    started in; only a magnitude at exactly half the largest is ambiguous.
    """
    mag = np.abs(X)
    first = np.argmax(mag >= 0.5 * mag.max(axis=-1, keepdims=True), axis=-1)
    lead = np.take_along_axis(X, first[..., None], axis=-1)[..., 0]
    return np.where(lead < 0, -1.0, 1.0)


def _settled(prev, cur, tol):
    """Relative log-likelihood change within tol."""
    return abs(cur - prev) <= tol * max(abs(prev), 1.0)


def learn_em(
    observations,
    n_basis: int,
    opts: LearnOptions | None = None,
) -> LearnResult:
    """Fit the morphable model to stacked 2D landmark annotations by EM.

    Instances with fewer than 6 visible landmarks (_MIN_VISIBLE) are
    excluded (reported via used_mask).  Raises InsufficientDataError when
    fewer than max(3, 10 * n_basis) instances remain, and ValueError when a
    visible landmark is not finite or the fit becomes numerically singular
    (a LAPACK failure or a non-finite result); a returned model is finite.

    The EM loop alternates the E-step with a shape M-step, a pose update
    and a noise update.  A polish phase with the shape frozen then
    re-settles poses and noise.  reproj_rmse is the RMS residual per image
    coordinate at the posterior-mean shapes.
    """
    opts = opts or LearnOptions()
    if n_basis < 0:
        raise ValueError("basis count must be non-negative")
    uv, visible = observations.uv, observations.visible
    if not len(uv):
        raise InsufficientDataError("no instances supplied")
    bad = np.flatnonzero((visible & ~np.isfinite(uv).all(axis=2)).any(axis=1))
    if bad.size:
        raise ValueError(f"instance {bad[0]}: non-finite visible landmark")
    used = visible.sum(axis=1) >= _MIN_VISIBLE
    needed = max(3, 10 * n_basis)
    if int(used.sum()) < needed:
        raise InsufficientDataError(
            f"need at least {needed} instances with >= {_MIN_VISIBLE} "
            f"visible landmarks, have {int(used.sum())}"
        )
    vis = visible[used]
    try:  # an extreme but finite landmark can make LAPACK fail or the fit overflow
        return _fit(np.where(vis[..., None], uv[used], 0.0), vis, used, n_basis, opts)
    except np.linalg.LinAlgError:
        raise ValueError("landmark fit became numerically singular") from None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # an overflow is read as inf
def _fit(P, vis, used, n_basis: int, opts: LearnOptions) -> LearnResult:
    """learn_em on the zero-filled observations P (M, K, 2) of the used
    instances; a non-finite fit raises LinAlgError as LAPACK's failures do."""
    M, K = vis.shape
    observed = _observe(P, vis)

    n_coords = int(observed.n_coords.sum())
    mean_flat, pose = _rigid_init(P, vis)
    mean_pts = mean_flat.reshape(K, 3)

    # Rigid residuals seed both the noise level and the deformation basis.
    c, R, _ = pose
    r2 = _residuals(_affine(pose), pose[2], mean_pts, P, observed.hidden_uv)
    noise_var = max(float(np.sum(r2 * r2)) / max(n_coords, 1), 1e-4)

    basis = np.zeros((n_basis, 3 * K))
    if n_basis > 0:
        # Lift image residuals to model space through the pose pseudo-inverse:
        # (cR)^+ = R^T / c applied row-wise.
        # The SVD is taken of the (3K, M) transpose, whose left singular
        # vectors are the right ones of the centered (M, 3K) residuals.
        resid_shapes = (r2 @ (R / c[:, None, None])).reshape(M, 3 * K)
        U, sv, _ = np.linalg.svd((resid_shapes - resid_shapes.mean(axis=0)).T, full_matrices=False)
        n_avail = min(n_basis, len(sv))
        scale = sv[:n_avail] / np.sqrt(M)
        basis[:n_avail] = U[:, :n_avail].T * scale[:, None]
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
        mu, Sig, total_ll = _e_step(mean_pts, basis_pts, pose, observed, noise_var)
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
        AtA = np.ascontiguousarray(A.transpose(0, 2, 1)) @ A
        # kron(A^T A, G) per instance: entry (i nb + a, j nb + b) is AtA_ij G_ab.
        # Summed over instances in (i, j, a, b) order, then permuted: the
        # same sums, and the permutation moves K rows instead of M.
        outer = (AtA.reshape(M, 9, 1) * G.reshape(M, 1, nb * nb)).reshape(M, dim * dim)
        lhs = (vis.T @ outer).reshape(K, 3, 3, nb, nb).transpose(0, 1, 3, 2, 4).reshape(K, dim, dim)
        # y = p - d, with d tiled to a (M, 2K) row: a contiguous subtraction
        y = (P.reshape(M, 2 * K) - np.tile(pose[2], K)).reshape(M, K, 2)
        Aty = np.where(observed.hidden_xyz, 0.0, y @ A)  # (M, K, 3)
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
            pose, mean_pts, basis_pts, observed, mu, Sig, refresh_current=True,
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
            mu, Sig, total_ll = _e_step(mean_pts, basis_pts, pose, observed, noise_var)
            if last_ll is not None and _settled(last_ll, total_ll, opts.tol):
                break
            last_ll = total_ll
            pose, noise_var = _pose_noise_step(
                pose, mean_pts, basis_pts, observed, mu, Sig, refresh_current=False,
            )
            polish_iterations += 1

    # Remaining gauge moves are exactly likelihood-preserving: center the
    # mean (absorbed into the image offsets), rotate the basis rows to
    # mutual orthogonality (absorbed into the coefficients), and fix the
    # signs of the model axes and of the basis rows.
    centroid = mean_pts.mean(axis=0)
    mean_pts = mean_pts - centroid
    c, R, d = pose
    d = d + c[:, None] * (R @ centroid)
    if n_basis:
        # basis' = S V^T from the SVD keeps span and prior (alpha' = U^T alpha
        # is still standard normal), so the likelihood is unchanged.
        _, sv, Vt = np.linalg.svd(basis, full_matrices=False)
        basis = sv[:, None] * Vt
    # Canonical frame: the factorization in _rigid_init fixes the model axes
    # only up to sign (LAPACK's choice, which the order of the instances can
    # change).  Flipping an axis of the mean, the basis and the matching
    # column of every R leaves each projection unchanged; flipping a basis
    # row is absorbed into its coefficient, whose prior is symmetric.  Both
    # are exact in floating point.
    axes = _canonical_signs(mean_pts.T)
    mean_pts = mean_pts * axes
    pose = (c, R * axes, d)
    basis = (basis.reshape(n_basis, K, 3) * axes).reshape(n_basis, 3 * K)
    basis = basis * _canonical_signs(basis)[:, None]
    basis_pts = basis.reshape(n_basis, K, 3)
    model = MorphableModel(mean=mean_pts.reshape(-1), basis=basis)

    # Final posterior pass for the reported coefficients and residuals.
    mu, _, loglik = _e_step(mean_pts, basis_pts, pose, observed, noise_var)
    r = _residuals(
        _affine(pose), pose[2], _expected_points(mean_pts, basis_pts, mu), P, observed.hidden_uv,
    )

    if not all(np.isfinite(a).all() for a in (*pose, mean_pts, basis, mu, r, noise_var, loglik)):
        raise np.linalg.LinAlgError("non-finite fit")
    return LearnResult(
        model=model,
        poses=[OrthoCamPose(c=float(cm), R=Rm, t=Rm.T @ dm / cm) for cm, Rm, dm in zip(*pose)],
        coeffs=mu,
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

def format_model(model: MorphableModel) -> str:
    """The model as text in the format load_model reads."""
    lines = [f"{model.K} {model.n_basis}"]
    for row in model.mean_points():
        lines.append(" ".join(f"{v:.17g}" for v in row))
    for block in model.basis_points():
        for row in block:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def load_model(path) -> MorphableModel:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            tokens = fh.read().split()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(tokens) < 2:
        raise ValueError(f"{path}: truncated model file")
    header = tokens[:2]
    if not all(t.isdecimal() for t in header) or int(header[0]) < 1:
        raise ValueError(
            f"{path}: bad header '{' '.join(header)}': expected 'K N', "
            "integers with K >= 1 landmarks and N >= 0 basis shapes"
        )
    K, N = int(header[0]), int(header[1])
    vals = np.empty(len(tokens) - 2)
    for i, token in enumerate(tokens[2:]):
        try:
            vals[i] = float(token)
        except ValueError:
            raise ValueError(f"{path}: non-numeric value '{token}'") from None
    if not np.isfinite(vals).all():
        raise ValueError(f"{path}: non-finite value")
    expected = 3 * K * (N + 1)
    if vals.size != expected:
        raise ValueError(
            f"{path}: expected {expected} values for K={K} N={N}, got {vals.size}"
        )
    mean = vals[: 3 * K]
    basis = vals[3 * K :].reshape(N, 3 * K)
    return MorphableModel(mean=mean, basis=basis)
