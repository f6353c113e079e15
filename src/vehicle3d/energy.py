"""Residuals, weights, and analytic Jacobians for the pose-shape energy.

The total energy is a weighted sum of squared residual norms over five
terms: 2D-box consistency, landmark projection, measured depth, ground
plane, and shape-coefficient regularity.  All terms are expressed as
residual vectors so a least-squares solver can consume them uniformly;
per-term weights multiply squared norms, so residuals are scaled by
sqrt(weight) when stacked.

Optimization variables are (theta, T, sigma, alpha): yaw, bottom-face
center, log box extents, and shape coefficients.  The parameter vector
layout is [theta, T(3), sigma(3), alpha(N)].

The kernel evaluates a block of B instances at once (block_residuals):
parameters are a (B, D) array, points (B, n, 3) stacks, and residuals and
Jacobians (B, m) and (B, m, D) stacks whose row layout depends only on the
config and model sizes (term_rows).  No value is reduced across
instances, so an instance's rows are bit-identical whatever block it is
evaluated in.  The single-instance functions (total_energy,
stacked_residuals, jacobian) are the B=1 case of the same kernel; a
single term's rows are a term_rows slice of block_residuals.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .geometry import (
    EPS_Z,
    BehindCameraError,
    Box2D,
    CameraIntrinsics,
    GroundPlane,
    PoseBox3D,
    require_finite,
    wrap_angle,
    UNIT_CORNERS,
)
from .shape import MorphableModel


@dataclass(frozen=True)
class EnergyConfig:
    """Term weights and toggles.

    Weights multiply squared residual norms.
    """

    # Defaults are calibrated on the synthetic benchmark so that each term
    # contributes at roughly its information content.  Landmark and box
    # residuals are in pixels; depth is in meters, and one meter of depth
    # moves a projection by about (f/z)^2 squared pixels, so lambda2 sits
    # three orders of magnitude below lambda1.  lambda4 approximates the
    # MAP weight 2*sigma_px^2 for unit-variance coefficients.
    lambda1: float = 0.3  # landmark projection
    lambda2: float = 0.001  # measured depth
    lambda3: float = 10.0  # ground plane
    lambda4: float = 8.0  # shape regularity
    enable_2d3d: bool = True
    enable_lp: bool = True
    enable_md: bool = True
    enable_gp: bool = True
    enable_s: bool = True
    # Center of the shape-regularity pull: the within-instance coefficient
    # mean, or the learning prior's zero.
    shape_prior_center: str = "zero"

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.shape_prior_center not in ("instance_mean", "zero"):
            raise ValueError("shape_prior_center must be 'instance_mean' or 'zero'")


ABLATION_VARIANTS = ("v1", "v2", "v3", "v4")


def ablation_config(variant: str, base: EnergyConfig | None = None) -> EnergyConfig:
    """Term toggles for the ablation ladder.

    v1 is initialization-only (no optimization; handled by the refiner),
    v2 enables box consistency + ground plane, v3 adds landmarks + shape
    regularity, v4 adds measured depth.
    """
    base = base or EnergyConfig()
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    on = {
        "v1": (),
        "v2": ("2d3d", "gp"),
        "v3": ("2d3d", "gp", "lp", "s"),
        "v4": ("2d3d", "gp", "lp", "s", "md"),
    }[variant]
    return replace(
        base,
        enable_2d3d="2d3d" in on,
        enable_lp="lp" in on,
        enable_md="md" in on,
        enable_gp="gp" in on,
        enable_s="s" in on,
    )


@dataclass(frozen=True)
class Measurement:
    """Per-instance 2D pseudo-measurements and hypotheses."""

    box2d: Box2D
    landmarks_uv: np.ndarray  # (K, 2) pixels
    landmarks_visible: np.ndarray  # (K,) bool
    theta0: float
    sigma0: np.ndarray  # (3,) log extents hypothesis
    ground: GroundPlane
    cam: CameraIntrinsics
    depth_zb: float | None = None  # crop average depth, meters

    def __post_init__(self):
        uv = np.asarray(self.landmarks_uv, dtype=float).reshape(-1, 2)
        vis = np.asarray(self.landmarks_visible, dtype=bool).reshape(-1)
        if len(uv) != len(vis):
            raise ValueError("landmark uv/visibility length mismatch")
        object.__setattr__(self, "landmarks_uv", uv)
        object.__setattr__(self, "landmarks_visible", vis)
        object.__setattr__(self, "sigma0", np.asarray(self.sigma0, dtype=float).reshape(3))
        if self.depth_zb is not None:
            require_finite(self.depth_zb)
            if not self.depth_zb > 0:
                raise ValueError("depth hypothesis must be positive")

    @property
    def K(self) -> int:
        return len(self.landmarks_visible)


@dataclass(frozen=True)
class Variables:
    """Optimization state; theta is wrapped on read-out, free inside."""

    theta: float
    T: np.ndarray
    sigma: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "T", np.asarray(self.T, dtype=float).reshape(3))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float).reshape(3))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float).reshape(-1))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([[self.theta], self.T, self.sigma, self.alpha])

    @staticmethod
    def from_vector(x: np.ndarray, n_alpha: int) -> "Variables":
        x = np.asarray(x, dtype=float)
        return Variables(
            theta=float(x[0]), T=x[1:4], sigma=x[4:7], alpha=x[7 : 7 + n_alpha]
        )

    def pose(self) -> PoseBox3D:
        return PoseBox3D(theta=wrap_angle(self.theta), T=self.T, sigma=self.sigma)


class MeasurementBlock(NamedTuple):
    """B measurements stacked into arrays for the batched kernel.

    Instances without a crop depth carry depth 0 and has_depth False; their
    depth row stays in the residual stack with value and gradient zero.
    """

    box: np.ndarray  # (B, 4) measured tx, ty, w, h
    uv: np.ndarray  # (B, K, 2) landmark pixels
    visible: np.ndarray  # (B, K) bool
    depth: np.ndarray  # (B,) crop depth, 0 where none was measured
    has_depth: np.ndarray  # (B,) bool
    ground: np.ndarray  # (B, 3) ground-plane normals
    cam: np.ndarray  # (B, 4) fx, fy, cx, cy

    @staticmethod
    def stack(measurements) -> "MeasurementBlock":
        """Stack measurements that share one landmark count."""
        ms = list(measurements)
        B, K = len(ms), (ms[0].K if ms else 0)
        return MeasurementBlock(
            box=np.array([[m.box2d.tx, m.box2d.ty, m.box2d.w, m.box2d.h] for m in ms],
                         dtype=float).reshape(B, 4),
            uv=np.array([m.landmarks_uv for m in ms], dtype=float).reshape(B, K, 2),
            visible=np.array([m.landmarks_visible for m in ms], dtype=bool).reshape(B, K),
            depth=np.array([0.0 if m.depth_zb is None else m.depth_zb for m in ms], dtype=float),
            has_depth=np.array([m.depth_zb is not None for m in ms], dtype=bool),
            ground=np.array([m.ground.N for m in ms], dtype=float).reshape(B, 3),
            cam=np.array([[m.cam.fx, m.cam.fy, m.cam.cx, m.cam.cy] for m in ms],
                         dtype=float).reshape(B, 4),
        )

    def take(self, index) -> "MeasurementBlock":
        """The sub-block of the instances selected by `index`."""
        return MeasurementBlock(*(a[index] for a in self))


# ---------------------------------------------------------------------------
# Batched kernel.  x is a (B, D) stack of parameter vectors.  Corner positions
# are X_i(theta, T, sigma) = R(theta) @ (u_i * exp(sigma)) + T with u_i the unit
# corners; landmark positions use model points instead of u_i plus the
# basis-coefficient dependency.  Every array keeps the instance axis first and
# nothing is reduced across it: products of small matrices go through stacked
# matmul, which runs the same per-instance routine at any B.
# ---------------------------------------------------------------------------

# Scale of the four 2D-box residual components (tx, ty in pixels, then log
# width and height).  The log-extent components get a smaller scale: the 2D
# box constrains far-side size only weakly, and full weight lets the solver
# absorb box noise with large size moves.
_BOX_COMPONENT_SCALE = np.array([1.0, 1.0, 0.3, 0.3])


def rowdot(a: np.ndarray) -> np.ndarray:
    """Per-row dot product a[b] . a[b] of a (B, m) stack: the same BLAS
    dot per row as a one-row call, at any B."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def _camera_points(x, local, basis=None):
    """Camera-frame points (B, n, 3) and their derivatives (B, n, 3, D).

    local: (n, 3) or (B, n, 3) model/unit points to be scaled by exp(sigma).
    basis: optional (N, n, 3) linear dependence of local on alpha; when
    absent the alpha columns are zero (points do not move with alpha).
    """
    B, D = x.shape
    dims = np.exp(x[:, 4:7])
    c, s = np.cos(x[:, 0]), np.sin(x[:, 0])
    zero, one = np.zeros(B), np.ones(B)
    R = np.stack([c, zero, s, zero, one, zero, -s, zero, c], axis=1).reshape(B, 3, 3)
    Rt = R.transpose(0, 2, 1)
    scaled = local * dims[:, None, :]
    X = scaled @ Rt + x[:, None, 1:4]
    dR = np.stack([-s, zero, c, zero, zero, zero, -c, zero, -s], axis=1).reshape(B, 3, 3)
    dX = np.zeros(X.shape + (D,))
    dX[..., 0] = scaled @ dR.transpose(0, 2, 1)
    dX[:, :, 0, 1] = 1.0
    dX[:, :, 1, 2] = 1.0
    dX[:, :, 2, 3] = 1.0
    for j in range(3):
        # d/dsigma_j scales the j-th local coordinate: R[:, j] * p_j * e^s_j.
        dX[..., 4 + j] = (local[..., j] * dims[:, None, j])[:, :, None] * R[:, None, :, j]
    if basis is not None and len(basis):
        moved = (basis * dims[:, None, None, :]) @ Rt[:, None]  # (B, N, n, 3)
        dX[..., 7:] = moved.transpose(0, 2, 3, 1)
    return X, dX


def _project(block: MeasurementBlock, X, dX):
    """Pixels (B, n, 2), their derivatives (B, n, 2, D) and a (B,) mask of
    instances with a point at Z <= EPS_Z, whose values are meaningless.

    The derivatives are written over dX (u and v rows), which saves a
    (B, n, 2, D) temporary per evaluation.
    """
    fx, fy, cx, cy = (block.cam[:, i, None] for i in range(4))
    z = X[..., 2]
    uv = np.empty(X.shape[:2] + (2,))
    uv[..., 0] = fx * X[..., 0] / z + cx
    uv[..., 1] = fy * X[..., 1] / z + cy
    # duv/dX rows: (fx/z, 0, -fx x/z^2), (0, fy/z, -fy y/z^2).
    dX[:, :, 0] *= (fx / z)[..., None]
    dX[:, :, 0] -= (fx * X[..., 0] / z**2)[..., None] * dX[:, :, 2]
    dX[:, :, 1] *= (fy / z)[..., None]
    dX[:, :, 1] -= (fy * X[..., 1] / z**2)[..., None] * dX[:, :, 2]
    return uv, dX[:, :, :2], np.any(z <= EPS_Z, axis=1)


def _box_term(x, block):
    """Measured minus projected 2D box (B, 4), its Jacobian, and the behind mask."""
    X, dX = _camera_points(x, UNIT_CORNERS)
    uv, duv, behind = _project(block, X, dX)
    # hull extremes: left/top are argmins, right/bottom argmaxes of (u, v)
    i_l, i_t = np.argmin(uv, axis=1).T
    i_r, i_b = np.argmax(uv, axis=1).T
    rows = np.arange(len(x))
    left, right = uv[rows, i_l, 0], uv[rows, i_r, 0]
    top, bottom = uv[rows, i_t, 1], uv[rows, i_b, 1]
    proj = np.stack([0.5 * (left + right), 0.5 * (top + bottom),
                     np.log(right - left), np.log(bottom - top)], axis=1)
    r = block.box - proj
    # d log(right-left) = (duv_r - duv_l) / width; residual sign flips it.
    J = np.stack(
        [
            -0.5 * (duv[rows, i_l, 0] + duv[rows, i_r, 0]),
            -0.5 * (duv[rows, i_t, 1] + duv[rows, i_b, 1]),
            -(duv[rows, i_r, 0] - duv[rows, i_l, 0]) / np.exp(proj[:, 2, None]),
            -(duv[rows, i_b, 1] - duv[rows, i_t, 1]) / np.exp(proj[:, 3, None]),
        ],
        axis=1,
    )
    return r, J, behind


def _landmark_term(x, block, model: MorphableModel):
    """Landmark reprojection residuals (B, 2K), interleaved u, v; occluded
    entries are zero.  Returns the Jacobian and the behind mask too."""
    B = len(x)
    N = x.shape[1] - 7
    if N != model.n_basis:
        raise ValueError("basis count does not match coefficient count")
    pts = model.mean_points() + (
        0.0 if N == 0 else (x[:, None, 7:] @ model.basis).reshape(B, model.K, 3)
    )
    X, dX = _camera_points(x, pts, model.basis_points())
    uv, duv, behind = _project(block, X, dX)
    vis = block.visible[..., None]
    r = np.where(vis, block.uv - uv, 0.0).reshape(B, 2 * model.K)
    J = np.where(vis[..., None], np.negative(duv, out=duv), 0.0).reshape(B, 2 * model.K, x.shape[1])
    return r, J, behind


def _depth_term(x, block):
    """Signed depth innovation T_z - Z_b (B, 1); zero without a measured depth."""
    r = np.where(block.has_depth, x[:, 3] - block.depth, 0.0)[:, None]
    J = np.zeros((len(x), 1, x.shape[1]))
    J[:, 0, 3] = block.has_depth
    return r, J


def _ground_term(x, block):
    """Ground-plane incidence N.T - 1 (B, 1); affine in T with gradient exactly N."""
    r = (block.ground[:, None, :] @ x[:, 1:4, None])[:, 0] - 1.0
    J = np.zeros((len(x), 1, x.shape[1]))
    J[:, 0, 1:4] = block.ground
    return r, J


def _shape_term(x, cfg: EnergyConfig):
    """Coefficient deviation from the configured center (B, N)."""
    alpha = x[:, 7:]
    N = alpha.shape[1]
    if cfg.shape_prior_center == "instance_mean" and N:
        r = alpha - np.mean(alpha, axis=1, keepdims=True)
        d_alpha = np.eye(N) - 1.0 / N
    else:
        r = alpha.copy()
        d_alpha = np.eye(N)
    J = np.zeros((len(x), N, x.shape[1]))
    J[:, :, 7:] = d_alpha
    return r, J


def term_rows(cfg: EnergyConfig, n_landmarks: int, n_alpha: int) -> list:
    """(name, weight, row slice) of every enabled term in stacking order.

    The layout depends on the configuration and model sizes only, never on
    the instance: the depth row is present whenever its term is enabled.
    """
    out, start = [], 0
    for name, weight, size, enabled in (
        ("2d3d", 1.0, 4, cfg.enable_2d3d),
        ("lp", cfg.lambda1, 2 * n_landmarks, cfg.enable_lp),
        ("md", cfg.lambda2, 1, cfg.enable_md),
        ("gp", cfg.lambda3, 1, cfg.enable_gp),
        ("s", cfg.lambda4, n_alpha, cfg.enable_s),
    ):
        if enabled:
            out.append((name, weight, slice(start, start + size)))
            start += size
    return out


class BlockResiduals(NamedTuple):
    r: np.ndarray  # (B, m) residuals scaled by sqrt(weight)
    J: np.ndarray  # (B, m, D) their Jacobian
    unweighted: np.ndarray  # (B, m) the same rows before the sqrt(weight) scaling
    behind: np.ndarray  # (B,) a projected point lies behind the camera


def block_residuals(x, block: MeasurementBlock, model: MorphableModel,
                    cfg: EnergyConfig) -> BlockResiduals:
    """Weighted residual stacks of B instances at the (B, D) points x.

    Row layout follows term_rows.  Rows of an instance flagged `behind`, or
    of a point far enough out to overflow, are not meaningful; callers
    mask them out rather than stop the block.
    """
    B, D = x.shape
    behind = np.zeros(B, dtype=bool)
    terms = []  # (weight, residual, jacobian)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for name, weight, _ in term_rows(cfg, model.K, D - 7):
            if name == "2d3d":
                r, J, out = _box_term(x, block)
                r, J = r * _BOX_COMPONENT_SCALE, J * _BOX_COMPONENT_SCALE[:, None]
                behind |= out
            elif name == "lp":
                r, J, out = _landmark_term(x, block, model)
                behind |= out
            elif name == "md":
                r, J = _depth_term(x, block)
            elif name == "gp":
                r, J = _ground_term(x, block)
            else:
                r, J = _shape_term(x, cfg)
            terms.append((weight, r, J))
        if not terms:
            return BlockResiduals(np.zeros((B, 0)), np.zeros((B, 0, D)), np.zeros((B, 0)), behind)
        unweighted = np.concatenate([r for _, r, _ in terms], axis=1)
        sw = np.concatenate([np.full(r.shape[1], np.sqrt(w)) for w, r, _ in terms])
        J = np.concatenate([J for _, _, J in terms], axis=1)
        J *= sw[:, None]
    return BlockResiduals(unweighted * sw, J, unweighted, behind)


def block_energy(unweighted, cfg: EnergyConfig, n_landmarks: int, n_alpha: int):
    """Total energy (B,) and per-term energies {name: (B,)} read from the
    unweighted residual rows of block_residuals."""
    total = 0.0
    parts = {}
    for name, weight, rows in term_rows(cfg, n_landmarks, n_alpha):
        parts[name] = weight * rowdot(unweighted[:, rows])
        total = total + parts[name]
    return np.broadcast_to(total, len(unweighted)), parts


# ---------------------------------------------------------------------------
# Single-instance API: each function is the B=1 case of the kernel above.
# ---------------------------------------------------------------------------

def _evaluate_one(vars, meas, model, cfg):
    res = block_residuals(vars.to_vector()[None, :], MeasurementBlock.stack([meas]), model, cfg)
    if res.behind[0]:
        raise BehindCameraError("point behind camera")
    return res


def total_energy(vars: Variables, meas: Measurement, model: MorphableModel, cfg: EnergyConfig):
    """Weighted sum of squared residual norms, with a per-term breakdown."""
    res = _evaluate_one(vars, meas, model, cfg)
    total, parts = block_energy(res.unweighted, cfg, meas.K, vars.alpha.size)
    if meas.depth_zb is None:
        parts.pop("md", None)
    return float(total[0]), {name: float(value[0]) for name, value in parts.items()}


def stacked_residuals(vars, meas, model, cfg, with_grad: bool = False):
    """All enabled residuals scaled by sqrt(weight), optionally with Jacobian.

    The stacked vector r satisfies total_energy = r.r, so a least-squares
    step on r minimizes the energy directly.  Without a measured depth the
    depth row is left out.
    """
    res = _evaluate_one(vars, meas, model, cfg)
    r, J = res.r[0], res.J[0]
    if meas.depth_zb is None:
        depth_row = [rows.start for name, _, rows in term_rows(cfg, meas.K, vars.alpha.size)
                     if name == "md"]
        r, J = np.delete(r, depth_row), np.delete(J, depth_row, axis=0)
    return (r, J) if with_grad else r


def jacobian(vars, meas, model, cfg) -> np.ndarray:
    """Analytic Jacobian of the stacked weighted residuals.

    The 2D-box hull is piecewise smooth in the corner positions; at a
    hull-argmax tie this returns the subgradient of the currently active
    corners.
    """
    _, J = stacked_residuals(vars, meas, model, cfg, with_grad=True)
    return J
