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
measurements are one MeasurementBlock, the type the file parser and the
generator build; parameters are a (B, D) array; the 8 box corners and K
model landmarks of each instance are one point set, projected once in
closed form; residuals are a (B, m) stack and the Jacobian's transpose a
(B, D, m) stack J^T, each written once, whose row layout depends only on
the config and model sizes (term_rows).  An instance without a crop depth
keeps its depth row, with value and gradient 0, so its depth energy is 0.
No value is reduced across instances, so an instance's rows are
bit-identical whatever block it is evaluated in.  The single-instance
functions (total_energy, stacked_residuals, jacobian) take a one-row block
and read the B=1 case of the same kernel, so a term_rows slice picks a
term's rows out of their vectors as out of block_residuals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .geometry import (
    EPS_Z,
    BehindCameraError,
    PoseBox3D,
    UNIT_CORNERS,
)
from .shape import MorphableModel


# Terms each rung of the ablation ladder turns on.  v1 is initialization
# only (no optimization; handled by the refiner), v2 enables box
# consistency + ground plane, v3 adds landmarks + shape regularity, v4 adds
# measured depth.
RUNG_TERMS = {
    "v1": (),
    "v2": ("2d3d", "gp"),
    "v3": ("2d3d", "gp", "lp", "s"),
    "v4": ("2d3d", "gp", "lp", "s", "md"),
}
ABLATION_VARIANTS = tuple(RUNG_TERMS)


@dataclass(frozen=True)
class EnergyConfig:
    """Term weights and the ablation rung whose terms are enabled.

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
    variant: str = "v4"  # a RUNG_TERMS key

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite")
        if self.variant not in RUNG_TERMS:
            raise ValueError(f"unknown variant {self.variant!r}")


def ablation_config(variant: str, base: EnergyConfig | None = None) -> EnergyConfig:
    """base (default weights when absent) at one rung of the ablation ladder."""
    return replace(base or EnergyConfig(), variant=variant)


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

    def pose(self) -> PoseBox3D:
        return PoseBox3D(theta=self.theta, T=self.T, sigma=self.sigma)


@dataclass(frozen=True, eq=False)
class MeasurementBlock:
    """The 2D pseudo-measurements and hypotheses of B instances of one
    landmark count K, stacked into the arrays the batched kernel reads.

    Instances without a crop depth carry depth 0 and has_depth False; their
    depth row stays in the residual stack with value and gradient zero.
    Boxes are not checked here: an inverted box (right <= left or bottom <=
    top) gives non-finite box rows, so the solver fails that instance.
    block[i] is instance i as a one-row block, block[index] the sub-block a
    slice, mask or index array selects; iterating yields the one-row blocks.
    """

    box: np.ndarray  # (B, 4) measured left, top, right, bottom, as the file holds them
    uv: np.ndarray  # (B, K, 2) landmark pixels
    visible: np.ndarray  # (B, K) bool
    depth: np.ndarray  # (B,) crop depth, 0 where none was measured
    has_depth: np.ndarray  # (B,) bool
    ground: np.ndarray  # (B, 3) ground-plane normals
    cam: np.ndarray  # (B, 4) fx, fy, cx, cy
    theta0: np.ndarray  # (B,) yaw hypotheses
    sigma0: np.ndarray  # (B, 3) log-extent hypotheses

    def __post_init__(self):
        B, K = len(self.box), np.shape(self.visible)[-1]
        for name, dtype, shape in (
            ("box", float, (B, 4)), ("uv", float, (B, K, 2)), ("visible", bool, (B, K)),
            ("depth", float, (B,)), ("has_depth", bool, (B,)), ("ground", float, (B, 3)),
            ("cam", float, (B, 4)), ("theta0", float, (B,)), ("sigma0", float, (B, 3)),
        ):
            value = np.asarray(getattr(self, name), dtype=dtype)
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, not {shape}")
            object.__setattr__(self, name, value)
        shallow = np.flatnonzero(self.has_depth & ~(self.depth > 0))
        if shallow.size:
            raise ValueError(f"i{shallow[0]}: depth hypothesis must be positive")
        stray = np.flatnonzero(~self.has_depth & (self.depth != 0))
        if stray.size:
            raise ValueError(f"i{stray[0]}: depth must be 0 without has_depth")

    def __len__(self) -> int:
        return len(self.box)

    @property
    def K(self) -> int:
        return self.visible.shape[1]

    def __getitem__(self, index) -> "MeasurementBlock":
        rows = [index] if isinstance(index, (int, np.integer)) else index  # an int keeps its axis
        return MeasurementBlock(*(getattr(self, f.name)[rows] for f in fields(self)))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @classmethod
    def concat(cls, blocks) -> "MeasurementBlock":
        """One block of the rows of one or more blocks, in order.  Empty
        blocks are skipped, since an empty frame has no landmark count;
        raises ValueError("inconsistent landmark counts") on a mix."""
        blocks = list(blocks)
        full = [block for block in blocks if len(block)] or blocks[:1]
        if len({block.K for block in full}) > 1:
            raise ValueError("inconsistent landmark counts")
        return cls(*(np.concatenate([getattr(block, f.name) for block in full])
                     for f in fields(cls)))

    def one_row(self, name: str) -> "MeasurementBlock":
        """self, checked to be the one-row block the one-instance function `name` reads."""
        if len(self) != 1:
            raise ValueError(f"{name} takes a one-row MeasurementBlock, not {len(self)} rows")
        return self


# ---------------------------------------------------------------------------
# Batched kernel.  x is a (B, D) stack of parameter vectors.  Both scales form
# one point set: the 8 unit box corners and the K model landmarks (mean shape
# plus alpha times the basis), held as (3, B, n) coordinate planes a scaled by
# exp(sigma).  The yaw rotation and the pinhole projection are in closed form,
#   px = c a0 + s a2,  pz = c a2 - s a0,  (X, Y, Z) = (px, a1, pz) + T,
#   u = fx X / Z + cx,  v = fy Y / Z + cy,
# and so is every pixel derivative column.  Each term writes its rows, scaled
# by sqrt(weight), straight into one (B, D, m) J^T buffer.  Nothing is reduced
# across the instance axis.
# ---------------------------------------------------------------------------

# Scale of the four 2D-box residual components (center u, v in pixels, then
# log width and height).  The log-extent components get a smaller scale: the 2D
# box constrains far-side size only weakly, and full weight lets the solver
# absorb box noise with large size moves.
_BOX_COMPONENT_SCALE = np.array([1.0, 1.0, 0.3, 0.3])


def rowdot(a: np.ndarray) -> np.ndarray:
    """Per-row dot product a[b] . a[b] of a (B, m) stack: the same BLAS
    dot per row as a one-row call, at any B."""
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def _projection_rows(x, block: MeasurementBlock, model: MorphableModel, rows: dict,
                     unweighted, JT) -> np.ndarray:
    """Write the 2D-box and landmark rows named in `rows` ({name: (sqrt
    weight, row slice)}) into unweighted and J^T, and return the (B,) mask
    of instances with a point at a finite depth Z <= EPS_Z, whose values are
    meaningless.  A point that overflows to an infinite or NaN depth is not
    behind the camera; its non-finite values speak for it.

    Both terms read one point set, projected once: the 8 corners for the
    box rows (measured minus projected box as center and log extents, the
    latter from the hull extremes: left/top argmins, right/bottom argmaxes)
    and the K landmarks for the landmark rows (measured minus projected
    pixels, interleaved u, v; the rows of occluded landmarks are zero).
    """
    B, D = x.shape
    box, lp = rows.get("2d3d"), rows.get("lp")
    nb, K = (8 if box else 0), (model.K if lp else 0)
    if lp and D - 7 != model.n_basis:
        raise ValueError("basis count does not match coefficient count")
    dims = np.exp(x[:, 4:7])
    a = np.empty((3, B, nb + K))
    a[:, :, :nb] = UNIT_CORNERS.T[:, None, :]
    if lp:
        basis = model.basis_points().transpose(0, 2, 1)  # (N, 3, K)
        a[:, :, nb:] = model.mean_points().T[:, None, :]
        for k in range(D - 7):
            a[:, :, nb:] += x[:, 7 + k, None] * basis[k][:, None, :]
    a *= dims.T[:, :, None]
    c, s = np.cos(x[:, :1]), np.sin(x[:, :1])
    px, pz = c * a[0] + s * a[2], c * a[2] - s * a[0]
    XY, Z = np.stack([px + x[:, 1:2], a[1] + x[:, 2:3]]), pz + x[:, 3:4]
    f = block.cam.T[:2, :, None]  # (fx, fy)
    uv = f * XY / Z + block.cam.T[2:, :, None]  # (u, v), each (B, n)
    # d(u, v) = g d(X, Y) - gz dZ with g = (fx, fy) / Z and gz = g (X, Y) / Z.
    # Yaw moves (X, Z) by (pz, -px), T moves the point by itself, and
    # sigma_j and alpha move a_j along column j of the rotation:
    # (c, 0, -s), (0, 1, 0), (s, 0, c).
    g = f / Z
    gz = g * (XY / Z)
    behind = np.any(np.isfinite(Z) & (Z <= EPS_Z), axis=1)

    def columns(pts, gain, out):
        """Write gain times d(u, v)/dx of the points `pts` into out, (2, B, D', n)."""
        G, GZ = g[:, :, pts] * gain, gz[:, :, pts] * gain
        k0, k2 = GZ * s, GZ * -c  # the sigma_0 and sigma_2 columns per unit of a_j
        k0[0] += G[0] * c
        k2[0] += G[0] * s
        out[:, :, 0] = GZ * px[:, pts]
        out[0, :, 0] += G[0] * pz[:, pts]
        out[0, :, 1], out[1, :, 2], out[:, :, 3] = G[0], G[1], -GZ
        out[:, :, 4], out[:, :, 6] = k0 * a[0, :, pts], k2 * a[2, :, pts]
        out[1, :, 5] = G[1] * a[1, :, pts]
        if out.shape[2] > 7:  # alpha columns: landmarks of a model with a basis
            np.multiply((k0 * dims[:, :1])[:, :, None], basis[:, 0], out=out[:, :, 7:])
            out[:, :, 7:] += (k2 * dims[:, 2:])[:, :, None] * basis[:, 2]
            out[1, :, 7:] += (G[1] * dims[:, 1:2])[:, None] * basis[:, 1]

    if box:
        w, sl = box
        hull = np.zeros((2, B, 7, 8))  # the u and v columns of every corner
        columns(slice(0, 8), 1.0, hull)
        # hull extremes of the corners: (left, top) at lo, (right, bottom) at hi
        lo, hi = np.argmin(uv[:, :, :8], axis=2), np.argmax(uv[:, :, :8], axis=2)  # (2, B)
        axis, i = np.arange(2)[:, None], np.arange(B)
        near, far = uv[axis, i, lo], uv[axis, i, hi]
        extent = far - near
        m_near, m_far = block.box.T.reshape(2, 2, B)  # measured (left, top), (right, bottom)
        unweighted[:, sl] = _BOX_COMPONENT_SCALE * np.concatenate(
            [0.5 * (m_near + m_far) - 0.5 * (near + far), np.log(m_far - m_near) - np.log(extent)]).T
        # d log(right - left) = (du_r - du_l) / width; the residual sign flips every row
        g_near, g_far = hull[axis, i, :, lo], hull[axis, i, :, hi]  # (2, B, 7)
        d_proj = np.concatenate([0.5 * (g_near + g_far), (g_far - g_near) / extent[..., None]])
        JT[:, :7, sl] = -w * _BOX_COMPONENT_SCALE * d_proj.transpose(1, 2, 0)
    if lp:
        w, sl = lp
        columns(slice(nb, None), np.where(block.visible, -w, 0.0),
                JT[:, :, sl].reshape(B, D, K, 2).transpose(3, 0, 1, 2))
        r_lp = block.uv - uv[:, :, nb:].transpose(1, 2, 0)  # measured minus projected
        unweighted[:, sl] = np.where(block.visible[..., None], r_lp, 0.0).reshape(B, -1)
    return behind


def term_rows(cfg: EnergyConfig, n_landmarks: int, n_alpha: int) -> list:
    """(name, weight, row slice) of every enabled term in stacking order.

    The layout depends on the configuration and model sizes only, never on
    the instance: the depth row is present whenever its term is enabled.
    """
    out, start, enabled = [], 0, RUNG_TERMS[cfg.variant]
    for name, weight, size in (
        ("2d3d", 1.0, 4),
        ("lp", cfg.lambda1, 2 * n_landmarks),
        ("md", cfg.lambda2, 1),
        ("gp", cfg.lambda3, 1),
        ("s", cfg.lambda4, n_alpha),
    ):
        if name in enabled:
            out.append((name, weight, slice(start, start + size)))
            start += size
    return out


class BlockResiduals(NamedTuple):
    r: np.ndarray  # (B, m) residuals scaled by sqrt(weight)
    JT: np.ndarray  # (B, D, m) the transpose of their Jacobian
    unweighted: np.ndarray  # (B, m) the same rows before the sqrt(weight) scaling
    behind: np.ndarray  # (B,) a projected point lies behind the camera


def block_residuals(x, block: MeasurementBlock, model: MorphableModel,
                    cfg: EnergyConfig) -> BlockResiduals:
    """Weighted residual stacks of B instances at the (B, D) points x.

    Row layout follows term_rows.  Beside the projection rows, the terms
    are the signed depth innovation T_z - Z_b (zero without a measured
    depth), ground-plane incidence N.T - 1 (affine in T with gradient
    exactly N) and the coefficients' deviation from the learning prior's
    zero.  Rows of an instance flagged `behind`, or of a point far enough
    out to overflow, are not meaningful; callers mask them out rather than
    stop the block.  A non-empty block of another landmark count than the
    model's raises ValueError at every rung; an empty block projects nothing.
    """
    B, D = x.shape
    if B and block.K != model.K:
        raise ValueError(f"measurement has {block.K} landmarks, the model {model.K}")
    layout = term_rows(cfg, model.K, D - 7)
    m = layout[-1][2].stop if layout else 0
    unweighted, JT, sw = np.zeros((B, m)), np.zeros((B, D, m)), np.zeros(m)
    rows = {name: (np.sqrt(weight), sl) for name, weight, sl in layout}
    for w, sl in rows.values():
        sw[sl] = w
    behind = np.zeros(B, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if B and rows.keys() & {"2d3d", "lp"}:
            behind = _projection_rows(x, block, model, rows, unweighted, JT)
        if "md" in rows:
            w, sl = rows["md"]
            unweighted[:, sl] = np.where(block.has_depth, x[:, 3] - block.depth, 0.0)[:, None]
            JT[:, 3, sl] = (w * block.has_depth)[:, None]
        if "gp" in rows:
            w, sl = rows["gp"]
            unweighted[:, sl] = (block.ground[:, None, :] @ x[:, 1:4, None])[:, 0] - 1.0
            JT[:, 1:4, sl] = (w * block.ground)[:, :, None]
        if "s" in rows:
            w, sl = rows["s"]
            unweighted[:, sl] = x[:, 7:]
            JT[:, 7:, sl] = w * np.eye(D - 7)
    return BlockResiduals(unweighted * sw, JT, unweighted, behind)


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

def _evaluate_one(name, vars, meas, model, cfg):
    res = block_residuals(vars.to_vector()[None, :], meas.one_row(name), model, cfg)
    if res.behind[0]:
        raise BehindCameraError("point behind camera")
    return res


def total_energy(vars: Variables, meas: MeasurementBlock, model: MorphableModel, cfg):
    """Weighted sum of squared residual norms, with a per-term breakdown
    holding every term of the rung (md 0.0 without a measured depth)."""
    res = _evaluate_one("total_energy", vars, meas, model, cfg)
    total, parts = block_energy(res.unweighted, cfg, meas.K, vars.alpha.size)
    return float(total[0]), {name: float(value[0]) for name, value in parts.items()}


def stacked_residuals(vars, meas, model, cfg) -> np.ndarray:
    """All enabled residuals of one instance scaled by sqrt(weight), in
    term_rows layout.

    The stacked vector r satisfies total_energy = r.r, so a least-squares
    step on r minimizes the energy directly.  Without a measured depth the
    depth row is 0.
    """
    return _evaluate_one("stacked_residuals", vars, meas, model, cfg).r[0]


def jacobian(vars, meas, model, cfg) -> np.ndarray:
    """Analytic Jacobian of the stacked weighted residuals of one instance.

    The 2D-box hull is piecewise smooth in the corner positions; at a
    hull-argmax tie this returns the subgradient of the currently active
    corners.
    """
    return _evaluate_one("jacobian", vars, meas, model, cfg).JT[0].T
