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

The kernel evaluates a block of B instances at once: measurements are one
MeasurementBlock, the type the file parser and the generator build;
parameters are a (B, D) array; the 8 box corners and K model landmarks of
each instance are one point set, projected once in closed form; residuals
are a (B, m) stack and the Jacobian's transpose a (B, D, m) stack J^T, each
written once, whose row layout depends only on the config and model sizes
(term_rows).  An instance without a crop depth keeps its depth row, with
value and gradient 0, so its depth energy is 0.  No value is reduced across
instances, so an instance's rows are bit-identical whatever block it is
evaluated in.  A KernelPlan holds what the kernel reads of the config and
the model, and the workspaces it writes into, so a solver that evaluates
many points builds them once; block_residuals is one evaluation of a plan
of its own.  The single-instance functions (total_energy,
stacked_residuals, jacobian) take a one-row block and read the B=1 case of
block_residuals, so a term_rows slice picks a term's rows out of their
vectors as out of block_residuals.
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
        shallow = self.has_depth & ~(self.depth > 0)
        if shallow.any():
            raise ValueError(f"i{shallow.argmax()}: depth hypothesis must be positive")
        stray = ~self.has_depth & (self.depth != 0)
        if stray.any():
            raise ValueError(f"i{stray.argmax()}: depth must be 0 without has_depth")

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
# plus alpha times the basis), held as (3, n, B) coordinate planes a scaled by
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


class _Rows(NamedTuple):
    """A block's measurements as a plan's evaluations read them, instance
    axis first; what depends on the plan's weights alone is computed once,
    and a term the rung leaves off reads None."""

    cam: np.ndarray  # (B, 4) fx, fy, cx, cy
    box: np.ndarray | None  # (B, 4) measured box center and log extents
    gain: np.ndarray | None  # (B, n) point gains: 1 per corner, then -sqrt(lambda1) per
    # visible landmark and 0 per hidden one; None without landmarks
    uv: np.ndarray | None  # (B, K, 2) landmark pixels
    visible: np.ndarray | None  # (B, K, 1) bool
    has_depth: np.ndarray | None  # (B,) bool
    depth: np.ndarray | None  # (B,)
    depth_grad: np.ndarray | None  # (B,) sqrt(lambda2) where a depth was measured, else 0
    ground: np.ndarray | None  # (B, 3) ground-plane normals
    ground_grad: np.ndarray | None  # (B, 3) sqrt(lambda3) times the normal

    def take(self, keep) -> "_Rows":
        """The rows a mask or index array selects."""
        return _Rows(*(None if field is None else field[keep] for field in self))


class KernelPlan:
    """What the kernel reads of one configuration and model for (B, D)
    stacks of points, built once, and the workspaces it writes into.

    measure(block) turns a block into the rows evaluate reads; evaluate(x,
    rows) writes the weighted and unweighted residual rows and J^T of the
    points x (term_rows layout) into the plan's workspaces and returns
    views of them, which hold until the plan's next evaluation.  The
    workspaces are sized by the first evaluation and grown only by a wider
    one; a narrower one uses a prefix, each instance's J^T staying one
    contiguous (D, m) block.  Entries no term writes are zero, as in a
    fresh stack.  Both methods leave numpy's floating-point warnings to the
    caller's np.errstate: block_residuals and refine.refine_batch silence
    overflow, invalid values and division by zero.
    """

    def __init__(self, cfg: EnergyConfig, model: MorphableModel, D: int):
        layout = term_rows(cfg, model.K, D - 7)
        self.cfg, self.model_K, self.D = cfg, model.K, D
        self.terms = {name: (np.sqrt(weight), sl) for name, weight, sl in layout}
        self.m = layout[-1][2].stop if layout else 0
        self.sw = np.zeros(self.m)
        for w, sl in self.terms.values():
            self.sw[sl] = w
        box, lp = "2d3d" in self.terms, "lp" in self.terms
        if lp and D - 7 != model.n_basis:
            raise ValueError("basis count does not match coefficient count")
        # the point set: 8 unit corners for the box rows, then the K landmarks
        self.nb, K = (8 if box else 0), (model.K if lp else 0)
        self.template = np.concatenate([UNIT_CORNERS.T[:, :self.nb], model.mean_points().T[:, :K]],
                                       axis=1)[:, :, None]  # (3, n, 1) before alpha and extents
        self.basis = model.basis_points().transpose(0, 2, 1) if lp else None  # (N, 3, K)
        if box:
            self.box_gain = -self.terms["2d3d"][0] * _BOX_COMPONENT_SCALE
        if "s" in self.terms:
            self.shape_grad = self.terms["s"][0] * np.eye(D - 7)
        self.capacity = -1

    def measure(self, block: MeasurementBlock) -> _Rows:
        """The rows of block; a non-empty block of another landmark count
        than the model's raises ValueError."""
        if len(block) and block.K != self.model_K:
            raise ValueError(f"measurement has {block.K} landmarks, the model {self.model_K}")
        terms, B = self.terms, len(block)
        box = gain = uv = visible = has_depth = depth = depth_grad = ground = ground_grad = None
        if "2d3d" in terms:
            m_near, m_far = block.box.T.reshape(2, 2, B)  # measured (left, top), (right, bottom)
            box = np.concatenate([0.5 * (m_near + m_far), np.log(m_far - m_near)]).T
        if "lp" in terms:
            gain = np.where(block.visible, -terms["lp"][0], 0.0)
            gain = np.concatenate([np.ones((B, self.nb)), gain], axis=1)  # a corner's gain is 1
            uv, visible = block.uv, block.visible[..., None]
        if "md" in terms:
            has_depth, depth = block.has_depth, block.depth
            depth_grad = terms["md"][0] * block.has_depth
        if "gp" in terms:
            ground, ground_grad = block.ground, terms["gp"][0] * block.ground
        return _Rows(block.cam, box, gain, uv, visible, has_depth, depth, depth_grad,
                     ground, ground_grad)

    def _grow(self, B: int) -> None:
        D, m, n = self.D, self.m, self.template.shape[1]
        self.unweighted, self.r, self.JT = np.zeros((B, m)), np.zeros((B, m)), np.zeros((B, D, m))
        # the u and v derivative columns of every point, flat so that every
        # width views a contiguous prefix
        self.cols = np.zeros(D * n * 2 * B)
        self.index = np.arange(B)
        self.capacity = B

    def evaluate(self, x, rows: _Rows) -> BlockResiduals:
        """Weighted residual stacks of B instances at the (B, D) points x,
        as views of the workspaces.

        Row layout follows term_rows.  Beside the projection rows, the terms
        are the signed depth innovation T_z - Z_b (zero without a measured
        depth), ground-plane incidence N.T - 1 (affine in T with gradient
        exactly N) and the coefficients' deviation from the learning prior's
        zero.  Rows of an instance flagged `behind`, or of a point far
        enough out to overflow, are not meaningful; callers mask them out
        rather than stop the block.
        """
        B, D = x.shape
        if B > self.capacity:
            self._grow(B)
        unweighted, r, JT, terms = self.unweighted[:B], self.r[:B], self.JT[:B], self.terms
        behind = np.zeros(B, dtype=bool)
        if B and self.template.size:  # a rung with projection rows
            behind = self._project(x, rows, unweighted, JT)
        if "md" in terms:
            sl = terms["md"][1]
            unweighted[:, sl] = np.where(rows.has_depth, x[:, 3] - rows.depth, 0.0)[:, None]
            JT[:, 3, sl] = rows.depth_grad[:, None]
        if "gp" in terms:
            sl = terms["gp"][1]
            unweighted[:, sl] = (rows.ground[:, None, :] @ x[:, 1:4, None])[:, 0] - 1.0
            JT[:, 1:4, sl] = rows.ground_grad[:, :, None]
        if "s" in terms:
            sl = terms["s"][1]
            unweighted[:, sl] = x[:, 7:]
            JT[:, 7:, sl] = self.shape_grad
        np.multiply(unweighted, self.sw, out=r)
        return BlockResiduals(r, JT, unweighted, behind)

    def _project(self, x, rows: _Rows, unweighted, JT) -> np.ndarray:
        """Write the 2D-box and landmark rows of the rung into unweighted
        and J^T, and return the (B,) mask of instances with a point at a
        finite depth Z <= EPS_Z, whose values are meaningless.  A point that
        overflows to an infinite or NaN depth is not behind the camera; its
        non-finite values speak for it.

        Both terms read one point set, projected once, and one pass writes
        the pixel derivative columns of all its points: the 8 corners for
        the box rows (measured minus projected box as center and log
        extents, the latter from the hull extremes: left/top argmins,
        right/bottom argmaxes) and the K landmarks for the landmark rows
        (measured minus projected pixels, interleaved u, v; the rows of
        occluded landmarks are zero).
        """
        B, D = x.shape
        nb, basis, n = self.nb, self.basis, self.template.shape[1]
        # point planes are (n, B): one instance per column, so each operation
        # runs along the instances
        dims = np.exp(x[:, 4:7])
        a = np.empty((3, n, B))
        a[...] = self.template
        if basis is not None:
            landmarks = a[:, nb:]
            for k in range(D - 7):
                landmarks += x[:, 7 + k] * basis[k][:, :, None]
        a *= dims.T[:, None, :]
        c, s = np.cos(x[:, 0]), np.sin(x[:, 0])
        px, pz = c * a[0], c * a[2]
        px += s * a[2]
        pz -= s * a[0]
        XY, Z = np.empty((2, n, B)), pz + x[:, 3]
        np.add(px, x[:, 1], out=XY[0])
        np.add(a[1], x[:, 2], out=XY[1])
        f = rows.cam.T[:2, None, :]  # (fx, fy)
        uv = f * XY  # (u, v), each (n, B)
        uv /= Z
        uv += rows.cam.T[2:, None, :]
        behind = (np.isfinite(Z) & (Z <= EPS_Z)).any(axis=0)
        # d(u, v) = G d(X, Y) - GZ dZ with G = gain (fx, fy) / Z and GZ = G (X, Y) / Z,
        # the gain 1 for a corner and the landmark term's for a landmark.  Yaw
        # moves (X, Z) by (pz, -px), T moves the point by itself, and sigma_j
        # and alpha move a_j along column j of the rotation: (c, 0, -s),
        # (0, 1, 0), (s, 0, c).
        G = f / Z
        GZ = XY / Z
        GZ *= G
        del XY, Z
        if rows.gain is not None:
            G *= rows.gain.T
            GZ *= rows.gain.T
        k0, k2 = GZ * s, GZ * -c  # the sigma_0 and sigma_2 columns per unit of a_j
        k0[0] += G[0] * c
        k2[0] += G[0] * s
        # cols[j] is column j of every point, (n, 2, B): each point's u and v rows
        # side by side, as J^T interleaves them
        cols = self.cols[:2 * D * n * B].reshape(D, n, 2, B)
        planes = cols.transpose(2, 0, 1, 3)  # (2, D, n, B): the u and v planes of every column
        np.multiply(GZ, px, out=planes[:, 0])
        planes[0, 0] += G[0] * pz
        planes[0, 1], planes[1, 2] = G[0], G[1]
        planes[1, 1] = planes[0, 2] = planes[0, 5] = 0.0
        np.negative(GZ, out=planes[:, 3])
        np.multiply(k0, a[0], out=planes[:, 4])
        np.multiply(G[1], a[1], out=planes[1, 5])
        np.multiply(k2, a[2], out=planes[:, 6])
        if basis is not None:  # alpha columns of the landmarks
            alpha = planes[:, 7:, nb:]  # (2, N, K, B)
            np.multiply((k0[:, nb:] * dims[:, 0])[:, None], basis[:, 0, :, None], out=alpha)
            alpha += (k2[:, nb:] * dims[:, 2])[:, None] * basis[:, 2, :, None]
            alpha[1] += (G[1, nb:] * dims[:, 1])[None] * basis[:, 1, :, None]
        del px, pz, G, GZ, k0, k2  # the rows below need only uv and the columns

        if nb:
            sl = self.terms["2d3d"][1]
            # hull extremes of the corners: (left, top) at lo, (right, bottom) at hi
            corners = uv[:, :8]
            lo, hi = corners.argmin(axis=1), corners.argmax(axis=1)  # (2, B)
            axis, i = _AXES, self.index[:B]
            near, far = uv[axis, lo, i], uv[axis, hi, i]
            extent = far - near
            unweighted[:, sl] = _BOX_COMPONENT_SCALE * (
                rows.box - np.concatenate([0.5 * (near + far), np.log(extent)]).T)
            # d log(right - left) = (du_r - du_l) / width; the residual sign flips every row
            g_near, g_far = planes[axis, :7, lo, i], planes[axis, :7, hi, i]  # (2, B, 7)
            box_JT = JT[:, :7, sl].transpose(2, 0, 1)  # (4, B, 7)
            np.multiply(self.box_gain[:2, None, None], 0.5 * (g_near + g_far), out=box_JT[:2])
            np.multiply(self.box_gain[2:, None, None], (g_far - g_near) / extent[..., None],
                        out=box_JT[2:])
        if basis is not None:
            sl = self.terms["lp"][1]
            K = basis.shape[2]
            JT[:, :, sl].reshape(B, D, K, 2)[...] = cols[:, nb:].transpose(3, 0, 1, 2)
            r_lp = rows.uv - uv[:, nb:].transpose(2, 1, 0)  # measured minus projected
            unweighted[:, sl] = np.where(rows.visible, r_lp, 0.0).reshape(B, -1)
        return behind


_AXES = np.arange(2)[:, None]  # the (u, v) axis of a fancy index into (2, ...) planes


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def block_residuals(x, block: MeasurementBlock, model: MorphableModel,
                    cfg: EnergyConfig) -> BlockResiduals:
    """Weighted residual stacks of B instances at the (B, D) points x: the
    one evaluation of a plan of their own (KernelPlan.evaluate), so no later
    call writes over them.  A non-empty block of another landmark count than
    the model's raises ValueError at every rung; an empty block projects
    nothing.
    """
    plan = KernelPlan(cfg, model, x.shape[1])
    return plan.evaluate(x, plan.measure(block))


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
