"""Camera model, box parameterizations, projection, and IoU computations.

Boxes live in a camera frame with X right, Y down, Z forward, so the
gravity axis is camera Y and a ground-resting box has a single yaw
degree of freedom about it.  Scales are kept in log space throughout:
a 2D box stores (w, h) with pixel extents e^w, e^h and a 3D box stores
sigma = (L, H, W) with metric extents e^L, e^H, e^W.  Positivity is
then free and optimizers can treat every variable as unconstrained.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Points closer than this to the image plane are treated as behind the camera.
EPS_Z = 1e-6

# Vertices closer than this are merged during polygon clipping.
_VERTEX_EPS = 1e-9


class BehindCameraError(ValueError):
    """Raised when a point with Z <= EPS_Z is pushed through the projection."""


def require_finite(*values) -> None:
    """Raise ValueError("non-finite value") unless every value is finite.

    Checked ahead of range checks, which a NaN fails with a wrong cause.
    """
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera: focal lengths and principal point, all in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        require_finite(self.fx, self.fy, self.cx, self.cy)
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned 2D box as center translation plus log-scales."""

    tx: float
    ty: float
    w: float  # log of pixel width
    h: float  # log of pixel height

    @property
    def width(self) -> float:
        return float(np.exp(self.w))

    @property
    def height(self) -> float:
        return float(np.exp(self.h))

    def corners(self) -> np.ndarray:
        """(left, top, right, bottom) of the box."""
        hw, hh = 0.5 * self.width, 0.5 * self.height
        return np.array([self.tx - hw, self.ty - hh, self.tx + hw, self.ty + hh])

    @staticmethod
    def from_corners(left: float, top: float, right: float, bottom: float) -> "Box2D":
        require_finite(left, top, right, bottom)
        if not (right > left and bottom > top):
            raise ValueError("degenerate 2D box: need right > left and bottom > top")
        return Box2D(
            tx=0.5 * (left + right),
            ty=0.5 * (top + bottom),
            w=float(np.log(right - left)),
            h=float(np.log(bottom - top)),
        )


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [0, 2*pi)."""
    return float(np.mod(theta, 2.0 * np.pi))


def wrap_pi(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return float(np.mod(theta + np.pi, 2.0 * np.pi) - np.pi)


@dataclass(frozen=True)
class PoseBox3D:
    """Gravity-aligned 3D box: yaw, bottom-face center, and log extents.

    T locates the center of the box's bottom face so that a box resting
    on the ground plane has T on the plane; the body spans Y in
    [-e^H, 0] relative to T before rotation.
    """

    theta: float
    T: np.ndarray  # (3,) meters, camera frame
    sigma: np.ndarray  # (3,) logs of (length, height, width) in meters

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))
        object.__setattr__(self, "T", np.asarray(self.T, dtype=float).reshape(3))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float).reshape(3))

    @property
    def dims(self) -> np.ndarray:
        """Metric extents (length, height, width)."""
        return np.exp(self.sigma)


@dataclass(frozen=True)
class GroundPlane:
    """Plane {X : N.X = 1} for a scaled normal N (units 1/meters)."""

    N: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.N, dtype=float).reshape(3)
        require_finite(*n)
        if not np.linalg.norm(n) > 0:
            raise ValueError("ground plane normal must be nonzero")
        object.__setattr__(self, "N", n)


def rot_y(theta: float) -> np.ndarray:
    """Rotation by theta about the +Y (gravity) axis."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def project(cam: CameraIntrinsics, X: np.ndarray) -> np.ndarray:
    """Central perspective map; accepts a single point or an (n, 3) stack."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    pts = np.atleast_2d(X)
    z = pts[:, 2]
    if np.any(z <= EPS_Z):
        raise BehindCameraError(f"point behind camera: min Z = {z.min():.3g}")
    uv = np.empty((pts.shape[0], 2))
    uv[:, 0] = cam.fx * pts[:, 0] / z + cam.cx
    uv[:, 1] = cam.fy * pts[:, 1] / z + cam.cy
    return uv[0] if single else uv


# Unit-box corners for extents (1, 1, 1): bottom face counterclockwise
# (viewed from above, +Y down) starting at (+L/2, 0, +W/2), then the top
# face in the same order.  Rows are (x, y, z) multipliers of (e^L, e^H, e^W).
UNIT_CORNERS = np.array(
    [
        [+0.5, 0.0, +0.5],
        [-0.5, 0.0, +0.5],
        [-0.5, 0.0, -0.5],
        [+0.5, 0.0, -0.5],
        [+0.5, -1.0, +0.5],
        [-0.5, -1.0, +0.5],
        [-0.5, -1.0, -0.5],
        [+0.5, -1.0, -0.5],
    ]
)


def box3d_corners(pose: PoseBox3D) -> np.ndarray:
    """The 8 corners of the box in camera coordinates, fixed ordering."""
    scaled = UNIT_CORNERS * pose.dims  # per-axis extents
    return scaled @ rot_y(pose.theta).T + pose.T


def project_box3d(cam: CameraIntrinsics, pose: PoseBox3D) -> Box2D:
    """Tight axis-aligned hull of the 8 projected corners, in center/log form."""
    uv = project(cam, box3d_corners(pose))
    left, top = uv.min(axis=0)
    right, bottom = uv.max(axis=0)
    return Box2D.from_corners(left, top, right, bottom)


def iou_2d(a: Box2D, b: Box2D) -> float:
    """Intersection over union of two axis-aligned boxes."""
    al, at, ar, ab = a.corners()
    bl, bt, br, bb = b.corners()
    iw = min(ar, br) - max(al, bl)
    ih = min(ab, bb) - max(at, bt)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    # Areas from the same corner arithmetic so identical boxes give exactly 1.
    union = (ar - al) * (ab - at) + (br - bl) * (bb - bt) - inter
    return float(inter / union)


def footprint(pose: PoseBox3D) -> np.ndarray:
    """Ground-plane rectangle of the box as 4 (x, z) vertices, counterclockwise."""
    corners = box3d_corners(pose)[:4]
    return corners[:, [0, 2]]


def _polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a simple polygon given as (n, 2) vertices."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clipping of a convex subject by a convex clip polygon.

    Both polygons must be counterclockwise.  Returns the intersection
    polygon, possibly empty.
    """
    output = list(subject)
    n = len(clip)
    for i in range(n):
        a = clip[i]
        b = clip[(i + 1) % n]
        edge = b - a
        if not output:
            break
        input_pts = output
        output = []
        # Inside a ccw clip polygon = left of each directed edge (cross >= 0).
        prev = input_pts[-1]
        prev_in = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0]) >= 0.0
        for cur in input_pts:
            cur_in = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0]) >= 0.0
            if cur_in != prev_in:
                # Edge crossing: interpolate the intersection point.
                d = cur - prev
                denom = edge[0] * d[1] - edge[1] * d[0]
                if abs(denom) > 0.0:
                    t = (edge[0] * (a[1] - prev[1]) - edge[1] * (a[0] - prev[0])) / denom
                    output.append(prev + t * d)
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    if not output:
        return np.empty((0, 2))
    # Merge near-coincident vertices introduced by clipping.
    merged = [output[0]]
    for p in output[1:]:
        if np.linalg.norm(p - merged[-1]) > _VERTEX_EPS:
            merged.append(p)
    if len(merged) > 1 and np.linalg.norm(merged[0] - merged[-1]) <= _VERTEX_EPS:
        merged.pop()
    return np.array(merged)


def iou_bev(a: PoseBox3D, b: PoseBox3D) -> float:
    """IoU of the two ground-plane footprints via convex polygon clipping."""
    dims_a, dims_b = a.dims, b.dims
    area_a = dims_a[0] * dims_a[2]
    area_b = dims_b[0] * dims_b[2]
    if area_a <= 0.0 or area_b <= 0.0:
        return 0.0
    inter = _polygon_area(_clip_polygon(footprint(a), footprint(b)))
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


def iou_3d(a: PoseBox3D, b: PoseBox3D) -> float:
    """3D IoU; the vertical axis factorizes since both boxes are gravity-aligned."""
    dims_a, dims_b = a.dims, b.dims
    vol_a = float(np.prod(dims_a))
    vol_b = float(np.prod(dims_b))
    if vol_a <= 0.0 or vol_b <= 0.0:
        return 0.0
    # Vertical spans are [T_y - e^H, T_y] (Y points down, box extends upward).
    y_lo = max(a.T[1] - dims_a[1], b.T[1] - dims_b[1])
    y_hi = min(a.T[1], b.T[1])
    dy = y_hi - y_lo
    if dy <= 0.0:
        return 0.0
    inter_bev = _polygon_area(_clip_polygon(footprint(a), footprint(b)))
    inter = inter_bev * dy
    union = vol_a + vol_b - inter
    if union <= 0.0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


def box_contains(pose: PoseBox3D, X: np.ndarray, atol: float = 1e-9) -> bool:
    """Whether a camera-frame point lies inside the box (inclusive)."""
    local = rot_y(pose.theta).T @ (np.asarray(X, dtype=float) - pose.T)
    L, H, W = pose.dims
    return bool(
        abs(local[0]) <= 0.5 * L + atol
        and -H - atol <= local[1] <= atol
        and abs(local[2]) <= 0.5 * W + atol
    )
