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
from typing import NamedTuple

import numpy as np

# Points closer than this to the image plane are treated as behind the camera.
EPS_Z = 1e-6


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


class BoxStack(NamedTuple):
    """Stacked gravity-aligned boxes: ground footprints (n, 4, 2) as
    footprint() gives them, and vertical spans [top, bottom] = [T_y - e^H,
    T_y] (n,) each (Y points down, the box extends upward)."""

    feet: np.ndarray
    top: np.ndarray
    bottom: np.ndarray

    @classmethod
    def of(cls, poses) -> "BoxStack":
        theta = np.array([pose.theta for pose in poses], dtype=float)
        T = np.array([pose.T for pose in poses], dtype=float).reshape(-1, 3)
        dims = np.exp(np.array([pose.sigma for pose in poses], dtype=float).reshape(-1, 3))
        c, s, zero = np.cos(theta), np.sin(theta), np.zeros_like(theta)
        # rot_y(theta).T per pose, so each footprint equals box3d_corners' own
        rot_t = np.stack([c, zero, -s, zero, zero + 1.0, zero, s, zero, c], axis=1)
        feet = (UNIT_CORNERS[:4] * dims[:, None]) @ rot_t.reshape(-1, 3, 3) + T[:, None]
        return cls(feet[:, :, [0, 2]], T[:, 1] - dims[:, 1], T[:, 1])


def footprint(pose: PoseBox3D) -> np.ndarray:
    """Ground-plane rectangle of the box as 4 (x, z) vertices, counterclockwise."""
    return BoxStack.of([pose]).feet[0]


def _clip(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clipping of P convex ccw polygons (P, n, 2) by P
    others, one clip edge at a time over all rows: the intersections as rows
    (P, m, 2), each padded with copies of its last vertex."""
    P, rows = len(subject), np.arange(len(subject))[:, None]
    poly, count = subject, np.full(P, subject.shape[1])
    for e in range(clip.shape[1]):
        a = clip[:, e, None]
        ex, ey = np.moveaxis(clip[:, (e + 1) % clip.shape[1], None] - a, -1, 0)
        # Inside a ccw clip polygon = left of each directed edge (cross >= 0).
        side = ex * (poly[..., 1] - a[..., 1]) - ey * (poly[..., 0] - a[..., 0])
        prev = np.roll(poly, 1, axis=1)  # cyclic within each row, given the padding
        d = poly - prev
        denom = ex * d[..., 1] - ey * d[..., 0]
        t = -np.roll(side, 1, axis=1) / np.where(denom == 0.0, 1.0, denom)
        valid = np.arange(poly.shape[1]) < count[:, None]
        # Each vertex emits the crossing into it, if any, then itself if inside.
        inside = side >= 0.0
        emit = np.stack([valid & (inside != np.roll(inside, 1, axis=1)) & (denom != 0.0),
                         valid & inside], axis=2).reshape(P, 2 * poly.shape[1])
        points = np.stack([prev + t[..., None] * d, poly], axis=2).reshape(P, 2 * poly.shape[1], 2)
        count = emit.sum(axis=1)
        slots = np.minimum(np.arange(count.max(initial=0)), count[:, None] - 1)
        poly = points[rows, np.argsort(~emit, axis=1, kind="stable")[rows, slots]]
    return poly


def _area(poly: np.ndarray) -> np.ndarray:
    """Shoelace areas of polygon rows (P, n, 2) that may repeat vertices;
    exactly 0 for a row with fewer than 3 distinct vertices."""
    step = poly - np.roll(poly, 1, axis=1)
    distinct = ((step * step).sum(axis=2) > 1e-18).sum(axis=1)  # 1e-9 apart counts as one
    # About the first vertex (less cancellation); repeats add exact zeros,
    # summed column by column, so a row's sum ignores the batch's width.
    rel = poly - poly[:, :1]
    cross = rel[:, :-1, 0] * rel[:, 1:, 1] - rel[:, :-1, 1] * rel[:, 1:, 0]
    return np.where(distinct >= 3, 0.5 * np.abs(sum(cross.T, np.zeros(len(poly)))), 0.0)


def _ratio(inter, size_a, size_b) -> np.ndarray:
    """inter / union clamped to [0, 1]; 0 unless both sizes and the union are positive."""
    union = size_a + size_b - inter
    ok = (size_a > 0.0) & (size_b > 0.0) & (union > 0.0)
    return np.where(ok, np.clip(inter / np.where(ok, union, 1.0), 0.0, 1.0), 0.0)


def box_ious(boxes: BoxStack, i, j) -> tuple[np.ndarray, np.ndarray]:
    """(3D IoU, BEV IoU) of each pair (boxes[i[p]], boxes[j[p]]) from one
    footprint clip: BEV from the overlap area, 3D from it times the vertical
    overlap; sizes use the same arithmetic, so identical boxes give exactly 1."""
    area = _area(boxes.feet)
    volume = area * (boxes.bottom - boxes.top)
    inter = _area(_clip(boxes.feet[i], boxes.feet[j]))
    dy = np.minimum(boxes.bottom[i], boxes.bottom[j]) - np.maximum(boxes.top[i], boxes.top[j])
    return (_ratio(inter * np.maximum(dy, 0.0), volume[i], volume[j]),
            _ratio(inter, area[i], area[j]))


def iou_bev(a: PoseBox3D, b: PoseBox3D) -> float:
    """IoU of the two ground-plane footprints: box_ious for one pair."""
    return float(box_ious(BoxStack.of([a, b]), [0], [1])[1][0])


def iou_3d(a: PoseBox3D, b: PoseBox3D) -> float:
    """3D IoU of two gravity-aligned boxes: box_ious for one pair."""
    return float(box_ious(BoxStack.of([a, b]), [0], [1])[0][0])
