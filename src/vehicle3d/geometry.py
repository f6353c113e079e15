"""Camera model, box parameterizations, projection, and IoU computations.

A camera is its pinhole row (fx, fy, cx, cy) in pixels and a ground
plane {X : N.X = 1} its scaled normal row N (1/meters): the rows a
MeasurementBlock holds and a measurement file writes.  Boxes live in a
camera frame with X right, Y down, Z forward, so the gravity axis is
camera Y and a ground-resting box has a single yaw degree of freedom
about it.  A 3D box keeps its scales in log space, sigma = (L, H, W)
with metric extents e^L, e^H, e^W, so positivity is free and
optimizers can treat every variable as unconstrained.  A 2D
box is its pixel corners (left, top, right, bottom) as a hull computes
them and files write them; require_span checks that they span a box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Points closer than this to the image plane are treated as behind the camera.
EPS_Z = 1e-6
# The messages of require_finite and require_span, which poses_to_labels reports too.
NON_FINITE = "non-finite value"
DEGENERATE_BOX = "degenerate 2D box: need right > left and bottom > top"


class BehindCameraError(ValueError):
    """Raised when a point with Z <= EPS_Z is pushed through the projection."""


def require_finite(*values) -> None:
    """Raise ValueError(NON_FINITE) unless every value is finite.

    Checked ahead of range checks, which a NaN fails with a wrong cause.
    """
    if not all(map(math.isfinite, values)):
        raise ValueError(NON_FINITE)


def require_span(left: float, top: float, right: float, bottom: float) -> None:
    """Raise ValueError(DEGENERATE_BOX) unless right > left and bottom > top."""
    if not (right > left and bottom > top):
        raise ValueError(DEGENERATE_BOX)


def wrap_angle(theta):
    """Wrap an angle into [0, 2*pi); each angle of an array into an array.
    Twice: one mod rounds a tiny negative angle up to 2*pi itself."""
    wrapped = np.mod(np.mod(theta, 2.0 * np.pi), 2.0 * np.pi)
    return wrapped if isinstance(wrapped, np.ndarray) else float(wrapped)


def wrap_pi(theta):
    """Wrap an angle into [-pi, pi); each angle of an array into an array.
    Through wrap_angle, whose second mod keeps -pi - eps off +pi."""
    return wrap_angle(theta + np.pi) - np.pi


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


def rot_y(theta) -> np.ndarray:
    """Rotation by theta about the +Y (gravity) axis; a stack (..., 3, 3)
    for an array of angles (...)."""
    c, s = np.cos(theta), np.sin(theta)
    zero, one = np.zeros_like(c), np.ones_like(c)
    return np.stack([c, zero, s, zero, one, zero, -s, zero, c], axis=-1).reshape(*np.shape(c), 3, 3)


def project(cam, X) -> np.ndarray:
    """Central perspective map through the camera row (fx, fy, cx, cy) of
    points X (..., 3), any leading shape, to pixels (..., 2); raises
    BehindCameraError if any point has Z <= EPS_Z."""
    fx, fy, cx, cy = cam
    X = np.asarray(X, dtype=float)
    z = X[..., 2]
    if np.any(z <= EPS_Z):
        raise BehindCameraError(f"point behind camera: min Z = {z.min():.3g}")
    return np.stack([fx * X[..., 0] / z + cx, fy * X[..., 1] / z + cy], axis=-1)


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


def place_points(points, theta, T, sigma) -> np.ndarray:
    """Unit-box points, (k, 3) shared or (n, k, 3) one set per box, in
    camera coordinates (n, k, 3) for the n boxes with PoseBox3D fields
    theta (n,), T and sigma (n, 3): scaled per axis by the extents, turned
    by the yaw, then moved by T."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    T = np.asarray(T, dtype=float).reshape(-1, 3)
    dims = np.exp(np.asarray(sigma, dtype=float).reshape(-1, 3))
    return (points * dims[:, None]) @ np.swapaxes(rot_y(theta), 1, 2) + T[:, None]


def box_corners(theta, T, sigma) -> np.ndarray:
    """The 8 corners (n, 8, 3) in camera coordinates, UNIT_CORNERS' order,
    of the n boxes with PoseBox3D fields theta (n,), T and sigma (n, 3)."""
    return place_points(UNIT_CORNERS, theta, T, sigma)


def box2d_ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each pair of axis-aligned boxes (a[p], b[p]), rows (P, 4) of
    (left, top, right, bottom); 0 where the boxes do not overlap."""
    al, at, ar, ab = a.T
    bl, bt, br, bb = b.T
    iw = np.minimum(ar, br) - np.maximum(al, bl)
    ih = np.minimum(ab, bb) - np.maximum(at, bt)
    inter = iw * ih
    # Areas from the same corner arithmetic so identical boxes give exactly 1.
    union = (ar - al) * (ab - at) + (br - bl) * (bb - bt) - inter
    overlap = (iw > 0.0) & (ih > 0.0)
    return np.where(overlap, inter / np.where(overlap, union, 1.0), 0.0)


def iou_2d(a, b) -> float:
    """Intersection over union of two axis-aligned boxes, each (left, top,
    right, bottom): box2d_ious for one pair."""
    return float(box2d_ious(np.asarray(a, dtype=float)[None], np.asarray(b, dtype=float)[None])[0])


class BoxStack(NamedTuple):
    """Stacked gravity-aligned boxes, built by of() from the PoseBox3D
    fields of n boxes: ground footprints (n, 4, 2), the (x, z) columns of
    the bottom corners, counterclockwise, and vertical spans [top, bottom]
    = [T_y - e^H, T_y] (n,) each (Y points down, the box extends upward)."""

    feet: np.ndarray
    top: np.ndarray
    bottom: np.ndarray

    @classmethod
    def of(cls, theta, T, sigma) -> "BoxStack":
        feet = box_corners(theta, T, sigma)[:, :4]  # the bottom face
        T = np.asarray(T, dtype=float).reshape(-1, 3)
        height = np.exp(np.asarray(sigma, dtype=float).reshape(-1, 3)[:, 1])
        return cls(feet[:, :, [0, 2]], T[:, 1] - height, T[:, 1])


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
    boxes = BoxStack.of([a.theta, b.theta], [a.T, b.T], [a.sigma, b.sigma])
    return float(box_ious(boxes, [0], [1])[1][0])


def iou_3d(a: PoseBox3D, b: PoseBox3D) -> float:
    """3D IoU of two gravity-aligned boxes: box_ious for one pair."""
    boxes = BoxStack.of([a.theta, b.theta], [a.T, b.T], [a.sigma, b.sigma])
    return float(box_ious(boxes, [0], [1])[0][0])
