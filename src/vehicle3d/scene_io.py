"""Synthetic scenes, label-file text I/O, and run configuration.

The generator stands in for learned detectors: it samples ground-truth
poses on the ground plane, then renders exact pseudo-measurements by
forward projection and perturbs them per a noise specification, in array
passes over a chunk of frames.  Each instance's noise variates are drawn
in a fixed order and always drawn, then scaled, so a fixed seed yields
the same underlying scene realization at every noise level.

Labels use the standard 15/16-token object text format (type, truncation,
occlusion, observation angle, 2D box, dimensions, location, yaw, optional
score), one object per line.
Measurement files hold one frame's camera, ground plane and per-instance
pseudo-measurements as `key = value` lines, read and written, like the
generator's output, as one MeasurementBlock per frame; the block holds
each 2D box as the corners the file writes, so parse and emit are exact.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import accumulate, compress, islice

import numpy as np

from .energy import MeasurementBlock
from .geometry import (
    DEGENERATE_BOX,
    EPS_Z,
    NON_FINITE,
    PoseBox3D,
    box_corners,
    place_points,
    project,
    require_finite,
    require_span,
    rot_y,
    wrap_angle,
    wrap_pi,
)
from .shape import LANDMARK_COUNT, MorphableModel, instantiate

KITTI_CAMERA = (721.5, 721.5, 609.6, 172.9)  # (fx, fy, cx, cy)
FLAT_GROUND = (0.0, 1.0 / 1.65, 0.0)  # normal N of the plane {X : N.X = 1}
IMAGE_SIZE = (1242, 375)

# ---------------------------------------------------------------------------
# Car wireframe template: 14 landmarks in unit-box coordinates
# (x forward along length, y down with the roof at -1, z toward the left).
# Order: 4 wheels, 2 headlights, 2 taillights, 2 windshield-top corners,
# 2 rear-window-top corners, 2 mirrors; left before right within each pair.
# ---------------------------------------------------------------------------

_TEMPLATE_POINTS = np.array(
    [
        [0.32, -0.04, 0.40],    # front-left wheel
        [0.32, -0.04, -0.40],   # front-right wheel
        [-0.32, -0.04, 0.40],   # rear-left wheel
        [-0.32, -0.04, -0.40],  # rear-right wheel
        [0.45, -0.35, 0.35],    # left headlight
        [0.45, -0.35, -0.35],   # right headlight
        [-0.45, -0.38, 0.38],   # left taillight
        [-0.45, -0.38, -0.38],  # right taillight
        [0.08, -0.94, 0.30],    # windshield top left
        [0.08, -0.94, -0.30],   # windshield top right
        [-0.22, -0.92, 0.30],   # rear-window top left
        [-0.22, -0.92, -0.30],  # rear-window top right
        [0.15, -0.55, 0.49],    # left mirror
        [0.15, -0.55, -0.49],   # right mirror
    ]
)

_TEMPLATE_BASIS = np.zeros((2, LANDMARK_COUNT, 3))
# overhang / wheelbase stretch
_TEMPLATE_BASIS[0, 0:2, 0] = 0.010
_TEMPLATE_BASIS[0, 2:4, 0] = -0.010
_TEMPLATE_BASIS[0, 4:6, 0] = 0.015
_TEMPLATE_BASIS[0, 6:8, 0] = -0.015
_TEMPLATE_BASIS[0, 8:10, 0] = 0.008
_TEMPLATE_BASIS[0, 10:12, 0] = -0.008
_TEMPLATE_BASIS[0, 12:14, 0] = 0.005
# cabin height
_TEMPLATE_BASIS[1, 8:12, 1] = -0.015
_TEMPLATE_BASIS[1, 12:14, 1] = -0.008
_TEMPLATE_BASIS[1, 4:8, 1] = 0.004

CAR_MODEL = MorphableModel(
    mean=_TEMPLATE_POINTS.reshape(-1), basis=_TEMPLATE_BASIS.reshape(2, -1)
)

# Per-landmark visibility as open intervals (lo, hi) of the camera azimuth
# in the object frame (psi = atan2 of the object-to-camera direction,
# measured from the forward axis toward the left), two per landmark with
# the empty (0, 0) as padding.  Side points see half the circle, lights
# see their side plus their end, roof corners always.
_NONE = (0.0, 0.0)
_FULL = ((-np.pi, np.pi), _NONE)
_LEFT = ((0.0, np.pi), _NONE)
_RIGHT = ((-np.pi, 0.0), _NONE)
VISIBILITY_INTERVALS = np.array([
    _LEFT,                                 # front-left wheel
    _RIGHT,                                # front-right wheel
    _LEFT,                                 # rear-left wheel
    _RIGHT,                                # rear-right wheel
    ((-np.pi / 2, np.pi), _NONE),          # left headlight: front or left
    ((-np.pi, np.pi / 2), _NONE),          # right headlight: front or right
    ((0.0, np.pi), (-np.pi, -np.pi / 2)),  # left taillight: rear or left
    ((-np.pi, 0.0), (np.pi / 2, np.pi)),   # right taillight: rear or right
    _FULL,                                 # windshield top left
    _FULL,                                 # windshield top right
    _FULL,                                 # rear-window top left
    _FULL,                                 # rear-window top right
    _LEFT,                                 # left mirror
    _RIGHT,                                # right mirror
])  # (LANDMARK_COUNT, 2, 2)
# At the branch cut psi = +-pi a landmark faces the camera when its arcs
# wrap through it: one interval ends at pi and another starts at -pi.
_SEEN_AT_BRANCH_CUT = ((VISIBILITY_INTERVALS[..., 1] == np.pi).any(axis=1)
                       & (VISIBILITY_INTERVALS[..., 0] == -np.pi).any(axis=1))


def self_occlusion_masks(theta, T) -> np.ndarray:
    """(n, LANDMARK_COUNT) flags, True for the landmarks that face the
    camera per VISIBILITY_INTERVALS, of the n poses with yaw theta (n,) and
    location T (n, 3)."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    d = -np.asarray(T, dtype=float).reshape(-1, 1, 3) @ rot_y(theta)  # camera in the object frame
    psi = np.arctan2(d[..., 2], d[..., 0])  # (n, 1)
    lo, hi = VISIBILITY_INTERVALS[..., 0], VISIBILITY_INTERVALS[..., 1]
    inside = ((lo < psi[..., None]) & (psi[..., None] < hi)).any(axis=2)
    return np.where(np.abs(psi) == np.pi, _SEEN_AT_BRANCH_CUT, inside)


# ---------------------------------------------------------------------------
# Label records
# ---------------------------------------------------------------------------

_OCCLUSION_CODES = (-1, 0, 1, 2, 3)


@dataclass(frozen=True)
class LabelRecord:
    """One object line: geometry in camera coordinates, box in pixels.

    `-1` marks unknown truncation/occlusion (detections, don't-care regions).
    Construction checks, in this order: arity, every value finite (one pass),
    the box's span (require_span), the occlusion code and the truncation.
    """

    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox: tuple  # (left, top, right, bottom)
    dimensions: tuple  # (height, width, length) meters
    location: tuple  # (x, y, z) bottom-center, camera frame
    rotation_y: float
    score: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "bbox", tuple(map(float, self.bbox)))
        object.__setattr__(self, "dimensions", tuple(map(float, self.dimensions)))
        object.__setattr__(self, "location", tuple(map(float, self.location)))
        if len(self.bbox) != 4 or len(self.dimensions) != 3 or len(self.location) != 3:
            raise ValueError("bbox/dimensions/location arity is 4/3/3")
        require_finite(*self.bbox, *self.dimensions, *self.location, self.rotation_y,
                       self.alpha, self.truncated, 0.0 if self.score is None else self.score)
        require_span(*self.bbox)
        if self.occluded not in _OCCLUSION_CODES:
            raise ValueError(f"occlusion code {self.occluded} outside {-1}..3")
        if not (self.truncated == -1.0 or 0.0 <= self.truncated <= 1.0):
            raise ValueError("truncation must be in [0, 1] or the unknown marker -1")


class LabelFormatError(ValueError):
    """Malformed label text; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_labels(text: str) -> list:
    """Parse whitespace-delimited object lines (15 tokens, 16 with score)."""
    records = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (15, 16):
            raise LabelFormatError(
                line_number, f"expected 15 or 16 fields, found {len(tokens)}"
            )
        try:
            values = list(map(float, tokens[1:]))
        except ValueError as err:
            raise LabelFormatError(line_number, f"non-numeric field: {err}") from None
        occ_f = values[1]
        try:
            require_finite(occ_f)
            if occ_f != int(occ_f):
                raise ValueError(f"occlusion code {occ_f} is not integral")
            records.append(
                LabelRecord(
                    type=tokens[0],
                    truncated=values[0],
                    occluded=int(occ_f),
                    alpha=values[2],
                    bbox=tuple(values[3:7]),
                    dimensions=tuple(values[7:10]),
                    location=tuple(values[10:13]),
                    rotation_y=values[13],
                    score=values[14] if len(values) == 15 else None,
                )
            )
        except ValueError as err:
            raise LabelFormatError(line_number, str(err)) from None
    return records


# A label line: type, truncation, occlusion code, 12 fixed-point fields, score.
_LINE = "%s %.6f %d" + " %.6f" * 12
_SCORED_LINE = _LINE + " %.6f"


def emit_labels(records) -> str:
    """Fixed-point text with 6 decimals; score-sorted when all records
    carry scores (descending, stable)."""
    records = list(records)
    if records and all(r.score is not None for r in records):
        records.sort(key=lambda r: -r.score)
    lines = []
    for r in records:
        fields = (r.type, r.truncated, r.occluded, r.alpha, *r.bbox, *r.dimensions, *r.location,
                  r.rotation_y)
        lines.append(_LINE % fields if r.score is None else _SCORED_LINE % (*fields, r.score))
    return "\n".join(lines) + ("\n" if lines else "")


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # failed poses go unread
def _hulls(theta, T, sigma, cams) -> tuple:
    """(lo, hi, error) of n poses, the package's one hull rule: the (left,
    top) and (right, bottom) corners (n, 2) of each box's projected hull
    through its camera row, and error (n,) as poses_to_labels reports it."""
    X = box_corners(theta, T, sigma)
    fx, fy, cx, cy = cams.T
    z = X[..., 2]
    uv = np.stack([fx[:, None] * X[..., 0] / z + cx[:, None],
                   fy[:, None] * X[..., 1] / z + cy[:, None]], axis=2)
    lo, hi = uv.min(axis=1), uv.max(axis=1)
    finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
    error = np.full(len(z), None, dtype=object)  # in reverse precedence
    error[~(hi > lo).all(axis=1)] = "box has no valid image box: " + DEGENERATE_BOX
    error[~finite] = "box has no valid image box: " + NON_FINITE
    error[(z <= EPS_Z).any(axis=1)] = "box projects behind the camera"
    return lo, hi, error


def poses_to_labels(theta, T, sigma, cams, scores=None, truncated=None, occluded=None) -> tuple:
    """(records, error) of n poses.  error (n,) holds None, or why a pose
    has no label: "box projects behind the camera" when a box corner lies
    at Z <= EPS_Z, else "box has no valid image box: " and the
    require_finite or require_span message of a projected hull that is no
    box.  records holds a "Car" per None row, in row order.

    theta (n,), T (n, 3) and sigma (n, 3) are PoseBox3D fields, theta
    wrapped as PoseBox3D wraps it; cams holds each pose's camera as a row
    (fx, fy, cx, cy), the form a MeasurementBlock holds, scores each
    record's score (all None when scores is None), and truncated and
    occluded each record's truncation and occlusion code (all the unknown
    -1 when None); other row counts, or a value LabelRecord refuses, raise
    ValueError.  Yaw maps to rotation_y with no offset, the stored box is
    the projected hull as computed, and the observation angle folds out
    the bearing.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    T = np.asarray(T, dtype=float).reshape(-1, 3)
    sigma = np.asarray(sigma, dtype=float).reshape(-1, 3)
    cams = np.asarray(cams, dtype=float).reshape(-1, 4)
    n = len(theta)
    scores = np.array([None] * n if scores is None else scores, dtype=object)
    truncated = np.array([-1.0] * n if truncated is None else truncated, dtype=object)
    occluded = np.array([-1] * n if occluded is None else occluded, dtype=object)
    for name, rows in (("T", T), ("sigma", sigma), ("cams", cams), ("scores", scores),
                       ("truncated", truncated), ("occluded", occluded)):
        if len(rows) != n:
            raise ValueError(f"theta has {n} rows but {name} has {len(rows)}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # failed poses go unread
        theta = wrap_angle(theta)
        dims = np.exp(sigma)  # (length, height, width)
        lo, hi, error = _hulls(theta, T, sigma, cams)
        ry = wrap_pi(theta)
        alpha = wrap_pi(ry - np.arctan2(T[:, 0], T[:, 2]))
    keep = np.equal(error, None)
    fields = zip(np.hstack([lo, hi])[keep].tolist(), dims[keep][:, [1, 2, 0]].tolist(),
                 T[keep].tolist(), ry[keep].tolist(), alpha[keep].tolist(), scores[keep],
                 truncated[keep], occluded[keep])
    records = [LabelRecord(type="Car", truncated=trunc, occluded=occ, alpha=obs, bbox=bbox,
                           dimensions=dimensions, location=location, rotation_y=rotation_y,
                           score=score)
               for bbox, dimensions, location, rotation_y, obs, score, trunc, occ in fields]
    return records, error


def pose_to_label(pose: PoseBox3D, cam, score: float | None = None) -> LabelRecord:
    """One pose's record under camera row cam: poses_to_labels for n = 1, its error raised."""
    records, error = poses_to_labels([pose.theta], [pose.T], [pose.sigma], [cam], [score])
    if error[0] is not None:
        raise ValueError(error[0])
    return records[0]


def label_pose_fields(records) -> tuple:
    """PoseBox3D fields of n records: yaw (n,), location and log extents
    (n, 3), yaw wrapped as PoseBox3D wraps it."""
    dims = np.array([rec.dimensions for rec in records], dtype=float).reshape(-1, 3)
    if (dims <= 0).any():
        raise ValueError("dimensions must be positive to form a pose")
    theta = wrap_angle(np.array([rec.rotation_y for rec in records], dtype=float))
    T = np.array([rec.location for rec in records], dtype=float).reshape(-1, 3)
    return theta, T, np.log(dims[:, [2, 0, 1]])


def label_to_pose(record: LabelRecord) -> PoseBox3D:
    """The pose of one record: label_pose_fields for n = 1."""
    return PoseBox3D(*(field[0] for field in label_pose_fields([record])))


# ---------------------------------------------------------------------------
# Measurement files: one per frame, carrying the camera, ground plane and
# each instance's pseudo-measurements in `key = value` form.
# ---------------------------------------------------------------------------


class MeasurementFormatError(ValueError):
    """Malformed measurement text; the message names the offending key."""


def emit_measurements(cam, ground, block: MeasurementBlock) -> str:
    """The measurement file of `block`, every row of which holds cam and ground;
    floats in shortest round-trip form, so parsing gives the block back exactly."""
    for name, row in (("cam", cam), ("ground", ground)):
        if (getattr(block, name) != row).any():
            raise ValueError(f"block.{name} has a row other than the {name} argument")
    payload = {
        "camera": " ".join(map(repr, _camera(cam))),
        "ground": " ".join(map(repr, _ground(ground))),
        "instances": str(len(block)),
    }
    rows = zip(*(column.tolist() for column in (block.box, block.theta0, block.sigma0, block.depth,
                                                block.uv.reshape(len(block), 2 * block.K), block.visible)))
    for i, (box, theta0, sigma0, depth, uv, visible) in enumerate(rows):
        prefix = f"i{i}."
        payload[prefix + "box"] = " ".join(map(repr, box))
        payload[prefix + "theta0"] = repr(theta0)
        payload[prefix + "sigma0"] = " ".join(map(repr, sigma0))
        payload[prefix + "landmarks"] = " ".join(map(repr, uv))
        payload[prefix + "visible"] = " ".join("1" if v else "0" for v in visible)
        if block.has_depth[i]:
            payload[prefix + "depth"] = repr(depth)
    return format_config(payload)


def _field(mapping: dict, key: str, count: int | None = None, make=None, conv=float,
           finite: bool = False):
    """The tokens of one key through conv, as a list, or make(list) when make
    is given.  When finite, the values are checked finite as well, and a
    non-finite one ahead of a token conv rejects is the fault.  Any failure
    raises MeasurementFormatError naming the key."""
    text = mapping.get(key)
    if text is None:
        raise MeasurementFormatError(f"missing key {key}")
    tokens = text.split()
    if count is not None and len(tokens) != count:
        raise MeasurementFormatError(f"{key}: expected {count} values, found {len(tokens)}")
    values = []
    try:
        try:
            values.extend(map(conv, tokens))  # the values up to a token conv rejects
        finally:
            if finite:
                require_finite(*values)
        return values if make is None else make(values)
    except ValueError as err:
        raise MeasurementFormatError(f"{key}: {err}") from None


def _camera(values) -> tuple:
    values = tuple(map(float, values))
    require_finite(*values)
    fx, fy, cx, cy = values
    if not (fx > 0 and fy > 0):
        raise ValueError("focal lengths must be positive")
    return values


def _ground(values) -> tuple:
    normal = tuple(map(float, values))
    require_finite(*normal)
    if not any(normal):  # no squares, which overflow or underflow
        raise ValueError("ground plane normal must be nonzero")
    return normal


def _flag(token: str) -> bool:
    if token not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {token!r}")
    return token == "1"


def _box(values: list) -> list:
    require_finite(*values)
    require_span(*values)
    return values


def _landmarks(xy: list, seen: list) -> list:
    """xy, checked finite at each seen landmark: a hidden one's value is never read."""
    if not all(map(math.isfinite, xy)):
        require_finite(*compress(xy[0::2], seen), *compress(xy[1::2], seen))
    return xy


# A measurement file's keys: these, and i<n>.<field> for each instance n.
_FRAME_KEYS = ("camera", "ground", "instances")
_INSTANCE_FIELDS = ("box", "theta0", "sigma0", "landmarks", "visible", "depth")
_REQUIRED_FIELDS = len(_INSTANCE_FIELDS) - 1  # every instance field but depth


def _instance_fields(mapping: dict, count: int) -> tuple:
    """(box, uv, visible, theta0, sigma0, depth, has_depth) arrays of the
    `count` instances of a parsed measurement file, read one instance at a
    time: its visible, its landmark count against i0's, then its landmarks,
    box, theta0, sigma0 and depth (when given).  The first fault raises
    MeasurementFormatError, so a count beyond the file's keys stops at the
    first missing key."""
    box, uv, visible, theta0, sigma0, depth, has_depth = ([] for _ in range(7))
    for i in range(count):
        prefix = f"i{i}."
        seen = _field(mapping, prefix + "visible", conv=_flag)
        if visible and len(seen) != len(visible[0]):
            raise MeasurementFormatError(f"inconsistent landmark counts: i0 has {len(visible[0])}, "
                                         f"i{i} has {len(seen)}")
        visible.append(seen)
        uv.append(_field(mapping, prefix + "landmarks", 2 * len(seen), lambda xy: _landmarks(xy, seen)))
        box.append(_field(mapping, prefix + "box", 4, _box))
        theta0 += _field(mapping, prefix + "theta0", 1, finite=True)
        sigma0.append(_field(mapping, prefix + "sigma0", 3, finite=True))
        measured = prefix + "depth" in mapping
        depth += _field(mapping, prefix + "depth", 1, finite=True) if measured else [0.0]
        has_depth.append(measured)
    K = len(visible[0]) if count else 0
    return (np.array(box).reshape(count, 4), np.array(uv).reshape(count, K, 2),
            np.array(visible, dtype=bool).reshape(count, K), np.array(theta0, dtype=float),
            np.array(sigma0).reshape(count, 3), np.array(depth, dtype=float),
            np.array(has_depth, dtype=bool))


def parse_measurements(text: str):
    """(camera row, ground row, MeasurementBlock) from one frame's measurement file.

    Raises MeasurementFormatError naming the missing or malformed key, an
    instance whose landmark count is not instance 0's, or an unknown key:
    any key but the frame keys and the i<n>.<field> keys of the instances
    the count covers.  The frame keys are checked first, then the instance
    fields (_instance_fields), then the block's own checks, then the keys.
    """
    try:
        mapping = parse_config_text(text)
    except ValueError as err:
        raise MeasurementFormatError(str(err)) from None
    count = _field(mapping, "instances", 1, conv=int)[0]
    if count < 0:
        raise MeasurementFormatError(f"instances: negative count {count}")
    cam = _field(mapping, "camera", 4, _camera)
    ground = _field(mapping, "ground", 3, _ground)
    box, uv, visible, theta0, sigma0, depth, has_depth = _instance_fields(mapping, count)
    try:  # the block checks that each given depth is positive
        block = MeasurementBlock(box=box, uv=uv, visible=visible, depth=depth, has_depth=has_depth,
                                 ground=np.full((count, 3), ground), cam=np.full((count, 4), cam),
                                 theta0=theta0, sigma0=sigma0)
    except ValueError as err:
        raise MeasurementFormatError(str(err)) from None
    # every frame key and instance key is present: any other key is one too many
    if len(mapping) != len(_FRAME_KEYS) + _REQUIRED_FIELDS * count + int(has_depth.sum()):
        known = {*_FRAME_KEYS, *(f"i{i}.{name}" for i in range(count) for name in _INSTANCE_FIELDS)}
        unknown = next(key for key in mapping if key not in known)
        raise MeasurementFormatError(f"unknown key {unknown}")
    return cam, ground, block


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    landmark_px_sigma: float = 0.0
    landmark_occlusion_rate: float = 0.0
    box_px_sigma: float = 0.0
    theta_sigma_deg: float = 0.0
    sigma_log_sigma: float = 0.0
    depth_rel_sigma: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite")
        if self.landmark_occlusion_rate > 1:
            raise ValueError("landmark_occlusion_rate must be at most 1")


STANDARD_NOISE = NoiseSpec(
    landmark_px_sigma=2.0,
    landmark_occlusion_rate=0.2,
    box_px_sigma=3.0,
    theta_sigma_deg=8.0,
    sigma_log_sigma=0.1,
    depth_rel_sigma=0.07,
)


# Upper depth bound keeps instances above the 25 px evaluation height at
# the camera's focal length; beyond that they fall out of every difficulty
# bucket and only add variance.
_Z_RANGE = (5.0, 45.0)
_DIMS_MEAN = (3.9, 1.6, 1.6)  # (length, height, width) meters
_DIMS_LOG_SIGMA = 0.1
_MARGIN_PX = 5.0  # the projected box center stays this far inside the image
_RETRY_BUDGET = 200  # draws per requested instance before a short frame fails
# Most instances generate_scenes renders in one array pass; a frame of
# more instances is a chunk of its own.  No output depends on it.
_SYNTH_BLOCK = 256


@dataclass(frozen=True)
class SceneParams:
    n_instances: int = 5
    alpha_sigma: float = 1.0  # scale of the shape coefficients
    with_depth: bool = True

    def __post_init__(self):
        if self.n_instances < 1:
            raise ValueError("need at least one instance")
        if not (math.isfinite(self.alpha_sigma) and self.alpha_sigma >= 0):
            raise ValueError("alpha_sigma must be non-negative and finite")


@dataclass(frozen=True)
class SyntheticScene:
    instances: list  # (PoseBox3D, (N,) shape coefficients) ground truth


class GenerationError(RuntimeError):
    """Fewer in-view instances than requested were sampled within the retry budget."""


def _sample_pose(params: SceneParams, rng) -> tuple:
    """One ground-truth draw (pose, shape coefficients), its variates in a fixed order."""
    z = rng.uniform(*_Z_RANGE)
    x = rng.uniform(-0.45, 0.45) * z
    y = (1.0 - FLAT_GROUND[0] * x - FLAT_GROUND[2] * z) / FLAT_GROUND[1]  # on the ground
    theta = rng.uniform(0.0, 2.0 * np.pi)
    sigma = np.log(_DIMS_MEAN) + _DIMS_LOG_SIGMA * rng.standard_normal(3)
    alpha = params.alpha_sigma * rng.standard_normal(CAR_MODEL.n_basis)
    return PoseBox3D(theta=theta, T=np.array([x, y, z]), sigma=sigma), alpha


def _in_view(poses) -> np.ndarray:
    """(n,) True for each of n poses whose projected hull through
    KITTI_CAMERA is a box with its center at least _MARGIN_PX inside the image."""
    fields = (np.array([getattr(pose, name) for pose in poses]) for name in ("theta", "T", "sigma"))
    lo, hi, error = _hulls(*fields, np.tile(KITTI_CAMERA, (len(poses), 1)))
    center = 0.5 * (lo + hi)
    inside = (_MARGIN_PX <= center) & (center <= np.subtract(IMAGE_SIZE, _MARGIN_PX))
    return np.equal(error, None) & inside.all(axis=1)


def _draw_in_view(params: SceneParams, rngs) -> tuple:
    """(drawn, short): each pose stream's first n_instances in-view draws
    and the first stream still short after its retry budget, or None.  Each
    round draws every short stream's missing count, within its budget, and
    tests all of the round's draws for view in one array pass."""
    n, budget = params.n_instances, _RETRY_BUDGET * params.n_instances
    drawn, count = [[] for _ in rngs], [0] * len(rngs)
    while short := [f for f, frame in enumerate(drawn) if len(frame) < n and count[f] < budget]:
        draws = [(f, _sample_pose(params, rngs[f])) for f in short
                 for _ in range(min(n - len(drawn[f]), budget - count[f]))]
        for (f, draw), seen in zip(draws, _in_view([pose for _, (pose, _) in draws]).tolist()):
            count[f] += 1
            drawn[f] += [draw] if seen else []
    return drawn, next((f for f, frame in enumerate(drawn) if len(frame) < n), None)


def generate_scenes(params: SceneParams, noise: NoiseSpec, seeds):
    """Sample ground truth, render measurements, perturb, annotate: yields
    (SyntheticScene, MeasurementBlock, [LabelRecord]) for each seed in
    turn, row i of the block and record i instance i.

    KITTI_CAMERA sees CAR_MODEL shapes over FLAT_GROUND in an IMAGE_SIZE
    image.  Each seed spawns its frame's pose and noise streams.  Chunks of
    frames of at most _SYNTH_BLOCK instances (a larger frame alone) draw
    their poses (_draw_in_view), then render in one array pass: a label's
    box is the pose's projected hull, the block's that hull plus noise.  No
    frame depends on its chunk.  A frame still short raises
    GenerationError once the frames before it are yielded.
    """
    n, seeds = params.n_instances, iter(seeds)
    while chunk := [np.random.default_rng(seed).spawn(2)
                    for seed in islice(seeds, max(1, _SYNTH_BLOCK // n))]:
        drawn, short = _draw_in_view(params, [pose_rng for pose_rng, _ in chunk])
        if short != 0:
            yield from _render(params, noise, drawn[:short], [rng for _, rng in chunk])
        if short is not None:
            raise GenerationError(f"{len(drawn[short])} of {n} instances in view "
                                  f"after {_RETRY_BUDGET * n} draws")


def generate_scene(params: SceneParams, noise: NoiseSpec, seed):
    """generate_scenes' one-frame case: the frame of seed."""
    return next(generate_scenes(params, noise, [seed]))


def _render(params: SceneParams, noise: NoiseSpec, drawn: list, noise_rngs: list):
    """generate_scenes' frames of drawn, the in-view draws of each frame,
    in one array pass; frame f's noise variates come from noise_rngs[f]."""
    poses = [pose for frame in drawn for pose, _ in frame]
    theta, T, sigma = (np.array([getattr(pose, name) for pose in poses]) for name in ("theta", "T", "sigma"))
    n = len(poses)
    cams = np.tile(KITTI_CAMERA, (n, 1))
    bbox = np.hstack(_hulls(theta, T, sigma, cams)[:2])  # each drawn pose projected in view
    shapes = instantiate(CAR_MODEL, np.array([alpha for frame in drawn for _, alpha in frame]))
    uv = project(KITTI_CAMERA, place_points(shapes, theta, T, sigma))  # (n, K, 2)

    # each instance's noise variates, always drawn, in this order, then scaled
    box_z, uv_z, drop_draws, theta_z, sigma_z, depth_z = map(np.array, zip(*[
        (rng.standard_normal(4), rng.standard_normal(uv.shape[1:]), rng.random(uv.shape[1]),
         rng.standard_normal(), rng.standard_normal(3), rng.standard_normal())
        for rng, frame in zip(noise_rngs, drawn) for _ in frame]))

    in_image = ((uv >= 0) & (uv <= IMAGE_SIZE)).all(axis=2)
    visible = (self_occlusion_masks(theta, T) & in_image
               & (drop_draws >= noise.landmark_occlusion_rate))
    corners = bbox + noise.box_px_sigma * box_z
    # at least 2 px wide and tall
    corners[:, 2:] = np.where(corners[:, 2:] - corners[:, :2] < 2.0, corners[:, :2] + 2.0, corners[:, 2:])
    theta0 = theta + np.deg2rad(noise.theta_sigma_deg) * theta_z
    sigma0 = sigma + noise.sigma_log_sigma * sigma_z
    depth = np.maximum(T[:, 2] * (1.0 + noise.depth_rel_sigma * depth_z), 0.5)
    block = MeasurementBlock(
        box=corners,
        uv=uv + noise.landmark_px_sigma * uv_z, visible=visible,
        depth=depth if params.with_depth else np.zeros(n), has_depth=np.full(n, params.with_depth),
        ground=np.tile(FLAT_GROUND, (n, 1)), cam=np.tile(KITTI_CAMERA, (n, 1)), theta0=theta0,
        sigma0=sigma0)

    low, high = bbox[:, :2], bbox[:, 2:]  # (left, top), (right, bottom)
    in_view = np.maximum(0.0, np.minimum(high, IMAGE_SIZE) - np.maximum(low, 0.0)).prod(axis=1)
    truncated = np.clip(1.0 - in_view / (high - low).prod(axis=1), 0.0, 1.0)
    # 0 when at least 0.65 of the landmarks are visible, 1 when at least 0.4, else 2
    occluded = 2 - np.digitize(visible.mean(axis=1), (0.4, 0.65))
    labels, _ = poses_to_labels(theta, T, sigma, cams, truncated=truncated, occluded=occluded)
    for frame, stop in zip(drawn, accumulate(map(len, drawn))):
        yield SyntheticScene(instances=frame), block[stop - len(frame):stop], labels[stop - len(frame):stop]


# ---------------------------------------------------------------------------
# Key-value run configuration
# ---------------------------------------------------------------------------


_COMMENT = re.compile(r"#(?<!\S#)")  # a '#' at a line's start or after whitespace


def parse_config_text(text: str) -> dict:
    """`key = value` per line; a '#' at a line's start or after whitespace
    starts a comment; blank lines ignored; a key given twice is an error."""
    out = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = (_COMMENT.split(raw, maxsplit=1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not equals:
            raise ValueError(f"config line {line_number}: expected 'key = value'")
        if not key:
            raise ValueError(f"config line {line_number}: empty key")
        if key in out:
            raise ValueError(f"config line {line_number}: duplicate key {key}")
        out[key] = value
    return out


def format_config(mapping: dict) -> str:
    lines = [f"{key} = {mapping[key]}" for key in sorted(mapping)]
    return "\n".join(lines) + ("\n" if lines else "")
