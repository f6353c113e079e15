"""Synthetic scenes, label-file text I/O, and run configuration.

The generator stands in for learned detectors: it samples ground-truth
poses on the ground plane one at a time, then renders exact
pseudo-measurements by forward projection and perturbs them per a noise
specification in one array pass over the frame's instances.  Each
instance's noise variates are drawn in a fixed order and always drawn,
then scaled, so a fixed seed yields the same underlying scene realization
at every noise level.

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
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate, islice

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
    project_box3d,
    require_box,
    require_finite,
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

    `-1` marks unknown truncation/occlusion (used by detections and
    don't-care regions, following the standard format).
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
        object.__setattr__(self, "bbox", tuple(float(v) for v in self.bbox))
        object.__setattr__(self, "dimensions", tuple(float(v) for v in self.dimensions))
        object.__setattr__(self, "location", tuple(float(v) for v in self.location))
        if len(self.bbox) != 4 or len(self.dimensions) != 3 or len(self.location) != 3:
            raise ValueError("bbox/dimensions/location arity is 4/3/3")
        require_finite(*self.bbox, *self.dimensions, *self.location, self.rotation_y,
                       self.alpha, self.truncated, 0.0 if self.score is None else self.score)
        require_box(*self.bbox)
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
            values = [float(t) for t in tokens[1:]]
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


def emit_labels(records) -> str:
    """Fixed-point text with 6 decimals; score-sorted when all records
    carry scores (descending, stable)."""
    records = list(records)
    if records and all(r.score is not None for r in records):
        records.sort(key=lambda r: -r.score)
    lines = []
    for r in records:
        fields = [r.type, f"{r.truncated:.6f}", str(int(r.occluded)), f"{r.alpha:.6f}"]
        fields += [f"{v:.6f}" for v in r.bbox]
        fields += [f"{v:.6f}" for v in r.dimensions]
        fields += [f"{v:.6f}" for v in r.location]
        fields.append(f"{r.rotation_y:.6f}")
        if r.score is not None:
            fields.append(f"{r.score:.6f}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


def poses_to_labels(theta, T, sigma, cams, scores=None) -> tuple:
    """(records, error) of n poses.  error (n,) holds None, or why a pose
    has no label: "box projects behind the camera" when a box corner lies
    at Z <= EPS_Z, else "box has no valid image box: " and require_box's
    message for a projected hull that is no box.  records holds a "Car"
    of unknown truncation and occlusion per None row, in row order.

    theta (n,), T (n, 3) and sigma (n, 3) are PoseBox3D fields, theta
    wrapped as PoseBox3D wraps it; cams holds each pose's camera as a row
    (fx, fy, cx, cy), the form a MeasurementBlock holds, and scores each
    record's score (all None when scores is None); other row counts, or a
    non-finite score, raise ValueError.  Yaw maps to rotation_y with no
    offset, the stored box is the projected hull as computed, and the
    observation angle folds out the bearing.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    T = np.asarray(T, dtype=float).reshape(-1, 3)
    sigma = np.asarray(sigma, dtype=float).reshape(-1, 3)
    cams = np.asarray(cams, dtype=float).reshape(-1, 4)
    n = len(theta)
    scores = np.array([None] * n if scores is None else scores, dtype=object)
    for name, rows in (("T", T), ("sigma", sigma), ("cams", cams), ("scores", scores)):
        if len(rows) != n:
            raise ValueError(f"theta has {n} rows but {name} has {len(rows)}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # failed poses go unread
        theta = wrap_angle(theta)
        dims = np.exp(sigma)  # (length, height, width)
        X = box_corners(theta, T, sigma)
        fx, fy, cx, cy = cams.T
        z = X[..., 2]
        uv = np.stack([fx[:, None] * X[..., 0] / z + cx[:, None],
                       fy[:, None] * X[..., 1] / z + cy[:, None]], axis=2)
        lo, hi = uv.min(axis=1), uv.max(axis=1)  # (left, top), (right, bottom)
        finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
        error = np.full(n, None, dtype=object)  # in reverse precedence
        error[~(hi > lo).all(axis=1)] = "box has no valid image box: " + DEGENERATE_BOX
        error[~finite] = "box has no valid image box: " + NON_FINITE
        error[(z <= EPS_Z).any(axis=1)] = "box projects behind the camera"
        ry = wrap_pi(theta)
        alpha = wrap_pi(ry - np.arctan2(T[:, 0], T[:, 2]))
    keep = np.equal(error, None)
    fields = zip(np.hstack([lo, hi])[keep].tolist(), dims[keep][:, [1, 2, 0]].tolist(),
                 T[keep].tolist(), ry[keep].tolist(), alpha[keep].tolist(), scores[keep])
    records = [LabelRecord(type="Car", truncated=-1.0, occluded=-1, alpha=obs, bbox=bbox,
                           dimensions=dimensions, location=location, rotation_y=rotation_y,
                           score=score)
               for bbox, dimensions, location, rotation_y, obs, score in fields]
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
    for i, box in enumerate(block.box.tolist()):
        prefix = f"i{i}."
        payload[prefix + "box"] = " ".join(repr(v) for v in box)
        payload[prefix + "theta0"] = repr(float(block.theta0[i]))
        payload[prefix + "sigma0"] = " ".join(repr(float(v)) for v in block.sigma0[i])
        payload[prefix + "landmarks"] = " ".join(repr(float(v)) for v in block.uv[i].reshape(-1))
        payload[prefix + "visible"] = " ".join("1" if v else "0" for v in block.visible[i])
        if block.has_depth[i]:
            payload[prefix + "depth"] = repr(float(block.depth[i]))
    return format_config(payload)


def _field(mapping: dict, key: str, count: int | None = None, make=list, conv=float):
    """make([conv(token), ...]) over the tokens of one key; any failure
    raises MeasurementFormatError naming the key."""
    if key not in mapping:
        raise MeasurementFormatError(f"missing key {key}")
    tokens = mapping[key].split()
    if count is not None and len(tokens) != count:
        raise MeasurementFormatError(f"{key}: expected {count} values, found {len(tokens)}")
    try:
        return make([conv(token) for token in tokens])
    except ValueError as err:
        raise MeasurementFormatError(f"{key}: {err}") from None


def _finite_float(token: str) -> float:
    value = float(token)
    require_finite(value)
    return value


def _camera(values) -> tuple:
    fx, fy, cx, cy = map(_finite_float, values)
    if not (fx > 0 and fy > 0):
        raise ValueError("focal lengths must be positive")
    return fx, fy, cx, cy


def _ground(values) -> tuple:
    normal = tuple(map(_finite_float, values))
    if not any(normal):  # no squares, which overflow or underflow
        raise ValueError("ground plane normal must be nonzero")
    return normal


# A measurement file's keys: these, and i<n>.<field> for each instance n.
_FRAME_KEYS = ("camera", "ground", "instances")
_INSTANCE_FIELDS = ("box", "theta0", "sigma0", "landmarks", "visible", "depth")
_REQUIRED_FIELDS = len(_INSTANCE_FIELDS) - 1  # every instance field but depth


class _FirstFault:
    """The first fault of a measurement file by (instance, field), for reading
    its instance fields one field at a time: a field needs reading only for
    the instances below `limit`, the instance of the first fault found so
    far (at first, the instances the file can hold).  Each call records a
    fault of an instance below the limit."""

    def __init__(self, limit: int):
        self.limit, self.message = limit, None

    def __call__(self, i: int, message: str) -> None:
        self.limit, self.message = i, message


def _split(mapping: dict, name: str, instances, fault: _FirstFault,
           size: int | None = None) -> tuple:
    """(tokens, counts): the tokens of field `name` of `instances`, all
    below fault.limit, in one list, and each instance's token count, from
    one pass that stops at the first instance whose key is missing or whose
    token count is not `size` (any count when None): a fault."""
    tokens, counts = [], []
    for i in instances:
        text = mapping.get(f"i{i}.{name}")
        if text is None:
            fault(i, f"missing key i{i}.{name}")
            break
        split = text.split()
        if size is not None and len(split) != size:
            fault(i, f"i{i}.{name}: expected {size} values, found {len(split)}")
            break
        tokens += split
        counts.append(len(split))
    return tokens, counts


def _floats(mapping: dict, name: str, instances, size: int, fault: _FirstFault,
            finite: bool = False) -> np.ndarray:
    """Field `name` of `instances`, all below fault.limit, as (n, size)
    floats: the tokens _split reads, then float() of all of them in one
    call, which stops at the first token that float() rejects or, when
    finite, that is not finite: a fault of that token's instance, with
    float()'s or require_finite's message.  n counts the instances before
    the first fault."""
    tokens, counts = _split(mapping, name, instances, fault, size)
    values, error = [], None
    try:
        values.extend(map(float, tokens))
    except ValueError as err:
        error = str(err)
    if finite and not all(map(math.isfinite, values)):
        values = values[:next(t for t, value in enumerate(values) if not math.isfinite(value))]
        error = NON_FINITE
    if error is None:
        return np.array(values).reshape(len(counts), size)
    n = len(values) // size
    fault(instances[n], f"i{instances[n]}.{name}: {error}")
    return np.array(values[:n * size]).reshape(n, size)


def _instance_fields(mapping: dict, count: int) -> tuple:
    """(box, uv, visible, theta0, sigma0, depth, has_depth) of the `count`
    instances of a parsed measurement file, each field read in one pass
    over the instances and converted in one call.  The first fault in
    (instance, field) order raises MeasurementFormatError with the message
    of a per-key reading that checks each instance's visible, landmarks,
    box, theta0, sigma0 and depth in turn: a missing key, a token count, a
    token float() rejects, a non-finite value or a degenerate box.  A file
    of fewer keys than `count` instances need stops within the instances
    its keys could hold, so a huge count costs nothing per instance."""
    fault = _FirstFault(min(count, len(mapping) // _REQUIRED_FIELDS + 1))
    tokens, counts = _split(mapping, "visible", range(fault.limit), fault)
    K = counts[0] if counts else 0
    flags = "".join(tokens)
    if len(flags) != len(tokens) or flags.strip("01"):  # a token other than 0 or 1
        t = next(t for t, token in enumerate(tokens) if token not in ("0", "1"))
        i = bisect_right(list(accumulate(counts)), t)
        fault(i, f"i{i}.visible: expected 0 or 1, got {tokens[t]!r}")
    other = next((i for i, n in enumerate(counts) if n != K), None)
    if other is not None and other < fault.limit:  # read after the instance's own flags
        fault(other, f"inconsistent landmark counts: i0 has {K}, i{other} has {counts[other]}")
    visible = (np.frombuffer(flags[:fault.limit * K].encode(), dtype=np.uint8)
               == ord("1")).reshape(fault.limit, K)

    uv = _floats(mapping, "landmarks", range(fault.limit), 2 * K, fault)
    uv = uv.reshape(len(uv), K, 2)
    # an invisible landmark's value is never read
    ok = (np.isfinite(uv) | ~visible[:len(uv), :, None]).all(axis=(1, 2))
    if not ok.all():
        i = int(ok.argmin())
        fault(i, f"i{i}.landmarks: {NON_FINITE}")
    box = _floats(mapping, "box", range(fault.limit), 4, fault)
    finite = np.isfinite(box).all(axis=1)
    ok = finite & (box[:, 2] > box[:, 0]) & (box[:, 3] > box[:, 1])
    if not ok.all():
        i = int(ok.argmin())
        fault(i, f"i{i}.box: {DEGENERATE_BOX if finite[i] else NON_FINITE}")
    theta0 = _floats(mapping, "theta0", range(fault.limit), 1, fault, finite=True)
    sigma0 = _floats(mapping, "sigma0", range(fault.limit), 3, fault, finite=True)
    measured = [i for i in range(fault.limit) if f"i{i}.depth" in mapping]
    depth = _floats(mapping, "depth", measured, 1, fault, finite=True)
    if fault.message is not None:
        raise MeasurementFormatError(fault.message)
    depths, has_depth = np.zeros(count), np.zeros(count, dtype=bool)
    depths[measured], has_depth[measured] = depth[:, 0], True
    return box, uv, visible, theta0[:, 0], sigma0, depths, has_depth


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
    count = _field(mapping, "instances", 1, lambda v: v[0], int)
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


def _sample_pose(params: SceneParams, rng) -> tuple | None:
    """One in-view ground-truth draw (pose, shape coefficients), or None
    when the projected box center falls outside the image margin."""
    z = rng.uniform(*_Z_RANGE)
    x = rng.uniform(-0.45, 0.45) * z
    y = (1.0 - FLAT_GROUND[0] * x - FLAT_GROUND[2] * z) / FLAT_GROUND[1]  # on the ground
    theta = rng.uniform(0.0, 2.0 * np.pi)
    sigma = np.log(_DIMS_MEAN) + _DIMS_LOG_SIGMA * rng.standard_normal(3)
    alpha = params.alpha_sigma * rng.standard_normal(CAR_MODEL.n_basis)
    pose = PoseBox3D(theta=theta, T=np.array([x, y, z]), sigma=sigma)
    left, top, right, bottom = project_box3d(KITTI_CAMERA, pose)
    tx, ty = 0.5 * (left + right), 0.5 * (top + bottom)
    width_px, height_px = IMAGE_SIZE
    m = _MARGIN_PX
    if not (m <= tx <= width_px - m and m <= ty <= height_px - m):
        return None
    return pose, alpha


def generate_scene(params: SceneParams, noise: NoiseSpec, seed):
    """Sample ground truth, render measurements, perturb, annotate.

    Every scene is seen by KITTI_CAMERA over FLAT_GROUND in an IMAGE_SIZE
    image, with CAR_MODEL shapes; depths, extents, the image margin and
    the retry budget are the module's private generator constants.

    Returns (SyntheticScene, MeasurementBlock, [LabelRecord]), row i of
    the block and record i instance i of the scene.  Poses are drawn one
    at a time until n_instances are in view; a frame still short after the
    retry budget's draws per requested instance raises GenerationError.
    The rest is one array pass over the frame's instances.  A label's box
    is its pose's projected hull, the block's that hull plus noise.  The
    pose stream and the noise stream are separate child generators, each
    instance's noise variates are drawn in a fixed order, and all of them
    are drawn unconditionally, so datasets generated from the same seed
    differ only by the configured noise scales.
    """
    root = np.random.default_rng(seed)
    pose_rng, noise_rng = root.spawn(2)

    budget = _RETRY_BUDGET * params.n_instances
    draws = (_sample_pose(params, pose_rng) for _ in range(budget))
    drawn = list(islice(filter(None, draws), params.n_instances))  # the in-view draws
    if len(drawn) < params.n_instances:
        raise GenerationError(f"{len(drawn)} of {params.n_instances} instances in view "
                              f"after {budget} draws")

    theta = np.array([pose.theta for pose, _ in drawn])
    T = np.array([pose.T for pose, _ in drawn])
    sigma = np.array([pose.sigma for pose, _ in drawn])
    n = len(drawn)
    # each drawn pose projected in view, so none fails to convert
    records, _ = poses_to_labels(theta, T, sigma, np.tile(KITTI_CAMERA, (n, 1)))
    bbox = np.array([record.bbox for record in records])
    shapes = instantiate(CAR_MODEL, np.array([alpha for _, alpha in drawn]))
    uv = project(KITTI_CAMERA, place_points(shapes, theta, T, sigma))  # (n, K, 2)

    # each instance's noise variates, always drawn, in this order, then scaled
    box_z, uv_z, drop_draws, theta_z, sigma_z, depth_z = map(np.array, zip(*[
        (noise_rng.standard_normal(4), noise_rng.standard_normal(uv.shape[1:]),
         noise_rng.random(uv.shape[1]), noise_rng.standard_normal(),
         noise_rng.standard_normal(3), noise_rng.standard_normal())
        for _ in drawn]))

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
    labels = [replace(record, truncated=t, occluded=o)
              for record, t, o in zip(records, truncated.tolist(), occluded.tolist())]
    scene = SyntheticScene(instances=drawn)
    return scene, block, labels


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
