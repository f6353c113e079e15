"""Synthetic scenes, label-file text I/O, and run configuration.

The generator stands in for learned detectors: it samples ground-truth
poses on the ground plane, renders exact pseudo-measurements by forward
projection, and perturbs them per a noise specification.  Noise variates
are always drawn and then scaled, so a fixed seed yields the same
underlying scene realization at every noise level.

Labels use the standard 15/16-token object text format (type, truncation,
occlusion, observation angle, 2D box, dimensions, location, yaw, optional
score), one object per line.
Measurement files hold one frame's camera, ground plane and per-instance
pseudo-measurements as `key = value` lines.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .energy import Measurement
from .geometry import (
    Box2D,
    CameraIntrinsics,
    GroundPlane,
    PoseBox3D,
    project,
    project_box3d,
    require_finite,
    rot_y,
    wrap_angle,
    wrap_pi,
)
from .shape import LANDMARK_COUNT, MorphableModel, ShapeCoefficients, instantiate, place_in_camera

KITTI_CAMERA = CameraIntrinsics(fx=721.5, fy=721.5, cx=609.6, cy=172.9)
FLAT_GROUND = GroundPlane(N=np.array([0.0, 1.0 / 1.65, 0.0]))
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

# Per-landmark visibility as open intervals of the camera azimuth in the
# object frame (psi = atan2 of the object-to-camera direction, measured
# from the forward axis toward the left).  Side points see half the
# circle, lights see their side plus their end, roof corners always.
_FULL = ((-np.pi, np.pi),)
_LEFT = ((0.0, np.pi),)
_RIGHT = ((-np.pi, 0.0),)
VISIBILITY_INTERVALS = (
    _LEFT,                               # front-left wheel
    _RIGHT,                              # front-right wheel
    _LEFT,                               # rear-left wheel
    _RIGHT,                              # rear-right wheel
    ((-np.pi / 2, np.pi),),              # left headlight: front or left
    ((-np.pi, np.pi / 2),),              # right headlight: front or right
    ((0.0, np.pi), (-np.pi, -np.pi / 2)),  # left taillight: rear or left
    ((-np.pi, 0.0), (np.pi / 2, np.pi)),   # right taillight: rear or right
    _FULL,                               # windshield top left
    _FULL,                               # windshield top right
    _FULL,                               # rear-window top left
    _FULL,                               # rear-window top right
    _LEFT,                               # left mirror
    _RIGHT,                              # right mirror
)


def camera_azimuth_in_object(theta: float, T: np.ndarray) -> float:
    """Azimuth of the camera as seen from the object, in its local frame."""
    d = rot_y(theta).T @ (-np.asarray(T, dtype=float))
    return float(np.arctan2(d[2], d[0]))


def self_occlusion_mask(theta: float, T: np.ndarray) -> np.ndarray:
    """True for landmarks facing the camera per the yaw-interval table."""
    psi = camera_azimuth_in_object(theta, T)
    out = np.zeros(LANDMARK_COUNT, dtype=bool)
    for k, intervals in enumerate(VISIBILITY_INTERVALS):
        if abs(psi) == np.pi:
            # the branch cut: psi belongs to an arc wrapping through +-pi,
            # present when one interval ends at pi and another starts at -pi
            out[k] = any(hi == np.pi for _, hi in intervals) and any(
                lo == -np.pi for lo, _ in intervals
            )
        else:
            out[k] = any(lo < psi < hi for lo, hi in intervals)
    return out


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
        left, top, right, bottom = self.bbox
        require_finite(*self.bbox, *self.dimensions, *self.location, self.rotation_y,
                       self.alpha, self.truncated, 0.0 if self.score is None else self.score)
        if not (right > left and bottom > top):
            raise ValueError("degenerate 2D box: need right > left and bottom > top")
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


def pose_to_label(
    pose: PoseBox3D,
    cam: CameraIntrinsics,
    type: str = "Car",
    truncated: float = -1.0,
    occluded: int = -1,
    score: float | None = None,
) -> LabelRecord:
    """Yaw maps to rotation_y with no offset; the stored box is the
    projected hull and the observation angle folds out the bearing."""
    box = project_box3d(cam, pose)
    dims = pose.dims  # (length, height, width)
    ry = wrap_pi(pose.theta)
    return LabelRecord(
        type=type,
        truncated=truncated,
        occluded=occluded,
        alpha=wrap_pi(ry - np.arctan2(pose.T[0], pose.T[2])),
        bbox=tuple(box.corners()),
        dimensions=(float(dims[1]), float(dims[2]), float(dims[0])),
        location=tuple(float(v) for v in pose.T),
        rotation_y=ry,
        score=score,
    )


def label_to_pose(record: LabelRecord) -> PoseBox3D:
    h, w, l = record.dimensions
    if min(h, w, l) <= 0:
        raise ValueError("dimensions must be positive to form a pose")
    return PoseBox3D(
        theta=wrap_angle(record.rotation_y),
        T=np.array(record.location),
        sigma=np.log([l, h, w]),
    )


# ---------------------------------------------------------------------------
# Measurement files: one per frame, carrying the camera, ground plane and
# each instance's pseudo-measurements in `key = value` form.
# ---------------------------------------------------------------------------


class MeasurementFormatError(ValueError):
    """Malformed measurement text; the message names the offending key."""


def emit_measurements(cam: CameraIntrinsics, ground: GroundPlane, measurements) -> str:
    """One frame's measurement file; floats in shortest round-trip form."""
    payload = {
        "camera": " ".join(repr(v) for v in (cam.fx, cam.fy, cam.cx, cam.cy)),
        "ground": " ".join(repr(float(v)) for v in ground.N),
        "instances": str(len(measurements)),
    }
    for i, meas in enumerate(measurements):
        prefix = f"i{i}."
        corners = meas.box2d.corners()
        payload[prefix + "box"] = " ".join(repr(float(v)) for v in corners)
        payload[prefix + "theta0"] = repr(float(meas.theta0))
        payload[prefix + "sigma0"] = " ".join(repr(float(v)) for v in meas.sigma0)
        payload[prefix + "landmarks"] = " ".join(
            repr(float(v)) for v in meas.landmarks_uv.reshape(-1)
        )
        payload[prefix + "visible"] = " ".join(
            "1" if v else "0" for v in meas.landmarks_visible
        )
        if meas.depth_zb is not None:
            payload[prefix + "depth"] = repr(float(meas.depth_zb))
    return format_config(payload)


def _flag(token: str) -> bool:
    if token not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {token!r}")
    return token == "1"


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


def parse_measurements(text: str):
    """(camera, ground, [Measurement]) from one frame's measurement file.

    Raises MeasurementFormatError naming the missing or malformed key.
    """
    try:
        mapping = parse_config_text(text)
    except ValueError as err:
        raise MeasurementFormatError(str(err)) from None
    count = _field(mapping, "instances", 1, lambda v: v[0], int)
    if count < 0:
        raise MeasurementFormatError(f"instances: negative count {count}")
    cam = _field(mapping, "camera", 4, lambda v: CameraIntrinsics(*v))
    ground = _field(mapping, "ground", 3, lambda v: GroundPlane(N=np.array(v)))
    measurements = []
    for i in range(count):
        prefix = f"i{i}."
        visible = _field(mapping, prefix + "visible", None, np.array, _flag)
        depth = prefix + "depth"
        fields = dict(
            box2d=_field(mapping, prefix + "box", 4, lambda v: Box2D.from_corners(*v)),
            landmarks_uv=_field(mapping, prefix + "landmarks", 2 * len(visible), np.array),
            landmarks_visible=visible,
            theta0=_field(mapping, prefix + "theta0", 1)[0],
            sigma0=_field(mapping, prefix + "sigma0", 3, np.array),
            depth_zb=_field(mapping, depth, 1)[0] if depth in mapping else None,
        )
        try:
            measurements.append(Measurement(ground=ground, cam=cam, **fields))
        except ValueError as err:
            raise MeasurementFormatError(f"i{i}: {err}") from None
    return cam, ground, measurements


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
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
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


@dataclass(frozen=True)
class SceneParams:
    cam: CameraIntrinsics = KITTI_CAMERA
    ground: GroundPlane = FLAT_GROUND
    image_size: tuple = IMAGE_SIZE
    n_instances: int = 5
    # Upper bound keeps instances above the 25 px evaluation height at
    # the default focal length; beyond that they fall out of every
    # difficulty bucket and only add variance.
    z_range: tuple = (5.0, 45.0)
    dims_mean: tuple = (3.9, 1.6, 1.6)  # (length, height, width) meters
    dims_log_sigma: float = 0.1
    alpha_sigma: float = 1.0
    margin_px: float = 5.0
    retry_budget: int = 200
    with_depth: bool = True

    def __post_init__(self):
        if self.n_instances < 1:
            raise ValueError("need at least one instance")
        if not (0 < self.z_range[0] < self.z_range[1]):
            raise ValueError("z_range must be increasing and positive")
        if min(self.dims_mean) <= 0:
            raise ValueError("dims_mean must be positive")


@dataclass(frozen=True)
class SyntheticScene:
    camera: CameraIntrinsics
    ground: GroundPlane
    instances: list  # (PoseBox3D, ShapeCoefficients) ground truth
    seed: object


class GenerationError(RuntimeError):
    """No in-view instance could be sampled within the retry budget."""


def _ground_height(ground: GroundPlane, x: float, z: float) -> float:
    N = ground.N
    if abs(N[1]) < 1e-12:
        raise ValueError("ground plane must constrain the vertical coordinate")
    return (1.0 - N[0] * x - N[2] * z) / N[1]


def _sample_pose(params: SceneParams, model: MorphableModel, rng) -> tuple | None:
    """One in-view ground-truth draw, or None when rejected."""
    z = rng.uniform(*params.z_range)
    x = rng.uniform(-0.45, 0.45) * z
    y = _ground_height(params.ground, x, z)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    sigma = np.log(params.dims_mean) + params.dims_log_sigma * rng.standard_normal(3)
    alpha = params.alpha_sigma * rng.standard_normal(model.n_basis)
    pose = PoseBox3D(theta=theta, T=np.array([x, y, z]), sigma=sigma)
    box = project_box3d(params.cam, pose)
    width_px, height_px = params.image_size
    m = params.margin_px
    if not (m <= box.tx <= width_px - m and m <= box.ty <= height_px - m):
        return None
    return pose, alpha


def _truncation_fraction(box: Box2D, image_size) -> float:
    left, top, right, bottom = box.corners()
    w, h = image_size
    inter_w = max(0.0, min(right, w) - max(left, 0.0))
    inter_h = max(0.0, min(bottom, h) - max(top, 0.0))
    area = (right - left) * (bottom - top)
    return float(np.clip(1.0 - inter_w * inter_h / area, 0.0, 1.0))


def _occlusion_class(visible_fraction: float) -> int:
    if visible_fraction >= 0.65:
        return 0
    if visible_fraction >= 0.4:
        return 1
    return 2


def generate_scene(
    params: SceneParams,
    noise: NoiseSpec,
    seed,
    model: MorphableModel = CAR_MODEL,
):
    """Sample ground truth, render measurements, perturb, annotate.

    Returns (SyntheticScene, [Measurement], [LabelRecord]).  The pose
    stream and the noise stream are separate child generators, and noise
    variates are drawn unconditionally, so datasets generated from the
    same seed differ only by the configured noise scales.
    """
    root = np.random.default_rng(seed)
    pose_rng, noise_rng = root.spawn(2)
    width_px, height_px = params.image_size

    instances = []
    attempts = 0
    while len(instances) < params.n_instances:
        if attempts >= params.retry_budget:
            if instances:
                break
            raise GenerationError(
                f"no in-view instance after {params.retry_budget} draws"
            )
        attempts += 1
        drawn = _sample_pose(params, model, pose_rng)
        if drawn is not None:
            instances.append(drawn)

    measurements = []
    labels = []
    gt_pairs = []
    for pose, alpha in instances:
        gt_pairs.append((pose, ShapeCoefficients(alpha=alpha)))
        points = place_in_camera(instantiate(model, alpha), pose)
        uv = project(params.cam, points)
        box = project_box3d(params.cam, pose)

        # noise variates are always drawn, then scaled
        box_jitter = noise.box_px_sigma * noise_rng.standard_normal(4)
        uv_jitter = noise.landmark_px_sigma * noise_rng.standard_normal(uv.shape)
        drop_draws = noise_rng.random(len(uv))
        theta_jitter = np.deg2rad(noise.theta_sigma_deg) * noise_rng.standard_normal()
        sigma_jitter = noise.sigma_log_sigma * noise_rng.standard_normal(3)
        depth_jitter = noise.depth_rel_sigma * noise_rng.standard_normal()

        in_image = (
            (uv[:, 0] >= 0)
            & (uv[:, 0] <= width_px)
            & (uv[:, 1] >= 0)
            & (uv[:, 1] <= height_px)
        )
        facing = self_occlusion_mask(pose.theta, pose.T)
        visible = facing & in_image & (drop_draws >= noise.landmark_occlusion_rate)

        corners = np.array(box.corners()) + box_jitter
        if corners[2] - corners[0] < 2.0:
            corners[2] = corners[0] + 2.0
        if corners[3] - corners[1] < 2.0:
            corners[3] = corners[1] + 2.0

        measurements.append(
            Measurement(
                box2d=Box2D.from_corners(*corners),
                landmarks_uv=uv + uv_jitter,
                landmarks_visible=visible,
                theta0=pose.theta + theta_jitter,
                sigma0=pose.sigma + sigma_jitter,
                ground=params.ground,
                cam=params.cam,
                depth_zb=max(float(pose.T[2]) * (1.0 + depth_jitter), 0.5)
                if params.with_depth
                else None,
            )
        )
        labels.append(
            replace(
                pose_to_label(pose, params.cam),
                truncated=_truncation_fraction(box, params.image_size),
                occluded=_occlusion_class(float(visible.mean())),
            )
        )
    scene = SyntheticScene(
        camera=params.cam, ground=params.ground, instances=gt_pairs, seed=seed
    )
    return scene, measurements, labels


# ---------------------------------------------------------------------------
# Key-value run configuration
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    """`key = value` per line; '#' starts a comment; blank lines ignored."""
    out = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_number}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"config line {line_number}: empty key")
        out[key] = value.strip()
    return out


def read_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def format_config(mapping: dict) -> str:
    lines = [f"{key} = {mapping[key]}" for key in sorted(mapping)]
    return "\n".join(lines) + ("\n" if lines else "")
