"""Label and measurement text round-trips, pose/label conversion, synthetic
generation, and the key-value config format."""
import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vehicle3d import scene_io
from vehicle3d.geometry import (
    BoxStack,
    PoseBox3D,
    place_points,
    project,
    rot_y,
    wrap_angle,
    wrap_pi,
)
from vehicle3d.energy import MeasurementBlock
from vehicle3d.refine import initialize, refine_ladder
from vehicle3d.scene_io import (
    CAR_MODEL,
    FLAT_GROUND,
    IMAGE_SIZE,
    KITTI_CAMERA,
    VISIBILITY_INTERVALS,
    GenerationError,
    LabelFormatError,
    LabelRecord,
    MeasurementFormatError,
    NoiseSpec,
    SceneParams,
    STANDARD_NOISE,
    format_config,
    generate_scene,
    generate_scenes,
    label_pose_fields,
    label_to_pose,
    parse_config_text,
    parse_labels,
    pose_to_label,
    poses_to_labels,
    emit_labels,
    emit_measurements,
    parse_measurements,
    self_occlusion_masks,
)
from vehicle3d.shape import instantiate

from tests.oracles import projected_hull
from tests.test_energy import same_block

SAMPLE = "Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"


# ---------------------------------------------------------------------------
# Label parsing and emission
# ---------------------------------------------------------------------------

def test_parse_documented_sample():
    records = parse_labels(SAMPLE)
    assert len(records) == 1
    r = records[0]
    assert r.type == "Car"
    assert r.truncated == 0.0
    assert r.occluded == 0
    assert r.alpha == -1.58
    assert r.bbox == (587.01, 173.33, 614.12, 200.12)
    assert r.dimensions == (1.65, 1.67, 3.64)
    assert r.location == (-0.65, 1.71, 46.70)
    assert r.rotation_y == -1.59
    assert r.score is None


def test_parse_empty_stream():
    assert parse_labels("") == []
    assert parse_labels("\n  \n") == []


def test_parse_arity_error_carries_line_number():
    bad = " ".join(SAMPLE.split()[:14])
    with pytest.raises(LabelFormatError, match="line 1"):
        parse_labels(bad)
    with pytest.raises(LabelFormatError, match="line 3") as err:
        parse_labels(SAMPLE + "\n\n" + bad)
    assert err.value.line_number == 3


def test_parse_rejects_bad_values():
    with pytest.raises(LabelFormatError, match="line 1"):
        parse_labels(SAMPLE.replace("46.70", "forty"))
    with pytest.raises(LabelFormatError, match="line 1"):
        parse_labels(SAMPLE.replace(" 0 ", " 7 ", 1))  # occlusion enum
    with pytest.raises(LabelFormatError, match="line 1"):
        parse_labels(SAMPLE.replace("0.00", "1.50", 1))  # truncation range
    with pytest.raises(LabelFormatError, match="line 1: non-finite value"):
        parse_labels(SAMPLE.replace("614.12", "nan", 1))  # not "degenerate 2D box"
    swapped = SAMPLE.replace("587.01 173.33 614.12", "614.12 173.33 587.01")
    with pytest.raises(LabelFormatError, match="line 1"):
        parse_labels(swapped)
    # a non-finite field is named as such, ahead of any range check
    fields = {"truncated": 1, "occluded": 2, "alpha": 3, "height": 8, "width": 9,
              "length": 10, "x": 11, "y": 12, "z": 13, "rotation_y": 14, "score": 15}
    for name, index in fields.items():
        for value in ("nan", "inf", "-inf"):
            tokens = (SAMPLE + " 0.5").split()
            tokens[index] = value
            with pytest.raises(LabelFormatError, match="^line 1: non-finite value$"):
                parse_labels(" ".join(tokens))


def test_parse_accepts_score_and_unknown_type():
    records = parse_labels("Bus -1 -1 -10.0 10 10 50 40 1.5 1.5 4.0 0 1.65 20 0.1 0.87")
    assert records[0].type == "Bus"
    assert records[0].score == 0.87
    assert records[0].occluded == -1


def test_round_trip_documented_sample_bit_exact():
    first = parse_labels(SAMPLE)
    again = parse_labels(emit_labels(first))
    assert again == first


def test_emit_sorts_by_descending_score():
    base = parse_labels(SAMPLE)[0]
    import dataclasses

    records = [
        dataclasses.replace(base, score=0.2),
        dataclasses.replace(base, score=0.9),
        dataclasses.replace(base, score=0.5),
    ]
    emitted = parse_labels(emit_labels(records))
    assert [r.score for r in emitted] == [0.9, 0.5, 0.2]


def test_fuzzed_round_trip_within_tolerance():
    rng = np.random.default_rng(40)
    records = []
    for _ in range(1000):
        left = rng.uniform(0, 1200)
        top = rng.uniform(0, 350)
        records.append(
            LabelRecord(
                type=rng.choice(["Car", "Van", "Truck", "DontCare"]),
                truncated=float(rng.uniform(0, 1)),
                occluded=int(rng.integers(0, 4)),
                alpha=float(rng.uniform(-np.pi, np.pi)),
                bbox=(left, top, left + rng.uniform(1, 300), top + rng.uniform(1, 200)),
                dimensions=tuple(rng.uniform(0.5, 5.0, size=3)),
                location=tuple(rng.uniform([-40, -2, 1], [40, 3, 90])),
                rotation_y=float(rng.uniform(-np.pi, np.pi)),
                score=float(rng.uniform(0, 1)) if rng.random() < 0.5 else None,
            )
        )
    # mixed score presence disables sorting, so order is preserved
    parsed = parse_labels(emit_labels(records))
    assert len(parsed) == len(records)
    for orig, back in zip(records, parsed):
        assert back.type == orig.type
        assert back.occluded == orig.occluded
        for a, b in zip(
            (orig.truncated, orig.alpha, orig.rotation_y, *orig.bbox, *orig.dimensions, *orig.location),
            (back.truncated, back.alpha, back.rotation_y, *back.bbox, *back.dimensions, *back.location),
        ):
            assert abs(a - b) <= 1e-6
        if orig.score is None:
            assert back.score is None
        else:
            assert abs(back.score - orig.score) <= 1e-6


# ---------------------------------------------------------------------------
# Pose/label conversion
# ---------------------------------------------------------------------------

def test_pose_to_label_axial_alpha():
    pose = PoseBox3D(theta=0.0, T=np.array([0.0, 1.65, 10.0]), sigma=np.log([3.9, 1.6, 1.6]))
    rec = pose_to_label(pose, KITTI_CAMERA)
    assert rec.alpha == rec.rotation_y
    assert rec.location == (0.0, 1.65, 10.0)
    assert rec.dimensions == pytest.approx((1.6, 1.6, 3.9), rel=1e-15)  # h, w, l


def test_alpha_quarter_turn_bearing():
    pose = PoseBox3D(theta=0.0, T=np.array([10.0, 1.65, 10.0]), sigma=np.log([3.9, 1.6, 1.6]))
    rec = pose_to_label(pose, KITTI_CAMERA)
    assert rec.rotation_y == 0.0
    assert rec.alpha == pytest.approx(-np.pi / 4, abs=1e-15)


def test_pose_label_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(100):
        pose = PoseBox3D(
            theta=rng.uniform(0, 2 * np.pi),
            T=np.array([rng.uniform(-20, 20), 1.65, rng.uniform(5, 60)]),
            sigma=rng.uniform(-0.3, 1.6, size=3),
        )
        back = label_to_pose(pose_to_label(pose, KITTI_CAMERA))
        assert abs(wrap_pi(back.theta - pose.theta)) < 1e-12
        np.testing.assert_allclose(back.T, pose.T, atol=1e-12)
        np.testing.assert_allclose(back.sigma, pose.sigma, atol=1e-12)


def _same(a, b) -> bool:
    """Equal values with equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [0, 1, 9])
def test_batched_pose_fields_are_each_records_pose(n):
    # -1e-17 wraps to 2*pi once and to 0 twice, as label_to_pose's yaw does
    yaws = [-0.0, -1e-17, 2 * np.pi, -7.5, 3.0, 1e-300, -np.pi, 10.0, np.pi]
    labels = _SEED_FRAME[2]
    records = [replace(labels[k % len(labels)], rotation_y=yaws[k]) for k in range(n)]
    theta, T, sigma = label_pose_fields(records)
    assert theta.shape == (n,) and T.shape == sigma.shape == (n, 3)
    boxes = BoxStack.of(theta, T, sigma)
    for k, rec in enumerate(records):
        h, w, l = rec.dimensions
        pose = label_to_pose(rec)
        reference = PoseBox3D(theta=wrap_angle(rec.rotation_y), T=np.array(rec.location),
                              sigma=np.log([l, h, w]))
        for want in (pose, reference):
            assert _same(theta[k], want.theta)
            assert _same(T[k], want.T) and _same(sigma[k], want.sigma)
        alone = BoxStack.of(pose.theta, pose.T, pose.sigma)
        for field in BoxStack._fields:
            assert _same(getattr(boxes, field)[k], getattr(alone, field)[0]), field
    flat = replace(labels[0], dimensions=(1.5, 0.0, 4.0))
    with pytest.raises(ValueError, match="dimensions must be positive"):
        label_pose_fields(records + [flat])


@pytest.fixture(scope="module")
def seed_fit():
    """(theta, T, sigma, camera, score) of every solved instance of the
    seed-7 dataset `synth --seed 7` writes, refined and scored as `fit`
    refines and scores it."""
    block = MeasurementBlock.concat(generate_scene(SceneParams(), STANDARD_NOISE, [7, index])[1]
                                    for index in range(50))
    solve = refine_ladder(block, CAR_MODEL, variants=["v4"])["v4"]
    ok = np.equal(solve.error, None)
    return [(float(x[0]), x[1:4], x[4:7], cam, 1.0 / (1.0 + energy))
            for x, cam, energy in zip(solve.x[ok], block.cam[ok], solve.energy[ok].tolist())]


# (theta, T, sigma) of one pose per failure kind, and its message
_FAILING_POSES = (
    ((0.0, (0.0, 1.6, -10.0), np.log([3.9, 1.6, 1.6])), "box projects behind the camera"),
    ((0.3, (np.nan, 1.6, 10.0), np.log([3.9, 1.6, 1.6])),
     "box has no valid image box: non-finite value"),
    ((0.3, (0.0, 1.6, 10.0), (-800.0, -800.0, -800.0)),
     "box has no valid image box: degenerate 2D box: need right > left and bottom > top"),
)
_POSE = (0.3, (0.0, 1.6, 10.0), np.log([3.9, 1.6, 1.6]))  # one that has a label


@pytest.mark.parametrize("n", [0, 1, 250])
def test_batched_labels_equal_their_one_pose_calls(seed_fit, n):
    poses = list(seed_fit[:n])
    if n > 1:  # each failure kind amid the solved poses
        for k, (fields, _) in enumerate(_FAILING_POSES):
            poses.insert(60 * k + 7, (*fields, KITTI_CAMERA, 0.5))
    theta, T, sigma, cams, scores = list(zip(*poses)) or [[]] * 5
    records, error = poses_to_labels(theta, T, sigma, cams, scores)
    assert error.shape == (len(poses),)
    alone, messages = [], []
    for theta, T, sigma, cam, score in poses:
        pose = PoseBox3D(theta=theta, T=T, sigma=sigma)
        try:
            want = pose_to_label(pose, cam, score)
        except ValueError as err:
            assert type(err) is ValueError
            messages.append(str(err))
            continue
        messages.append(None)
        assert _same(want.bbox, projected_hull(cam, pose))  # the hull as projected
        alone.append(want)
    assert error.tolist() == messages
    assert records == alone  # every field of the labelled rows, in row order
    assert emit_labels(records) == emit_labels(alone)
    assert len(alone) == min(n, len(seed_fit))


@pytest.mark.parametrize("fields, message", _FAILING_POSES,
                         ids=["behind_camera", "non_finite_hull", "degenerate_hull"])
def test_pose_conversion_failures_name_their_kind(fields, message):
    theta, T, sigma = fields
    records, error = poses_to_labels([theta, _POSE[0]], [T, _POSE[1]], [sigma, _POSE[2]],
                                     [KITTI_CAMERA] * 2)
    assert error.tolist() == [message, None] and len(records) == 1
    with pytest.raises(ValueError) as caught:
        pose_to_label(PoseBox3D(theta=theta, T=T, sigma=sigma), KITTI_CAMERA)
    assert type(caught.value) is ValueError and str(caught.value) == message


def test_a_non_finite_score_raises_instead_of_filling_a_slot():
    theta, T, sigma = _POSE
    for score in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^non-finite value$"):
            poses_to_labels([theta] * 2, [T] * 2, [sigma] * 2, [KITTI_CAMERA] * 2,
                            [0.5, score])
        with pytest.raises(ValueError, match="^non-finite value$"):
            pose_to_label(PoseBox3D(theta=theta, T=T, sigma=sigma), KITTI_CAMERA, score)


@pytest.mark.parametrize("rows, message", [
    ({"scores": 1}, "theta has 3 rows but scores has 1"),
    ({"sigma": 1, "cams": 1}, "theta has 3 rows but sigma has 1"),
    ({"T": 2}, "theta has 3 rows but T has 2"),
    ({"cams": 4}, "theta has 3 rows but cams has 4"),
    ({"theta": 1}, "theta has 1 rows but T has 3"),
    ({"truncated": 2}, "theta has 3 rows but truncated has 2"),
    ({"occluded": 4}, "theta has 3 rows but occluded has 4"),
], ids=["scores", "sigma_and_cams", "T", "cams", "theta", "truncated", "occluded"])
def test_row_counts_that_differ_raise(rows, message):
    """Neither zip nor broadcasting may shorten the output: 3 rows of each
    input but the counts `rows` gives."""
    theta, T, sigma = _POSE
    fields = {"theta": [theta], "T": [T], "sigma": [sigma], "cams": [KITTI_CAMERA],
              "scores": [0.5], "truncated": [0.25], "occluded": [1]}
    fields = {name: value * rows.get(name, 3) for name, value in fields.items()}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        poses_to_labels(**fields)


def test_truncation_and_occlusion_columns_fill_each_record():
    """Each record carries its row's truncation and occlusion code, the
    unknown -1 when a column is not given, and LabelRecord's checks apply."""
    theta, T, sigma = _POSE
    poses = ([theta] * 2, [T] * 2, [sigma] * 2, [KITTI_CAMERA] * 2)
    records, _ = poses_to_labels(*poses)
    assert [(r.truncated, r.occluded) for r in records] == [(-1.0, -1)] * 2
    records, _ = poses_to_labels(*poses, truncated=np.array([0.25, 0.0]), occluded=np.array([2, 0]))
    assert [(r.truncated, r.occluded) for r in records] == [(0.25, 2), (0.0, 0)]
    assert [(type(r.truncated), type(r.occluded)) for r in records] == [(float, int)] * 2
    with pytest.raises(ValueError, match=r"^occlusion code 4 outside -1\.\.3$"):
        poses_to_labels(*poses, occluded=[4, 0])
    with pytest.raises(ValueError, match=r"^truncation must be in \[0, 1\]"):
        poses_to_labels(*poses, truncated=[0.5, 1.5])


# ---------------------------------------------------------------------------
# Measurement files
# ---------------------------------------------------------------------------

def test_measurement_text_roundtrip():
    """Measurement files are a fixed point of parse and emit: over 200
    seed-7 frames, with and without depth, a generated block comes back
    from its file field for field, bit for bit, and the parsed block
    writes the same text again."""
    for with_depth, index in [(with_depth, index) for with_depth in (True, False)
                              for index in range(200)]:
        _, block, _ = generate_scene(SceneParams(with_depth=with_depth), STANDARD_NOISE, [7, index])
        text = emit_measurements(KITTI_CAMERA, FLAT_GROUND, block)
        cam, ground, back = parse_measurements(text)
        assert cam == KITTI_CAMERA
        assert ground == FLAT_GROUND
        assert same_block(back, block), (with_depth, index)
        assert emit_measurements(cam, ground, back) == text, (with_depth, index)
        assert back.has_depth.all() == with_depth


@pytest.mark.parametrize("field", ["cam", "ground"])
def test_a_block_row_the_file_cannot_hold_raises(field):
    """A measurement file holds one camera and one ground plane: a block
    row that differs from them raises, naming the field, instead of being
    written as the arguments' row."""
    block = generate_scene(SceneParams(), STANDARD_NOISE, [7, 0])[1]
    scaled = getattr(block, field).copy()
    scaled[3] *= [2.0, 2.0, 1.0, 1.0][: scaled.shape[1]]
    with pytest.raises(ValueError, match=f"^block.{field} has a row other than the {field} argument$"):
        emit_measurements(KITTI_CAMERA, FLAT_GROUND, replace(block, **{field: scaled}))


def test_a_frame_without_instances_round_trips():
    empty = generate_scene(SceneParams(), STANDARD_NOISE, [7, 0])[1][:0]
    text = emit_measurements(KITTI_CAMERA, FLAT_GROUND, empty)
    assert parse_config_text(text)["instances"] == "0"
    _, _, back = parse_measurements(text)
    assert (len(back), back.K) == (0, 0)


def test_a_depth_without_has_depth_raises():
    """Rows without a crop depth carry depth 0: the file writes no depth
    for them, so another value would not parse back."""
    block = generate_scene(SceneParams(with_depth=False), STANDARD_NOISE, [7, 0])[1]
    depth = block.depth.copy()
    depth[3] = 5.0
    with pytest.raises(ValueError, match="^i3: depth must be 0 without has_depth$"):
        replace(block, depth=depth)


@pytest.mark.parametrize("N", [(1e-200, 0.0, 0.0), (0.0, 5e-324, 0.0), (1e308, 0.0, 0.0),
                               (-1e308, 1e308, 1e308)])
def test_extreme_finite_ground_normals_round_trip(N):
    # no squared norm: it underflows to 0 or overflows with a warning
    block = _SEED_FRAME[1]
    text = emit_measurements(KITTI_CAMERA, N, replace(block, ground=np.tile(N, (len(block), 1))))
    _, ground, back = parse_measurements(text)
    assert ground == N
    np.testing.assert_array_equal(back.ground, np.tile(N, (len(block), 1)))


@pytest.mark.parametrize("key, value, message", [
    ("i1.theta0", None, "missing key i1.theta0"),
    ("camera", "1 2 3", "camera: expected 4 values, found 3"),
    ("i0.sigma0", "0.1 x 0.2", "i0.sigma0: could not convert"),
    ("instances", "two", "instances: invalid literal"),
    ("i1.visible", "1 2", "i1.visible: expected 0 or 1"),
    ("i0.landmarks", "1.0 2.0 3.0", "i0.landmarks: expected 28 values, found 3"),
    ("i0.box", "10 10 5 20", "i0.box: degenerate 2D box"),
    ("i1.depth", "-2.0", "i1: depth hypothesis must be positive"),
    ("i1.visible", "1 0 1", "inconsistent landmark counts: i0 has 14, i1 has 3$"),
    ("ground", "0 0 0", "ground: ground plane normal must be nonzero"),
    ("camera", "0 700 600 170", "camera: focal lengths must be positive"),
    # a count below the blocks present leaves the last block unread
    ("instances", "1", r"unknown key i1\.box$"),
    # a misspelled field would be dropped without a word
    ("i1.dept", "9.0", r"unknown key i1\.dept$"),
    # the value's newline makes a second `i0.theta0 = 9.0` line
    pytest.param("i0.theta0", "1.0\ni0.theta0 = 9.0",
                 r"config line \d+: duplicate key i0\.theta0$", id="duplicate_key"),
])
def test_malformed_measurements_name_the_key(key, value, message):
    scene, measurements, _ = generate_scene(SceneParams(n_instances=2), STANDARD_NOISE, seed=5)
    mapping = parse_config_text(emit_measurements(KITTI_CAMERA, FLAT_GROUND, measurements))
    if value is None:
        del mapping[key]
    else:
        mapping[key] = value
    with pytest.raises(MeasurementFormatError, match=message):
        parse_measurements(format_config(mapping))


def _seed_frame_mapping() -> dict:
    """The key = value mapping of the seed-7 frame 0 file: 5 instances with depths."""
    return parse_config_text(emit_measurements(KITTI_CAMERA, FLAT_GROUND, _SEED_FRAME[1]))


@pytest.mark.parametrize("faults, message", [
    # the earlier instance wins, whatever its field
    ({"i1.box": "10 10 5 20", "i0.depth": "x"}, "i0.depth: could not convert string to float: 'x'"),
    ({"i3.visible": "1 2", "i2.theta0": "nan"}, "i2.theta0: non-finite value"),
    ({"i4.landmarks": None, "i1.sigma0": "1 2"}, "i1.sigma0: expected 3 values, found 2"),
    # within an instance: visible, landmarks, box, theta0, sigma0, depth
    ({"i2.visible": "1 2", "i2.landmarks": None}, "i2.visible: expected 0 or 1, got '2'"),
    ({"i3.sigma0": "0 0 y", "i3.box": "nan 0 1 1"}, "i3.box: non-finite value"),
    ({"i1.depth": "inf", "i1.theta0": None}, "missing key i1.theta0"),
    ({"i2.box": "1 2", "i2.landmarks": "7"}, "i2.landmarks: expected 28 values, found 1"),
    ({"i1.visible": "1 0 1", "i3.visible": "x"}, "inconsistent landmark counts: i0 has 14, i1 has 3"),
    # a depth the block finds not positive is checked after every instance field
    ({"i0.depth": "-2.0", "i4.sigma0": "0 0"}, "i4.sigma0: expected 3 values, found 2"),
], ids=lambda value: "" if isinstance(value, str) else "+".join(value))
def test_the_first_fault_by_instance_then_field_is_reported(faults, message):
    """Of two faults in different instances, or in different fields of one
    instance, the file reports the one a reading of each instance's fields
    in turn meets first, with its message."""
    mapping = _seed_frame_mapping()
    for key, value in faults.items():
        if value is None:
            del mapping[key]
        else:
            mapping[key] = value
    with pytest.raises(MeasurementFormatError, match=f"^{re.escape(message)}$"):
        parse_measurements(format_config(mapping))


def test_a_huge_instance_count_fails_at_once():
    """A count no file could hold ends at the first missing key, without a
    step or an allocation per declared instance."""
    mapping = _seed_frame_mapping()
    mapping["instances"] = "1000000000000"
    text = format_config(mapping)
    tracemalloc.start()
    try:
        with pytest.raises(MeasurementFormatError, match=r"^missing key i5\.visible$"):
            parse_measurements(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    empty = {key: mapping[key] for key in ("camera", "ground", "instances")}
    with pytest.raises(MeasurementFormatError, match=r"^missing key i0\.visible$"):
        parse_measurements(format_config(empty))


@pytest.mark.parametrize("key, value, expected", [
    ("i0.theta0", "1_000", ("theta0", 0, 1000.0)),
    ("i2.box", "1_0 2_0 3_00 4_00", ("box", 2, [10.0, 20.0, 300.0, 400.0])),
    ("i1.depth", "1_2.5", ("depth", 1, 12.5)),
])
def test_numeric_tokens_read_as_float_reads_them(key, value, expected):
    """Every numeric token reads as float() reads it: digit separators
    are accepted where a number is expected."""
    mapping = _seed_frame_mapping()
    mapping[key] = value
    field, i, read = expected
    _, _, block = parse_measurements(format_config(mapping))
    assert getattr(block, field)[i].tolist() == read


def test_a_hidden_landmark_may_be_infinity_but_not_hex():
    """A hidden landmark's value is never read, so "Infinity" passes there as
    float() reads it; a token float() rejects fails with float()'s text."""
    mapping = _seed_frame_mapping()
    hidden = _SEED_FRAME[1].visible[0].tolist().index(False)
    tokens = mapping["i0.landmarks"].split()
    tokens[2 * hidden] = "Infinity"
    mapping["i0.landmarks"] = " ".join(tokens)
    _, _, block = parse_measurements(format_config(mapping))
    assert block.uv[0, hidden, 0] == np.inf
    tokens[2 * hidden] = "0x10"
    mapping["i0.landmarks"] = " ".join(tokens)
    with pytest.raises(MeasurementFormatError,
                       match=r"^i0\.landmarks: could not convert string to float: '0x10'$"):
        parse_measurements(format_config(mapping))


def _mutations(text):
    """text cut at any character, with one line dropped or duplicated, or
    with one whitespace-separated token swapped for a non-finite, empty,
    non-numeric or underscore-separated one."""
    lines = text.splitlines(keepends=True)
    parts = re.split(r"(\s+)", text)  # tokens at the even positions

    def swapped(i, token):
        return "".join(parts[:i] + [token] + parts[i + 1:])

    return st.one_of(
        st.integers(0, len(text)).map(lambda n: text[:n]),
        st.integers(0, len(lines) - 1).map(lambda i: "".join(lines[:i] + lines[i + 1:])),
        st.integers(0, len(lines) - 1).map(lambda i: "".join(lines[:i + 1] + lines[i:])),
        st.builds(swapped, st.sampled_from(range(0, len(parts), 2)),
                  st.sampled_from(["nan", "inf", "-inf", "1e999", "", "x7", "1_0", "Infinity"])),
    )


# frame 0 of the seed-7 dataset `synth --seed 7` writes
_SEED_FRAME = generate_scene(SceneParams(), STANDARD_NOISE, [7, 0])


@settings(max_examples=300, deadline=None)
@given(_mutations(emit_measurements(KITTI_CAMERA, FLAT_GROUND, _SEED_FRAME[1])))
def test_mutated_measurement_file_raises_only_its_format_error(text):
    """A mutated file raises MeasurementFormatError, or parses to what its
    emitted text parses back to: that text is a fixed point of emit and
    parse, whatever spelling float() accepted in the mutated one."""
    try:
        parsed = parse_measurements(text)
    except MeasurementFormatError:
        return
    emitted = emit_measurements(*parsed)
    assert emit_measurements(*parse_measurements(emitted)) == emitted


@settings(max_examples=300, deadline=None)
@given(_mutations(emit_labels(_SEED_FRAME[2])))
def test_mutated_label_file_raises_only_its_format_error(text):
    try:
        parse_labels(text)
    except LabelFormatError:
        pass


# ---------------------------------------------------------------------------
# Self-occlusion table
# ---------------------------------------------------------------------------

def test_self_occlusion_front_right_quadrant():
    # theta = pi/4 with the object straight ahead puts the camera azimuth
    # at -pi/4: right flank plus both headlights plus roof corners
    mask = self_occlusion_masks([np.pi / 4], [[0.0, 1.65, 10.0]])[0]
    expected = np.zeros(14, dtype=bool)
    expected[[1, 3, 4, 5, 7, 8, 9, 10, 11, 13]] = True
    np.testing.assert_array_equal(mask, expected)


def test_self_occlusion_dead_rear_branch_cut():
    # azimuth exactly at +-pi: taillights and roof corners only
    mask = self_occlusion_masks([3 * np.pi / 2], [[0.0, 1.65, 10.0]])[0]
    expected = np.zeros(14, dtype=bool)
    expected[[6, 7, 8, 9, 10, 11]] = True
    np.testing.assert_array_equal(mask, expected)


def test_self_occlusion_rear_left_quadrant():
    # azimuth 3*pi/4: left flank, left and right taillights, roof corners
    mask = self_occlusion_masks([5 * np.pi / 4], [[0.0, 1.65, 10.0]])[0]
    expected = np.zeros(14, dtype=bool)
    expected[[0, 2, 4, 6, 7, 8, 9, 10, 11, 12]] = True
    np.testing.assert_array_equal(mask, expected)


def test_self_occlusion_always_at_least_one_roof_point():
    rng = np.random.default_rng(42)
    for _ in range(500):
        mask = self_occlusion_masks(
            [rng.uniform(0, 2 * np.pi)],
            [[rng.uniform(-20, 20), 1.65, rng.uniform(5, 60)]],
        )[0]
        assert mask[8:12].all()
        assert mask.sum() >= 6


def _facing_one_arc_at_a_time(theta, T):
    """The visibility table read as a loop over landmarks and their arcs,
    with the camera azimuth of one pose from its rotation matrix."""
    d = rot_y(theta).T @ -np.asarray(T, dtype=float)
    psi = float(np.arctan2(d[2], d[0]))
    if abs(psi) == np.pi:  # the branch cut: seen by arcs that wrap through it
        return np.array([any(hi == np.pi for _, hi in arcs) and any(lo == -np.pi for lo, _ in arcs)
                         for arcs in VISIBILITY_INTERVALS])
    return np.array([any(lo < psi < hi for lo, hi in arcs) for arcs in VISIBILITY_INTERVALS])


def test_stacked_self_occlusion_is_each_poses_mask():
    rng = np.random.default_rng(8)
    n = 400
    theta = rng.uniform(0, 2 * np.pi, n)
    T = np.column_stack([rng.uniform(-20, 20, n), np.full(n, 1.65), rng.uniform(5, 60, n)])
    # the dead-rear branch cut and the quadrant poses of the tests above
    theta[[3, 150, 397]] = [3 * np.pi / 2, np.pi / 4, 5 * np.pi / 4]
    T[[3, 150, 397]] = [0.0, 1.65, 10.0]
    masks = self_occlusion_masks(theta, T)
    assert masks.shape == (n, 14)
    for mask, yaw, location in zip(masks, theta, T):
        np.testing.assert_array_equal(mask, self_occlusion_masks([yaw], [location])[0])
        np.testing.assert_array_equal(mask, _facing_one_arc_at_a_time(yaw, location))
    assert np.flatnonzero(masks[3]).tolist() == [6, 7, 8, 9, 10, 11]  # taillights, roof


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def _noise_free_frames():
    for seed in (2, 7, 19):
        for n in (1, 5, 8):
            scene, measurements, labels = generate_scene(SceneParams(n_instances=n), NoiseSpec(), seed)
            assert len(scene.instances) == len(measurements) == len(labels) == n
            yield from zip(scene.instances, measurements, labels)


def test_generate_noise_free_measurements_exact():
    """The frame's array pass equals the one-pose definitions bit for bit,
    for several seeds and frame sizes."""
    for (pose, coeffs), meas, label in _noise_free_frames():
        # the label's box is the hull as projected, the block's box the label's
        assert _same(label.bbox, projected_hull(KITTI_CAMERA, pose))
        assert _same(meas.box[0], label.bbox)
        uv = project(KITTI_CAMERA, place_points(instantiate(CAR_MODEL, coeffs), pose.theta, pose.T,
                                                pose.sigma)[0])
        np.testing.assert_array_equal(meas.uv[0], uv)
        width_px, height_px = IMAGE_SIZE
        in_image = (uv[:, 0] >= 0) & (uv[:, 0] <= width_px) & (uv[:, 1] >= 0) & (uv[:, 1] <= height_px)
        np.testing.assert_array_equal(meas.visible[0],
                                      self_occlusion_masks([pose.theta], [pose.T])[0] & in_image)
        left, top, right, bottom = label.bbox
        in_view = (max(0.0, min(right, width_px) - max(left, 0.0))
                   * max(0.0, min(bottom, height_px) - max(top, 0.0)))
        assert label.truncated == float(np.clip(1.0 - in_view / ((right - left) * (bottom - top)), 0, 1))
        share = meas.visible.mean()
        assert label.occluded == (0 if share >= 0.65 else 1 if share >= 0.4 else 2)
        assert meas.theta0[0] == pose.theta
        np.testing.assert_array_equal(meas.sigma0[0], pose.sigma)
        assert meas.has_depth[0] and meas.depth[0] == pose.T[2]
        assert label.location == pytest.approx(tuple(pose.T))


@pytest.mark.parametrize("params, noise", [
    (SceneParams(), STANDARD_NOISE),
    (SceneParams(with_depth=False), STANDARD_NOISE),
    (SceneParams(n_instances=1), STANDARD_NOISE),
    (SceneParams(), NoiseSpec()),
    (SceneParams(alpha_sigma=0.0), STANDARD_NOISE),
    (SceneParams(n_instances=60), STANDARD_NOISE),  # 4 frames a chunk, so 5 chunks
], ids=["default", "no_depth", "one_instance", "no_noise", "mean_shape", "chunked"])
def test_generate_scene_is_its_frame_of_the_batched_call(params, noise):
    """Each frame generate_scenes yields is generate_scene's frame of its
    seed, bit for bit: block, labels and the scene's poses and shape
    coefficients, whatever chunk the frame lands in."""
    seeds = [[seed, index] for seed in (1, 7, 11) for index in range(6)] + [123]
    frames = list(generate_scenes(params, noise, iter(seeds)))
    assert len(frames) == len(seeds)
    for seed, (scene, block, labels) in zip(seeds, frames):
        alone, alone_block, alone_labels = generate_scene(params, noise, seed)
        assert len(block) == len(labels) == len(scene.instances) == params.n_instances
        assert same_block(block, alone_block)
        assert labels == alone_labels
        for (pose, coeffs), (want, want_coeffs) in zip(scene.instances, alone.instances, strict=True):
            assert pose.theta == want.theta
            assert pose.T.tobytes() == want.T.tobytes() and pose.sigma.tobytes() == want.sigma.tobytes()
            assert coeffs.tobytes() == want_coeffs.tobytes()


def test_generate_deterministic():
    params = SceneParams(n_instances=5)
    a = generate_scene(params, STANDARD_NOISE, seed=123)
    b = generate_scene(params, STANDARD_NOISE, seed=123)
    for (pa, ca), (pb, cb) in zip(a[0].instances, b[0].instances):
        assert np.array_equal(pa.T, pb.T) and pa.theta == pb.theta
        assert np.array_equal(ca, cb)
    assert same_block(a[1], b[1])
    assert a[2] == b[2]
    c = generate_scene(params, STANDARD_NOISE, seed=124)
    assert not np.array_equal(a[0].instances[0][0].T, c[0].instances[0][0].T)


def test_generate_gt_invariants():
    params = SceneParams(n_instances=6)
    N = np.array(FLAT_GROUND)
    for seed in range(40):
        scene, _, labels = generate_scene(params, STANDARD_NOISE, seed=seed)
        for pose, coeffs in scene.instances:
            assert abs(N @ pose.T - 1.0) < 1e-12
            assert scene_io._Z_RANGE[0] <= pose.T[2] <= scene_io._Z_RANGE[1]
            assert np.all(np.isfinite(coeffs))
        for rec in labels:
            assert rec.bbox[2] > rec.bbox[0] and rec.bbox[3] > rec.bbox[1]
            assert 0.0 <= rec.truncated <= 1.0
            assert rec.occluded in (0, 1, 2)


def test_generation_builds_each_label_record_once(monkeypatch):
    """A frame's records are built with their truncation and occlusion,
    so one generated frame constructs (and checks) one record per instance."""
    built = []
    post_init = LabelRecord.__post_init__

    def counted(record):
        built.append(record)
        post_init(record)

    monkeypatch.setattr(LabelRecord, "__post_init__", counted)
    _, block, labels = generate_scene(SceneParams(), STANDARD_NOISE, [7, 0])
    assert len(built) == len(labels) == len(block) == 5
    assert built == labels


def test_generate_occlusion_rate_binomial():
    params = SceneParams(n_instances=5)
    noise_off = NoiseSpec()
    noise_on = NoiseSpec(landmark_occlusion_rate=0.2)
    dropped = 0
    candidates = 0
    for seed in range(300):
        _, meas_off, _ = generate_scene(params, noise_off, seed=seed)
        _, meas_on, _ = generate_scene(params, noise_on, seed=seed)
        for m0, m1 in zip(meas_off, meas_on):
            base = m0.visible  # facing and in-image
            candidates += int(base.sum())
            dropped += int((base & ~m1.visible).sum())
    assert candidates > 10_000
    rate = dropped / candidates
    assert abs(rate - 0.2) < 0.02


def test_generate_same_seed_same_truth_across_noise():
    # noise variates are drawn then scaled: the scene itself never moves
    params = SceneParams(n_instances=5)
    quiet, loud = NoiseSpec(), STANDARD_NOISE
    a = generate_scene(params, quiet, seed=55)
    b = generate_scene(params, loud, seed=55)
    for (pa, _), (pb, _) in zip(a[0].instances, b[0].instances):
        assert np.array_equal(pa.T, pb.T)
        assert pa.theta == pb.theta


def test_v1_error_monotone_in_noise_components():
    params = SceneParams(n_instances=4)
    affecting = {
        "box_px_sigma": (0.0, 3.0, 9.0),
        "theta_sigma_deg": (0.0, 8.0, 25.0),
        "sigma_log_sigma": (0.0, 0.1, 0.3),
        "depth_rel_sigma": (0.0, 0.07, 0.2),
        "landmark_px_sigma": (0.0, 2.0, 6.0),
        "landmark_occlusion_rate": (0.0, 0.2, 0.5),
    }
    for name, levels in affecting.items():
        medians = []
        for level in levels:
            errs = []
            for seed in range(50):
                noise = NoiseSpec(**{name: level})
                scene, measurements, _ = generate_scene(params, noise, seed=seed)
                for (pose, _), meas in zip(scene.instances, measurements):
                    init = initialize(meas, CAR_MODEL)
                    errs.append(float(np.linalg.norm(init.T - pose.T)))
            medians.append(float(np.median(errs)))
        assert medians[0] <= medians[1] + 1e-12 <= medians[2] + 2e-12, (name, medians)


@pytest.mark.parametrize("n_instances, frames_per_chunk", [(5, 51), (60, 4), (300, 1)])
def test_generation_reads_one_chunk_of_seeds_at_a_time(n_instances, frames_per_chunk):
    """generate_scenes reads its seeds a chunk of whole frames of at most
    256 instances at a time (a larger frame alone), so an endless seed
    iterable yields frames and memory does not grow with the seeds."""
    read = []

    def seeds():
        for index in itertools.count():
            read.append(index)
            yield [3, index]

    frames = generate_scenes(SceneParams(n_instances=n_instances), NoiseSpec(), seeds())
    for chunk in (1, 2):
        for _ in range(frames_per_chunk):
            next(frames)
        assert len(read) == chunk * frames_per_chunk


def test_a_crowded_frame_meets_its_instance_count():
    """The retry budget grows with the requested instances, so a frame of
    400 is not cut short."""
    scene, block, labels = generate_scene(SceneParams(n_instances=400), STANDARD_NOISE, [7, 0])
    assert len(scene.instances) == len(block) == len(labels) == 400


def test_generation_error_when_nothing_in_view(monkeypatch):
    monkeypatch.setattr(scene_io, "_MARGIN_PX", 10_000.0)
    monkeypatch.setattr(scene_io, "_RETRY_BUDGET", 30)
    with pytest.raises(GenerationError):
        generate_scene(SceneParams(n_instances=2), NoiseSpec(), seed=0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(landmark_px_sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(landmark_occlusion_rate=1.5)
    with pytest.raises(ValueError):
        SceneParams(n_instances=0)


# ---------------------------------------------------------------------------
# Config text
# ---------------------------------------------------------------------------

def test_config_parse_and_format():
    text = """
    # benchmark settings
    noise.landmark_px_sigma = 2.0
    seed = 42     # inline comment
    out = runs/demo
    """
    conf = parse_config_text(text)
    assert conf == {
        "noise.landmark_px_sigma": "2.0",
        "seed": "42",
        "out": "runs/demo",
    }
    again = parse_config_text(format_config(conf))
    assert again == conf


def test_a_hash_inside_a_value_is_no_comment():
    """Only a '#' that begins the line or follows whitespace starts a
    comment, so a path holding one reads back whole."""
    text = "data = runs/h#x/d\n#note\n  # note\nseed = 7\t# tab\nout = a#b # c\n"
    assert parse_config_text(text) == {"data": "runs/h#x/d", "seed": "7", "out": "a#b"}
    mapping = {"data": "runs/h#x/d", "out": "runs/run#1"}
    assert parse_config_text(format_config(mapping)) == mapping


def test_config_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("a = 1\nnot a pair\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("= 3\n")
