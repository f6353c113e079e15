"""Label and measurement text round-trips, pose/label conversion, synthetic
generation, and the key-value config format."""
import numpy as np
import pytest

from vehicle3d.geometry import PoseBox3D, project, project_box3d, wrap_pi
from vehicle3d.refine import initialize
from vehicle3d.scene_io import (
    CAR_MODEL,
    KITTI_CAMERA,
    GenerationError,
    LabelFormatError,
    LabelRecord,
    MeasurementFormatError,
    NoiseSpec,
    SceneParams,
    STANDARD_NOISE,
    format_config,
    generate_scene,
    label_to_pose,
    parse_config_text,
    parse_labels,
    pose_to_label,
    emit_labels,
    emit_measurements,
    parse_measurements,
    self_occlusion_mask,
)
from vehicle3d.shape import instantiate, place_in_camera

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


# ---------------------------------------------------------------------------
# Measurement files
# ---------------------------------------------------------------------------

def test_measurement_text_roundtrip():
    scene, measurements, _ = generate_scene(
        SceneParams(n_instances=3), NoiseSpec(landmark_px_sigma=1.0), seed=11
    )
    text = emit_measurements(scene.camera, scene.ground, measurements)
    cam, ground, back = parse_measurements(text)
    assert (cam.fx, cam.fy, cam.cx, cam.cy) == (
        scene.camera.fx, scene.camera.fy, scene.camera.cx, scene.camera.cy
    )
    np.testing.assert_array_equal(ground.N, scene.ground.N)
    assert len(back) == 3
    for orig, copy in zip(measurements, back):
        # repr floats round-trip exactly
        np.testing.assert_array_equal(copy.box2d.corners(), orig.box2d.corners())
        np.testing.assert_array_equal(copy.landmarks_uv, orig.landmarks_uv)
        np.testing.assert_array_equal(copy.landmarks_visible, orig.landmarks_visible)
        assert copy.theta0 == orig.theta0
        np.testing.assert_array_equal(copy.sigma0, orig.sigma0)
        assert copy.depth_zb == orig.depth_zb


@pytest.mark.parametrize("key, value, message", [
    ("i1.theta0", None, "missing key i1.theta0"),
    ("camera", "1 2 3", "camera: expected 4 values, found 3"),
    ("i0.sigma0", "0.1 x 0.2", "i0.sigma0: could not convert"),
    ("instances", "two", "instances: invalid literal"),
    ("i1.visible", "1 2", "i1.visible: expected 0 or 1"),
    ("i0.landmarks", "1.0 2.0 3.0", "i0.landmarks: expected 28 values, found 3"),
    ("i0.box", "10 10 5 20", "i0.box: degenerate 2D box"),
    ("i1.depth", "-2.0", "i1: depth hypothesis must be positive"),
    ("camera", "0 700 600 170", "camera: focal lengths must be positive"),
])
def test_malformed_measurements_name_the_key(key, value, message):
    scene, measurements, _ = generate_scene(SceneParams(n_instances=2), STANDARD_NOISE, seed=5)
    mapping = parse_config_text(emit_measurements(scene.camera, scene.ground, measurements))
    if value is None:
        del mapping[key]
    else:
        mapping[key] = value
    with pytest.raises(MeasurementFormatError, match=message):
        parse_measurements(format_config(mapping))


# ---------------------------------------------------------------------------
# Self-occlusion table
# ---------------------------------------------------------------------------

def test_self_occlusion_front_right_quadrant():
    # theta = pi/4 with the object straight ahead puts the camera azimuth
    # at -pi/4: right flank plus both headlights plus roof corners
    mask = self_occlusion_mask(np.pi / 4, np.array([0.0, 1.65, 10.0]))
    expected = np.zeros(14, dtype=bool)
    expected[[1, 3, 4, 5, 7, 8, 9, 10, 11, 13]] = True
    np.testing.assert_array_equal(mask, expected)


def test_self_occlusion_dead_rear_branch_cut():
    # azimuth exactly at +-pi: taillights and roof corners only
    mask = self_occlusion_mask(3 * np.pi / 2, np.array([0.0, 1.65, 10.0]))
    expected = np.zeros(14, dtype=bool)
    expected[[6, 7, 8, 9, 10, 11]] = True
    np.testing.assert_array_equal(mask, expected)


def test_self_occlusion_rear_left_quadrant():
    # azimuth 3*pi/4: left flank, left and right taillights, roof corners
    mask = self_occlusion_mask(5 * np.pi / 4, np.array([0.0, 1.65, 10.0]))
    expected = np.zeros(14, dtype=bool)
    expected[[0, 2, 4, 6, 7, 8, 9, 10, 11, 12]] = True
    np.testing.assert_array_equal(mask, expected)


def test_self_occlusion_always_at_least_one_roof_point():
    rng = np.random.default_rng(42)
    for _ in range(500):
        mask = self_occlusion_mask(
            rng.uniform(0, 2 * np.pi),
            np.array([rng.uniform(-20, 20), 1.65, rng.uniform(5, 60)]),
        )
        assert mask[8:12].all()
        assert mask.sum() >= 6


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def test_generate_noise_free_measurements_exact():
    params = SceneParams(n_instances=4)
    scene, measurements, labels = generate_scene(params, NoiseSpec(), seed=7)
    assert len(scene.instances) == len(measurements) == len(labels) == 4
    for (pose, coeffs), meas, label in zip(scene.instances, measurements, labels):
        box = project_box3d(params.cam, pose)
        np.testing.assert_allclose(meas.box2d.corners(), box.corners(), atol=1e-10)
        uv = project(params.cam, place_in_camera(instantiate(CAR_MODEL, coeffs), pose))
        np.testing.assert_allclose(meas.landmarks_uv, uv, atol=1e-10)
        assert meas.theta0 == pose.theta
        np.testing.assert_array_equal(meas.sigma0, pose.sigma)
        assert meas.depth_zb == pytest.approx(pose.T[2], abs=1e-12)
        assert label.location == pytest.approx(tuple(pose.T))


def test_generate_deterministic():
    params = SceneParams(n_instances=5)
    a = generate_scene(params, STANDARD_NOISE, seed=123)
    b = generate_scene(params, STANDARD_NOISE, seed=123)
    for (pa, ca), (pb, cb) in zip(a[0].instances, b[0].instances):
        assert np.array_equal(pa.T, pb.T) and pa.theta == pb.theta
        assert np.array_equal(ca.alpha, cb.alpha)
    for ma, mb in zip(a[1], b[1]):
        assert np.array_equal(ma.landmarks_uv, mb.landmarks_uv)
        assert np.array_equal(ma.landmarks_visible, mb.landmarks_visible)
        assert ma.box2d == mb.box2d and ma.depth_zb == mb.depth_zb
    assert a[2] == b[2]
    c = generate_scene(params, STANDARD_NOISE, seed=124)
    assert not np.array_equal(a[0].instances[0][0].T, c[0].instances[0][0].T)


def test_generate_gt_invariants():
    params = SceneParams(n_instances=6)
    N = params.ground.N
    for seed in range(40):
        scene, _, labels = generate_scene(params, STANDARD_NOISE, seed=seed)
        for pose, coeffs in scene.instances:
            assert abs(N @ pose.T - 1.0) < 1e-12
            assert params.z_range[0] <= pose.T[2] <= params.z_range[1]
            assert np.all(np.isfinite(coeffs.alpha))
        for rec in labels:
            assert rec.bbox[2] > rec.bbox[0] and rec.bbox[3] > rec.bbox[1]
            assert 0.0 <= rec.truncated <= 1.0
            assert rec.occluded in (0, 1, 2)


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
            base = m0.landmarks_visible  # facing and in-image
            candidates += int(base.sum())
            dropped += int((base & ~m1.landmarks_visible).sum())
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


def test_generation_error_when_nothing_in_view():
    params = SceneParams(n_instances=2, margin_px=10_000.0, retry_budget=30)
    with pytest.raises(GenerationError):
        generate_scene(params, NoiseSpec(), seed=0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(landmark_px_sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(landmark_occlusion_rate=1.5)
    with pytest.raises(ValueError):
        SceneParams(n_instances=0)
    with pytest.raises(ValueError):
        SceneParams(z_range=(10.0, 5.0))


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


def test_config_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("a = 1\nnot a pair\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("= 3\n")
