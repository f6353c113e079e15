from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vehicle3d.geometry import (
    BehindCameraError,
    BoxStack,
    PoseBox3D,
    box_corners,
    box_ious,
    iou_2d,
    iou_3d,
    iou_bev,
    project,
    project_box3d,
    require_box,
    rot_y,
    wrap_angle,
    wrap_pi,
)
from vehicle3d.scene_io import KITTI_CAMERA, STANDARD_NOISE, SceneParams, emit_measurements, generate_scene
from tests.oracles import loop_clip_ious, mc_iou_3d, mc_iou_bev, random_pose_pairs


def make_pose(theta, T, dims):
    return PoseBox3D(theta=theta, T=np.asarray(T, float), sigma=np.log(dims))


def stack(poses):
    """BoxStack.of over the fields of each pose."""
    return BoxStack.of([p.theta for p in poses], [p.T for p in poses], [p.sigma for p in poses])


def inside_box(pose, X, atol=1e-9):
    """Whether a camera-frame point lies in the box (inclusive): its
    box-frame coordinates rot_y(theta)^T (X - T) against the extents."""
    x, y, z = rot_y(pose.theta).T @ (np.asarray(X, dtype=float) - pose.T)
    L, H, W = pose.dims
    return abs(x) <= 0.5 * L + atol and -H - atol <= y <= atol and abs(z) <= 0.5 * W + atol


class TestRotY:
    def test_identity(self):
        assert np.allclose(rot_y(0.0), np.eye(3))

    def test_half_turn(self):
        assert np.allclose(rot_y(np.pi), np.diag([-1.0, 1.0, -1.0]), atol=1e-15)

    def test_group_law(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(-10, 10, size=2)
            assert np.allclose(rot_y(a) @ rot_y(b), rot_y(a + b), atol=1e-12)

    def test_orthonormal_det_one(self):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-20, 20, size=10_000):
            R = rot_y(theta)
            assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_axis_fixed(self):
        assert np.allclose(rot_y(1.234) @ [0, 1, 0], [0, 1, 0])


class TestProject:
    def test_optical_axis(self):
        cam = (1, 1, 0, 0)
        assert np.allclose(project(cam, np.array([0.0, 0.0, 2.0])), [0, 0])

    def test_similar_triangles(self):
        cam = (100, 100, 0, 0)
        assert np.allclose(project(cam, np.array([1.0, 1.0, 10.0])), [10, 10])

    def test_behind_camera(self):
        cam = (100, 100, 0, 0)
        with pytest.raises(BehindCameraError):
            project(cam, np.array([0.0, 0.0, -1.0]))

    def test_scale_depth_invariance(self):
        cam = (721.5, 721.5, 609.6, 172.9)
        rng = np.random.default_rng(3)
        for _ in range(200):
            X = rng.uniform([-10, -10, 1], [10, 10, 50])
            lam = rng.uniform(0.1, 10)
            assert np.allclose(project(cam, lam * X), project(cam, X), atol=1e-9)

    def test_batched_matches_single(self):
        cam = (700, 710, 600, 170)
        rng = np.random.default_rng(4)
        pts = rng.uniform([-5, -5, 2], [5, 5, 40], size=(50, 3))
        uv = project(cam, pts)
        for i in range(len(pts)):
            assert np.allclose(uv[i], project(cam, pts[i]))


class TestBox2D:
    def test_degenerate_rejected(self):
        require_box(10.0, 20.0, 110.0, 70.0)
        for corners in ((10.0, 20.0, 10.0, 70.0), (10.0, 20.0, 110.0, 20.0),
                        (10.0, 20.0, 5.0, 70.0)):
            with pytest.raises(ValueError, match="^degenerate 2D box: need right > left and "
                                                 "bottom > top$"):
                require_box(*corners)
        # finiteness is checked first: a NaN fails every comparison
        for corners in ((np.nan, 20.0, 10.0, 70.0), (10.0, 20.0, np.inf, 70.0)):
            with pytest.raises(ValueError, match="^non-finite value$"):
                require_box(*corners)


class TestBox3DCorners:
    def test_unit_box(self):
        pose = make_pose(0.0, [0, 0, 10], np.ones(3))
        corners = box_corners(pose.theta, pose.T, pose.sigma)[0]
        assert np.allclose(sorted(corners[:, 0]), [-0.5] * 4 + [0.5] * 4)
        # Bottom face at T_y, body extends upward (Y points down).
        assert np.allclose(sorted(corners[:, 1]), [-1.0] * 4 + [0.0] * 4)
        assert np.allclose(sorted(corners[:, 2]), [9.5] * 4 + [10.5] * 4)

    def test_quarter_turn_swaps_extents(self):
        pose0 = make_pose(0.0, [0, 0, 10], np.array([4.0, 1.5, 2.0]))
        pose90 = make_pose(np.pi / 2, [0, 0, 10], np.array([4.0, 1.5, 2.0]))
        c0, c90 = (box_corners(p.theta, p.T, p.sigma)[0] for p in (pose0, pose90))
        assert np.isclose(np.ptp(c0[:, 0]), 4.0) and np.isclose(np.ptp(c0[:, 2]), 2.0)
        assert np.isclose(np.ptp(c90[:, 0]), 2.0) and np.isclose(np.ptp(c90[:, 2]), 4.0)

    def test_corners_inside_own_box(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pose = make_pose(
                rng.uniform(0, 2 * np.pi),
                rng.uniform([-10, 0, 5], [10, 3, 50]),
                rng.uniform(0.5, 5.0, size=3),
            )
            for corner in box_corners(pose.theta, pose.T, pose.sigma)[0]:
                assert inside_box(pose, corner)

    def test_random_interior_points_contained(self):
        rng = np.random.default_rng(6)
        pose = make_pose(0.7, [2, 1.65, 20], np.array([3.9, 1.6, 1.6]))
        R = rot_y(pose.theta)
        for _ in range(200):
            local = rng.uniform([-0.5, -1, -0.5], [0.5, 0, 0.5]) * [3.9, 1.6, 1.6]
            assert inside_box(pose, R @ local + pose.T)
        assert not inside_box(pose, pose.T + np.array([0, -5.0, 0]))


class TestProjectBox3D:
    def test_centered_cube(self):
        # Cube of side 2 whose geometric center sits on the optical axis at
        # depth 10: near face at z=9, far face at z=11, so the hull is set by
        # the near corners at 100/9 px and spans 200/9 each way.
        cam = (100, 100, 0, 0)
        pose = make_pose(0.0, [0, 1.0, 10.0], np.array([2.0, 2.0, 2.0]))
        left, top, right, bottom = project_box3d(cam, pose)
        np.testing.assert_allclose([left, top, right, bottom], np.array([-1, -1, 1, 1]) * 100.0 / 9.0,
                                   atol=1e-9)

    def test_translate_x_moves_center_right(self):
        cam = (721.5, 721.5, 609.6, 172.9)
        base = make_pose(0.3, [0, 1.65, 15], np.array([3.9, 1.6, 1.6]))
        def center(pose):
            left, _, right, _ = project_box3d(cam, pose)
            return 0.5 * (left + right)

        prev = center(base)
        for dx in [0.5, 1.0, 2.0, 4.0]:
            cur = center(make_pose(0.3, [dx, 1.65, 15], np.array([3.9, 1.6, 1.6])))
            assert cur > prev
            prev = cur

    def test_doubling_extents_enlarges(self):
        cam = (721.5, 721.5, 609.6, 172.9)
        rng = np.random.default_rng(7)
        for _ in range(50):
            dims = rng.uniform(0.5, 3.0, size=3)
            pose = make_pose(
                rng.uniform(0, 2 * np.pi), [rng.uniform(-5, 5), 1.65, 30], dims
            )
            bigger = PoseBox3D(pose.theta, pose.T, pose.sigma + np.log(2.0))
            size0, size1 = (np.diff(project_box3d(cam, p).reshape(2, 2), axis=0)
                            for p in (pose, bigger))  # (width, height)
            assert (size1 > size0).all()

    def test_behind_camera_propagates(self):
        cam = (100, 100, 0, 0)
        with pytest.raises(BehindCameraError):
            project_box3d(cam, make_pose(0.0, [0, 0, 0.4], np.ones(3)))


class TestIoU2D:
    def test_identical(self):
        b = (0, 0, 10, 10)
        assert iou_2d(b, b) == 1.0

    def test_disjoint(self):
        a, b = (0, 0, 1, 1), (5, 5, 6, 6)
        assert iou_2d(a, b) == 0.0

    def test_half_offset_unit_squares(self):
        a, b = (0, 0, 1, 1), (0.5, 0, 1.5, 1)
        assert np.isclose(iou_2d(a, b), 1.0 / 3.0)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            l1, t1 = rng.uniform(-5, 5, size=2)
            l2, t2 = rng.uniform(-5, 5, size=2)
            a = (l1, t1, l1 + rng.uniform(0.1, 8), t1 + rng.uniform(0.1, 8))
            b = (l2, t2, l2 + rng.uniform(0.1, 8), t2 + rng.uniform(0.1, 8))
            v = iou_2d(a, b)
            assert v == iou_2d(b, a)
            assert 0.0 <= v <= 1.0


class TestIoUBev:
    def test_identical(self):
        p = make_pose(0.4, [1, 1.65, 12], np.array([3.9, 1.6, 1.6]))
        assert np.isclose(iou_bev(p, p), 1.0)

    def test_square_quarter_turn(self):
        a = make_pose(0.0, [0, 1.65, 12], np.array([2.0, 1.5, 2.0]))
        b = make_pose(np.pi / 2, [0, 1.65, 12], np.array([2.0, 1.5, 2.0]))
        assert np.isclose(iou_bev(a, b), 1.0, atol=1e-12)

    def test_unit_square_45_degrees(self):
        # Two concentric unit squares at 45 degrees overlap in a regular
        # octagon of area 2*(sqrt(2)-1); IoU = (2 sqrt2 - 2)/(2 - (2 sqrt2 - 2))
        # = 1/sqrt(2).
        a = make_pose(0.0, [0, 1.0, 10], np.array([1.0, 1.0, 1.0]))
        b = make_pose(np.pi / 4, [0, 1.0, 10], np.array([1.0, 1.0, 1.0]))
        expected = 1.0 / np.sqrt(2.0)
        assert np.isclose(iou_bev(a, b), expected, atol=1e-12)
        samples = np.random.default_rng(9).random((200_000, 2))
        assert abs(mc_iou_bev(a, b, samples) - expected) < 5e-3

    def test_disjoint(self):
        a = make_pose(0.0, [0, 1.65, 10], np.ones(3))
        b = make_pose(0.0, [10, 1.65, 10], np.ones(3))
        assert iou_bev(a, b) == 0.0


class TestIoU3D:
    def test_identical(self):
        p = make_pose(2.1, [-3, 1.65, 25], np.array([3.9, 1.6, 1.6]))
        assert np.isclose(iou_3d(p, p), 1.0)

    def test_half_offset_unit_cubes(self):
        a = make_pose(0.0, [0, 1.0, 10], np.ones(3))
        b = make_pose(0.0, [0.5, 1.0, 10], np.ones(3))
        assert np.isclose(iou_3d(a, b), 1.0 / 3.0)

    def test_vertical_offset(self):
        a = make_pose(0.0, [0, 1.0, 10], np.ones(3))
        b = make_pose(0.0, [0, 1.5, 10], np.ones(3))
        assert np.isclose(iou_3d(a, b), 1.0 / 3.0)
        c = make_pose(0.0, [0, 2.5, 10], np.ones(3))
        assert iou_3d(a, c) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(10)
        for a, b in random_pose_pairs(100, rng):
            v = iou_3d(a, b)
            assert np.isclose(v, iou_3d(b, a), atol=1e-12)
            assert 0.0 <= v <= 1.0
            w = iou_bev(a, b)
            assert np.isclose(w, iou_bev(b, a), atol=1e-12)
            assert 0.0 <= w <= 1.0

    def test_against_monte_carlo(self):
        # Smaller than the acceptance sweep; that one runs 10^3 pairs at 10^6.
        rng = np.random.default_rng(11)
        samples3 = rng.random((200_000, 3))
        samples2 = rng.random((200_000, 2))
        for a, b in random_pose_pairs(60, rng):
            assert abs(iou_3d(a, b) - mc_iou_3d(a, b, samples3)) < 2e-2
            assert abs(iou_bev(a, b) - mc_iou_bev(a, b, samples2)) < 2e-2


def derived_pose(base, case, tweak):
    """A second box for `base`: a perturbed copy ("random") or one of the
    hand cases, each with its known IoUs (None where not closed-form)."""
    theta, T, (L, H, W) = base.theta, base.T, base.dims
    along = rot_y(theta) @ np.array([1.0, 0.0, 0.0])
    if case == "identical":
        return base, (1.0, 1.0)
    if case == "touching":  # shares the +x face
        return make_pose(theta, T + L * along, base.dims), (0.0, 0.0)
    if case == "contained":  # half-size, same bottom center: a quarter footprint
        return make_pose(theta, T, base.dims / 2), (1 / 8, 1 / 4)
    if case == "quarter_turn":  # overlap is the min(L, W) square
        m2 = min(L, W) ** 2
        return make_pose(theta + np.pi / 2, T, base.dims), (m2 / (2 * L * W - m2),) * 2
    if case == "sliver":  # overlap is a strip 1e-6 L wide
        return make_pose(theta, T + L * (1 - 1e-6) * along, base.dims), (1e-6 / (2 - 1e-6),) * 2
    dtheta, dx, dz, scale = tweak
    return make_pose(theta + dtheta, T + np.array([dx, 0.0, dz]), base.dims * scale), (None, None)


HAND_CASES = ("identical", "touching", "contained", "quarter_turn", "sliver")
base_poses = st.builds(
    make_pose,
    st.floats(0.0, 2 * np.pi, exclude_max=True),
    st.tuples(st.floats(-20, 20), st.floats(0.5, 2.5), st.floats(5, 60)),
    st.tuples(st.floats(0.5, 5.0), st.floats(0.5, 5.0), st.floats(0.5, 5.0)).map(np.array),
)
pose_pairs = st.builds(
    lambda base, case, tweak: (base, derived_pose(base, case, tweak)[0]),
    base_poses,
    st.sampled_from(("random",) + HAND_CASES),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
              st.floats(0.7, 1.4)),
)


class TestBoxIous:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(pose_pairs, min_size=1, max_size=12), st.randoms())
    def test_pair_values_ignore_their_batch(self, pairs, random):
        boxes = stack([pose for pair in pairs for pose in pair])
        i, j = np.arange(0, 2 * len(pairs), 2), np.arange(1, 2 * len(pairs), 2)
        batch = box_ious(boxes, i, j)
        order = list(range(len(pairs)))
        random.shuffle(order)
        shuffled = box_ious(boxes, i[order], j[order])
        for p, (a, b) in enumerate(pairs):
            alone = box_ious(stack([a, b]), [0], [1])
            assert (alone[0][0], alone[1][0]) == (iou_3d(a, b), iou_bev(a, b))
            assert (batch[0][p], batch[1][p]) == (iou_3d(a, b), iou_bev(a, b))
            k = order.index(p)
            assert (shuffled[0][k], shuffled[1][k]) == (batch[0][p], batch[1][p])

    @settings(max_examples=200, deadline=None)
    @given(base_poses, st.sampled_from(HAND_CASES))
    def test_hand_cases(self, a, case):
        b, (want_3d, want_bev) = derived_pose(a, case, None)
        got_3d, got_bev = iou_3d(a, b), iou_bev(a, b)
        if case in ("identical", "touching"):
            assert (got_3d, got_bev) == (want_3d, want_bev)
        else:
            assert np.isclose(got_bev, want_bev, rtol=1e-6, atol=0.0)
            assert np.isclose(got_3d, want_3d, rtol=1e-6, atol=0.0)

    def test_matches_the_loop_clip(self):
        # Shoelace sums over coordinates up to ~60 m lose at most ~1e-11 m^2
        # in float64; 1e-9 on the IoU leaves room for that and nothing more.
        rng = np.random.default_rng(14)
        pairs = random_pose_pairs(400, rng)
        pairs += [(a, derived_pose(a, case, None)[0]) for a, _ in pairs[:40]
                  for case in HAND_CASES]
        for a, b in pairs:
            want = loop_clip_ious(a, b)
            assert abs(iou_3d(a, b) - want[0]) < 1e-9
            assert abs(iou_bev(a, b) - want[1]) < 1e-9

    def test_footprint_matches_the_box_corners(self):
        for a, b in random_pose_pairs(50, np.random.default_rng(13)):
            feet = stack([a]).feet[0]
            assert np.array_equal(feet, box_corners(a.theta, a.T, a.sigma)[0, :4][:, [0, 2]])
            assert np.array_equal(stack([b, a]).feet[1], feet)

    def test_empty_batch(self):
        empty = np.zeros(0, dtype=int)
        iou3, iou_b = box_ious(stack([]), empty, empty)
        assert iou3.shape == iou_b.shape == (0,)


class TestWrap:
    def test_wrap_range(self):
        rng = np.random.default_rng(12)
        # tiny negative angles, which one mod rounds up to 2*pi itself
        for theta in [*rng.uniform(-50, 50, size=1000), -1e-17, -1e-300, -4e-16]:
            w = wrap_angle(theta)
            assert type(w) is float and 0.0 <= w < 2 * np.pi
            assert np.isclose(np.cos(w), np.cos(theta), atol=1e-12)
            assert np.isclose(np.sin(w), np.sin(theta), atol=1e-12)
        thetas = np.array([-1e-17, -4e-16, -np.pi / 2, 0.0, 7.0])
        w = wrap_angle(thetas)
        assert isinstance(w, np.ndarray) and w.shape == thetas.shape
        assert ((0.0 <= w) & (w < 2 * np.pi)).all()
        assert w.tolist() == [wrap_angle(t) for t in thetas]

    def test_wrap_pi_range(self):
        # just below -pi, where one mod of theta + pi rounds up to 2*pi: +pi
        edge = float(np.nextafter(-np.pi, -np.inf))
        rng = np.random.default_rng(13)
        for theta in [*rng.uniform(-50, 50, size=1000), edge, -np.pi, np.pi, 0.0]:
            w = wrap_pi(theta)
            assert type(w) is float and -np.pi <= w < np.pi
            assert np.isclose(np.cos(w), np.cos(theta), atol=1e-12)
            assert np.isclose(np.sin(w), np.sin(theta), atol=1e-12)
        assert wrap_pi(edge) == -np.pi
        thetas = np.array([edge, -np.pi, np.pi, 0.5, -7.0])
        w = wrap_pi(thetas)
        assert isinstance(w, np.ndarray) and w.shape == thetas.shape
        assert ((-np.pi <= w) & (w < np.pi)).all()
        assert w.tolist() == [wrap_pi(t) for t in thetas] == [-np.pi, -np.pi, -np.pi, 0.5,
                                                              wrap_pi(-7.0)]

    def test_pose_wraps_theta(self):
        p = PoseBox3D(theta=-np.pi / 2, T=np.zeros(3), sigma=np.zeros(3))
        assert np.isclose(p.theta, 1.5 * np.pi)
        assert PoseBox3D(theta=-1e-17, T=np.zeros(3), sigma=np.zeros(3)).theta == 0.0


class TestGroundPlane:
    def test_zero_normal_rejected(self):
        """The ground plane is the normal row of a measurement file; writing a
        zero one raises, as reading one does (see test_scene_io)."""
        block = generate_scene(SceneParams(n_instances=1), STANDARD_NOISE, seed=5)[1]
        zero = replace(block, ground=np.zeros((len(block), 3)))
        with pytest.raises(ValueError, match="^ground plane normal must be nonzero$"):
            emit_measurements(KITTI_CAMERA, (0.0, 0.0, 0.0), zero)
