import math

import numpy as np
import pytest

from fullpose import geom, slopeaug
from fullpose.geom import (
    EulerXYZ,
    FullPoseBox,
    GimbalLockError,
    MissingScoreError,
    NonHorizontalAxisError,
    NonUnitAxisError,
    RigidTransform,
    axis_angle_matrix,
    axis_angle_transform,
    bev_iou,
    box_columns,
    box_corners,
    center_distance,
    euler_to_matrix,
    iou3d,
    matrix_to_euler,
    nms,
    pairwise_bev_iou,
    pairwise_iou3d,
    points_in_box,
    points_in_boxes,
    to_euler_xy,
    transform_box,
)
from fullpose.codec import CodecConfig, make_targets

import oracles


def box(center, dims, tx=0.0, ty=0.0, tz=0.0, class_id=1, score=None):
    return FullPoseBox(np.array(center, float), np.array(dims, float),
                       EulerXYZ(tx, ty, tz), class_id=class_id, score=score)


class TestEulerMatrix:
    def test_identity(self):
        assert np.allclose(euler_to_matrix(EulerXYZ()), np.eye(3))

    def test_quarter_turn_yaw_maps_x_to_y(self):
        rot = euler_to_matrix(EulerXYZ(0, 0, math.pi / 2))
        assert np.allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_matches_single_axis_product(self):
        got = euler_to_matrix(EulerXYZ(0.1, 0.2, 0.3))
        assert np.allclose(got, oracles.euler_matrix_oracle(0.1, 0.2, 0.3), atol=1e-15)

    def test_orthonormal_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            e = EulerXYZ(*rng.uniform(-math.pi, math.pi, 3))
            rot = euler_to_matrix(e)
            assert np.abs(rot @ rot.T - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(rot) - 1.0) < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            tx, tz = rng.uniform(-math.pi, math.pi, 2)
            ty = rng.uniform(-(math.pi / 2 - 0.05), math.pi / 2 - 0.05)
            rot = euler_to_matrix(EulerXYZ(tx, ty, tz))
            back = euler_to_matrix(matrix_to_euler(rot))
            assert np.abs(back - rot).max() < 1e-9

    def test_identity_round_trip(self):
        e = matrix_to_euler(np.eye(3))
        assert (e.theta_x, e.theta_y, e.theta_z) == (0.0, 0.0, 0.0)

    def test_gimbal_lock_raises(self):
        rot = euler_to_matrix(EulerXYZ(0.3, math.pi / 2, 0.1))
        with pytest.raises(GimbalLockError):
            matrix_to_euler(rot)


class TestAxisAngle:
    def test_zero_angle_is_identity(self):
        t = axis_angle_transform([0, 1, 0], 0.0, [5, 2, 0])
        assert np.allclose(t.rotation, np.eye(3))

    def test_hand_rodrigues_quarter_turn(self):
        t = axis_angle_transform([0, 1, 0], math.pi / 2, [0, 0, 0])
        assert np.allclose(t.apply([1.0, 0.0, 0.0]), [0, 0, -1], atol=1e-15)

    def test_pivot_is_fixed(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha = rng.uniform(0, 2 * math.pi)
            v = np.array([-math.sin(alpha), math.cos(alpha), 0])
            pivot = rng.uniform(-10, 10, 3)
            pivot[2] = 0.0
            t = axis_angle_transform(v, rng.uniform(-1, 1), pivot)
            assert np.allclose(t.apply(pivot), pivot, atol=1e-12)
            assert np.allclose(t.apply(pivot + v), pivot + v, atol=1e-12)

    def test_isometry_on_random_cloud(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-20, 20, (100, 3))
        t = axis_angle_transform([0, 1, 0], 0.4, [3, 0, 0])
        moved = t.apply(pts)
        d_before = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d_after = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
        assert np.abs(d_before - d_after).max() < 1e-9

    def test_bad_axis_errors(self):
        with pytest.raises(NonUnitAxisError):
            axis_angle_transform([0, 2, 0], 0.1, [0, 0, 0])
        with pytest.raises(NonHorizontalAxisError):
            axis_angle_transform([0, 0, 1], 0.1, [0, 0, 0])


class TestToEulerXY:
    def test_roll_axis(self):
        tx, ty = to_euler_xy([1, 0, 0], 0.2)
        assert abs(tx - 0.2) < 1e-12 and abs(ty) < 1e-12

    def test_pitch_axis(self):
        tx, ty = to_euler_xy([0, 1, 0], 0.2)
        assert abs(tx) < 1e-12 and abs(ty - 0.2) < 1e-12

    def test_diagonal_axis_matches_decomposition(self):
        v = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        e = matrix_to_euler(axis_angle_matrix(v, 0.3))
        tx, ty = to_euler_xy(v, 0.3)
        assert (tx, ty) == (e.theta_x, e.theta_y)

    def test_tilt_plus_residual_yaw_reconstructs_rotation(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            alpha = rng.uniform(0, 2 * math.pi)
            v = np.array([-math.sin(alpha), math.cos(alpha), 0.0])
            gamma = rng.uniform(-1.3, 1.3)
            rot = axis_angle_matrix(v, gamma)
            e = matrix_to_euler(rot)
            tx, ty = to_euler_xy(v, gamma)
            rebuilt = euler_to_matrix(EulerXYZ(tx, ty, e.theta_z))
            assert np.abs(rebuilt - rot).max() < 1e-9


class TestBoxesFromArrays:
    def arrays(self, n=3):
        rows = np.arange(n, dtype=np.float64)
        return (np.column_stack([rows, -rows, rows * 0.5]), np.full((n, 3), 1.5),
                np.column_stack([rows * 0.01, -rows * 0.01, rows]), np.arange(n) % 2,
                np.linspace(0.0, 1.0, n))

    def test_rows_become_the_checked_boxes(self):
        centers, dims, euler, class_ids, scores = arrays = self.arrays()
        got = geom.boxes_from_arrays(*arrays)
        want = [FullPoseBox(c, d, EulerXYZ(*e.tolist()), class_id=int(k), score=float(s))
                for c, d, e, k, s in zip(*arrays)]
        assert [repr(b) for b in got] == [repr(b) for b in want]
        for i, b in enumerate(got):
            assert np.shares_memory(b.center, centers) and np.shares_memory(b.dims, dims)
            assert b.center.tolist() == centers[i].tolist()
            assert type(b.class_id) is int and type(b.score) is float
            assert type(b.euler.theta_z) is float
        assert geom.boxes_from_arrays(*(a[:0] for a in arrays)) == []

    def test_mismatched_shapes_name_the_arrays(self):
        centers, dims, euler, class_ids, scores = self.arrays()
        with pytest.raises(ValueError, match=r"dims \(2, 3\)"):
            geom.boxes_from_arrays(centers, dims[:2], euler, class_ids, scores)
        with pytest.raises(ValueError, match=r"scores \(3, 1\)"):
            geom.boxes_from_arrays(centers, dims, euler, class_ids, scores[:, None])
        with pytest.raises(ValueError, match=r"centers \(3, 2\)"):
            geom.boxes_from_arrays(centers[:, :2], dims, euler, class_ids, scores)

    @pytest.mark.parametrize("name, index, value", [
        ("dims", (1, 2), 0.0), ("dims", (1, 2), -0.0), ("dims", (0, 0), -1.0),
        ("dims", (2, 1), math.inf), ("dims", (2, 1), math.nan),
        ("centers", (1, 0), math.nan), ("centers", (0, 2), -math.inf),
        ("euler", (2, 0), math.nan), ("euler", (1, 2), math.inf),
        ("scores", 1, math.nan), ("scores", 2, 1.0 + 1e-12), ("scores", 0, -0.5),
    ])
    def test_a_bad_row_raises_the_constructor_error(self, name, index, value):
        arrays = dict(zip(("centers", "dims", "euler", "class_ids", "scores"), self.arrays()))
        arrays[name][index] = value
        with pytest.raises(ValueError) as want:
            [FullPoseBox(c, d, EulerXYZ(*e.tolist()), class_id=int(k), score=float(s))
             for c, d, e, k, s in zip(*arrays.values())]
        with pytest.raises(ValueError) as got:
            geom.boxes_from_arrays(**arrays)
        assert str(got.value) == str(want.value)


    @pytest.mark.parametrize("class_ids", [[0.0, 1.0, 1.5], np.array([0.0, 1.0, 2.0]), [0, 1, None]])
    def test_non_integer_class_ids_raise_the_constructor_error(self, class_ids):
        centers, dims, euler, _, scores = self.arrays()
        with pytest.raises(ValueError, match="class_id must be an integer") as got:
            geom.boxes_from_arrays(centers, dims, euler, class_ids, scores)
        with pytest.raises(ValueError) as want:
            [FullPoseBox(c, d, EulerXYZ(*e.tolist()), class_id=k, score=float(s))
             for c, d, e, k, s in zip(centers, dims, euler, np.asarray(class_ids).tolist(), scores)]
        assert str(got.value) == str(want.value)

    def test_class_ids_past_int64_stay_python_ints(self):
        centers, dims, euler, _, scores = self.arrays()
        boxes = geom.boxes_from_arrays(centers, dims, euler, [2**70, 1, -2], scores)
        assert [b.class_id for b in boxes] == [2**70, 1, -2]


class TestBoxColumns:
    @pytest.mark.parametrize("scores", [[0.25, 1.0, 0.0, 0.5], [None] * 4, [0.25, None, 0.0, None]],
                             ids=["scores", "no_scores", "some_scores"])
    def test_boxes_from_arrays_inverts_it(self, scores):
        rng = np.random.default_rng(12)
        boxes = [box(rng.uniform(-9, 9, 3), rng.uniform(0.5, 4, 3), *rng.uniform(-3, 3, 3).tolist(),
                     class_id=k, score=s) for k, s in zip([0, 3, 1, 2**40], scores)]
        columns = geom.box_columns(boxes)
        assert [c.shape for c in columns] == [(4, 3)] * 3 + [(4,)] * 2
        assert not any(np.shares_memory(c, b.center) or np.shares_memory(c, b.dims)
                       for c in columns[:2] for b in boxes)
        assert columns[4].dtype == (np.float64 if None not in scores else object)
        got = geom.boxes_from_arrays(*columns)
        assert [repr(b) for b in got] == [repr(b) for b in boxes]
        assert [b.center.tobytes() + b.dims.tobytes() for b in got] == \
            [b.center.tobytes() + b.dims.tobytes() for b in boxes]
        assert [(type(b.class_id), type(b.score)) for b in got] == \
            [(int, type(s)) for s in scores]

    def test_class_ids_past_int64(self):
        boxes = [box([0, 0, 0], [4, 2, 1.5], class_id=2**70, score=0.9),
                 box([0.2, 0, 0], [4, 2, 1.5], class_id=-1, score=0.5),
                 box([30, 0, 0], [4, 2, 1.5], tz=0.3, class_id=2**63, score=0.7)]
        class_ids = geom.box_columns(boxes)[3]
        assert class_ids.dtype == object and class_ids.tolist() == [2**70, -1, 2**63]
        columns = geom.box_columns(boxes)
        got = geom.boxes_from_arrays(*columns)
        assert [repr(b) for b in got] == [repr(b) for b in boxes]
        assert nms(boxes, 0.1).tolist() == [0, 2]
        assert geom.checked_scores(columns.scores).tolist() == [0.9, 0.5, 0.7]
        assert points_in_boxes(np.zeros((1, 3)), columns).tolist() == [[True], [True], [False]]
        assert geom.pairwise_center_distance(box_columns(boxes[:1]), columns)[0, 2] == 30.0
        assert pairwise_bev_iou(columns, columns).diagonal().tolist() == [1.0, 1.0, 1.0]
        out = slopeaug.apply(slopeaug.LabeledFrame(geom.PointCloud(np.zeros((1, 3))), boxes),
                             slopeaug.SlopeAugParams([10.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.2))
        assert [b.class_id for b in out.boxes] == [2**70, -1, 2**63]
        assert out.boxes[2].euler != boxes[2].euler and out.boxes[0].euler == boxes[0].euler

    def test_no_boxes(self):
        centers, dims, euler, class_ids, scores = geom.box_columns([])
        assert (centers.shape, dims.shape, euler.shape) == ((0, 3),) * 3
        assert (class_ids.shape, scores.shape) == ((0,), (0,))
        assert geom.rotations(euler).shape == (0, 3, 3)
        pts = np.random.default_rng(13).uniform(-2, 2, (5, 3))
        assert points_in_boxes(pts, box_columns([])).shape == (0, 5)
        assert nms([], 0.1).tolist() == []
        targets = make_targets(pts, box_columns([]), CodecConfig())
        assert not targets.foreground.any() and not targets.class_label.any()


class TestBoxCorners:
    def test_unit_cube(self):
        got = box_corners(box([0, 0, 0], [1, 1, 1]))
        want = {(sx, sy, sz) for sx in (-0.5, 0.5) for sy in (-0.5, 0.5) for sz in (-0.5, 0.5)}
        assert {tuple(np.round(c, 12)) for c in got} == want

    def test_yaw_quarter_turn_same_corner_set(self):
        a = box_corners(box([0, 0, 0], [1, 1, 1]))
        b = box_corners(box([0, 0, 0], [1, 1, 1], tz=math.pi / 2))
        set_a = {tuple(np.round(c, 9)) for c in a}
        set_b = {tuple(np.round(c, 9)) for c in b}
        assert set_a == set_b

    def test_rotated_offsets_match_direct_application(self):
        b = box([1, 2, 3], [2, 1, 1], tz=0.3)
        rot = oracles.rot_z(0.3)
        offsets = np.array(
            [[sx, sy, sz] for sz in (-0.5, 0.5) for sy in (-0.5, 0.5) for sx in (-0.5, 0.5)]
        ) * [2, 1, 1]
        want = {tuple(np.round(rot @ o + [1, 2, 3], 12)) for o in offsets}
        got = {tuple(np.round(c, 12)) for c in box_corners(b)}
        assert got == want


class TestPointsInBox:
    def test_center_inside(self):
        b = box([1, 2, 3], [2, 1, 4], 0.2, -0.1, 0.5)
        assert points_in_box(np.array([[1.0, 2.0, 3.0]]), b)[0]

    def test_corners_inside_closed_boundary(self):
        b = box([0, 0, 0], [2, 3, 1], 0.1, 0.2, 0.3)
        assert points_in_box(box_corners(b), b).all()

    def test_against_explicit_inverse_oracle(self):
        rng = np.random.default_rng(6)
        b = box([1, -2, 0.5], [4, 2, 1.5], 0.15, -0.1, 2.1)
        pts = rng.uniform(-4, 4, (1000, 3)) + b.center
        want = oracles.points_in_box_oracle(pts, b.center, b.dims, 0.15, -0.1, 2.1)
        got = points_in_box(pts, b)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_random", [0, 1, 130])
    def test_points_in_boxes_rows_equal_one_box_calls(self, n_random):
        rng = np.random.default_rng(n_random)
        boxes = [box(rng.uniform(-2, 2, 3), rng.uniform(0.5, 3.0, 3), *rng.uniform(-0.6, 0.6, 2),
                     rng.uniform(-4, 4)) for _ in range(15)]
        random = rng.uniform(-3, 3, (n_random, 3))
        # corners sit on the boundary: inside by the 1e-9 m guard only
        with_corners = np.vstack([random, *[box_corners(b) for b in boxes]])
        for pts in (random, with_corners):
            got = points_in_boxes(pts, box_columns(boxes))
            assert got.shape == (15, len(pts))
            assert got.tobytes() == np.stack([points_in_box(pts, b) for b in boxes]).tobytes()

    def test_invariant_under_shared_rigid_transform(self):
        rng = np.random.default_rng(7)
        b = box([2, 1, 0], [3, 1.5, 1.2], 0.05, 0.1, 0.7)
        pts = rng.uniform(-3, 3, (500, 3)) + b.center
        before = points_in_box(pts, b)
        t = RigidTransform(rotation=euler_to_matrix(EulerXYZ(0.1, -0.2, 1.1)),
                           pivot=np.array([5.0, -1.0, 2.0]))
        after = points_in_box(t.apply(pts), transform_box(b, t))
        assert np.array_equal(before, after)


class TestBevIou:
    def test_identical_boxes(self):
        b = box([3, 1, 0], [4, 2, 1.5], tz=0.7)
        assert bev_iou(b, b) == 1.0

    def test_axis_aligned_squares(self):
        a = box([0, 0, 0], [2, 2, 1])
        b = box([1, 0, 0], [2, 2, 1])
        assert abs(bev_iou(a, b) - 1.0 / 3.0) < 1e-12

    def test_square_quarter_turn(self):
        a = box([0, 0, 0], [2, 2, 1])
        b = box([0, 0, 0], [2, 2, 1], tz=math.pi / 2)
        assert abs(bev_iou(a, b) - 1.0) < 1e-12

    def test_against_shapely(self):
        shapely = pytest.importorskip("shapely.geometry")
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = box(rng.uniform(-2, 2, 3), rng.uniform(0.5, 4, 3), tz=rng.uniform(0, 2 * math.pi))
            b = box(rng.uniform(-2, 2, 3), rng.uniform(0.5, 4, 3), tz=rng.uniform(0, 2 * math.pi))

            def poly(bb):
                l, w = bb.dims[:2]
                local = [(l / 2, w / 2), (-l / 2, w / 2), (-l / 2, -w / 2), (l / 2, -w / 2)]
                rot = oracles.rot_z(bb.euler.theta_z)[:2, :2]
                return shapely.Polygon([tuple(rot @ p + bb.center[:2]) for p in local])

            pa, pb = poly(a), poly(b)
            inter = pa.intersection(pb).area
            union = pa.area + pb.area - inter
            assert abs(bev_iou(a, b) - inter / union) < 1e-9

    def test_against_convex_hull(self):
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(8)

        def quad(bb):
            l, w = bb.dims[:2]
            local = np.array([[l / 2, w / 2], [-l / 2, w / 2], [-l / 2, -w / 2], [l / 2, -w / 2]])
            return local @ oracles.rot_z(bb.euler.theta_z)[:2, :2].T + bb.center[:2]

        def inside(points, q):
            # within every edge of the counterclockwise quad q
            edges = np.roll(q, -1, axis=0) - q
            rel = points[:, None, :] - q[None, :, :]
            cross = edges[None, :, 0] * rel[:, :, 1] - edges[None, :, 1] * rel[:, :, 0]
            return (cross >= -1e-12).all(axis=1)

        def crossings(p, q):
            out = []
            for p0, p1 in zip(p, np.roll(p, -1, axis=0)):
                for q0, q1 in zip(q, np.roll(q, -1, axis=0)):
                    # p0 + s (p1 - p0) == q0 + t (q1 - q0)
                    m = np.column_stack([p1 - p0, q0 - q1])
                    if abs(np.linalg.det(m)) < 1e-15:
                        continue
                    s, t = np.linalg.solve(m, q0 - p0)
                    if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
                        out.append(p0 + s * (p1 - p0))
            return out

        def area(q):
            x, y = q[:, 0], q[:, 1]
            return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

        for _ in range(200):
            a = box(rng.uniform(-2, 2, 3), rng.uniform(0.5, 4, 3), tz=rng.uniform(0, 2 * math.pi))
            b = box(rng.uniform(-2, 2, 3), rng.uniform(0.5, 4, 3), tz=rng.uniform(0, 2 * math.pi))
            qa, qb = quad(a), quad(b)
            pts = [*qa[inside(qa, qb)], *qb[inside(qb, qa)], *crossings(qa, qb)]
            inter = spatial.ConvexHull(np.array(pts)).volume if len(pts) >= 3 else 0.0
            union = area(qa) + area(qb) - inter
            assert abs(bev_iou(a, b) - inter / union) < 1e-9

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = box(rng.uniform(-3, 3, 3), rng.uniform(0.5, 3, 3), tz=rng.uniform(0, 7))
            b = box(rng.uniform(-3, 3, 3), rng.uniform(0.5, 3, 3), tz=rng.uniform(0, 7))
            ab, ba = bev_iou(a, b), bev_iou(b, a)
            assert abs(ab - ba) < 1e-12
            assert 0.0 <= ab <= 1.0


class TestIou3d:
    def test_identical_cubes(self):
        b = box([1, 1, 1], [1, 1, 1])
        assert iou3d(b, b) == 1.0

    def test_half_overlapping_cubes(self):
        a = box([0, 0, 0], [1, 1, 1])
        b = box([0, 0, 0.5], [1, 1, 1])
        assert abs(iou3d(a, b) - 1.0 / 3.0) < 1e-12

    def test_monte_carlo_spot_check(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = box(rng.uniform(-1, 1, 3), rng.uniform(0.8, 3, 3), tz=rng.uniform(0, 7))
            b = box(a.center + rng.uniform(-1, 1, 3), rng.uniform(0.8, 3, 3), tz=rng.uniform(0, 7))
            approx = oracles.monte_carlo_iou3d(a, b, 200_000, rng)
            assert abs(iou3d(a, b) - approx) < 0.02

    def test_symmetry(self):
        a = box([0, 0, 0], [2, 1, 1], tz=0.4)
        b = box([0.5, 0.2, 0.1], [1.5, 1.2, 0.8], tz=1.9)
        assert abs(iou3d(a, b) - iou3d(b, a)) < 1e-12


class TestCenterDistance:
    def test_zero_for_identical(self):
        b = box([1, 2, 3], [1, 1, 1])
        assert center_distance(b, b) == 0.0

    def test_unit_offset(self):
        assert center_distance(box([0, 0, 0], [1, 1, 1]), box([1, 0, 0], [1, 1, 1])) == 1.0

    def test_three_four_five(self):
        a = box([1, 2, 2], [1, 1, 1])
        b = box([2, 4, 4], [1, 1, 1])
        assert abs(center_distance(a, b) - 3.0) < 1e-12


@pytest.mark.parametrize("spread, m, g, min_pairs", [
    (3.0, 15, 12, 64),               # one pass clips pairs of different vertex counts
    (0.3, 95, 95, geom._PAIR_BATCH),  # more near pairs than one clipping pass holds
], ids=["one-pass", "split-passes"])
def test_pairwise_equals_scalar_bit_for_bit_over_many_near_pairs(spread, m, g, min_pairs):
    rng = np.random.default_rng(41)

    def boxes(n):
        return [box(np.append(rng.uniform(-spread, spread, 2), rng.uniform(-0.5, 0.5)),
                    rng.uniform(1, 4, 3), *rng.uniform(-0.3, 0.3, 2),
                    tz=rng.uniform(0, 2 * math.pi)) for _ in range(n)]

    a, b = boxes(m), boxes(g)
    cols_a, cols_b = box_columns(a), box_columns(b)
    bev, iou = pairwise_bev_iou(cols_a, cols_b), pairwise_iou3d(cols_a, cols_b)
    assert np.count_nonzero(bev) > min_pairs and np.count_nonzero(iou) > min_pairs
    for i, box_a in enumerate(a):
        for j, box_b in enumerate(b):
            assert bev[i, j] == bev_iou(box_a, box_b), (i, j)
            assert iou[i, j] == iou3d(box_a, box_b), (i, j)


class TestNms:
    def test_identical_pair_keeps_higher_score(self):
        boxes = [box([0, 0, 0], [2, 2, 1], score=0.9), box([0, 0, 0], [2, 2, 1], score=0.8)]
        assert list(nms(boxes, 0.1)) == [0]

    def test_disjoint_boxes_kept(self):
        boxes = [box([0, 0, 0], [1, 1, 1], score=0.5), box([10, 0, 0], [1, 1, 1], score=0.9)]
        assert list(nms(boxes, 0.1)) == [1, 0]

    def test_equal_scores_tie_break_to_lower_index(self):
        boxes = [box([0, 0, 0], [2, 2, 1], score=0.5), box([0.1, 0, 0], [2, 2, 1], score=0.5)]
        assert list(nms(boxes, 0.1)) == [0]

    def test_missing_score(self):
        with pytest.raises(MissingScoreError):
            nms([box([0, 0, 0], [1, 1, 1])], 0.5)

    @pytest.mark.parametrize("threshold", [-0.5, math.nan, 1.5])
    def test_threshold_outside_unit_interval(self, threshold):
        boxes = [box([0, 0, 0], [1, 1, 1], score=0.5), box([10, 0, 0], [1, 1, 1], score=0.9)]
        with pytest.raises(ValueError, match="iou_threshold must lie in"):
            nms(boxes, threshold)

    def test_matches_reference_on_random_sets(self):
        rng = np.random.default_rng(11)
        boxes = [
            box(rng.uniform(-8, 8, 3), rng.uniform(1, 4, 3), tz=rng.uniform(0, 7),
                score=round(float(rng.random()), 3))
            for _ in range(50)
        ]
        want = oracles.nms_oracle(boxes, 0.1, lambda i, j: bev_iou(boxes[i], boxes[j]))
        assert list(nms(boxes, 0.1)) == want
