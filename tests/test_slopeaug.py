import math

import numpy as np
import pytest

from fullpose.geom import (
    EulerXYZ,
    FullPoseBox,
    PointCloud,
    axis_angle_transform,
    points_in_box,
    transform_box,
)
from fullpose.slopeaug import (
    LabeledFrame,
    SlopeAugConfig,
    SlopeAugParams,
    ZeroAnchorError,
    apply,
    augment,
    frame_rng,
    sample_params,
    split_cloud,
)


def make_frame(rng, n_points=500, boxes=None, frame_id="f0"):
    pts = rng.uniform(-40, 40, (n_points, 3))
    pts[:, 2] = rng.uniform(-0.2, 0.2, n_points)
    extras = rng.uniform(0, 1, (n_points, 1))
    return LabeledFrame(PointCloud(pts, extras), boxes or [], frame_id=frame_id)


def flat_box(center, yaw=0.0, dims=(4.0, 2.0, 1.5), class_id=1):
    return FullPoseBox(np.array(center, float), np.array(dims), EulerXYZ(0, 0, yaw),
                       class_id=class_id)


class TestSampleParams:
    def test_construction_invariants(self):
        cfg = SlopeAugConfig()
        signs = set()
        for seed in range(100):
            p = sample_params(cfg, np.random.default_rng(seed))
            signs.add(math.copysign(1.0, p.gamma))
            assert abs(math.atan2(p.tau[1], p.tau[0])) <= math.pi / 4 + 1e-12
            assert abs(p.tau @ p.v) < 1e-9
            assert abs(np.linalg.norm(p.v) - 1.0) < 1e-12
            assert p.tau[2] == 0.0
            r = np.linalg.norm(p.tau)
            assert cfg.r_range[0] <= r <= cfg.r_range[1]
            assert cfg.gamma_range[0] <= abs(p.gamma) <= cfg.gamma_range[1]
        assert signs == {1.0, -1.0}  # uphill and downhill slopes both occur

    def test_axis_aligned_anchor(self):
        # alpha = 0 gives tau on +x and tangent +y; pin by construction
        p = SlopeAugParams(tau=np.array([10.0, 0.0, 0.0]), v=np.array([0.0, 1.0, 0.0]),
                           gamma=0.2)
        assert np.allclose(p.tau, [10, 0, 0]) and np.allclose(p.v, [0, 1, 0])

    def test_deterministic_given_seed(self):
        cfg = SlopeAugConfig()
        a = sample_params(cfg, np.random.default_rng(42))
        b = sample_params(cfg, np.random.default_rng(42))
        assert a.tau.tobytes() == b.tau.tobytes()
        assert a.v.tobytes() == b.v.tobytes()
        assert a.gamma == b.gamma


class TestSplitCloud:
    def test_origin_lands_near_side(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        near, far = split_cloud(cloud, [10, 0, 0])
        assert list(near) == [0] and list(far) == []

    def test_beyond_anchor_lands_far_side(self):
        cloud = PointCloud(np.array([[20.0, 0.0, 0.0]]))
        near, far = split_cloud(cloud, [10, 0, 0])
        assert list(near) == [] and list(far) == [0]

    def test_matches_scalar_product_oracle(self):
        rng = np.random.default_rng(30)
        cloud = PointCloud(rng.uniform(-50, 50, (1000, 3)))
        tau = np.array([12.0, -5.0, 0.0])
        near, far = split_cloud(cloud, tau)
        far_set = {i for i, p in enumerate(cloud.points) if tau @ (tau - p) < 0}
        assert set(far) == far_set
        assert set(near) == set(range(1000)) - far_set
        assert len(near) + len(far) == 1000

    def test_zero_anchor(self):
        with pytest.raises(ZeroAnchorError):
            split_cloud(PointCloud(np.zeros((1, 3))), [0, 0, 0])


PARAMS = SlopeAugParams(tau=np.array([10.0, 0.0, 0.0]), v=np.array([0.0, 1.0, 0.0]),
                        gamma=0.2)


class TestApply:
    def test_zero_gamma_is_exact_identity(self):
        frame = make_frame(np.random.default_rng(31), boxes=[flat_box([20, 0, 0])])
        out = apply(frame, SlopeAugParams(PARAMS.tau, PARAMS.v, 0.0))
        assert out.cloud.points.tobytes() == frame.cloud.points.tobytes()
        assert out.cloud.extras.tobytes() == frame.cloud.extras.tobytes()
        assert np.array_equal(out.boxes[0].center, frame.boxes[0].center)
        assert out.boxes[0].euler == frame.boxes[0].euler

    def test_worked_rodrigues_example(self):
        frame = LabeledFrame(
            PointCloud(np.array([[0.0, 0.0, 0.0]])),
            [flat_box([20, 0, 0], yaw=0.5)],
        )
        out = apply(frame, PARAMS)
        want_center = np.array([10 + 10 * math.cos(0.2), 0.0, -10 * math.sin(0.2)])
        assert np.abs(out.boxes[0].center - want_center).max() < 1e-9
        e = out.boxes[0].euler
        assert abs(e.theta_x) < 1e-9
        assert abs(e.theta_y - 0.2) < 1e-9
        assert e.theta_z == 0.5

    def test_near_side_points_bit_identical(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            frame = make_frame(rng, n_points=200)
            near, _ = split_cloud(frame.cloud, PARAMS.tau)
            out = apply(frame, PARAMS)
            assert out.cloud.points[near].tobytes() == frame.cloud.points[near].tobytes()

    def test_far_side_isometry(self):
        rng = np.random.default_rng(32)
        frame = make_frame(rng)
        _, far = split_cloud(frame.cloud, PARAMS.tau)
        out = apply(frame, PARAMS)
        a = frame.cloud.points[far]
        b = out.cloud.points[far]
        d_before = np.linalg.norm(a[:, None] - a[None, :], axis=2)
        d_after = np.linalg.norm(b[:, None] - b[None, :], axis=2)
        assert np.abs(d_before - d_after).max() < 1e-6

    def test_split_predicate_consistency(self):
        rng = np.random.default_rng(33)
        frame = make_frame(rng)
        tau = PARAMS.tau
        near, far = split_cloud(frame.cloud, tau)
        side = np.array([tau @ (tau - p) for p in frame.cloud.points])
        assert (side[far] < 0).all()
        assert (side[near] >= 0).all()

    def test_yaw_preserved_for_all_boxes(self):
        rng = np.random.default_rng(34)
        boxes = [flat_box(rng.uniform(-30, 30, 3), yaw=rng.uniform(0, 2 * math.pi))
                 for _ in range(20)]
        frame = make_frame(rng, boxes=boxes)
        out = apply(frame, PARAMS)
        for before, after in zip(boxes, out.boxes):
            assert after.euler.theta_z == before.euler.theta_z

    def test_near_side_boxes_unchanged(self):
        frame = make_frame(np.random.default_rng(35), boxes=[flat_box([2, 0, 0], yaw=1.0)])
        out = apply(frame, PARAMS)
        assert np.array_equal(out.boxes[0].center, [2, 0, 0])
        assert out.boxes[0].euler == EulerXYZ(0, 0, 1.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    def test_output_shares_no_memory_with_input(self, gamma):
        boxes = [flat_box([2, 0, 0]), flat_box([20, 0, 0])]  # near and far side
        frame = make_frame(np.random.default_rng(37), boxes=boxes)
        out = apply(frame, SlopeAugParams(PARAMS.tau, PARAMS.v, gamma))

        def arrays(f):
            return [f.cloud.points, f.cloud.extras, *(a for b in f.boxes for a in (b.center, b.dims))]

        assert not any(np.shares_memory(a, b) for a in arrays(frame) for b in arrays(out))

    def test_extras_carried_through(self):
        frame = make_frame(np.random.default_rng(36))
        out = apply(frame, PARAMS)
        assert out.cloud.extras.tobytes() == frame.cloud.extras.tobytes()

    def test_box_point_mask_consistency_exact_mode(self):
        # the exact pose composition moves the box exactly with its points
        rng = np.random.default_rng(37)
        box = flat_box([25, 3, 0.75], yaw=0.8)
        inside_local = rng.uniform(-0.45, 0.45, (200, 3)) * box.dims
        pts = inside_local @ np.asarray(
            [[math.cos(0.8), -math.sin(0.8), 0], [math.sin(0.8), math.cos(0.8), 0], [0, 0, 1]]
        ).T[..., :] + box.center
        outside = rng.uniform(-40, -20, (100, 3))
        cloud = PointCloud(np.vstack([pts, outside]))
        frame = LabeledFrame(cloud, [box])
        before = points_in_box(cloud.points, box)
        out = apply(frame, PARAMS)
        exact = transform_box(box, axis_angle_transform(PARAMS.v, PARAMS.gamma, PARAMS.tau))
        after = points_in_box(out.cloud.points, exact)
        assert np.array_equal(before, after)

    def test_default_mode_keeps_deep_interior_points(self):
        # the default annotation is approximate; points well inside stay in
        rng = np.random.default_rng(38)
        box = flat_box([25, 3, 0.75], yaw=0.8)
        inside_local = rng.uniform(-0.3, 0.3, (100, 3)) * box.dims
        c, s = math.cos(0.8), math.sin(0.8)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        pts = inside_local @ rot.T + box.center
        frame = LabeledFrame(PointCloud(pts), [box])
        out = apply(frame, PARAMS)
        assert points_in_box(out.cloud.points, out.boxes[0]).all()


class TestAugment:
    def test_probability_zero_is_identity(self):
        cfg = SlopeAugConfig(p_s=0.0)
        for seed in range(20):
            frame = make_frame(np.random.default_rng(100 + seed))
            out = augment(frame, cfg, np.random.default_rng(seed))
            assert out is frame

    def test_probability_one_with_zero_gamma_is_geometric_identity(self):
        cfg = SlopeAugConfig(p_s=1.0, gamma_range=(0.0, 1e-300))
        frame = make_frame(np.random.default_rng(39))
        out = augment(frame, cfg, np.random.default_rng(7))
        assert np.abs(out.cloud.points - frame.cloud.points).max() < 1e-9

    def test_probability_one_composes_gate_then_params(self):
        cfg = SlopeAugConfig(p_s=1.0)
        frame = make_frame(np.random.default_rng(40), boxes=[flat_box([30, 0, 0])])
        out = augment(frame, cfg, np.random.default_rng(7))
        ref_rng = np.random.default_rng(7)
        ref_rng.random()  # the gate draw
        want = apply(frame, sample_params(cfg, ref_rng))
        assert out.cloud.points.tobytes() == want.cloud.points.tobytes()
        assert np.array_equal(out.boxes[0].center, want.boxes[0].center)

    def test_deterministic_across_runs(self):
        cfg = SlopeAugConfig(p_s=1.0)
        frame = make_frame(np.random.default_rng(41))
        a = augment(frame, cfg, frame_rng(9, "frame-3"))
        b = augment(frame, cfg, frame_rng(9, "frame-3"))
        assert a.cloud.points.tobytes() == b.cloud.points.tobytes()

    def test_frame_rng_differs_by_frame(self):
        a = frame_rng(0, "a").random(4)
        b = frame_rng(0, "b").random(4)
        assert not np.array_equal(a, b)


class TestConfigValidation:
    @pytest.mark.parametrize("gamma_range", [(0.1, 2.0), (-0.1, 0.2), (0.2, math.pi / 2)])
    def test_gamma_magnitudes_outside_quarter_turn_rejected(self, gamma_range):
        with pytest.raises(ValueError, match="gamma magnitudes"):
            SlopeAugConfig(gamma_range=gamma_range)

    def test_gamma_range_just_below_quarter_turn_accepted(self):
        cfg = SlopeAugConfig(gamma_range=(0.0, math.pi / 2 - 1e-9))
        assert cfg.gamma_range[1] < math.pi / 2
