import math

import numpy as np
import pytest

from fullpose import geom, synth
from fullpose.codec import CodecConfig
from fullpose.geom import (
    EulerXYZ, FullPoseBox, PointCloud, bev_iou, box_columns, euler_to_matrix, footprint_at,
    points_in_box, rotations,
)
from fullpose.slopeaug import LabeledFrame, SlopeAugConfig, SlopeAugParams, apply, augment
from fullpose.synth import (
    GROUND_SOURCE,
    PlacementFailureError,
    SceneSpec,
    Terrain,
    _sample_box_surfaces,
    frame_rng,
    make_features,
    make_scene,
    place_boxes,
    resting_euler,
    sample_scene,
)

import oracles

RAMP = Terrain(extent=(0.0, 40.0, -10.0, 10.0), ramp_start=20.0, grade=math.radians(15))
FLAT = Terrain(extent=(0.0, 40.0, -10.0, 10.0))


def euler_bits(e: EulerXYZ) -> bytes:
    return np.array([e.theta_x, e.theta_y, e.theta_z]).tobytes()


def box_bits(b: FullPoseBox) -> tuple:
    return b.center.tobytes(), b.dims.tobytes(), euler_bits(b.euler), b.class_id


class TestTerrain:
    def test_flat_height_and_normal(self):
        xy = np.array([[3.0, 4.0], [30.0, -5.0]])
        assert np.array_equal(FLAT.height(xy), [0.0, 0.0])
        assert np.array_equal(FLAT.normal(xy), [[0, 0, 1], [0, 0, 1]])

    def test_ramp_height(self):
        xy = np.array([[10.0, 0.0], [25.0, 2.0], [30.0, -3.0]])
        h = RAMP.height(xy)
        assert h[0] == 0.0
        assert abs(h[1] - 5.0 * math.tan(math.radians(15))) < 1e-12
        assert abs(h[2] - 10.0 * math.tan(math.radians(15))) < 1e-12

    def test_surface_continuous_at_crease(self):
        eps = 1e-9
        low = RAMP.height([[20.0 - eps, 0.0]])[0]
        high = RAMP.height([[20.0 + eps, 0.0]])[0]
        assert abs(high - low) < 1e-8

    def test_ramp_normal_is_unit_and_tilted(self):
        n = RAMP.normal([[25.0, 0.0]])[0]
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        assert abs(n[0] + math.sin(math.radians(15))) < 1e-12
        assert abs(n[2] - math.cos(math.radians(15))) < 1e-12


class TestRestingEuler:
    def test_flat_gives_zero_tilt(self):
        e = resting_euler([0, 0, 1], yaw=1.2)
        assert e.theta_x == 0.0 and abs(e.theta_y) < 1e-15 and e.theta_z == 1.2

    def test_fifteen_degree_ramp_pitch_magnitude(self):
        n = RAMP.normal([[30.0, 0.0]])[0]
        e = resting_euler(n, yaw=0.0)
        assert abs(abs(e.theta_y) - math.radians(15)) < 1e-9
        assert abs(e.theta_x) < 1e-12

    def test_equals_array_oracle(self):
        rng = np.random.default_rng(1)
        normals = [(0.0, 0.0, 1.0), (-0.0, -0.0, 1.0), tuple(RAMP.normal([[30.0, 0.0]])[0])]
        for _ in range(200):
            raw = rng.standard_normal(3) + [0, 0, 2.0]
            normals.append(tuple((raw / np.linalg.norm(raw)).tolist()))
        for n in normals:
            for yaw in (0.0, -0.0, math.pi, rng.uniform(-7.0, 7.0)):
                assert euler_bits(resting_euler(n, yaw)) == \
                    euler_bits(oracles.resting_euler_oracle(n, yaw))

    def test_rotation_maps_z_to_normal(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            raw = rng.standard_normal(3) + [0, 0, 4.0]
            n = raw / np.linalg.norm(raw)
            yaw = rng.uniform(0, 2 * math.pi)
            rot = euler_to_matrix(resting_euler(n, yaw))
            assert np.abs(rot @ [0, 0, 1] - n).max() < 1e-9


class TestSceneSpecChecks:
    DIMS = {1: (4.2, 1.8, 1.6), 2: (0.8, 0.6, 1.7)}

    @pytest.mark.parametrize("weights", [{1: 0.0}, {1: 0.0, 2: 0.0}, {}])
    def test_weights_without_positive_sum_rejected(self, weights):
        with pytest.raises(ValueError, match="class_weights"):
            SceneSpec(class_weights=weights, class_dims=self.DIMS)

    @pytest.mark.parametrize("weights", [{1: math.nan}, {1: 1.0, 2: math.nan}])
    def test_nan_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="class_weights"):
            SceneSpec(class_weights=weights, class_dims=self.DIMS)

    @pytest.mark.parametrize("weights", [{1: -0.5, 2: 1.0}, {1: 1.0, 2: -1e-300}])
    def test_negative_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="class_weights"):
            SceneSpec(class_weights=weights, class_dims=self.DIMS)

    @pytest.mark.parametrize("weights", [{1: math.inf}, {1: 1e308, 2: 1e308}])
    def test_infinite_weight_or_sum_rejected(self, weights):
        with pytest.raises(ValueError, match="class_weights"):
            SceneSpec(class_weights=weights, class_dims=self.DIMS)

    def test_weighted_class_without_dims_rejected(self):
        with pytest.raises(ValueError, match="class_dims has no entry for class 2"):
            SceneSpec(class_weights={1: 0.5, 2: 0.5}, class_dims={1: (4.2, 1.8, 1.6)})

    @pytest.mark.parametrize("dims", [(4.2, 1.8), (4.2, 0.0, 1.6), (4.2, -1.8, 1.6),
                                      (4.2, math.nan, 1.6), (math.inf, 1.8, 1.6)])
    def test_bad_class_dims_rejected(self, dims):
        with pytest.raises(ValueError, match=r"class_dims\[1\]"):
            SceneSpec(class_weights={1: 1.0}, class_dims={1: dims})

    @pytest.mark.parametrize("yaw_range", [(0.0, math.inf), (math.nan, 1.0), (0.0, math.nan),
                                           (3.0, 1.0), (-1e308, 1e308)],
                             ids=["inf", "nan-low", "nan-high", "reversed", "infinite-width"])
    def test_bad_yaw_range_rejected(self, yaw_range):
        with pytest.raises(ValueError, match="yaw_range"):
            SceneSpec(yaw_range=yaw_range)

    @pytest.mark.parametrize("yaw_range", [(1.0, 1.0), (0.0, 2.0 * math.pi),
                                           (math.radians(35), math.radians(55))])
    def test_yaw_range_accepted(self, yaw_range):
        spec = SceneSpec(terrain=FLAT, box_count=3, yaw_range=yaw_range)
        low, high = yaw_range
        assert all(low <= b.euler.theta_z <= high
                   for b in place_boxes(FLAT, spec, np.random.default_rng(0)))

    def test_unweighted_dims_are_not_read(self):
        SceneSpec(class_weights={1: 1.0}, class_dims={1: (4.2, 1.8, 1.6), 9: (0.0,)})


class TestPlaceBoxes:
    def test_flat_terrain_zero_tilt(self):
        spec = SceneSpec(terrain=FLAT, box_count=6)
        boxes = place_boxes(FLAT, spec, np.random.default_rng(1))
        for b in boxes:
            assert b.euler.theta_x == 0.0
            assert abs(b.euler.theta_y) < 1e-15

    def test_ramp_boxes_tilt_matches_grade(self):
        spec = SceneSpec(terrain=RAMP, box_count=8, ramp_box_fraction=1.0)
        boxes = place_boxes(RAMP, spec, np.random.default_rng(2))
        for b in boxes:
            rot = euler_to_matrix(b.euler)
            normal = RAMP.normal([b.center[:2]])[0]
            assert np.abs(rot @ [0, 0, 1] - normal).max() < 1e-9

    def test_centers_sit_half_height_along_normal(self):
        spec = SceneSpec(terrain=RAMP, box_count=5)
        boxes = place_boxes(RAMP, spec, np.random.default_rng(3))
        for b in boxes:
            normal = euler_to_matrix(b.euler) @ [0, 0, 1]
            foot = b.center - normal * b.dims[2] / 2
            assert abs(foot[2] - RAMP.height([foot[:2]])[0]) < 1e-9

    def test_no_bev_overlap(self):
        spec = SceneSpec(terrain=FLAT, box_count=10)
        boxes = place_boxes(FLAT, spec, np.random.default_rng(4))
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert bev_iou(boxes[i], boxes[j]) == 0.0

    def test_ramp_fraction_honored(self):
        spec = SceneSpec(terrain=RAMP, box_count=10, ramp_box_fraction=0.3)
        boxes = place_boxes(RAMP, spec, np.random.default_rng(5))
        on_ramp = sum(1 for b in boxes if b.center[0] > 20.0)
        assert on_ramp == 3

    @pytest.mark.parametrize("terrain, fraction", [
        (FLAT, None),
        (RAMP, None),
        (Terrain(extent=(0.0, 40.0, -10.0, 10.0), ramp_start=20.0, grade=0.0), None),
        (RAMP, 0.5),
    ], ids=["flat", "ramp", "ramp-grade-0", "ramp-fraction-half"])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_array_terrain_oracle(self, terrain, fraction, seed):
        spec = SceneSpec(terrain=terrain, box_count=15, ramp_box_fraction=fraction,
                         class_weights={1: 0.7, 2: 0.3},
                         class_dims={1: (4.2, 1.8, 1.6), 2: (0.8, 0.6, 1.7)})
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = place_boxes(terrain, spec, got_rng)
        want = oracles.place_boxes_oracle(terrain, spec, want_rng)
        assert [box_bits(b) for b in got] == [box_bits(b) for b in want]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("weights", [
        {1: 0.0, 2: 1.0, 3: 0.0},
        {1: 1.0, 2: 0.0},
        {1: 1e-300, 2: 1.0, 3: 5e-324},
        {1: 0.1, 2: 0.2, 3: 0.7},
        {3: 1.0},
    ], ids=["zero-first-last", "zero-last", "tiny", "thirds", "one-class"])
    def test_class_draw_equals_choice(self, weights):
        # the oracle draws each class with rng.choice
        spec = SceneSpec(terrain=RAMP, box_count=15, class_weights=weights,
                         class_dims={1: (4.2, 1.8, 1.6), 2: (0.8, 0.6, 1.7), 3: (1.7, 0.6, 1.7)})
        for seed in range(3):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = place_boxes(RAMP, spec, got_rng)
            want = oracles.place_boxes_oracle(RAMP, spec, want_rng)
            assert [box_bits(b) for b in got] == [box_bits(b) for b in want]
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert {b.class_id for b in got} <= {k for k, w in weights.items() if w > 0.0}

    def test_surface_at_equals_array_reads(self):
        xs = [0.0, 19.0, 20.0, math.nextafter(20.0, 30.0), 22.5, 40.0, -0.0]
        for terrain in (FLAT, RAMP):
            for x in xs:
                z, normal = terrain.surface_at(x)
                assert type(z) is float and {type(v) for v in normal} == {float}
                xy = np.array([[x, 3.0]])
                assert np.array([z]).tobytes() == terrain.height(xy).tobytes()
                assert np.array(normal).tobytes() == terrain.normal(xy)[0].tobytes()

    def test_placement_failure(self):
        tiny = Terrain(extent=(0.0, 9.0, -4.5, 4.5))
        spec = SceneSpec(terrain=tiny, box_count=40)
        with pytest.raises(PlacementFailureError):
            place_boxes(tiny, spec, np.random.default_rng(6))


class TestSampleScene:
    def test_flat_noiseless_ground_exactly_on_surface(self):
        spec = SceneSpec(terrain=FLAT, box_count=2, density=1.0, noise_sigma=0.0)
        frame = make_scene(spec, np.random.default_rng(7))
        ground = frame.cloud.extras[:, 0] == GROUND_SOURCE
        assert (frame.cloud.points[ground, 2] == 0.0).all()

    def test_point_count_arithmetic(self):
        spec = SceneSpec(terrain=FLAT, box_count=3, density=2.0)
        rng = np.random.default_rng(8)
        boxes = place_boxes(FLAT, spec, rng)
        frame = sample_scene(FLAT, boxes, spec, rng)
        want = math.ceil(2.0 * FLAT.area)
        for b in boxes:
            l, w, h = b.dims
            want += math.ceil(2.0 * 2.0 * (l * w + l * h + w * h))
        assert len(frame.cloud) == want

    def test_noiseless_box_points_inside_inflated_box(self):
        spec = SceneSpec(terrain=RAMP, box_count=4, density=3.0, noise_sigma=0.0)
        rng = np.random.default_rng(9)
        boxes = place_boxes(RAMP, spec, rng)
        frame = sample_scene(RAMP, boxes, spec, rng)
        for i, b in enumerate(boxes):
            pts = frame.cloud.points[frame.cloud.extras[:, 0] == float(i)]
            inflated = FullPoseBox(b.center, b.dims + 2e-6, b.euler, class_id=b.class_id)
            assert points_in_box(pts, inflated).all()

    def test_deterministic_per_seed(self):
        spec = SceneSpec(terrain=RAMP, box_count=3)
        a = make_scene(spec, np.random.default_rng(10))
        b = make_scene(spec, np.random.default_rng(10))
        assert a.cloud.points.tobytes() == b.cloud.points.tobytes()
        assert a.cloud.extras.tobytes() == b.cloud.extras.tobytes()

    def test_generate_frames_are_distinct(self):
        spec = SceneSpec(terrain=FLAT, box_count=2)
        frames = [make_scene(spec, frame_rng(11, i), frame_id=f"{i:06d}")
                  for i in range(3)]
        assert [f.frame_id for f in frames] == ["000000", "000001", "000002"]
        assert frames[0].cloud.points.tobytes() != frames[1].cloud.points.tobytes()

    def test_frame_rng_is_the_seed_index_substream(self):
        spec = SceneSpec(terrain=FLAT, box_count=2)
        want = np.random.default_rng(np.random.SeedSequence([11, 2])).random(4)
        assert np.array_equal(frame_rng(11, 2).random(4), want)
        frame = make_scene(spec, frame_rng(11, 2), frame_id="000002")
        substream = np.random.default_rng(np.random.SeedSequence([11, 2]))
        assert frame.cloud.points.tobytes() == make_scene(spec, substream).cloud.points.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_face_sampling_equals_per_point_oracle(self, seed):
        rng = np.random.default_rng(seed)
        box = FullPoseBox(rng.uniform(-5, 5, 3), rng.uniform(0.2, 5.0, 3),
                          EulerXYZ(*rng.uniform(-0.6, 0.6, 2), rng.uniform(-4, 4)))
        for count in (0, 1, 2, 57, 400):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _sample_box_surfaces(box_columns([box]), [count], got_rng)
            want = oracles.sample_box_surface_oracle(box, count, want_rng)
            assert got.shape == (count, 3)
            assert got.tobytes() == want.tobytes()
            # both consumed the same stream
            assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("box_count", [0, 1, 7])
    @pytest.mark.parametrize("density", [0.5, 1.0, 2.5, 4.0])
    @pytest.mark.parametrize("terrain", [FLAT, RAMP], ids=["flat", "ramp"])
    def test_scene_equals_per_box_oracle(self, terrain, density, box_count):
        spec = SceneSpec(terrain=terrain, box_count=box_count, density=density,
                         noise_sigma=0.02 if density > 1.0 else 0.0,
                         class_weights={1: 1.0, 2: 1.0},
                         class_dims={1: (4.2, 1.8, 1.6), 2: (0.8, 0.6, 1.7)})
        boxes = place_boxes(terrain, spec, np.random.default_rng(box_count))
        assert len(boxes) == box_count
        got_rng, want_rng = np.random.default_rng(17), np.random.default_rng(17)
        frame = sample_scene(terrain, boxes, spec, got_rng)
        points, tags = oracles.sample_scene_oracle(terrain, boxes, spec, want_rng)
        assert frame.cloud.points.tobytes() == points.tobytes()
        assert frame.cloud.extras[:, 0].tobytes() == tags.tobytes()
        assert got_rng.random() == want_rng.random()


class TestMakeFeatures:
    def _ramp_frame(self, seed=12):
        spec = SceneSpec(terrain=RAMP, box_count=6, density=4.0, noise_sigma=0.0,
                         crease_margin=3.0, ramp_box_fraction=0.5)
        return make_scene(spec, np.random.default_rng(seed))

    def test_noiseless_plane_fit_matches_true_normal(self):
        frame = self._ramp_frame()
        centers, features, targets = make_features(
            frame, 0.0, np.random.default_rng(0), feature_dim=16
        )
        for i in np.nonzero(targets.foreground)[0]:
            true_normal = RAMP.normal([centers[i, :2]])[0]
            assert np.abs(features[i, 0:3] - true_normal).max() < 1e-6

    def test_flat_scene_all_ground_labels_zero(self):
        spec = SceneSpec(terrain=FLAT, box_count=4, noise_sigma=0.0)
        frame = make_scene(spec, np.random.default_rng(13))
        _, _, targets = make_features(frame, 0.0, np.random.default_rng(1), feature_dim=16)
        assert (targets.ground_label == 0).all()

    def test_one_foreground_center_per_box_plus_background(self):
        frame = self._ramp_frame(seed=14)
        centers, _, targets = make_features(
            frame, 0.0, np.random.default_rng(2), feature_dim=16, bg_per_frame=10
        )
        assert targets.foreground[: len(frame.boxes)].all()
        assert not targets.foreground[len(frame.boxes):].any()
        assert len(centers) == len(frame.boxes) + 10

    def test_class_cue_matches_labels(self):
        frame = self._ramp_frame(seed=15)
        _, features, targets = make_features(
            frame, 0.0, np.random.default_rng(3), feature_dim=16
        )
        for i in range(len(targets)):
            cue = features[i, 5:7]
            assert cue[targets.class_label[i] % 2] == (1.0 if targets.foreground[i] else 0.0)

    def test_deterministic(self):
        frame = self._ramp_frame(seed=16)
        a = make_features(frame, 0.1, np.random.default_rng(4), feature_dim=16)
        b = make_features(frame, 0.1, np.random.default_rng(4), feature_dim=16)
        assert a[1].tobytes() == b[1].tobytes()

    @pytest.mark.parametrize("variant", ["sampled", "grid", "fallback", "faces"])
    @pytest.mark.parametrize("terrain, seed", [(FLAT, 21), (FLAT, 22), (RAMP, 23), (RAMP, 24)])
    def test_equals_per_center_oracle(self, terrain, seed, variant):
        # crowded and sparse: background candidates often land in boxes and
        # some plane fits double their radius
        spec = SceneSpec(terrain=terrain, box_count=12, noise_sigma=0.01,
                         density=0.004 if variant == "fallback" else 0.6,
                         ramp_box_fraction=0.5 if terrain is RAMP else None)
        frame = make_scene(spec, np.random.default_rng(seed))
        points, tags = frame.cloud.points, frame.cloud.extras[:, 0]
        if variant == "grid":
            # ground snapped to a 1 m grid: duplicate points tie in the nearest
            # ground search (the lowest index wins) and background centers see
            # fit-radius neighbours at exactly 2 m
            ground = tags == GROUND_SOURCE
            points[ground, :2] = np.round(points[ground, :2])
        elif variant == "faces":
            # ground points exactly on the boxes' faces, tilted ones on the
            # ramp: candidates there stay inside only by the 1e-9 m guard
            faces = np.vstack([oracles.sample_box_surface_oracle(b, 30, np.random.default_rng(seed))
                               for b in frame.boxes])
            frame = LabeledFrame(PointCloud(np.vstack([points, faces]),
                                            np.concatenate([tags, np.full(len(faces), GROUND_SOURCE)])),
                                 frame.boxes)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        centers, features, targets = make_features(frame, 0.05, got_rng, feature_dim=16,
                                                   bg_per_frame=60)
        want_centers, want_features = oracles.make_features_oracle(
            frame, 0.05, want_rng, feature_dim=16, bg_per_frame=60)
        assert centers.tobytes() == want_centers.tobytes()
        assert features.tobytes() == want_features.tobytes()
        assert got_rng.random() == want_rng.random()
        want_targets = oracles.make_targets_oracle(want_centers, frame.boxes, CodecConfig())
        assert {k: v.tobytes() for k, v in vars(targets).items()} == \
            {k: v.tobytes() for k, v in vars(want_targets).items()}
        if variant == "fallback":
            # some fits find fewer than 3 ground points within the last radius, 16 m
            ground_xy = frame.cloud.points[frame.cloud.extras[:, 0] == GROUND_SOURCE, :2]
            within = np.linalg.norm(ground_xy - centers[:, None, :2], axis=2) <= 16.0
            assert (within.sum(axis=1) < 3).any()

    def _assert_equals_oracle(self, frame, seed, bg_per_frame):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        centers, features, _ = make_features(frame, 0.05, got_rng, feature_dim=16,
                                             bg_per_frame=bg_per_frame)
        want_centers, want_features = oracles.make_features_oracle(
            frame, 0.05, want_rng, feature_dim=16, bg_per_frame=bg_per_frame)
        assert centers.tobytes() == want_centers.tobytes()
        assert features.tobytes() == want_features.tobytes()
        assert got_rng.random() == want_rng.random()
        return centers

    @pytest.mark.parametrize("bg_per_frame", [1, 3])
    def test_attempt_limit_equals_oracle(self, bg_per_frame):
        # every ground point lies inside the one box, so no candidate is
        # kept and all 100 * bg_per_frame attempts run out
        rng = np.random.default_rng(31)
        box = FullPoseBox(np.array([5.0, 0.0, 0.5]), np.array([12.0, 8.0, 3.0]),
                          EulerXYZ(0.0, 0.0, 0.3), class_id=1)
        ground = np.column_stack([rng.uniform(2.0, 8.0, 200), rng.uniform(-2.0, 2.0, 200),
                                  np.zeros(200)])
        faces = oracles.sample_box_surface_oracle(box, 50, rng)
        cloud = PointCloud(np.vstack([ground, faces]),
                           np.concatenate([np.full(200, GROUND_SOURCE), np.zeros(50)]))
        assert points_in_box(ground, box).all()
        centers = self._assert_equals_oracle(LabeledFrame(cloud, [box]), 7, bg_per_frame)
        assert len(centers) == 1

    @pytest.mark.parametrize("terrain, seed", [(FLAT, 21), (RAMP, 23), (RAMP, 24)])
    def test_one_background_center_equals_oracle(self, terrain, seed):
        spec = SceneSpec(terrain=terrain, box_count=12, noise_sigma=0.01, density=0.6,
                         ramp_box_fraction=0.5 if terrain is RAMP else None)
        frame = make_scene(spec, np.random.default_rng(seed))
        for rng_seed in range(8):
            centers = self._assert_equals_oracle(frame, rng_seed, 1)
            assert len(centers) == len(frame.boxes) + 1

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_distance_blocks_of_few_rows_equal_oracle(self, monkeypatch, block_rows):
        spec = SceneSpec(terrain=RAMP, box_count=12, noise_sigma=0.01, density=0.6,
                         ramp_box_fraction=0.5)
        frame = make_scene(spec, np.random.default_rng(23))
        n_ground = int(np.count_nonzero(frame.cloud.extras[:, 0] == GROUND_SOURCE))
        monkeypatch.setattr(synth, "_BLOCK_SIZE", block_rows * n_ground)
        assert len(self._assert_equals_oracle(frame, 5, 60)) == len(frame.boxes) + 60

    def test_no_centers_is_an_empty_array(self):
        frame = make_scene(SceneSpec(terrain=FLAT, box_count=0), np.random.default_rng(19))
        centers, features, targets = make_features(
            frame, 0.0, np.random.default_rng(6), feature_dim=16, bg_per_frame=0
        )
        assert centers.shape == (0, 3) and features.shape == (0, 16) and len(targets) == 0

    def test_requires_source_tags(self):
        frame = self._ramp_frame(seed=17)
        frame.cloud.extras = None
        with pytest.raises(ValueError, match="source tags"):
            make_features(frame, 0.0, np.random.default_rng(5))


class TestSlopeAugCrossCheck:
    def test_flat_scene_far_boxes_get_axis_angle_tilt(self):
        from fullpose.geom import to_euler_xy

        spec = SceneSpec(terrain=FLAT, box_count=5)
        frame = make_scene(spec, np.random.default_rng(18))
        params = SlopeAugParams(
            tau=np.array([15.0, 0.0, 0.0]), v=np.array([0.0, 1.0, 0.0]), gamma=0.25
        )
        out = apply(frame, params)
        tx, ty = to_euler_xy(params.v, params.gamma)
        tau = params.tau
        for before, after in zip(frame.boxes, out.boxes):
            if tau @ (tau - before.center) < 0:
                assert after.euler.theta_x == tx
                assert after.euler.theta_y == ty
            else:
                assert after.euler == before.euler


# the benchmark's (boxes per frame, scenes, seed) of each split: crowded, then training
BENCH_SPLITS = [(15, 4, 0), (15, 20, 1_000_003), (10, 3, 0), (10, 24, 1_000_003)]


def _benchmark_boxes():
    """Every box of the benchmark's synthesized frames and of their slope-augmented copies."""
    boxes = []
    for count, scenes, seed in BENCH_SPLITS:
        spec = SceneSpec(terrain=Terrain(ramp_start=20.0, grade=math.radians(15)),
                         box_count=count, density=1.0)
        for i in range(scenes):
            frame = make_scene(spec, frame_rng(seed, i))
            tilted = augment(frame, SlopeAugConfig(p_s=1.0), np.random.default_rng(i))
            boxes += frame.boxes + tilted.boxes
    assert len(boxes) == 2 * (15 * 24 + 10 * 27)
    return boxes


def test_rotations_of_benchmark_boxes_equal_euler_to_matrix():
    boxes = _benchmark_boxes()
    want = np.array([euler_to_matrix(b.euler) for b in boxes])
    assert rotations(box_columns(boxes)[2]).tobytes() == want.tobytes(), \
        f"numpy {np.__version__}, {oracles.blas_build()}"


def test_footprints_of_benchmark_boxes_equal_footprint_at():
    """The batched footprint corners (``np.cos``/``np.sin`` of the yaw column) have
    the bits of corners built from ``footprint_at``'s ``math.cos``/``math.sin``."""
    boxes = _benchmark_boxes()
    frames = [footprint_at(float(b.center[0]), float(b.center[1]), b.euler.theta_z,
                           float(b.dims[0]), float(b.dims[1])) for b in boxes]
    want = geom._corners(*(np.array(col)[:, None] for col in list(zip(*frames))[:6]))
    got = geom._footprints(*box_columns(boxes)[:3]).corners
    assert got.tobytes() == want.tobytes(), f"numpy {np.__version__}, {oracles.blas_build()}"
