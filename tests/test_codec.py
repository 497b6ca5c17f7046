import math

import numpy as np
import pytest

from fullpose.codec import (
    BoxTargets,
    CodecConfig,
    NonPositiveDimensionError,
    TiltOutOfRangeError,
    YawCode,
    decode_center_offset,
    decode_dims,
    decode_tilt,
    decode_yaw,
    encode_center_offset,
    encode_dims,
    encode_tilt,
    encode_yaw,
    gate_tilt,
    ground_label,
    make_targets,
    wrap_angle,
)
from fullpose.geom import EulerXYZ, FullPoseBox, box_columns

CFG = CodecConfig()
DEG = math.radians(1.0)


def box(center, dims, tx=0.0, ty=0.0, tz=0.0, class_id=1):
    return FullPoseBox(np.array(center, float), np.array(dims, float),
                       EulerXYZ(tx, ty, tz), class_id=class_id)


class TestYaw:
    def test_zero_angle(self):
        code = encode_yaw(0.0, CFG)
        assert (code.bin, code.residual) == (0, 0.5)

    def test_in_bin_residual(self):
        code = encode_yaw(0.3, CFG)
        assert code.bin == 0
        assert abs(code.residual - (0.3 / (math.pi / 6) + 0.5)) < 1e-12
        assert abs(code.residual - 1.07296) < 1e-5

    def test_negative_angle_wraps(self):
        code = encode_yaw(-math.pi / 6, CFG)
        assert code.bin == 11
        assert abs(code.residual - 0.5) < 1e-12

    def test_decode_examples(self):
        assert decode_yaw(YawCode(0, 0.5), CFG) == 0.0
        assert abs(decode_yaw(YawCode(1, 0.5), CFG) - math.pi / 6) < 1e-12

    def test_round_trip_sweep(self):
        rng = np.random.default_rng(20)
        for theta in rng.uniform(-20, 20, 1000):
            back = decode_yaw(encode_yaw(theta, CFG), CFG)
            assert abs(back - wrap_angle(theta)) < 1e-12

    def test_residual_and_bin_ranges(self):
        rng = np.random.default_rng(21)
        for theta in rng.uniform(-20, 20, 1000):
            code = encode_yaw(theta, CFG)
            assert 0 <= code.bin < CFG.n_yaw_bins
            assert 0.5 <= code.residual < 1.5


class TestGroundLabel:
    def test_flat_box(self):
        assert ground_label(box([0, 0, 0], [1, 1, 1]).euler.as_array(), CFG) == 0

    def test_pitched_box(self):
        assert ground_label(box([0, 0, 0], [1, 1, 1], ty=20 * DEG).euler.as_array(), CFG) == 1

    def test_negative_pitch_modes(self):
        b = box([0, 0, 0], [1, 1, 1], ty=-20 * DEG)
        assert ground_label(b.euler.as_array(), CFG) == 1

    def test_threshold_is_inclusive(self):
        b = box([0, 0, 0], [1, 1, 1], tx=CFG.t_theta_x)
        assert ground_label(b.euler.as_array(), CFG) == 1

    def test_invariant_under_yaw(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            tx, ty = rng.uniform(-0.6, 0.6, 2)
            labels = {
                ground_label(box([0, 0, 0], [1, 1, 1], tx, ty, tz).euler.as_array(), CFG)
                for tz in rng.uniform(0, 2 * math.pi, 5)
            }
            assert len(labels) == 1

    def test_array_matches_each_row(self):
        t = CFG.t_theta_x
        euler = np.array([[0.0, 0.0, 1.0], [t, 0.0, 0.0], [0.0, -t, 0.0],
                          [np.nextafter(t, 0.0), -np.nextafter(t, 0.0), 2.0], [-0.5, 0.3, 0.0]])
        labels = ground_label(euler, CFG)
        assert labels.dtype == np.intp and labels.tolist() == [0, 1, 1, 0, 1]
        assert labels.tolist() == [ground_label(row, CFG) for row in euler]
        assert ground_label(np.zeros((0, 3)), CFG).shape == (0,)


class TestTilt:
    T = math.radians(10.0)

    def test_threshold_encodes_to_zero(self):
        assert encode_tilt(self.T, self.T) == 0.0

    def test_twenty_degrees(self):
        assert abs(encode_tilt(20 * DEG, self.T) - 1.0 / 9.0) < 1e-12

    def test_negative_is_sign_symmetric(self):
        assert abs(encode_tilt(-20 * DEG, self.T) + 1.0 / 9.0) < 1e-12

    def test_decode_zero_is_zero(self):
        # a zero target comes from theta = 0 and from |theta| = t; it
        # decodes to the flat reading, the inverse of encode_tilt(0.0)
        assert decode_tilt(0.0, self.T) == 0.0
        assert decode_tilt(-0.0, self.T) == 0.0
        assert decode_tilt(encode_tilt(0.0, self.T), self.T) == 0.0

    def test_decode_one_ninth(self):
        assert abs(decode_tilt(1.0 / 9.0, self.T) - 0.349066) < 1e-6

    def test_round_trip_sweep(self):
        rng = np.random.default_rng(23)
        mags = rng.uniform(self.T, 80 * DEG, 1000)
        signs = np.where(rng.random(1000) < 0.5, 1.0, -1.0)
        for theta in mags * signs:
            back = decode_tilt(encode_tilt(theta, self.T), self.T)
            assert abs(back - theta) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(TiltOutOfRangeError):
            encode_tilt(math.pi / 2, self.T)


class TestGate:
    def test_closed(self):
        assert gate_tilt(0.3, 0.5) == 0.0

    def test_open(self):
        assert gate_tilt(0.9, 0.349066) == 0.349066

    def test_boundary_is_strict(self):
        assert gate_tilt(0.5, 123.0) == 0.0

    def test_exactly_zero_below_half(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            s = rng.uniform(0, 0.5)
            assert gate_tilt(s, rng.standard_normal()) == 0.0


class TestDimsAndOffsets:
    def test_unit_dims(self):
        assert np.array_equal(encode_dims([1, 1, 1]), np.zeros(3))

    def test_exact_logs(self):
        got = encode_dims([math.e, math.e**2, 1.0])
        assert np.allclose(got, [1, 2, 0], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(26)
        for _ in range(1000):
            dims = rng.uniform(0.1, 10, 3)
            assert np.abs(decode_dims(encode_dims(dims)) - dims).max() < 1e-12

    def test_nonpositive_dims(self):
        with pytest.raises(NonPositiveDimensionError):
            encode_dims([1, 0, 1])

    def test_offset_examples(self):
        assert np.array_equal(encode_center_offset([1, 1, 0], [2, 3, 0]), [1, 2, 0])
        assert np.array_equal(encode_center_offset([2, 3, 0], [2, 3, 0]), [0, 0, 0])

    def test_offset_round_trip(self):
        rng = np.random.default_rng(27)
        for _ in range(1000):
            p, c = rng.uniform(-50, 50, 3), rng.uniform(-50, 50, 3)
            back = decode_center_offset(p, encode_center_offset(p, c))
            assert np.abs(back - c).max() < 1e-12


class TestMakeTargets:
    def test_flat_box_center(self):
        gts = [box([5, 0, 0], [4, 2, 1.5], tz=0.4)]
        t = make_targets(np.array([[5.0, 0.0, 0.2]]), box_columns(gts), CFG)
        assert t.foreground[0]
        assert t.class_label[0] == 1
        assert t.ground_label[0] == 0

    def test_sloped_box_center(self):
        gts = [box([5, 0, 0], [4, 2, 1.5], ty=20 * DEG)]
        t = make_targets(np.array([[5.0, 0.0, 0.0]]), box_columns(gts), CFG)
        assert t.ground_label[0] == 1
        assert abs(t.tilt[0, 1] - 1.0 / 9.0) < 1e-12

    def test_background_center(self):
        gts = [box([5, 0, 0], [4, 2, 1.5])]
        t = make_targets(np.array([[50.0, 0.0, 0.0]]), box_columns(gts), CFG)
        assert not t.foreground[0]
        assert t.class_label[0] == 0
        assert np.array_equal(t.center_offset[0], np.zeros(3))

    def test_overlapping_boxes_take_nearest_center(self):
        gts = [
            box([0, 0, 0], [6, 6, 2], class_id=1),
            box([1, 0, 0], [6, 6, 2], class_id=2),
        ]
        t = make_targets(np.array([[0.9, 0.0, 0.0]]), box_columns(gts), CFG)
        assert t.class_label[0] == 2
        assert np.allclose(t.center_offset[0], [0.1, 0, 0])

    def test_targets_encode_box_attributes(self):
        gt = box([2, 1, 0.5], [4, 2, 1.5], tz=1.1)
        t = make_targets(np.array([[2.5, 1.0, 0.3]]), box_columns([gt]), CFG)
        assert t.yaw_bin[0] == encode_yaw(1.1, CFG).bin
        assert abs(t.yaw_residual[0] - encode_yaw(1.1, CFG).residual) < 1e-15
        assert np.allclose(t.log_dims[0], np.log([4, 2, 1.5]))
        assert np.allclose(t.center_offset[0], [-0.5, 0.0, 0.2])

    def test_foreground_mask_is_union_of_memberships(self):
        rng = np.random.default_rng(28)
        gts = [
            box(rng.uniform(-5, 5, 3), rng.uniform(1, 3, 3), tz=rng.uniform(0, 7))
            for _ in range(4)
        ]
        centers = rng.uniform(-6, 6, (200, 3))
        t = make_targets(centers, box_columns(gts), CFG)
        from fullpose.geom import points_in_box

        union = np.zeros(200, dtype=bool)
        for gt in gts:
            union |= points_in_box(centers, gt)
        assert np.array_equal(t.foreground, union)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BoxTargets(
                class_label=np.zeros(2, dtype=np.intp),
                ground_label=np.zeros(2, dtype=np.intp),
                yaw_bin=np.zeros(2, dtype=np.intp),
                yaw_residual=np.zeros(2),
                tilt=np.zeros((3, 2)),
                log_dims=np.zeros((2, 3)),
                center_offset=np.zeros((2, 3)),
                foreground=np.zeros(2, dtype=bool),
            )
