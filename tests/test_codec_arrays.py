"""Property tests of the array codec against scalar calls and per-center oracles."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from fullpose.codec import (  # noqa: E402
    CodecConfig,
    NonPositiveDimensionError,
    TiltOutOfRangeError,
    YawCode,
    decode_tilt,
    decode_yaw,
    encode_tilt,
    encode_yaw,
    gate_tilt,
    make_targets,
    wrap_angle,
)
from fullpose.geom import TWO_PI, EulerXYZ, FullPoseBox, box_columns  # noqa: E402
from fullpose.head import HeadConfig, HeadOutput, head_decode  # noqa: E402
from fullpose.synth import _sample_box_surface  # noqa: E402

import oracles  # noqa: E402

HALF_PI = math.pi / 2.0

# angles near the wrap seam and the exact zeros, mixed into ordinary draws
special = st.sampled_from([0.0, -0.0, 0.5, -1e-300, 1e-300, -1e-17, TWO_PI, -TWO_PI,
                           TWO_PI - 1e-15, math.pi, 1.0 / 9.0, -1.0 / 9.0])
angles = st.one_of(special, st.floats(-50.0, 50.0, allow_nan=False))
angle_arrays = st.lists(angles, min_size=0, max_size=12)
# headings at and next to the 2*pi seam, where the last yaw bin ends
yaw_seams = st.sampled_from([math.nextafter(TWO_PI, 0.0), -math.nextafter(0.0, 1.0),
                             math.nextafter(-TWO_PI, 0.0), 3 * TWO_PI - 1e-14])
thresholds = st.floats(1e-3, math.pi / 4 - 1e-3)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestElementwise:
    @given(angle_arrays)
    def test_wrap_angle(self, xs):
        assert bits(wrap_angle(np.array(xs, dtype=np.float64))) == bits([wrap_angle(x) for x in xs])

    @given(st.lists(st.tuples(st.integers(0, 11), angles), max_size=12))
    def test_decode_yaw(self, codes):
        cfg = CodecConfig()
        bins = np.array([b for b, _ in codes], dtype=np.intp)
        res = np.array([r for _, r in codes], dtype=np.float64)
        scalar = [decode_yaw(YawCode(b, r), cfg) for b, r in codes]
        assert bits(decode_yaw(YawCode(bins, res), cfg)) == bits(scalar)

    @given(st.lists(st.one_of(angles, yaw_seams), max_size=12), st.integers(2, 16))
    def test_encode_yaw(self, xs, n_bins):
        cfg = CodecConfig(n_yaw_bins=n_bins)
        got = encode_yaw(np.array(xs, dtype=np.float64), cfg)
        assert got.bin.dtype == np.intp and got.bin.shape == got.residual.shape == (len(xs),)
        scalar = [encode_yaw(x, cfg) for x in xs]
        assert got.bin.tolist() == [code.bin for code in scalar]
        assert bits(got.residual) == bits([code.residual for code in scalar])
        oracle = [oracles.encode_yaw_oracle(x, cfg) for x in xs]
        assert got.bin.tolist() == [b for b, _ in oracle]
        assert bits(got.residual) == bits([r for _, r in oracle])

    def test_encode_yaw_seam_and_last_bin(self):
        cfg = CodecConfig()
        xs = [TWO_PI, -TWO_PI, TWO_PI - 1e-15, math.nextafter(TWO_PI, 0.0), -1e-300,
              11 * cfg.bin_size, math.nextafter(11 * cfg.bin_size, 0.0)]
        got = encode_yaw(np.array(xs), cfg)
        assert got.bin.tolist() == [0, 0, 11, 11, 0, 11, 10]  # -1e-300 wraps onto the seam
        assert got.bin.tolist() == [oracles.encode_yaw_oracle(x, cfg)[0] for x in xs]
        assert bits(got.residual) == bits([oracles.encode_yaw_oracle(x, cfg)[1] for x in xs])

    @given(angle_arrays, thresholds)
    def test_decode_tilt(self, xs, t):
        scalar = [decode_tilt(x, t) for x in xs]
        assert bits(decode_tilt(np.array(xs, dtype=np.float64), t)) == bits(scalar)

    @given(st.lists(st.tuples(st.one_of(st.just(0.5), st.floats(0.0, 1.0)), angles), max_size=12))
    def test_gate_tilt(self, pairs):
        s_g = np.array([s for s, _ in pairs], dtype=np.float64)
        theta = np.array([x for _, x in pairs], dtype=np.float64)
        assert bits(gate_tilt(s_g, theta)) == bits([gate_tilt(s, x) for s, x in pairs])

    def test_scalar_in_float_out(self):
        cfg = CodecConfig()
        assert type(encode_yaw(-1.0, cfg).bin) is int
        for value in (wrap_angle(-1.0), decode_yaw(YawCode(3, 0.7), cfg), encode_yaw(-1.0, cfg).residual,
                      decode_tilt(0.2, 0.1),
                      gate_tilt(0.9, 0.3), gate_tilt(0.1, 0.3)):
            assert type(value) is float


class TestTiltRoundTrip:
    @given(st.floats(math.radians(10.0), HALF_PI, exclude_min=True, exclude_max=True),
           st.booleans())
    def test_round_trip_above_threshold(self, mag, negative):
        t = math.radians(10.0)
        theta = -mag if negative else mag
        assert abs(decode_tilt(encode_tilt(theta, t), t) - theta) < 1e-12

    def test_threshold_decodes_to_zero(self):
        # |theta| = t is the one magnitude in [t, pi/2) that shares its
        # zero target with theta = 0, and zero decodes to the flat reading
        t = math.radians(10.0)
        assert decode_tilt(encode_tilt(t, t), t) == 0.0
        assert decode_tilt(encode_tilt(-t, t), t) == 0.0


# --------------------------------------------------------------- head_decode

# few distinct values so that class and yaw-bin logits tie often
tie_logits = st.sampled_from([-1.5, 0.0, 0.0, 2.0, 2.0])
raw_tilts = st.one_of(st.sampled_from([0.0, -0.0, 1.0 / 9.0, -1.0 / 9.0]), st.floats(-0.9, 0.9))
slope_scores = st.one_of(st.just(0.5), st.floats(0.0, 1.0))
small = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def head_outputs(draw):
    n = draw(st.integers(0, 8))
    classes = draw(st.integers(2, 4))
    cfg = HeadConfig(class_count=classes, codec=CodecConfig(n_yaw_bins=draw(st.integers(2, 16))))
    bins = cfg.codec.n_yaw_bins

    def arr(elements, shape):
        flat = draw(st.lists(elements, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        return np.array(flat, dtype=np.float64).reshape(shape)

    out = HeadOutput(
        class_logits=arr(tie_logits, (n, classes)),
        s_g=arr(slope_scores, (n,)),
        yaw_bin_logits=arr(tie_logits, (n, bins)),
        yaw_residual=arr(st.one_of(st.just(0.5), st.floats(-1.0, 2.0)), (n,)),
        tilt=arr(raw_tilts, (n, 2)),
        log_dims=arr(small, (n, 3)),
        center_offset=arr(small, (n, 3)),
    )
    centers = arr(st.floats(-40.0, 40.0), (n, 3))
    return out, centers, cfg


def box_bits(box) -> tuple:
    e = box.euler
    return (bits(box.center), bits(box.dims), bits([e.theta_x, e.theta_y, e.theta_z]),
            box.class_id, bits([box.score]))


class TestHeadDecode:
    @given(head_outputs())
    def test_equals_per_center_oracle(self, drawn):
        out, centers, cfg = drawn
        got = head_decode(out, centers, cfg)
        want = oracles.head_decode_oracle(out, centers, cfg)
        assert [box_bits(b) for b in got] == [box_bits(b) for b in want]
        # Python scalars, as the per-center decode gave, for JSON writers
        for b in got:
            assert type(b.class_id) is int and type(b.score) is float
            assert {type(v) for v in (b.euler.theta_x, b.euler.theta_y, b.euler.theta_z)} == {float}

    @given(head_outputs())
    def test_boxes_behave_like_checked_ones(self, drawn):
        out, centers, cfg = drawn
        got = head_decode(out, centers, cfg)
        want = oracles.head_decode_oracle(out, centers, cfg)
        assert pickle.dumps(got) == pickle.dumps(want)
        assert [repr(b) for b in pickle.loads(pickle.dumps(got))] == [repr(b) for b in want]
        for g, w in zip(got, want):
            assert repr(g) == repr(w)
            assert dataclasses.fields(g) == dataclasses.fields(w)
            assert repr(dataclasses.replace(g, class_id=7)) == repr(dataclasses.replace(w, class_id=7))
            assert repr(dataclasses.replace(g.euler, theta_x=0.25)) == \
                repr(dataclasses.replace(w.euler, theta_x=0.25))
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.euler.theta_x = 1.0


def valid_head_output(n: int, cfg: HeadConfig) -> HeadOutput:
    """``n`` rows that decode to valid boxes: two classes, slope score 0.9."""
    rows = np.arange(n, dtype=np.float64)
    return HeadOutput(
        class_logits=np.column_stack([rows * 0.1, -rows * 0.1]),
        s_g=np.full(n, 0.9),
        yaw_bin_logits=np.tile(np.arange(cfg.codec.n_yaw_bins, dtype=np.float64), (n, 1)),
        yaw_residual=np.full(n, 0.25),
        tilt=np.full((n, 2), 0.05),
        log_dims=np.zeros((n, 3)),
        center_offset=np.full((n, 3), 0.5),
    )


NAN = float("nan")
# (HeadOutput field, row index, value) edits that make a row undecodable
BAD_ROWS = {
    "nan_center_offset": [("center_offset", (2, 1), NAN)],
    "infinite_dims": [("log_dims", (1, 0), 800.0)],
    "zero_dims": [("log_dims", (3, 2), -800.0)],
    "nan_tilt_on_slope": [("tilt", (2, 0), NAN)],
    "nan_yaw_residual": [("yaw_residual", 1, NAN)],
    "nan_class_logits": [("class_logits", (3, 0), NAN), ("class_logits", (3, 1), NAN)],
    # rows 1, 2 and 3 are bad: row 1 must win, though row 2's bad angle
    # would be checked before row 1's center and score within one row
    "first_bad_row_wins": [("log_dims", (3, 1), -800.0), ("tilt", (2, 1), NAN),
                           ("class_logits", (1, 0), NAN), ("center_offset", (1, 2), NAN)],
    # within a row the angles come first, then the center, dims and score
    "angles_before_center": [("center_offset", (1, 2), NAN), ("log_dims", (1, 0), 800.0),
                             ("yaw_residual", 1, NAN)],
}


class TestHeadDecodeErrors:
    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_raises_the_per_center_error(self, case):
        cfg = HeadConfig(class_count=2)
        out = valid_head_output(5, cfg)
        for name, index, value in BAD_ROWS[case]:
            getattr(out, name)[index] = value
        centers = np.arange(15, dtype=np.float64).reshape(5, 3)
        with np.errstate(over="ignore"), pytest.raises(Exception) as want:
            oracles.head_decode_oracle(out, centers, cfg)
        with np.errstate(over="ignore"), pytest.raises(Exception) as got:
            head_decode(out, centers, cfg)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_nan_tilt_gated_flat_decodes(self):
        cfg = HeadConfig(class_count=2)
        out = valid_head_output(5, cfg)
        out.tilt[2] = NAN
        out.s_g[2] = 0.5
        centers = np.zeros((5, 3))
        got = head_decode(out, centers, cfg)
        assert [box_bits(b) for b in got] == \
            [box_bits(b) for b in oracles.head_decode_oracle(out, centers, cfg)]
        assert (got[2].euler.theta_x, got[2].euler.theta_y) == (0.0, 0.0)


# -------------------------------------------------------------- make_targets

# a coarse grid: boxes share centers and centers sit at equal distances
# from several box centers, so containing boxes tie on distance
grid = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
grid_points = st.tuples(grid, grid, grid)


@st.composite
def crowded_frames(draw):
    boxes = [
        FullPoseBox(
            np.array(draw(grid_points)),
            np.array(draw(st.tuples(*[st.sampled_from([0.5, 1.0, 2.0, 3.0])] * 3))),
            EulerXYZ(draw(st.sampled_from([0.0, math.radians(10.0), -0.3, 0.5])),
                     draw(st.floats(-1.2, 1.2)),
                     draw(st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(-7.0, 7.0)))),
            class_id=draw(st.integers(1, 3)),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    centers = draw(st.lists(st.one_of(grid_points, st.tuples(*[st.floats(-2.0, 2.0)] * 3)),
                            min_size=0, max_size=30))
    return np.array(centers, dtype=np.float64).reshape(-1, 3), boxes


def target_bits(t) -> dict:
    return {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in vars(t).items()}


class TestMakeTargets:
    @given(crowded_frames())
    def test_equals_per_center_oracle(self, frame):
        centers, boxes = frame
        cfg = CodecConfig()
        assert target_bits(make_targets(centers, box_columns(boxes), cfg)) == \
            target_bits(oracles.make_targets_oracle(centers, boxes, cfg))

    @pytest.mark.parametrize("seed", range(8))
    def test_centers_on_tilted_faces_equal_oracle(self, seed):
        rng = np.random.default_rng(seed)
        boxes = [FullPoseBox(rng.uniform(-3.0, 3.0, 3), rng.uniform(0.5, 4.0, 3),
                             EulerXYZ(*rng.uniform(-0.6, 0.6, 2), rng.uniform(-4.0, 4.0)),
                             class_id=int(rng.integers(1, 4)))
                   for _ in range(15)]
        centers = np.vstack([_sample_box_surface(b, 9, rng) for b in boxes])
        # some face centers lie outside their box by rounding, inside by the 1e-9 m guard
        unguarded = [np.all(np.abs((centers[9 * k:9 * k + 9] - b.center) @ b.rotation())
                            <= b.dims * 0.5, axis=1) for k, b in enumerate(boxes)]
        assert not np.concatenate(unguarded).all()
        cfg = CodecConfig()
        assert target_bits(make_targets(centers, box_columns(boxes), cfg)) == \
            target_bits(oracles.make_targets_oracle(centers, boxes, cfg))

    def test_ties_go_to_the_lowest_box_index(self):
        # two boxes share a center: the center sits in both at distance 0
        boxes = [FullPoseBox(np.zeros(3), np.ones(3) * 2, class_id=c) for c in (2, 1, 3)]
        t = make_targets(np.zeros((1, 3)), box_columns(boxes), CodecConfig())
        assert t.class_label[0] == 2

    def test_out_of_range_tilt_raises_only_when_assigned(self):
        steep = FullPoseBox(np.array([10.0, 0, 0]), np.ones(3), EulerXYZ(0.0, HALF_PI, 0.0))
        flat = FullPoseBox(np.zeros(3), np.ones(3))
        cfg = CodecConfig()
        t = make_targets(np.zeros((1, 3)), box_columns([flat, steep]), cfg)
        assert t.foreground.tolist() == [True]
        centers = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        with pytest.raises(TiltOutOfRangeError) as got:
            make_targets(centers, box_columns([flat, steep]), cfg)
        with pytest.raises(TiltOutOfRangeError) as want:
            oracles.make_targets_oracle(centers, [flat, steep], cfg)
        assert str(got.value) == str(want.value)

    # box 1 is the second box assigned (its first center comes second) and
    # box 0, of lower index, the third; each case spoils box 1 and, with a
    # different error, box 0
    @pytest.mark.parametrize("second, third", [
        ({"theta_y": HALF_PI}, {"dims": 0.0}),
        ({"theta_x": -2.0}, {"theta_y": 1.6}),
        ({"dims": 0.0}, {"theta_x": HALF_PI}),
        ({"dims": -1e-10}, {"dims": 0.0}),
        ({"theta_y": -HALF_PI, "dims": 0.0}, {}),
        ({"theta_x": 1.6, "theta_y": -1.7}, {}),
    ], ids=["tilt-y", "tilt-x", "dims-zero", "dims-negative", "tilt-before-dims", "x-before-y"])
    def test_second_assigned_box_raises_the_oracle_message(self, second, third):
        def box(x, spoil):
            b = FullPoseBox(np.array([x, 0.0, 0.0]), np.array([2.0, 1.5, 1.0]),
                            EulerXYZ(spoil.get("theta_x", 0.2), spoil.get("theta_y", -0.3), 0.4),
                            class_id=1)
            if "dims" in spoil:
                b.dims[1] = spoil["dims"]  # past the box's own check
            return b

        boxes = [box(0.0, third), box(5.0, second), box(10.0, {})]
        # box centers are inside even at zero width: boxes 2, 1, 2, 0, 1
        centers = np.array([[10.0, 0, 0], [5.0, 0, 0], [10.2, 0, 0], [0.0, 0, 0], [5.0, 0, 0]])
        cfg = CodecConfig()
        errors = (TiltOutOfRangeError, NonPositiveDimensionError)
        with pytest.raises(errors) as got:
            make_targets(centers, box_columns(boxes), cfg)
        with pytest.raises(errors) as want:
            oracles.make_targets_oracle(centers, boxes, cfg)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert make_targets(centers[[0, 2]], box_columns(boxes), cfg).foreground.all()
