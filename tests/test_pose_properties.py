"""Property tests of full-pose rotations and of slope synthesis."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from fullpose.geom import (  # noqa: E402
    EulerXYZ,
    FullPoseBox,
    GimbalLockError,
    PointCloud,
    euler_to_matrix,
    matrix_to_euler,
    rotations,
)
from fullpose.slopeaug import LabeledFrame, SlopeAugParams, apply, split_cloud  # noqa: E402

import oracles  # noqa: E402

open_pi = st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True)
pitch = st.floats(-math.radians(89.0), math.radians(89.0))


@given(open_pi, pitch, open_pi)
def test_euler_round_trip_away_from_gimbal_lock(roll, pitch, yaw):
    rotation = euler_to_matrix(EulerXYZ(roll, pitch, yaw))
    back = matrix_to_euler(rotation)
    assert abs(back.theta_x - roll) <= 1e-9
    assert abs(back.theta_y - pitch) <= 1e-9
    assert abs(back.theta_z - yaw) <= 1e-9
    assert np.abs(euler_to_matrix(back) - rotation).max() <= 1e-12


@given(st.lists(st.tuples(*[st.one_of(open_pi, st.floats(-1e3, 1e3))] * 3), max_size=12))
def test_rotations_equal_euler_to_matrix_bit_for_bit(angles):
    euler = np.array(angles, dtype=np.float64).reshape(-1, 3)
    want = np.array([euler_to_matrix(EulerXYZ(*row)) for row in angles]).reshape(-1, 3, 3)
    assert rotations(euler).tobytes() == want.tobytes(), \
        f"numpy {np.__version__}, {oracles.blas_build()}"


@given(open_pi, st.sampled_from([-1.0, 1.0]), open_pi)
def test_euler_at_gimbal_lock_raises(roll, sign, yaw):
    with pytest.raises(GimbalLockError):
        matrix_to_euler(euler_to_matrix(EulerXYZ(roll, sign * math.pi / 2, yaw)))


@st.composite
def slopes_and_points(draw):
    """A slope and 64 points, half of them on its split plane.

    On the plane ``tau . (tau - p)`` is rounding noise, so that is where
    two ways of computing the far-side predicate could disagree.
    """
    r = draw(st.floats(8.0, 32.0))
    alpha = draw(open_pi)
    gamma = draw(st.floats(0.01, 0.5)) * draw(st.sampled_from([-1.0, 1.0]))
    tau = np.array([r * math.cos(alpha), r * math.sin(alpha), 0.0])
    v = np.array([-math.sin(alpha), math.cos(alpha), 0.0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-50.0, 50.0, (64, 3))
    points[:32] = tau + rng.uniform(-30.0, 30.0, (32, 1)) * v
    points[:32, 2] = rng.uniform(-2.0, 2.0, 32)
    return SlopeAugParams(tau=tau, v=v, gamma=gamma), points


@given(slopes_and_points())
def test_apply_keeps_near_side_and_moves_far_side_rigidly(slope):
    params, points = slope
    out = apply(LabeledFrame(PointCloud(points.copy()), []), params)
    near, far = split_cloud(PointCloud(points), params.tau)
    assert out.cloud.points[near].tobytes() == points[near].tobytes()
    a, b = points[far], out.cloud.points[far]
    d_before = np.linalg.norm(a[:, None] - a[None, :], axis=2)
    d_after = np.linalg.norm(b[:, None] - b[None, :], axis=2)
    assert np.abs(d_before - d_after).max(initial=0.0) <= 1e-9


@given(slopes_and_points())
def test_box_on_a_cloud_point_tilts_exactly_when_the_point_does(slope):
    params, points = slope
    boxes = [FullPoseBox(p, np.array([4.0, 2.0, 1.5]), EulerXYZ(0.0, 0.0, 0.3)) for p in points]
    out = apply(LabeledFrame(PointCloud(points.copy()), boxes), params)
    _, far = split_cloud(PointCloud(points), params.tau)
    tilted = [i for i, b in enumerate(out.boxes)
              if (b.euler.theta_x, b.euler.theta_y) != (0.0, 0.0)]
    assert tilted == far.tolist()
