"""Property tests of the batched IoU kernel against the per-pair oracle."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fullpose.geom import (  # noqa: E402
    EulerXYZ,
    FullPoseBox,
    bev_iou,
    center_distance,
    footprint_at,
    footprints_overlap,
    iou3d,
    box_columns,
    nms,
    pairwise_bev_iou,
    pairwise_center_distance,
    pairwise_iou3d,
)

import oracles  # noqa: E402

coord = st.floats(-4.0, 4.0, allow_nan=False)
size = st.floats(0.2, 4.0, allow_nan=False)
tilt = st.floats(-0.6, 0.6, allow_nan=False)
yaw = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def full_pose_boxes(draw):
    return FullPoseBox(
        np.array([draw(coord), draw(coord), draw(st.floats(-1.0, 1.0))]),
        np.array([draw(size), draw(size), draw(size)]),
        EulerXYZ(draw(tilt), draw(tilt), draw(yaw)),
    )


box_lists = st.lists(full_pose_boxes(), min_size=0, max_size=6)


def _cols(*boxes):
    return box_columns(boxes)


@given(box_lists, box_lists)
def test_matrices_equal_oracle_per_pair(a, b):
    cols_a, cols_b = box_columns(a), box_columns(b)
    bev = pairwise_bev_iou(cols_a, cols_b)
    iou = pairwise_iou3d(cols_a, cols_b)
    assert bev.shape == iou.shape == (len(a), len(b))
    for i, box_a in enumerate(a):
        for j, box_b in enumerate(b):
            assert abs(bev[i, j] - oracles.bev_iou_oracle(box_a, box_b)) <= 1e-12
            assert abs(iou[i, j] - oracles.iou3d_oracle(box_a, box_b)) <= 1e-12


@given(box_lists, box_lists)
def test_symmetric_and_bounded(a, b):
    for fn in (pairwise_bev_iou, pairwise_iou3d):
        ab, ba = fn(box_columns(a), box_columns(b)), fn(box_columns(b), box_columns(a))
        assert np.all((ab >= 0.0) & (ab <= 1.0))
        assert np.abs(ab - ba.T).max(initial=0.0) <= 1e-12


@given(st.lists(full_pose_boxes(), min_size=1, max_size=6))
def test_self_iou_is_one(boxes):
    cols = box_columns(boxes)
    assert np.all(np.diag(pairwise_bev_iou(cols, cols)) == 1.0)
    assert np.abs(np.diag(pairwise_iou3d(cols, cols)) - 1.0).max() <= 1e-12


@given(full_pose_boxes(), full_pose_boxes())
def test_scalar_api_equals_matrix_entry(a, b):
    # equal up to the scalar path's pure-Python circumradius reject
    assert bev_iou(a, b) == pytest.approx(pairwise_bev_iou(_cols(a), _cols(b))[0, 0], abs=1e-15)
    assert iou3d(a, b) == pytest.approx(pairwise_iou3d(_cols(a), _cols(b))[0, 0], abs=1e-15)


@given(box_lists, box_lists)
def test_center_distance_is_the_matrix_entry_bit_for_bit(a, b):
    # a true positive's translation error is then the distance it was matched on
    build = f"numpy {np.__version__}, {oracles.blas_build()}"
    matrix = pairwise_center_distance(box_columns(a), box_columns(b))
    for i, box_a in enumerate(a):
        for j, box_b in enumerate(b):
            one = center_distance(box_a, box_b)
            assert one == pairwise_center_distance(_cols(box_a), _cols(box_b))[0, 0], build
            assert one == matrix[i, j], build


def _box(center, dims, yaw=0.0, score=None):
    return FullPoseBox(np.array(center, float), np.array(dims, float), EulerXYZ(0.0, 0.0, yaw),
                       score=score)


class TestKnownPairs:
    def test_identical(self):
        a = _box([1, 2, 0], [4, 2, 1.5], 0.7)
        assert pairwise_bev_iou(_cols(a), _cols(a))[0, 0] == 1.0
        assert pairwise_iou3d(_cols(a), _cols(a))[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_contained(self):
        big = _box([0, 0, 0], [4, 4, 2])
        small = _box([0.5, -0.3, 0], [1, 1, 1], 0.4)
        assert pairwise_bev_iou(_cols(small), _cols(big))[0, 0] == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert pairwise_bev_iou(_cols(big), _cols(small))[0, 0] == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert pairwise_iou3d(_cols(small), _cols(big))[0, 0] == pytest.approx(1.0 / 32.0, abs=1e-12)

    def test_edge_touching(self):
        a = _box([0, 0, 0], [2, 2, 1])
        b = _box([2, 0.5, 0], [2, 2, 1])
        rotated = _box([0, 2, 0], [2, 2, 1], math.pi / 2)
        got = pairwise_bev_iou(_cols(a), _cols(b, rotated))
        assert np.abs(got).max() <= 1e-12
        assert pairwise_iou3d(_cols(a), _cols(_box([0, 0, 1.0], [2, 2, 1])))[0, 0] == 0.0

    def test_disjoint_is_exactly_zero(self):
        a = _box([0, 0, 0], [2, 2, 1])
        far = _box([10, 0, 0], [2, 2, 1])
        above = _box([0, 0, 5], [2, 2, 1])
        assert pairwise_bev_iou(_cols(a), _cols(far))[0, 0] == 0.0
        assert pairwise_iou3d(_cols(a), _cols(far, above)).tolist() == [[0.0, 0.0]]

    def test_empty_inputs(self):
        boxes, empty = _cols(_box([0, 0, 0], [1, 1, 1]), _box([3, 0, 0], [1, 1, 1])), _cols()
        for fn in (pairwise_bev_iou, pairwise_iou3d):
            assert fn(empty, boxes).shape == (0, 2)
            assert fn(boxes, empty).shape == (2, 0)
            assert fn(empty, empty).shape == (0, 0)

    def test_octagonal_overlap_matches_oracle(self):
        # a square and its 45-degree turn overlap in an octagon, the
        # widest polygon a quad-by-quad clip can produce
        a = _box([0, 0, 0], [3, 3, 1], 0.0)
        b = _box([0.1, 0.05, 0], [3, 3, 1], math.pi / 4)
        got = pairwise_bev_iou(_cols(a), _cols(b))[0, 0]
        assert got == pytest.approx(oracles.bev_iou_oracle(a, b), abs=1e-15)


@st.composite
def contact_pairs(draw):
    """A box and an axis-parallel neighbour placed against it.

    The neighbour touches an edge or a corner from outside, or sits inside
    (possibly against an inner edge); ``gap`` then moves it apart (> 0) or
    into the box (< 0) by a hair, inside or just beyond the tolerance of
    the separating-axis decision.
    """
    a = draw(full_pose_boxes())
    kind = draw(st.sampled_from(["edge", "corner", "nested"]))
    turn = draw(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]))
    gap = draw(st.sampled_from([0.0, 1e-7, -1e-7, 2e-6, -2e-6]))
    l, w = a.dims[0], a.dims[1]
    if kind == "nested":
        scale = draw(st.floats(0.1, 0.9))
        ex, ey = scale * l, scale * w
        u = (l - ex) / 2 * draw(st.sampled_from([-1.0, 1.0, draw(st.floats(-1.0, 1.0))])) + gap
        v = (w - ey) / 2 * draw(st.floats(-1.0, 1.0))
    else:
        ex, ey = draw(size), draw(size)
        u = (l + ex) / 2 + gap
        v = (w + ey) / 2 + gap if kind == "corner" else (w + ey) / 2 * draw(st.floats(-0.95, 0.95))
    u *= draw(st.sampled_from([-1.0, 1.0]))
    v *= draw(st.sampled_from([-1.0, 1.0]))
    dims = [ex, ey] if turn in (0.0, math.pi) else [ey, ex]
    c, s = math.cos(a.euler.theta_z), math.sin(a.euler.theta_z)
    b = FullPoseBox(
        a.center + np.array([u * c - v * s, u * s + v * c, draw(st.floats(-1.0, 1.0))]),
        np.array([*dims, draw(size)]),
        EulerXYZ(draw(tilt), draw(tilt), a.euler.theta_z + turn),
    )
    return a, b


def _kernel_overlap(a, b):
    return pairwise_bev_iou(_cols(a), _cols(b))[0, 0] > 0.0


def _frame(box):
    return footprint_at(float(box.center[0]), float(box.center[1]), box.euler.theta_z,
                        float(box.dims[0]), float(box.dims[1]))


def _overlap(a, b):
    got = footprints_overlap(_frame(a), _frame(b))
    assert type(got) is bool  # decided for every pair, near-touching ones too
    return got


@given(full_pose_boxes(), full_pose_boxes())
def test_footprints_overlap_equals_kernel_decision(a, b):
    assert _overlap(a, b) == _kernel_overlap(a, b)
    assert _overlap(b, a) == _kernel_overlap(b, a)


# contact pairs whose clipped area is a rounding residue are a few percent of
# the draws; 200 examples meet several of them
@settings(max_examples=200)
@given(contact_pairs())
def test_footprints_overlap_equals_kernel_decision_at_contact(pair):
    a, b = pair
    assert _overlap(a, b) == _kernel_overlap(a, b)
    assert _overlap(b, a) == _kernel_overlap(b, a)


@st.composite
def clustered_proposals(draw):
    """Near-duplicate proposals around a few objects, as a detector emits them."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    clusters = draw(st.integers(1, 6))
    per_cluster = draw(st.integers(1, 12))
    boxes = []
    for _ in range(clusters):
        center = np.append(rng.uniform(-10, 10, 2), 0.0)
        dims = rng.uniform(1.0, 4.5, 3)
        yaw_c = rng.uniform(0, 2 * math.pi)
        for _ in range(per_cluster):
            boxes.append(FullPoseBox(
                center + np.append(rng.normal(0, 0.3, 2), 0.0),
                dims * rng.uniform(0.9, 1.1, 3),
                EulerXYZ(0.0, 0.0, yaw_c + rng.normal(0, 0.15)),
                score=round(float(rng.random()), 2),  # rounded: score ties happen
            ))
    return boxes


@given(clustered_proposals(), st.sampled_from([0.1, 0.3, 0.5, 0.7]))
def test_nms_equals_oracle_on_clustered_proposals(boxes, threshold):
    want = oracles.nms_oracle(boxes, threshold,
                              lambda i, j: oracles.bev_iou_oracle(boxes[i], boxes[j]))
    assert list(nms(boxes, threshold)) == want
