"""Full-pose box geometry: rotations, oriented boxes, overlap, suppression.

Conventions used throughout the library:

* LiDAR frame: x forward, y left, z up.  Lengths in meters, angles in
  radians, arithmetic in float64.
* Euler angles are extrinsic (fixed-axis) x-y-z, composed as
  ``R = Rz(theta_z) @ Ry(theta_y) @ Rx(theta_x)``.  Yaw is the outermost
  rotation, so a box with zero roll/pitch behaves exactly like a
  conventional yaw-only BEV box.
* Box dimensions ``(l, w, h)`` span the local x/y/z axes of the box frame.

All functions are pure; the container types are treated as immutable after
construction and are safe to share across workers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import FullposeError

TWO_PI = 2.0 * math.pi


class GimbalLockError(FullposeError, ValueError):
    """Euler decomposition is singular (|pitch| at 90 degrees)."""


class NonUnitAxisError(FullposeError, ValueError):
    """Rotation axis does not have unit length."""


class NonHorizontalAxisError(FullposeError, ValueError):
    """Rotation axis must lie in the x-y plane."""


class MissingScoreError(FullposeError, ValueError):
    """Operation requires every box to carry a score."""


def _as_vec3(value, name: str = "vector") -> np.ndarray:
    v = np.asarray(value, dtype=np.float64).reshape(-1)
    if v.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"{name} has non-finite components: {v}")
    return v


@dataclass(frozen=True)
class EulerXYZ:
    """Extrinsic x-y-z Euler angles (roll, pitch, yaw) in radians."""

    theta_x: float = 0.0
    theta_y: float = 0.0
    theta_z: float = 0.0

    def __post_init__(self):
        for name in ("theta_x", "theta_y", "theta_z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.theta_x, self.theta_y, self.theta_z])


@dataclass
class PointCloud:
    """Ordered set of 3D points with optional per-point extra channels.

    ``points`` is (n, 3) float64; ``extras`` is (n, c) float64 or None.
    """

    points: np.ndarray
    extras: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {self.points.shape}")
        if self.extras is not None:
            self.extras = np.asarray(self.extras, dtype=np.float64)
            if self.extras.ndim == 1:
                self.extras = self.extras[:, None]
            if self.extras.shape[0] != self.points.shape[0]:
                raise ValueError(
                    "extras length %d does not match %d points"
                    % (self.extras.shape[0], self.points.shape[0])
                )

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class FullPoseBox:
    """Oriented cuboid with full x-y-z Euler pose.

    A box with ``theta_x == theta_y == 0`` is the conventional yaw-only
    detection box; nonzero roll/pitch describe objects on sloped ground.
    """

    center: np.ndarray
    dims: np.ndarray
    euler: EulerXYZ = field(default_factory=EulerXYZ)
    class_id: int = 0
    score: float | None = None

    def __post_init__(self):
        self.center = _as_vec3(self.center, "center")
        self.dims = _as_vec3(self.dims, "dims")
        if min(self.dims.tolist()) <= 0.0:  # finite by now, so no NaN hides from min
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")
        try:
            self.class_id = operator.index(self.class_id)
        except TypeError:
            raise ValueError(f"class_id must be an integer, got {self.class_id!r}") from None

    @property
    def volume(self) -> float:
        return float(np.prod(self.dims))

    def rotation(self) -> np.ndarray:
        return euler_to_matrix(self.euler)


def boxes_from_arrays(centers, dims, euler, class_ids, scores) -> list[FullPoseBox]:
    """One box per row of (n, 3) ``centers``, ``dims``, ``euler`` and (n,) ``class_ids``, ``scores``.

    A None in ``scores`` makes a box without a score.  The rules of
    :class:`EulerXYZ` and :class:`FullPoseBox` are checked on the whole
    arrays.  When every row passes, the boxes are built without checking
    each again: a box holds row views of ``centers`` and ``dims`` and
    Python scalars for its angles, class id and score.
    Otherwise, or when ``class_ids`` is not of an integer dtype, the rows
    go through the checked constructors in order, so the first bad row
    raises exactly their error.
    """
    centers = np.asarray(centers, dtype=np.float64)
    dims = np.asarray(dims, dtype=np.float64)
    euler = np.asarray(euler, dtype=np.float64)
    class_ids = np.asarray(class_ids)
    scores = np.asarray(scores)
    if scores.dtype != object:  # an object array holds a None per box without a score
        scores = scores.astype(np.float64, copy=False)
    shapes = {"centers": centers.shape, "dims": dims.shape, "euler": euler.shape,
              "class_ids": class_ids.shape, "scores": scores.shape}
    n = centers.shape[0] if centers.ndim else 0
    if shapes != {"centers": (n, 3), "dims": (n, 3), "euler": (n, 3),
                  "class_ids": (n,), "scores": (n,)}:
        raise ValueError(
            "expected (n, 3) centers, dims, euler and (n,) class_ids, scores; got "
            + ", ".join(f"{name} {shape}" for name, shape in shapes.items())
        )
    score_list = scores.tolist()
    given = scores if scores.dtype != object else np.array(
        [s for s in score_list if s is not None], dtype=np.float64)
    rows = zip(centers, dims, euler.tolist(), class_ids.tolist(), score_list)
    if not (class_ids.dtype.kind in "iu"
            and np.isfinite(euler).all() and np.isfinite(centers).all()
            and np.isfinite(dims).all() and (dims > 0.0).all()
            and ((given >= 0.0) & (given <= 1.0)).all()):
        return [FullPoseBox(center=c, dims=d, euler=EulerXYZ(*angles), class_id=k, score=s)
                for c, d, angles, k, s in rows]
    new = object.__new__
    boxes = []
    for c, d, (tx, ty, tz), k, s in rows:
        e = new(EulerXYZ)  # frozen: its own __setattr__ refuses every field
        object.__setattr__(e, "__dict__", {"theta_x": tx, "theta_y": ty, "theta_z": tz})
        box = new(FullPoseBox)
        box.__dict__ = {"center": c, "dims": d, "euler": e, "class_id": k, "score": s}
        boxes.append(box)
    return boxes


class BoxColumns(NamedTuple):
    """The fields of n boxes as arrays, in the argument order of :func:`boxes_from_arrays`:
    what the box kernels take."""

    centers: np.ndarray    # (n, 3)
    dims: np.ndarray       # (n, 3) l, w, h
    euler: np.ndarray      # (n, 3) roll, pitch, yaw
    class_ids: np.ndarray  # (n,) int64, or Python ints in an object array past int64
    scores: np.ndarray     # (n,) float64, or an object array holding None

    def take(self, rows) -> "BoxColumns":
        """The columns of the boxes that ``rows`` (an index or mask array) selects."""
        return BoxColumns(*(column[rows] for column in self))


def box_columns(boxes) -> BoxColumns:
    """Fresh :class:`BoxColumns` of a sequence of boxes, the one gather of box fields;
    :func:`boxes_from_arrays` is its inverse."""
    centers = np.array([b.center for b in boxes], dtype=np.float64).reshape(-1, 3)
    dims = np.array([b.dims for b in boxes], dtype=np.float64).reshape(-1, 3)
    euler = np.array([(b.euler.theta_x, b.euler.theta_y, b.euler.theta_z) for b in boxes],
                     dtype=np.float64).reshape(-1, 3)
    scores = [b.score for b in boxes]
    return BoxColumns(centers, dims, euler, class_id_array([b.class_id for b in boxes]),
                      np.array(scores, dtype=object if None in scores else np.float64))


def class_id_array(class_ids) -> np.ndarray:
    """``class_ids`` as int64, or as Python ints in an object array when one is past
    int64 (a box takes any int; numpy alone would read such a list as floats or objects)."""
    try:
        return np.array(class_ids, dtype=np.int64)
    except OverflowError:
        return np.array(class_ids, dtype=object)


@dataclass
class RigidTransform:
    """Rotation about a pivot point: ``x -> R @ (x - pivot) + pivot``."""

    rotation: np.ndarray
    pivot: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.pivot = _as_vec3(self.pivot, "pivot")
        if self.rotation.shape != (3, 3):
            raise ValueError("rotation must be 3x3")

    def apply(self, points) -> np.ndarray:
        """Transform a single point (3,) or a stack of points (n, 3)."""
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = (pts - self.pivot) @ self.rotation.T + self.pivot
        return out[0] if single else out


def euler_to_matrix(euler: EulerXYZ) -> np.ndarray:
    """Rotation matrix ``Rz(theta_z) @ Ry(theta_y) @ Rx(theta_x)``."""
    cx, sx = math.cos(euler.theta_x), math.sin(euler.theta_x)
    cy, sy = math.cos(euler.theta_y), math.sin(euler.theta_y)
    cz, sz = math.cos(euler.theta_z), math.sin(euler.theta_z)
    return np.array(
        [
            [cz * cy, cz * sy * sx - sz * cx, cz * sy * cx + sz * sx],
            [sz * cy, sz * sy * sx + cz * cx, sz * sy * cx - cz * sx],
            [-sy, cy * sx, cy * cx],
        ]
    )


def rotations(euler) -> np.ndarray:
    """(n, 3, 3) matrices of the (n, 3) Euler angles ``euler``: each has the bits of
    :func:`euler_to_matrix`, from the same products in the same order."""
    euler = np.asarray(euler, dtype=np.float64).reshape(-1, 3)
    (cx, cy, cz), (sx, sy, sz) = np.cos(euler).T, np.sin(euler).T
    return np.stack([
        cz * cy, cz * sy * sx - sz * cx, cz * sy * cx + sz * sx,
        sz * cy, sz * sy * sx + cz * cx, sz * sy * cx - cz * sx,
        -sy, cy * sx, cy * cx,
    ], axis=-1).reshape(-1, 3, 3)


def matrix_to_euler(rotation: np.ndarray) -> EulerXYZ:
    """Invert :func:`euler_to_matrix`; pitch restricted to (-pi/2, pi/2).

    Raises:
        GimbalLockError: if ``|R[2, 0]| >= 1 - 1e-9`` (pitch at +-90 deg),
            where roll and yaw are no longer separable.
    """
    rot = np.asarray(rotation, dtype=np.float64)
    r20 = rot[2, 0]
    if abs(r20) >= 1.0 - 1e-9:
        raise GimbalLockError(f"pitch at +-90 degrees (R[2,0]={r20:+.12f})")
    theta_y = math.asin(-r20)
    theta_x = math.atan2(rot[2, 1], rot[2, 2])
    theta_z = math.atan2(rot[1, 0], rot[0, 0])
    return EulerXYZ(theta_x, theta_y, theta_z)


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit ``axis`` by ``angle``."""
    v = _as_vec3(axis, "axis")
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise NonUnitAxisError(f"axis norm {np.linalg.norm(v)} != 1")
    k = np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def axis_angle_transform(axis, gamma: float, pivot) -> RigidTransform:
    """Rigid rotation by ``gamma`` about a horizontal unit axis through ``pivot``.

    This is the rotation used to tilt the far part of a scene: the axis
    must lie in the ground plane (``axis[2] == 0``).
    """
    v = _as_vec3(axis, "axis")
    if abs(v[2]) > 1e-9:
        raise NonHorizontalAxisError(f"axis z-component {v[2]} != 0")
    return RigidTransform(rotation=axis_angle_matrix(v, gamma), pivot=_as_vec3(pivot, "pivot"))


def to_euler_xy(axis, gamma: float) -> tuple[float, float]:
    """Roll/pitch components of the x-y-z Euler split of ``R(axis, gamma)``.

    The yaw component of the decomposition is dropped; it is the residual
    heading that a tilted annotation keeps in its own yaw slot.
    """
    euler = matrix_to_euler(axis_angle_matrix(axis, gamma))
    return euler.theta_x, euler.theta_y


def transform_box(box: FullPoseBox, transform: RigidTransform) -> FullPoseBox:
    """Apply a rigid transform to a box (exact pose composition)."""
    euler = matrix_to_euler(transform.rotation @ box.rotation())
    return FullPoseBox(
        center=transform.apply(box.center),
        dims=box.dims.copy(),
        euler=euler,
        class_id=box.class_id,
        score=box.score,
    )


_CORNER_SIGNS = np.array(
    [
        [
            0.5 if i & 1 else -0.5,
            0.5 if i & 2 else -0.5,
            0.5 if i & 4 else -0.5,
        ]
        for i in range(8)
    ]
)


def box_corners(box: FullPoseBox) -> np.ndarray:
    """The 8 corners of a box, shape (8, 3).

    Corner ``i`` carries the local sign pattern (+x if bit 0 of ``i`` is
    set, +y if bit 1, +z if bit 2), rotated by the box pose and shifted to
    the center.
    """
    offsets = _CORNER_SIGNS * box.dims
    return offsets @ box.rotation().T + box.center


def points_in_box(points, box: FullPoseBox) -> np.ndarray:
    """Boolean mask of points inside the closed cuboid of ``box``.

    ``points`` is an (n, 3) array (a cloud passes its ``.points``).  The
    boundary is inclusive with a 1e-9 m guard so points sampled exactly on
    a face stay inside under float rounding.
    """
    return points_in_boxes(points, box_columns([box]))[0]


def points_in_boxes(points, boxes: BoxColumns) -> np.ndarray:
    """(n_boxes, n) mask whose row k is ``points_in_box(points, box k)`` of the
    :class:`BoxColumns` ``boxes``.

    Each box's (n, 3) block of local coordinates takes its own matmul, so a
    row does not depend on the other boxes.  No boxes give a (0, n) mask.
    """
    points = np.asarray(points, dtype=np.float64)
    local = (points - boxes.centers[:, None, :]) @ rotations(boxes.euler)
    return np.all(np.abs(local) <= boxes.dims[:, None, :] * 0.5 + 1e-9, axis=-1)


class _Footprints(NamedTuple):
    """Yaw-rotated footprints of n boxes, with their centers and dimensions."""

    corners: np.ndarray  # (n, 4) complex x + iy, counterclockwise
    area: np.ndarray     # (n,) shoelace area of the corners
    centers: np.ndarray  # (n, 3)
    dims: np.ndarray     # (n, 3) l, w, h
    radius: np.ndarray   # (n,) circumradius: half the footprint diagonal


# signs of the local footprint corners along the length and width axes,
# counterclockwise
_CORNER_X = np.array([1.0, -1.0, -1.0, 1.0])
_CORNER_Y = np.array([1.0, 1.0, -1.0, -1.0])


def _corners(x, y, cos, sin, half_l, half_w) -> np.ndarray:
    """(n, 4) counterclockwise footprint corners as complex x + iy.

    Every argument is an (n, 1) column, in the field order of
    :class:`Footprint`.
    """
    lx = half_l * _CORNER_X
    ly = half_w * _CORNER_Y
    corners = np.empty(lx.shape, dtype=np.complex128)
    corners.real = lx * cos - ly * sin + x
    corners.imag = lx * sin + ly * cos + y
    return corners


def _footprints(centers, dims, euler) -> _Footprints:
    """Footprints of the boxes with (n, 3) ``centers``, ``dims`` and ``euler``."""
    yaw = euler[:, 2:].copy()  # contiguous, as the angles of `rotations` are
    corners = _corners(centers[:, :1], centers[:, 1:2], np.cos(yaw), np.sin(yaw),
                       dims[:, :1] * 0.5, dims[:, 1:2] * 0.5)
    radius = np.hypot(dims[:, 0], dims[:, 1]) / 2.0
    return _Footprints(corners, _polygon_areas(corners), centers, dims, radius)


class Footprint(NamedTuple):
    """One box footprint as a separating-axis frame, in the convention of ``_footprints``."""

    x: float       # center
    y: float
    cos: float     # length axis (cos, sin); the width axis is (-sin, cos)
    sin: float
    half_l: float
    half_w: float
    radius: float  # circumradius: half the footprint diagonal


def footprint_at(x: float, y: float, yaw: float, l: float, w: float) -> Footprint:
    """The footprint frame of a box centered at (x, y) with yaw, length and width."""
    return Footprint(x, y, math.cos(yaw), math.sin(yaw), l / 2.0, w / 2.0,
                     float(np.hypot(l, w)) / 2.0)


# separating-axis gap or penetration (m) that decides overlap without clipping
_SAT_TOL = 1e-6


def footprints_overlap(fa: Footprint, fb: Footprint) -> bool:
    """Whether two footprints overlap, decided as
    ``bev_iou(a, b) > 0.0`` is for their boxes a and b.

    Pairs beyond their circumradii are rejected by the test of
    :func:`_near`.  The rest take the separating-axis test of two rectangles
    (Gottschalk, Lin & Manocha, OBBTree, 1996): the largest gap over the
    four edge normals.  A gap beyond ``_SAT_TOL`` leaves every clipped
    vertex that far outside, and a penetration beyond it leaves an area
    far above the rounding of scene-scale coordinates.  Only a
    near-touching pair, whose clipped area is a rounding residue, is
    clipped, from the same corners and with the same arithmetic as the
    kernel.
    """
    dx, dy = fb.x - fa.x, fb.y - fa.y
    reach = fa.radius + fb.radius
    if dx * dx + dy * dy > reach * reach:
        return False
    cos_d = abs(fa.cos * fb.cos + fa.sin * fb.sin)
    sin_d = abs(fa.cos * fb.sin - fa.sin * fb.cos)
    gap = max(
        abs(dx * fa.cos + dy * fa.sin) - fa.half_l - fb.half_l * cos_d - fb.half_w * sin_d,
        abs(dy * fa.cos - dx * fa.sin) - fa.half_w - fb.half_l * sin_d - fb.half_w * cos_d,
        abs(dx * fb.cos + dy * fb.sin) - fb.half_l - fa.half_l * cos_d - fa.half_w * sin_d,
        abs(dy * fb.cos - dx * fb.sin) - fb.half_w - fa.half_l * sin_d - fa.half_w * cos_d,
    )
    if abs(gap) > _SAT_TOL:
        return gap < 0.0
    # columns x, y, cos, sin, half_l, half_w of the two frames
    corners = _corners(*np.array([fa, fb]).T[:6, :, None])
    inter = _clipped_areas(corners[:1], corners[1:])[0]
    area = _polygon_areas(corners)
    union = area[0] + area[1] - inter
    return bool(union > 0.0 and inter / union > 0.0)


def _polygon_areas(poly: np.ndarray) -> np.ndarray:
    """Shoelace areas of the polygons in the rows of the complex array ``poly``.

    The per-edge terms are summed column by column, so a row padded with
    copies of its last vertex has exactly the area of the unpadded row.
    """
    nxt = np.concatenate((poly[:, 1:], poly[:, :1]), axis=1)
    terms = poly.real * nxt.imag - nxt.real * poly.imag
    total = terms[:, 0].copy()
    for k in range(1, terms.shape[1]):
        total += terms[:, k]
    return 0.5 * np.abs(total)


# four clip edges at most double a row's width each: 4 * 2**4 slots
_SLOTS = np.arange(64)


def _clipped_areas(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Area of subject quad p clipped by the CCW clip quad p, for every row p.

    Sutherland-Hodgman with closed half-planes, run on all rows at once;
    vertices are complex numbers x + iy.  A clip edge turns an n-gon into
    at most n + 1 vertices, so rows stay narrow (at most 8 after the four
    edges of a quad).  A row with fewer vertices than the width repeats
    its last vertex: the copies add only zero-length edges, which never
    cross a clip line and add exact zeros to the area.  An emptied row
    collapses to one repeated point, whose area is exactly 0.
    """
    rows = subject.shape[0]
    poly = subject
    edges = np.concatenate((clip[:, 1:], clip[:, :1]), axis=1) - clip
    edge_x, edge_y = edges.real, edges.imag
    row_ids = np.arange(rows)
    for k in range(4):
        width = poly.shape[1]
        # column 0 holds the predecessor of column 1: the last vertex
        ext = np.concatenate((poly[:, -1:], poly), axis=1)
        rel = ext - clip[:, k:k + 1]
        side = edge_x[:, k:k + 1] * rel.imag - edge_y[:, k:k + 1] * rel.real
        inside = side >= 0.0
        if inside.all():
            continue  # no row reaches past this edge: nothing to clip
        s_prev = side[:, :-1]
        inside_cur = inside[:, 1:]
        crossing = inside_cur != inside[:, :-1]
        t = np.divide(s_prev, s_prev - side[:, 1:], out=np.zeros((rows, width)),
                      where=crossing)
        prev = ext[:, :-1]
        # candidates per vertex: the crossing into it, then the vertex itself
        cand = np.empty((rows, 2 * width), dtype=np.complex128)
        emit = np.empty((rows, 2 * width), dtype=bool)
        cand[:, 0::2] = prev + t * (poly - prev)
        cand[:, 1::2] = poly
        emit[:, 0::2] = crossing
        emit[:, 1::2] = inside_cur
        count = np.add.reduce(emit, axis=1)
        new_width = int(count.max())
        if new_width == 0:
            return np.zeros(rows)
        # emitted candidates first, in order; the others sort last as the
        # highest index and are then replaced by the last emitted one
        order = np.where(emit, _SLOTS[:2 * width], 2 * width - 1)
        order.sort(axis=1)
        order = order[:, :new_width]
        if count.min() < new_width:
            np.minimum(order, order[row_ids, count - 1][:, None], out=order)
        poly = cand[row_ids[:, None], order]
    return _polygon_areas(poly)


# pairs per clipping pass and pair tests per NMS block: bounds the
# temporaries of both.  Measured on crowded NMS frames of about 147
# candidates: 1 << 13 (three blocks) beat 1 << 12 (six), 1 << 14 and one
# block for the whole frame (1 << 15)
_PAIR_BATCH = 1 << 13


def _intersections(fp: _Footprints, ia, ib) -> np.ndarray:
    """Footprint intersection areas of the box pairs (ia[p], ib[p]), at most
    ``_PAIR_BATCH`` pairs per clipping pass.

    Boxes ``ia`` are the clipped subjects, boxes ``ib`` the clip.  A pair's
    area does not depend on the pairs clipped with it.
    """
    if len(ia) == 0:
        return np.zeros(0)
    if len(ia) > _PAIR_BATCH:
        return np.concatenate([_intersections(fp, ia[lo:lo + _PAIR_BATCH], ib[lo:lo + _PAIR_BATCH])
                               for lo in range(0, len(ia), _PAIR_BATCH)])
    return _clipped_areas(fp.corners[ia], fp.corners[ib])


def _ious(inter: np.ndarray, union: np.ndarray) -> np.ndarray:
    """``inter / union`` clamped to [0, 1]; 0 where the union is not positive."""
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
    return np.minimum(np.maximum(iou, 0.0, out=iou), 1.0, out=iou)


def _near(fp: _Footprints, rows: slice, cols: slice) -> np.ndarray:
    """Mask of the box pairs (rows x cols) whose footprints can meet.

    Exact early reject: footprints farther apart than the sum of their
    circumradii cannot overlap.
    """
    cx, cy = fp.centers[:, 0], fp.centers[:, 1]
    d2 = cx[rows, None] - cx[None, cols]
    d2 *= d2
    dy = cy[rows, None] - cy[None, cols]
    dy *= dy
    d2 += dy
    reach = fp.radius[rows, None] + fp.radius[None, cols]
    reach *= reach
    return d2 <= reach


def _pairwise_iou(a: BoxColumns, b: BoxColumns, three_d: bool, bev: bool) -> tuple:
    """The (m, g) 3D and BEV IoU matrices of ``a`` (rows) against ``b`` (columns) that
    are asked for, None for the other, from one footprint clip.

    A pair's 3D intersection is its footprint intersection times its
    z-overlap.  The clipped pairs are those whose footprints can meet and,
    when only the 3D matrix is asked for, that overlap in z.
    """
    m, g = len(a.centers), len(b.centers)
    iou3, iou2 = (np.zeros((m, g)) if want else None for want in (three_d, bev))
    if not m or not g:
        return iou3, iou2
    fp = _footprints(*(np.concatenate(pair) for pair in zip(a[:3], b[:3])))
    near = _near(fp, slice(0, m), slice(m, None))
    if three_d:
        z0 = fp.centers[:, 2] - fp.dims[:, 2] / 2
        z1 = fp.centers[:, 2] + fp.dims[:, 2] / 2
        dz = np.minimum(z1[:m, None], z1[None, m:]) - np.maximum(z0[:m, None], z0[None, m:])
        if not bev:
            near &= dz > 0.0
    ia, ib = np.nonzero(near)
    inter = _intersections(fp, ia, ib + m)
    if bev:
        iou2[ia, ib] = _ious(inter, fp.area[ia] + fp.area[ib + m] - inter)
    if three_d:
        dz = dz[ia, ib]
        if bev:
            overlap = dz > 0.0
            ia, ib, inter, dz = ia[overlap], ib[overlap], inter[overlap], dz[overlap]
        inter *= dz
        volume = fp.dims[:, 0] * fp.dims[:, 1] * fp.dims[:, 2]
        iou3[ia, ib] = _ious(inter, volume[ia] + volume[ib + m] - inter)
    return iou3, iou2


def pairwise_bev_iou(a: BoxColumns, b: BoxColumns) -> np.ndarray:
    """(m, g) BEV IoU matrix of the :class:`BoxColumns` ``a`` (rows) against ``b`` (columns).

    Entry ``[i, j]`` equals ``bev_iou`` of boxes ``a[i]`` and ``b[j]``: the
    footprint of the row box is clipped by the footprint of the column box.
    Pairs beyond their circumradii are rejected before any clipping.
    """
    return _pairwise_iou(a, b, three_d=False, bev=True)[1]


def pairwise_iou3d(a: BoxColumns, b: BoxColumns) -> np.ndarray:
    """(m, g) KITTI-style 3D IoU matrix; entry ``[i, j]`` is ``iou3d`` of boxes ``a[i]``, ``b[j]``.

    Pairs without z-overlap or beyond their circumradii are rejected
    before any clipping.
    """
    return _pairwise_iou(a, b, three_d=True, bev=False)[0]


def pairwise_ious(a: BoxColumns, b: BoxColumns) -> tuple[np.ndarray, np.ndarray]:
    """``(pairwise_iou3d(a, b), pairwise_bev_iou(a, b))``, bit for bit, from one footprint clip."""
    return _pairwise_iou(a, b, three_d=True, bev=True)


def bev_iou(a: FullPoseBox, b: FullPoseBox) -> float:
    """IoU of the yaw-rotated footprints in the x-y plane.

    Roll and pitch are deliberately ignored so that yaw-only predictions
    and full-pose ground truth remain comparable with one number.  Equals
    ``pairwise_bev_iou(box_columns([a]), box_columns([b]))[0, 0]``.
    """
    return float(pairwise_bev_iou(box_columns([a]), box_columns([b]))[0, 0])


def iou3d(a: FullPoseBox, b: FullPoseBox) -> float:
    """KITTI-style 3D IoU: rotated footprint overlap times z-extent overlap.

    Equals ``pairwise_iou3d(box_columns([a]), box_columns([b]))[0, 0]``.
    """
    return float(pairwise_iou3d(box_columns([a]), box_columns([b]))[0, 0])


def center_distance(a: FullPoseBox, b: FullPoseBox) -> float:
    """Distance between the 3D box centers: the 1x1 entry of :func:`pairwise_center_distance`."""
    return float(np.linalg.norm(a.center - b.center))


def lengths(d) -> np.ndarray:
    """Lengths of the 3-vectors in the last axis of ``d``: the sqrt of each one's
    dot, as :func:`center_distance`'s norm forms it (``norm(axis=-1)`` does not)."""
    return np.sqrt(np.matmul(d[..., None, :], d[..., :, None]))[..., 0, 0]


def pairwise_center_distance(a: BoxColumns, b: BoxColumns) -> np.ndarray:
    """(m, g) 3D center distances of the :class:`BoxColumns` ``a`` (rows) to ``b`` (columns)."""
    return lengths(a.centers[:, None, :] - b.centers[None, :, :])


def checked_scores(scores) -> np.ndarray:
    """A score column as float64; MissingScoreError names the first box without a score."""
    if scores.dtype == object and None in (listed := scores.tolist()):
        raise MissingScoreError(f"box {listed.index(None)} has no score")
    return scores.astype(np.float64, copy=False)


def score_order(scores) -> np.ndarray:
    """Indices that visit ``scores`` best first; ties go to the lower index."""
    return np.argsort(-scores, kind="stable")


def nms(boxes, iou_threshold: float) -> np.ndarray:
    """Greedy non-maximum suppression on BEV IoU.

    Boxes are visited in descending score order (ties: lower input index
    first); a box is suppressed when its BEV IoU with an already kept box
    exceeds ``iou_threshold``, which must lie in [0, 1].  Returns kept
    input indices, best first.

    Ranks are decided in blocks: a block's candidate pairs are its boxes
    against the kept boxes of earlier blocks and against earlier boxes of
    the same block, and one batched call computes the IoUs of those that
    pass the circumradius test.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    centers, dims, euler, _, scores = box_columns(list(boxes))
    order = score_order(checked_scores(scores))
    n = len(order)
    fp = _footprints(centers[order], dims[order], euler[order])
    kept = np.zeros(n, dtype=bool)
    keep = kept.tolist()  # the same flags as Python bools, read per rank
    block = max(1, _PAIR_BATCH // max(n, 1))
    for start in range(0, n, block):
        stop = min(n, start + block)
        near = _near(fp, slice(start, stop), slice(0, stop))
        near[:, :start] &= kept[:start]
        # later rank (row) against earlier rank (column) only
        rows, cols = np.nonzero(np.tril(near, start - 1))
        rows += start
        inter = _intersections(fp, rows, cols)
        over = _ious(inter, fp.area[rows] + fp.area[cols] - inter) > iou_threshold
        rows, cols = rows[over], cols[over].tolist()
        bounds = np.searchsorted(rows, np.arange(start, stop + 1)).tolist()
        # a rank is kept unless it overlaps a kept earlier rank too much
        for r, lo, hi in zip(range(start, stop), bounds, bounds[1:]):
            keep[r] = not any(map(keep.__getitem__, cols[lo:hi]))
        kept[start:stop] = keep[start:stop]
    return order[kept]

