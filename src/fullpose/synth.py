"""Procedural desk-scale scenes: terrain, resting boxes, sampled clouds.

The terrain is a flat plane with an optional planar ramp that rises
along +x from the line ``x = ramp_start``; boxes rest on the local
surface (their roll/pitch follow the surface normal for a random yaw),
and clouds are sampled from the surface and the box faces with optional
Gaussian sensor noise.  Every point is tagged with its source (-1 for
ground, box index otherwise) in the extras channel, which downstream
feature synthesis relies on.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import codec
from .errors import FullposeError
from .geom import (
    EulerXYZ,
    FullPoseBox,
    PointCloud,
    box_columns,
    footprint_at,
    footprints_overlap,
    points_in_boxes,
    rotations,
)
from .slopeaug import LabeledFrame

GROUND_SOURCE = -1.0
# first radius (m) of the ground plane fit around each center
_FIT_RADIUS = 2.0
_DIMS_JITTER = 0.1  # relative jitter of each box dimension
_EDGE_MARGIN = 3.0  # distance (m) that box centers keep from the extent border
_CLASS_CUES = 2  # feature slots of the one-hot class cue, indexed by class id % 2
_UP = (0.0, 0.0, 1.0)  # normal of the flat plane


class PlacementFailureError(FullposeError, RuntimeError):
    """Could not place a non-overlapping box within the retry budget."""


@dataclass(frozen=True)
class Terrain:
    """Flat plane plus an optional planar ramp.

    The ramp starts at the line ``x = ramp_start`` and rises along +x with
    ``grade`` radians beyond it; the surface stays continuous across the
    crease.
    """

    extent: tuple[float, float, float, float] = (0.0, 40.0, -10.0, 10.0)
    ramp_start: float | None = None
    grade: float = 0.0

    def __post_init__(self):
        x0, x1, y0, y1 = self.extent
        if not (x0 < x1 and y0 < y1):
            raise ValueError("extent must be (x_min, x_max, y_min, y_max)")
        if not 0.0 <= self.grade < math.pi / 4:
            raise ValueError("grade must lie in [0, pi/4)")

    @property
    def area(self) -> float:
        x0, x1, y0, y1 = self.extent
        return (x1 - x0) * (y1 - y0)

    def height(self, xy) -> np.ndarray:
        """Surface height z at (n, 2) ground coordinates."""
        xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
        if self.ramp_start is None or self.grade == 0.0:
            return np.zeros(xy.shape[0])
        return self._ramp_height(xy[:, 0])

    def normal(self, xy) -> np.ndarray:
        """Unit surface normals at (n, 2) ground coordinates."""
        xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
        n = np.tile(_UP, (xy.shape[0], 1))
        if self.ramp_start is None or self.grade == 0.0:
            return n
        n[xy[:, 0] > self.ramp_start] = self._ramp_normal()
        return n

    def surface_at(self, x: float) -> tuple[float, tuple[float, float, float]]:
        """Height and unit normal above abscissa ``x``, as Python floats.

        The one-point read of :meth:`height` and :meth:`normal`, with the
        same floats; the surface does not vary along y.
        """
        if self.ramp_start is None or self.grade == 0.0:
            return 0.0, _UP
        normal = self._ramp_normal() if x > self.ramp_start else _UP
        return float(self._ramp_height(x)), normal

    def _ramp_height(self, x):
        # the one height rule, for a float abscissa and for an array of them
        return math.tan(self.grade) * np.maximum(x - self.ramp_start, 0.0)

    def _ramp_normal(self) -> tuple[float, float, float]:
        # y is -sin(grade) * sin(0) == -0.0 for a ramp rising along +x
        return (-math.sin(self.grade), -0.0, math.cos(self.grade))


@dataclass(frozen=True)
class SceneSpec:
    """Knobs for one synthetic labeled scene; ``make_scene`` takes the generator."""

    terrain: Terrain = field(default_factory=Terrain)
    box_count: int = 5
    density: float = 4.0              # points per square meter
    noise_sigma: float = 0.0          # sensor noise, meters
    class_weights: dict = field(default_factory=lambda: {1: 1.0})
    class_dims: dict = field(default_factory=lambda: {1: (4.2, 1.8, 1.6)})
    crease_margin: float = 2.0        # keep boxes away from the ramp crease
    ramp_box_fraction: float | None = None  # force this share of boxes onto the ramp
    yaw_range: tuple[float, float] = (0.0, 2.0 * math.pi)

    def __post_init__(self):
        if self.box_count < 0:
            raise ValueError(f"box_count must be >= 0, got {self.box_count}")
        if not (math.isfinite(self.density) and self.density > 0.0):
            raise ValueError(f"density must be finite and > 0, got {self.density}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.ramp_box_fraction is not None and not 0.0 <= self.ramp_box_fraction <= 1.0:
            raise ValueError(f"ramp_box_fraction must lie in [0, 1], got {self.ramp_box_fraction}")
        low, high = self.yaw_range
        if not (math.isfinite(low) and low <= high and math.isfinite(high - low)):
            raise ValueError("yaw_range must be finite (low, high) with low <= high and a "
                             f"finite width, got {self.yaw_range}")
        # place_boxes draws the class from the CDF of these weights, which
        # rng.choice would have checked
        weights = np.array([self.class_weights[i] for i in sorted(self.class_weights)],
                           dtype=np.float64)
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not (np.isfinite(weights).all() and (weights >= 0.0).all() and 0.0 < total < math.inf):
            raise ValueError("class_weights must be finite and >= 0 with a positive "
                             f"finite sum, got {self.class_weights}")
        for cls in self.class_weights:
            if cls not in self.class_dims:
                raise ValueError(f"class_dims has no entry for class {cls!r} of class_weights")
            dims = np.asarray(self.class_dims[cls], dtype=np.float64)
            if dims.shape != (3,) or not (np.isfinite(dims).all() and (dims > 0.0).all()):
                raise ValueError(f"class_dims[{cls!r}] must be 3 finite lengths > 0, "
                                 f"got {self.class_dims[cls]}")


def resting_euler(normal, yaw: float) -> EulerXYZ:
    """Roll/pitch that stand a box on a surface with the given normal.

    Solves ``Rz(yaw) @ Ry(p) @ Rx(r) @ z_hat == normal`` for (r, p), on
    Python floats.
    """
    nx, ny, nz = normal
    c, s = math.cos(-yaw), math.sin(-yaw)
    mx, my = c * nx - s * ny, s * nx + c * ny
    theta_x = math.asin(min(max(-my, -1.0), 1.0))
    theta_y = math.atan2(mx, nz)
    return EulerXYZ(theta_x, theta_y, yaw)


def place_boxes(terrain: Terrain, spec: SceneSpec, rng: np.random.Generator
                ) -> list[FullPoseBox]:
    """Drop non-overlapping boxes resting on the local surface.

    Box footprints never overlap in BEV (rejection sampled), box centers
    keep 3 m from the extent border and ``crease_margin`` from the ramp
    crease so each box sits on a single plane.  Raises
    PlacementFailureError after 1000 consecutive rejections.
    """
    x0, x1, y0, y1 = terrain.extent
    m = _EDGE_MARGIN
    class_ids = sorted(spec.class_weights)
    weights = np.array([spec.class_weights[i] for i in class_ids], dtype=np.float64)
    # the CDF rng.choice(len(class_ids), p=weights / weights.sum()) searches
    # for its one rng.random() draw
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    class_dims = {i: np.asarray(spec.class_dims[i], dtype=np.float64) for i in class_ids}
    boxes: list[FullPoseBox] = []
    footprints = []
    rejections = 0
    forced_ramp = 0
    if spec.ramp_box_fraction is not None and terrain.ramp_start is not None:
        forced_ramp = round(spec.ramp_box_fraction * spec.box_count)
    while len(boxes) < spec.box_count:
        if rejections >= 1000:
            raise PlacementFailureError(
                f"placed {len(boxes)}/{spec.box_count} boxes after 1000 rejections"
            )
        x, y = rng.uniform(x0 + m, x1 - m), rng.uniform(y0 + m, y1 - m)
        if terrain.ramp_start is not None:
            want_ramp = len(boxes) < forced_ramp if spec.ramp_box_fraction is not None else None
            on_ramp = x > terrain.ramp_start + spec.crease_margin
            on_flat = x < terrain.ramp_start - spec.crease_margin
            if not (on_ramp or on_flat):
                rejections += 1
                continue
            if want_ramp is not None and want_ramp != on_ramp:
                rejections += 1
                continue
        # bisect_right is searchsorted(side="right"), as rng.choice searches
        cls = int(class_ids[bisect.bisect_right(cdf, rng.random())])
        dims = class_dims[cls] * (1.0 + rng.uniform(-_DIMS_JITTER, _DIMS_JITTER, 3))
        yaw = rng.uniform(*spec.yaw_range)
        z, (nx, ny, nz) = terrain.surface_at(x)
        l, w, h = dims.tolist()
        half_h = h / 2.0
        center = (x + nx * half_h, y + ny * half_h, z + nz * half_h)
        fp = footprint_at(center[0], center[1], yaw, l, w)
        for other_fp in footprints:
            if footprints_overlap(fp, other_fp):
                rejections += 1
                break
        else:
            rejections = 0
            boxes.append(FullPoseBox(center=center, dims=dims,
                                     euler=resting_euler((nx, ny, nz), yaw), class_id=cls))
            footprints.append(fp)
    return boxes


# local face frame, one column per face (top, bottom, +y, -y, +x, -x side):
# axis index of the face normal, its sign, and the two in-plane axes
_FACE_AXIS = np.array([2, 2, 1, 1, 0, 0])
_FACE_SIGN = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
_FACE_U = np.array([0, 0, 0, 0, 1, 1])
_FACE_V = np.array([1, 1, 2, 2, 2, 2])


def _sample_box_surface(box: FullPoseBox, count: int, rng: np.random.Generator
                        ) -> np.ndarray:
    """``count`` points uniform on the faces of ``box``.

    Draws the face indices, then one (u, v) pair per point: the same
    stream, in the same order, as one scalar draw per coordinate.  The
    faces are those of ``rng.choice(6, size=count, p=areas / areas.sum())``:
    ``count`` draws of ``rng.random`` searched in the CDF it builds.
    """
    l, w, h = box.dims
    areas = np.array([l * w, l * w, l * h, l * h, w * h, w * h])
    cdf = (areas / areas.sum()).cumsum()
    cdf /= cdf[-1]
    faces = cdf.searchsorted(rng.random(count), side="right")
    uv = rng.uniform(-0.5, 0.5, size=(count, 2))
    rows = np.arange(count)
    axis, u_axis, v_axis = _FACE_AXIS[faces], _FACE_U[faces], _FACE_V[faces]
    local = np.empty((count, 3))
    local[rows, axis] = _FACE_SIGN[faces] * box.dims[axis] / 2.0
    local[rows, u_axis] = uv[:, 0] * box.dims[u_axis]
    local[rows, v_axis] = uv[:, 1] * box.dims[v_axis]
    return local @ box.rotation().T + box.center


def sample_scene(terrain: Terrain, boxes: list[FullPoseBox], spec: SceneSpec,
                 rng: np.random.Generator, frame_id: str = "") -> LabeledFrame:
    """Sample a labeled cloud from the surface and the box faces.

    Ground contributes ``ceil(density * extent area)`` points; each box
    contributes ``ceil(density * face area)`` points over its six faces.
    The extras channel stores the per-point source tag.
    """
    x0, x1, y0, y1 = terrain.extent
    n_ground = math.ceil(spec.density * terrain.area)
    xy = np.column_stack(
        [rng.uniform(x0, x1, n_ground), rng.uniform(y0, y1, n_ground)]
    )
    chunks = [np.column_stack([xy, terrain.height(xy)])]
    tags = [np.full(n_ground, GROUND_SOURCE)]
    for i, box in enumerate(boxes):
        l, w, h = box.dims
        n_box = math.ceil(spec.density * 2.0 * (l * w + l * h + w * h))
        chunks.append(_sample_box_surface(box, n_box, rng))
        tags.append(np.full(n_box, float(i)))
    points = np.vstack(chunks)
    points = points + rng.standard_normal(points.shape) * spec.noise_sigma
    cloud = PointCloud(points, np.concatenate(tags))
    return LabeledFrame(cloud=cloud, boxes=list(boxes), frame_id=frame_id)


def make_scene(spec: SceneSpec, rng: np.random.Generator,
               frame_id: str = "000000") -> LabeledFrame:
    """Place boxes and sample one scene from a spec, drawing from ``rng``."""
    boxes = place_boxes(spec.terrain, spec, rng)
    return sample_scene(spec.terrain, boxes, spec, rng, frame_id=frame_id)


def frame_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of frame ``index``: the substream (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _design(points: np.ndarray) -> np.ndarray:
    """Rows (x, y, 1) of the plane fit z = ax + by + c through ``points``."""
    a = np.ones((len(points), 3))
    a[:, :2] = points[:, :2]
    return a


def _fit_plane_normal(design: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Unit normal of the least-squares plane z = ax + by + c; ``design`` is the :func:`_design`."""
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    normal = -coef
    normal[2] = 1.0
    # np.linalg.norm of a vector is sqrt(x.dot(x))
    normal /= math.sqrt(normal.dot(normal))
    return normal


# largest distance block (rows x ground points) made at once: 8 MB of float64
_BLOCK_SIZE = 1 << 20


def _row_blocks(rows: int, cols: int):
    """Slices of ``range(rows)`` whose (rows, cols) blocks hold at most ``_BLOCK_SIZE``."""
    step = max(1, _BLOCK_SIZE // max(cols, 1))
    return [slice(i, i + step) for i in range(0, rows, step)]


def _xy_distances(ground_x: np.ndarray, ground_y: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """(k, n) horizontal distances from each of k (x, y) rows to every ground point.

    Row i holds the floats of ``np.linalg.norm(ground_xy - xy[i], axis=1)``:
    ``sqrt(dx * dx + dy * dy)``, computed in two (k, n) buffers.
    """
    dist = np.subtract(ground_x, xy[:, :1])
    dist *= dist
    dy = np.subtract(ground_y, xy[:, 1:2])
    dy *= dy
    dist += dy
    return np.sqrt(dist, out=dist)


def _local_ground(ground_pts: np.ndarray, ground_x: np.ndarray, ground_y: np.ndarray,
                  centers: np.ndarray) -> np.ndarray:
    """(k, 5) plane-fit normal, height above the mean ground z and ground z std
    of the local ground under each center.

    The fit starts from the ground points within ``_FIT_RADIUS`` in xy and
    doubles the radius, up to three times, while it holds fewer than 8 of
    them; with fewer than 3 at the last radius it takes the whole ground.
    """
    dist = _xy_distances(ground_x, ground_y, centers)
    radius = np.full(len(centers), _FIT_RADIUS)
    within = dist <= _FIT_RADIUS
    counts = np.count_nonzero(within, axis=1)
    for _ in range(3):
        short = np.flatnonzero(counts < 8)
        if not short.size:
            break
        radius[short] *= 2.0
        within[short] = dist[short] <= radius[short, None]
        counts[short] = np.count_nonzero(within[short], axis=1)
    # each center's neighbourhood in turn, in ground order: center i's
    # points are rows ends[i - 1]:ends[i]
    local = ground_pts[np.nonzero(within)[1]]
    design = _design(local)
    ends = np.cumsum(counts).tolist()
    out = np.empty((len(centers), 5))
    for i, count in enumerate(counts.tolist()):
        rows = slice(ends[i] - count, ends[i])
        if count >= 3:
            a, z = design[rows], local[rows, 2]
        else:
            a, z = _design(ground_pts), ground_pts[:, 2]
        out[i, 0:3] = _fit_plane_normal(a, z)
        # the sums of ndarray.mean and ndarray.std
        mean = np.add.reduce(z) / len(z)
        dev = z - mean
        out[i, 3] = mean
        out[i, 4] = math.sqrt(np.add.reduce(dev * dev) / len(z))
    out[:, 3] = centers[:, 2] - out[:, 3]
    return out


def check_feature_settings(noise_sigma: float, bg_per_frame: int) -> None:
    """Reject a feature noise level or background count :func:`make_features` cannot use."""
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError(f"feature noise_sigma must be finite and >= 0, got {noise_sigma}")
    if bg_per_frame < 0:
        raise ValueError(f"bg_per_frame must be >= 0, got {bg_per_frame}")


def make_features(frame: LabeledFrame, noise_sigma: float, rng: np.random.Generator,
                  codec_cfg: codec.CodecConfig | None = None, feature_dim: int = 16,
                  bg_per_frame: int = 12):
    """Coarse centers with synthetic per-center features and targets.

    One perturbed center per ground-truth box plus background centers on
    the ground.  Feature layout: ``[plane-fit normal (3), z above local
    ground mean (1), local ground z std (1), class cue (2: one-hot of class id % 2),
    unit-normal distractor padding]``; ``noise_sigma`` adds Gaussian noise
    to the informative block.  Terrain class and tilt are linearly
    recoverable from the normal components by construction.  Each plane
    fit starts from the ground points within 2 m of the center.

    Returns ``(centers, features, targets)``, ``centers`` an (n, 3) array.
    """
    check_feature_settings(noise_sigma, bg_per_frame)
    if frame.cloud.extras is None:
        raise ValueError("frame must carry source tags (extras channel)")
    if codec_cfg is None:
        codec_cfg = codec.CodecConfig()
    info_dim = 5 + _CLASS_CUES
    if feature_dim < info_dim:
        raise ValueError(f"feature_dim must be >= {info_dim}")

    box_centers, dims, euler, class_ids, _ = boxes = box_columns(frame.boxes)  # the one gather
    offsets = rng.uniform(-0.25, 0.25, (len(box_centers), 3))
    centers = [box_centers + (rotations(euler) @ (offsets * dims)[:, :, None])[:, :, 0]]

    ground_pts = frame.cloud.points[frame.cloud.extras[:, 0] == GROUND_SOURCE]
    ground_x, ground_y = ground_pts[:, 0].copy(), ground_pts[:, 1].copy()
    lo = ground_pts[:, :2].min(axis=0)
    hi = ground_pts[:, :2].max(axis=0)
    made = 0
    attempts = 0
    limit = 100 * bg_per_frame
    while made < bg_per_frame and attempts < limit:
        # the one-at-a-time loop cannot stop before it has made k more
        # attempts, so one call draws them: the same stream and count
        k = min(bg_per_frame - made, limit - attempts)
        attempts += k
        xy = rng.uniform(lo, hi, size=(k, 2))
        nearest = np.concatenate([_xy_distances(ground_x, ground_y, xy[rows]).argmin(axis=1)
                                  for rows in _row_blocks(k, len(ground_x))])
        candidates = ground_pts[nearest]
        keep = ~points_in_boxes(candidates, boxes).any(axis=0)
        centers.append(candidates[keep])
        made += int(np.count_nonzero(keep))

    pts = np.concatenate(centers)
    features = np.zeros((len(pts), feature_dim))
    for rows in _row_blocks(len(pts), len(ground_x)):
        features[rows, :5] = _local_ground(ground_pts, ground_x, ground_y, pts[rows])
    features[np.arange(len(box_centers)), (5 + class_ids % _CLASS_CUES).astype(np.intp)] = 1.0
    features[:, :info_dim] += rng.standard_normal((len(pts), info_dim)) * noise_sigma
    if feature_dim > info_dim:
        features[:, info_dim:] = rng.standard_normal((len(pts), feature_dim - info_dim))

    targets = codec.make_targets(pts, boxes, codec_cfg)
    return pts, features, targets
