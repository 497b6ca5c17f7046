"""Synthesize pseudo-sloped scenes from flat-scene frames.

A frame is split by the vertical plane through an anchor point ``tau``
(perpendicular to ``tau`` in the x-y plane); the far part - every point
``p`` with ``tau . (tau - p) < 0`` - is rotated about the horizontal
tangent axis ``v`` through ``tau`` by the slope angle ``gamma``.  Boxes
whose centers fall on the far side get their centers rotated the same way
and their roll/pitch set from the axis-angle tilt, keeping the original
yaw verbatim.

Sign convention (pinned by tests): for an anchor on the +x axis the
tangent is ``v = (0, 1, 0)`` and ``gamma > 0`` rotates the far side by the
right-hand rule about ``v``, i.e. a point beyond the anchor moves to a
lower z.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FullposeError
from .geom import (
    EulerXYZ,
    FullPoseBox,
    PointCloud,
    axis_angle_transform,
    to_euler_xy,
)


_ALPHA_RANGE = (-math.pi / 4, math.pi / 4)  # azimuth (rad) of the split anchor


class ZeroAnchorError(FullposeError, ValueError):
    """The split anchor must be nonzero."""


@dataclass(frozen=True)
class SlopeAugConfig:
    """Sampling ranges and application probability for slope synthesis.

    ``r_range`` bounds the anchor distance in meters and ``gamma_range``
    the slope magnitude in radians; the anchor azimuth is uniform in
    [-pi/4, pi/4) and the slope goes uphill or downhill with equal odds.
    """

    p_s: float = 0.1
    r_range: tuple[float, float] = (8.0, 32.0)
    gamma_range: tuple[float, float] = (math.radians(5.0), math.radians(25.0))

    def __post_init__(self):
        if not 0.0 <= self.p_s <= 1.0:
            raise ValueError(f"p_s must lie in [0, 1], got {self.p_s}")
        for name in ("r_range", "gamma_range"):
            pair = getattr(self, name)
            if len(pair) != 2:
                raise ValueError(f"{name} must be a (min, max) pair, got {len(pair)} values")
            lo, hi = pair
            if not lo < hi:
                raise ValueError(f"{name} must be a nondegenerate (min, max) pair")
        if not (0.0 <= self.gamma_range[0] and self.gamma_range[1] < math.pi / 2):
            raise ValueError("gamma magnitudes must lie in [0, pi/2)")


@dataclass(frozen=True)
class SlopeAugParams:
    """One sampled slope: anchor ``tau`` (z=0), tangent axis ``v``, angle."""

    tau: np.ndarray
    v: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=np.float64))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.float64))
        if abs(self.tau[2]) > 1e-12:
            raise ValueError("anchor must lie in the ground plane (tau_z = 0)")
        if abs(np.linalg.norm(self.v) - 1.0) > 1e-9 or abs(self.v[2]) > 1e-9:
            raise ValueError("axis must be a horizontal unit vector")


@dataclass
class LabeledFrame:
    """A point cloud with its box annotations and a stable frame id."""

    cloud: PointCloud
    boxes: list[FullPoseBox]
    frame_id: str = ""

    def __post_init__(self):
        if len(self.cloud) == 0:
            raise ValueError("frame cloud must be nonempty")


def frame_rng(global_seed: int, frame_id: str) -> np.random.Generator:
    """Per-frame generator derived from (seed, frame id).

    Hash-derived so batch results do not depend on scheduling order.
    """
    digest = hashlib.sha256(frame_id.encode("utf-8")).digest()
    frame_key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([global_seed, frame_key]))


def sample_params(cfg: SlopeAugConfig, rng: np.random.Generator) -> SlopeAugParams:
    """Draw anchor, tangent axis, and slope angle from the config ranges."""
    r = rng.uniform(*cfg.r_range)
    alpha = rng.uniform(*_ALPHA_RANGE)
    magnitude = rng.uniform(*cfg.gamma_range)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    tau = np.array([r * math.cos(alpha), r * math.sin(alpha), 0.0])
    v = np.array([-math.sin(alpha), math.cos(alpha), 0.0])
    return SlopeAugParams(tau=tau, v=v, gamma=sign * magnitude)


def _side(points: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """``tau . (tau - p)`` for each row ``p`` of ``points``: negative past the plane.

    Summed in elementwise ops, so a point gets the same float in any array
    (a BLAS product rounds a column differently with the array's length).
    """
    rel = tau - points
    return rel[:, 0] * tau[0] + rel[:, 1] * tau[1] + rel[:, 2] * tau[2]


def split_cloud(cloud: PointCloud, tau) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the near part (contains the origin) and the far part.

    Far part: ``tau . (tau - p) < 0``, i.e. points past the vertical plane
    through the anchor.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if np.linalg.norm(tau) < 1e-12:
        raise ZeroAnchorError("anchor must be nonzero")
    side = _side(cloud.points, tau)
    far = np.nonzero(side < 0.0)[0]
    near = np.nonzero(side >= 0.0)[0]
    return near, far


def apply(frame: LabeledFrame, params: SlopeAugParams) -> LabeledFrame:
    """Tilt the far part of a frame and re-annotate its boxes.

    Near-side points are copied bit-identically; far-side points are
    rotated by the rigid axis-angle transform.  A far-side box keeps its
    yaw and dimensions, its center is rotated, and its roll/pitch are set
    to the axis-angle tilt split (``geom.transform_box`` gives the exact
    Euler split of the composed rotation instead).  A zero angle is an
    exact identity (no arithmetic touches the far side).
    """
    if params.gamma == 0.0:
        return LabeledFrame(
            cloud=PointCloud(
                frame.cloud.points.copy(),
                None if frame.cloud.extras is None else frame.cloud.extras.copy(),
            ),
            boxes=[replace(b, center=b.center.copy(), dims=b.dims.copy()) for b in frame.boxes],
            frame_id=frame.frame_id,
        )
    transform = axis_angle_transform(params.v, params.gamma, params.tau)
    _, far = split_cloud(frame.cloud, params.tau)
    points = frame.cloud.points.copy()
    if far.size:
        points[far] = transform.apply(points[far])
    extras = None if frame.cloud.extras is None else frame.cloud.extras.copy()

    tilt_x, tilt_y = to_euler_xy(params.v, params.gamma)
    centers = np.array([box.center for box in frame.boxes]).reshape(-1, 3)
    boxes = []
    for box, side in zip(frame.boxes, _side(centers, params.tau).tolist()):
        if side < 0.0:
            boxes.append(
                FullPoseBox(
                    center=transform.apply(box.center),
                    dims=box.dims.copy(),
                    euler=EulerXYZ(tilt_x, tilt_y, box.euler.theta_z),
                    class_id=box.class_id,
                    score=box.score,
                )
            )
        else:
            boxes.append(replace(box, center=box.center.copy(), dims=box.dims.copy()))
    return LabeledFrame(
        cloud=PointCloud(points, extras), boxes=boxes, frame_id=frame.frame_id
    )


def augment(
    frame: LabeledFrame, cfg: SlopeAugConfig, rng: np.random.Generator
) -> LabeledFrame:
    """Apply a sampled slope with probability ``p_s``, else pass through.

    Draw order (pinned for reproducibility): one uniform gate draw, then
    the parameter draws.
    """
    if rng.random() >= cfg.p_s:
        return frame
    return apply(frame, sample_params(cfg, rng))
