"""Target encoding and decoding for ground-aware full-pose regression.

Yaw is bin-encoded: the circle splits into ``n_yaw_bins`` equal bins and
the in-bin residual is ``(theta - bin * delta + delta/2) / delta``, which
lands in [0.5, 1.5).  Tilt (roll/pitch) targets subtract a terrain
threshold and normalize by pi/2; the ground label gates whether tilt is
supervised at all.  Dimensions are log-mapped, centers offset-encoded.

Two tilt conventions exist:

* default: sign-symmetric.  ``encode(theta) = (theta - sign(theta) * t) / (pi/2)``
  so negative slopes mirror positive ones; the terrain label uses |theta|.
* ``strict_eq3``: the one-sided variant ``(theta - t) / (pi/2)`` with a
  signed terrain test, kept selectable for auditing.

``decode_tilt(0.0)`` returns +t (the positive branch); the sign of a
decoded tilt otherwise follows the sign of the raw prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FullposeError
from .geom import TWO_PI, FullPoseBox, PointCloud, points_in_box

HALF_PI = math.pi / 2.0


class TiltOutOfRangeError(FullposeError, ValueError):
    """Tilt angle magnitude must stay below pi/2."""


class NonPositiveDimensionError(FullposeError, ValueError):
    """Box dimensions must be positive for log encoding."""


@dataclass(frozen=True)
class CodecConfig:
    """Encoding hyperparameters: bin count and terrain thresholds."""

    n_yaw_bins: int = 12
    t_theta_x: float = math.radians(10.0)
    t_theta_y: float = math.radians(10.0)
    strict_eq3: bool = False

    def __post_init__(self):
        if self.n_yaw_bins < 2:
            raise ValueError("n_yaw_bins must be >= 2")
        for name in ("t_theta_x", "t_theta_y"):
            t = getattr(self, name)
            if not 0.0 < t < math.pi / 4:
                raise ValueError(f"{name} must lie in (0, pi/4), got {t}")

    @property
    def bin_size(self) -> float:
        return TWO_PI / self.n_yaw_bins


@dataclass(frozen=True)
class YawCode:
    """Discrete yaw bin plus in-bin residual in [0.5, 1.5)."""

    bin: int
    residual: float


def wrap_angle(theta: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    wrapped = math.fmod(theta, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    if wrapped >= TWO_PI:  # float rounding at the seam
        wrapped = 0.0
    return wrapped


def encode_yaw(theta_z: float, cfg: CodecConfig) -> YawCode:
    """Bin index and residual for a heading angle."""
    theta = wrap_angle(theta_z)
    delta = cfg.bin_size
    idx = min(int(theta // delta), cfg.n_yaw_bins - 1)
    residual = (theta - idx * delta + delta / 2.0) / delta
    return YawCode(bin=idx, residual=residual)


def decode_yaw(code: YawCode, cfg: CodecConfig) -> float:
    """Heading angle in [0, 2*pi) from a bin/residual pair."""
    delta = cfg.bin_size
    return wrap_angle((code.bin + code.residual) * delta - delta / 2.0)


def ground_label(box: FullPoseBox, cfg: CodecConfig) -> int:
    """Terrain class of a box: 1 if sloped, 0 if flat."""
    tx, ty = box.euler.theta_x, box.euler.theta_y
    if cfg.strict_eq3:
        sloped = tx >= cfg.t_theta_x or ty >= cfg.t_theta_y
    else:
        sloped = abs(tx) >= cfg.t_theta_x or abs(ty) >= cfg.t_theta_y
    return int(sloped)


def encode_tilt(theta: float, t: float, strict_eq3: bool = False) -> float:
    """Normalized tilt target; raises for |theta| >= pi/2."""
    if abs(theta) >= HALF_PI:
        raise TiltOutOfRangeError(f"|tilt| must be < pi/2, got {theta}")
    if strict_eq3:
        return (theta - t) / HALF_PI
    shift = 0.0 if theta == 0.0 else math.copysign(t, theta)
    return (theta - shift) / HALF_PI


def decode_tilt(theta_hat: float, t: float, strict_eq3: bool = False) -> float:
    """Tilt angle from a normalized prediction.

    In the default mode the decoded sign follows the sign of
    ``theta_hat``; exactly zero decodes to +t (the positive branch).
    """
    if strict_eq3:
        return theta_hat * HALF_PI + t
    if theta_hat < 0.0:
        return theta_hat * HALF_PI - t
    return theta_hat * HALF_PI + t


def gate_tilt(s_g: float, theta_p: float) -> float:
    """Pass the tilt through only when the slope score exceeds 0.5."""
    return theta_p if s_g > 0.5 else 0.0


def encode_dims(dims) -> np.ndarray:
    """Natural log of (l, w, h)."""
    d = np.asarray(dims, dtype=np.float64)
    if np.any(d <= 0.0):
        raise NonPositiveDimensionError(f"dims must be positive, got {d}")
    return np.log(d)


def decode_dims(log_dims) -> np.ndarray:
    return np.exp(np.asarray(log_dims, dtype=np.float64))


def encode_center_offset(point, box_center) -> np.ndarray:
    """Offset from a coarse center to the true box center."""
    return np.asarray(box_center, dtype=np.float64) - np.asarray(point, dtype=np.float64)


def decode_center_offset(point, offset) -> np.ndarray:
    return np.asarray(point, dtype=np.float64) + np.asarray(offset, dtype=np.float64)


@dataclass
class BoxTargets:
    """Per-center regression/classification targets, one row per center.

    Background rows (``foreground`` False) carry class 0 and zeroed
    regression slots; rows with ``ground_label == 0`` have tilt targets
    that are present but unsupervised.
    """

    class_label: np.ndarray      # (n,) int
    ground_label: np.ndarray     # (n,) int, 1 = sloped terrain
    yaw_bin: np.ndarray          # (n,) int
    yaw_residual: np.ndarray     # (n,) float
    tilt: np.ndarray             # (n, 2) float, normalized (x, y)
    log_dims: np.ndarray         # (n, 3) float
    center_offset: np.ndarray    # (n, 3) float
    foreground: np.ndarray       # (n,) bool

    def __post_init__(self):
        n = len(self.class_label)
        shapes = {
            "class_label": (n,),
            "ground_label": (n,),
            "yaw_bin": (n,),
            "yaw_residual": (n,),
            "tilt": (n, 2),
            "log_dims": (n, 3),
            "center_offset": (n, 3),
            "foreground": (n,),
        }
        for name, want in shapes.items():
            got = np.asarray(getattr(self, name)).shape
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")

    def __len__(self) -> int:
        return len(self.class_label)


def make_targets(centers, gts, cfg: CodecConfig) -> BoxTargets:
    """Assign each coarse center to a ground-truth box and encode targets.

    A center is foreground iff it lies inside some box (closed boundary);
    ties among containing boxes go to the nearest box center.  Background
    centers get class 0 and zeroed regression slots.
    """
    pts = centers.points if isinstance(centers, PointCloud) else np.asarray(centers, dtype=np.float64)
    n = pts.shape[0]
    class_label = np.zeros(n, dtype=np.intp)
    ground = np.zeros(n, dtype=np.intp)
    yaw_bin = np.zeros(n, dtype=np.intp)
    yaw_res = np.full(n, 0.5)
    tilt = np.zeros((n, 2))
    log_dims = np.zeros((n, 3))
    offset = np.zeros((n, 3))
    foreground = np.zeros(n, dtype=bool)

    gts = list(gts)
    if gts:
        inside = np.stack([points_in_box(pts, b) for b in gts])  # (n_boxes, n)
        dists = np.stack([np.linalg.norm(pts - b.center, axis=1) for b in gts])
        for i in range(n):
            hits = np.nonzero(inside[:, i])[0]
            if hits.size == 0:
                continue
            j = int(hits[np.argmin(dists[hits, i])])
            box = gts[j]
            foreground[i] = True
            class_label[i] = box.class_id
            ground[i] = ground_label(box, cfg)
            code = encode_yaw(box.euler.theta_z, cfg)
            yaw_bin[i], yaw_res[i] = code.bin, code.residual
            tilt[i, 0] = encode_tilt(box.euler.theta_x, cfg.t_theta_x, cfg.strict_eq3)
            tilt[i, 1] = encode_tilt(box.euler.theta_y, cfg.t_theta_y, cfg.strict_eq3)
            log_dims[i] = encode_dims(box.dims)
            offset[i] = encode_center_offset(pts[i], box.center)

    return BoxTargets(
        class_label=class_label,
        ground_label=ground,
        yaw_bin=yaw_bin,
        yaw_residual=yaw_res,
        tilt=tilt,
        log_dims=log_dims,
        center_offset=offset,
        foreground=foreground,
    )
