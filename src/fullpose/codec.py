"""Target encoding and decoding for ground-aware full-pose regression.

Yaw is bin-encoded: the circle splits into ``n_yaw_bins`` equal bins and
the in-bin residual is ``(theta - bin * delta + delta/2) / delta``, which
lands in [0.5, 1.5).  Tilt (roll/pitch) targets subtract a terrain
threshold and normalize by pi/2; the ground label gates whether tilt is
supervised at all.  Dimensions are log-mapped, centers offset-encoded.

The tilt convention is sign-symmetric:
``encode(theta) = (theta - sign(theta) * t) / (pi/2)``, so downhill
slopes mirror uphill ones, and the terrain label tests |theta| against
the threshold.  ``decode_tilt(0.0)`` returns 0.0, the inverse of
``encode_tilt(0.0) == 0.0``: a zero target comes from theta = 0 and also
from |theta| = t, and zero is the flat reading.  The sign of any other
decoded tilt follows the sign of the raw prediction.

The decoders (``wrap_angle``, ``decode_*``, ``gate_tilt``) take numpy
arrays as well as scalars, apply the same formula to every element, and
return a float for a scalar input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import FullposeError
from .geom import TWO_PI, BoxColumns, points_in_boxes

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
    """Discrete yaw bin plus in-bin residual in [0.5, 1.5).

    Encoding and decoding also work on equal-length arrays of bins and
    residuals.
    """

    bin: int
    residual: float


def _scalar_or_array(value):
    return float(value) if np.ndim(value) == 0 else value


def wrap_angle(theta):
    """Wrap an angle (or an array of angles) to [0, 2*pi)."""
    wrapped = np.fmod(theta, TWO_PI)
    wrapped = np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped)
    wrapped = np.where(wrapped >= TWO_PI, 0.0, wrapped)  # float rounding at the seam
    return _scalar_or_array(wrapped)


def encode_yaw(theta_z, cfg: CodecConfig) -> YawCode:
    """Bin index and residual for a heading angle (or an array of angles)."""
    theta = wrap_angle(theta_z)
    delta = cfg.bin_size
    idx = np.minimum(np.floor_divide(theta, delta), cfg.n_yaw_bins - 1)
    residual = _scalar_or_array((theta - idx * delta + delta / 2.0) / delta)
    return YawCode(bin=int(idx) if np.ndim(idx) == 0 else idx.astype(np.intp), residual=residual)


def decode_yaw(code: YawCode, cfg: CodecConfig):
    """Heading angle in [0, 2*pi) from a bin/residual pair."""
    delta = cfg.bin_size
    return wrap_angle((code.bin + code.residual) * delta - delta / 2.0)


def ground_label(euler, cfg: CodecConfig):
    """Terrain class: 1 (sloped) if |roll| or |pitch| reaches its threshold, else 0.

    One (roll, pitch, yaw) triple gives an int, an (n, 3) array an (n,) int array.
    """
    tilt_abs = np.abs(np.asarray(euler, dtype=np.float64)[..., :2])
    labels = np.any(tilt_abs >= (cfg.t_theta_x, cfg.t_theta_y), axis=-1).astype(np.intp)
    return int(labels) if labels.ndim == 0 else labels


def encode_tilt(theta: float, t: float) -> float:
    """Normalized tilt target; raises for |theta| >= pi/2."""
    if abs(theta) >= HALF_PI:
        raise TiltOutOfRangeError(f"|tilt| must be < pi/2, got {theta}")
    return float(_tilt_codes(theta, t))


def _tilt_codes(theta, t):
    # encode_tilt's formula on checked angles, elementwise, t broadcasting:
    # an exactly-zero angle is not shifted
    return (theta - np.where(theta == 0.0, 0.0, np.copysign(t, theta))) / HALF_PI


def decode_tilt(theta_hat, t):
    """Tilt angle from a normalized prediction.

    The decoded sign follows the sign of ``theta_hat`` and an
    exactly-zero prediction (either sign) decodes to 0.0.  ``t``
    broadcasts against ``theta_hat``, e.g. ``(t_x, t_y)`` against an
    (n, 2) array.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    decoded = np.where(theta_hat < 0.0, theta_hat * HALF_PI - t, theta_hat * HALF_PI + t)
    return _scalar_or_array(np.where(theta_hat == 0.0, 0.0, decoded))


def gate_tilt(s_g, theta_p):
    """Pass the tilt through only where the slope score exceeds 0.5."""
    return _scalar_or_array(np.where(np.asarray(s_g) > 0.5, theta_p, 0.0))


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


# each kind of target, its value rule and its error: a NaN would train on silently,
# a flag of 0.5 make its row foreground, a label of 1.5 train as class 1
_TARGET_KINDS = (
    (("yaw_residual", "tilt", "log_dims", "center_offset"), np.isfinite, "non-finite values"),
    (("foreground", "ground_label"), lambda a: (a == 0) | (a == 1), "values other than 0 and 1"),
    (("class_label", "yaw_bin"), lambda a: np.isfinite(a) & (np.floor(a) == a),
     "non-integer values"),
)


@dataclass
class BoxTargets:
    """Per-center regression/classification targets, one row per center.

    Background rows (``foreground`` False) carry class 0 and zeroed
    regression slots; rows with ``ground_label == 0`` have tilt targets
    that are present but unsupervised.  Construction checks each field's
    shape, then the rule of its kind (``_TARGET_KINDS``).
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
        widths = {"tilt": 2, "log_dims": 3, "center_offset": 3}
        for f in fields(self):
            want = (n, widths[f.name]) if f.name in widths else (n,)
            got = np.asarray(getattr(self, f.name)).shape
            if got != want:
                raise ValueError(f"{f.name} has shape {got}, expected {want}")
        for names, ok, what in _TARGET_KINDS:
            for name in names:
                if not ok(np.asarray(getattr(self, name))).all():
                    raise ValueError(f"{name} holds {what}")

    def __len__(self) -> int:
        return len(self.class_label)


def make_targets(centers, gts: BoxColumns, cfg: CodecConfig) -> BoxTargets:
    """Assign each (n, 3) coarse center to a ground-truth box and encode targets.

    ``gts`` are :class:`~fullpose.geom.BoxColumns`.  A center is foreground iff
    it lies inside some box (closed boundary); ties among containing boxes go
    to the nearest box center, then to the lowest box index.  The boxes'
    attributes are gathered by owner and
    encoded as arrays, one row per foreground center; an attribute that
    cannot be encoded raises for the first such box in the order of its
    first center.  Background centers get class 0 and zeroed regression
    slots.
    """
    pts = np.asarray(centers, dtype=np.float64)
    n = pts.shape[0]
    class_label, ground, yaw_bin = np.zeros((3, n), dtype=np.intp)
    yaw_res = np.full(n, 0.5)
    tilt = np.zeros((n, 2))
    log_dims = np.zeros((n, 3))
    offset = np.zeros((n, 3))
    foreground = np.zeros(n, dtype=bool)

    if len(gts.centers):
        inside = points_in_boxes(pts, gts)  # (n_boxes, n)
        box_centers, dims, euler, class_ids, _ = gts
        dists = np.linalg.norm(pts - box_centers[:, None, :], axis=2)
        owner = np.argmin(np.where(inside, dists, np.inf), axis=0)
        foreground = inside.any(axis=0)
        # each foreground center takes its box's attributes, encoded as arrays
        own = owner[foreground]
        euler, dims = euler[own], dims[own]
        tilt_angles = euler[:, :2]
        tilt_abs = np.abs(tilt_angles)
        bad = np.any(tilt_abs >= HALF_PI, axis=1) | np.any(dims <= 0.0, axis=1)
        if bad.any():
            # the first bad box in the order of its first center raises the
            # first error of its encode_tilt (x, then y) and encode_dims calls
            k = np.argmax(bad)
            encode_tilt(float(euler[k, 0]), cfg.t_theta_x)
            encode_tilt(float(euler[k, 1]), cfg.t_theta_y)
            encode_dims(dims[k])
        class_label[foreground] = class_ids[own]
        ground[foreground] = ground_label(euler, cfg)
        codes = encode_yaw(euler[:, 2], cfg)
        yaw_bin[foreground], yaw_res[foreground] = codes.bin, codes.residual
        tilt[foreground] = _tilt_codes(tilt_angles, np.array([cfg.t_theta_x, cfg.t_theta_y]))
        log_dims[foreground] = encode_dims(dims)
        offset[foreground] = encode_center_offset(pts[foreground], box_centers[own])

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
