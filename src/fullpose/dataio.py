"""Dataset ingestion and persistence.

Formats:

* velodyne ``.bin``: little-endian float32 quadruples (x, y, z, intensity).
* KITTI label/calib text files; each label row becomes a full-pose
  record in the LiDAR frame, with a geometric (not bottom) center, zero
  roll/pitch and the row's KITTI difficulty.
* native full-pose annotations: JSONL, one object per line with keys
  frame/class/center/dims/euler and optional score/difficulty.  Unknown
  keys are ignored on read and dropped on write.  A record is a checked
  :class:`~fullpose.geom.FullPoseBox` with its frame and difficulty, so
  the writer emits only what the reader accepts, given an integer class
  id; the class is written under its canonical name (``class_1`` is
  written ``Car``).
* ASCII PLY export for external viewers.
* JSON toolkit configuration with strict unknown-key rejection.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field, is_dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .codec import CodecConfig, wrap_angle
from .errors import FullposeError
from .evaluation import DIFFICULTY_LABELS, EvalConfig, assign_difficulty
from .geom import EulerXYZ, FullPoseBox, PointCloud, boxes_from_arrays
from .head import HeadConfig
from .slopeaug import SlopeAugConfig


class TruncatedFileError(FullposeError, ValueError):
    pass


class ParseError(FullposeError, ValueError):
    pass


class ConfigError(FullposeError, ValueError):
    pass


DEFAULT_CLASS_IDS = {
    "Background": 0,
    "Car": 1,
    "Pedestrian": 2,
    "Cyclist": 3,
    "Van": 4,
    "Truck": 5,
    "Person_sitting": 6,
    "Tram": 7,
    "Misc": 8,
}
DEFAULT_CLASS_NAMES = {v: k for k, v in DEFAULT_CLASS_IDS.items()}
# the types ``json`` gives a JSON number; ``type(True)`` is bool, not int
_JSON_NUMBERS = frozenset((int, float))


def class_id_for(name: str) -> int:
    if name in DEFAULT_CLASS_IDS:
        return DEFAULT_CLASS_IDS[name]
    if name.startswith("class_"):
        try:
            return int(name[6:])
        except ValueError:
            pass
    raise ParseError(f"unknown class name {name!r}")


def class_name_for(class_id: int) -> str:
    return DEFAULT_CLASS_NAMES.get(class_id, f"class_{class_id}")


def read_velodyne(path) -> PointCloud:
    """Read a velodyne .bin cloud; intensity lands in the extras channel."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % 16 != 0:
        raise TruncatedFileError(
            f"{path}: length {len(raw)} is not a multiple of 16 bytes"
        )
    data = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    finite = np.isfinite(data[:, :3])
    if not finite.all():
        first = np.flatnonzero(~finite.all(axis=1))[0]
        raise ParseError(f"{path}: point {first} has a non-finite x/y/z")
    return PointCloud(data[:, :3].astype(np.float64), data[:, 3:4].astype(np.float64))


@contextlib.contextmanager
def _replacing(path, mode: str, **kwargs):
    """Open a temp file beside ``path`` that replaces ``path`` once written.

    A writer that fails leaves ``path`` as it was and removes the temp
    file, so an interrupted batch run never leaves a truncated frame.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_velodyne(cloud: PointCloud, path) -> None:
    """Write a cloud as little-endian float32 (x, y, z, intensity) rows."""
    n = len(cloud)
    intensity = np.zeros((n, 1)) if cloud.extras is None else cloud.extras[:, :1]
    block = np.hstack([cloud.points, intensity]).astype("<f4")
    with _replacing(path, "wb") as fh:
        fh.write(block.tobytes())


@dataclass
class KittiCalib:
    """Projection and rigid blocks of a KITTI calibration file."""

    p2: np.ndarray            # (3, 4) camera projection
    r0_rect: np.ndarray       # (4, 4), rectification padded homogeneous
    tr_velo_to_cam: np.ndarray  # (4, 4), LiDAR -> camera padded homogeneous

    def cam_to_lidar(self, pts: np.ndarray) -> np.ndarray:
        """Rectified-camera points (n, 3) to the LiDAR frame."""
        rect_inv_t, velo_inv_t = self._inverse_transposes
        pts = np.atleast_2d(pts)
        hom = np.hstack([pts, np.ones((pts.shape[0], 1))])
        return (hom @ rect_inv_t @ velo_inv_t)[:, :3]

    @cached_property
    def _inverse_transposes(self) -> tuple[np.ndarray, np.ndarray]:
        # inverted once per calibration, applied as two products so every
        # point takes the same floats as with the inverses taken per call
        return np.linalg.inv(self.r0_rect).T, np.linalg.inv(self.tr_velo_to_cam).T


def read_kitti_calib(path) -> KittiCalib:
    """Parse the P2 / R0_rect / Tr_velo_to_cam blocks of a calib file."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if ":" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'KEY: values'")
            key, _, rest = line.partition(":")
            try:
                values[key.strip()] = np.array([float(v) for v in rest.split()])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None

    def block(key: str, shape: tuple[int, int]) -> np.ndarray:
        if key not in values:
            raise ParseError(f"{path}: missing calibration block {key!r}")
        size = shape[0] * shape[1]
        if values[key].size != size:
            raise ParseError(f"{path}: calibration block {key!r} has "
                             f"{values[key].size} values, expected {size}")
        return values[key].reshape(shape)

    p2 = block("P2", (3, 4))
    r0, tr = np.eye(4), np.eye(4)
    r0[:3, :3] = block("R0_rect", (3, 3))
    tr[:3, :4] = block("Tr_velo_to_cam", (3, 4))
    return KittiCalib(p2=p2, r0_rect=r0, tr_velo_to_cam=tr)


@dataclass
class Pose6dRecord:
    """Native full-pose annotation: one checked box in one frame.

    The box is the record's only box representation: its class id is
    written under its canonical name, and its floats as they are.
    """

    frame: str
    box: FullPoseBox
    difficulty: str | None = None

    def __post_init__(self):
        if self.difficulty is not None and self.difficulty not in DIFFICULTY_LABELS:
            raise ValueError(_unknown_difficulty(self.difficulty))

    # the benchmark's per-frame infer calls these two; the library reads ``box``
    def to_box(self) -> FullPoseBox:
        return self.box

    @classmethod
    def from_box(cls, box: FullPoseBox, frame: str, difficulty: str | None = None) -> "Pose6dRecord":
        return cls(frame, box, difficulty)


def _unknown_difficulty(difficulty) -> str:
    return f"unknown difficulty {difficulty!r}, expected one of {', '.join(DIFFICULTY_LABELS)}"


def read_kitti_labels(path, calib: KittiCalib) -> list[Pose6dRecord]:
    """Parse a KITTI label file into LiDAR-frame full-pose records.

    The camera-frame bottom-center location is rectified back to the
    LiDAR frame, lifted by h/2 to the geometric center, and the camera
    rotation_y becomes LiDAR yaw (``-ry - pi/2``); roll and pitch are
    zero.  Each record's frame is the file stem and its difficulty comes
    from the 2D box height, occlusion and truncation.  DontCare rows are
    skipped.  A row that no box can hold (a malformed column, a
    non-finite or non-positive value, a score outside [0, 1], an unknown
    class) raises ParseError naming file:line.
    """
    frame = Path(path).stem
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "DontCare":
                continue
            if len(parts) < 15:
                raise ParseError(
                    f"{path}:{lineno}: expected >= 15 fields, got {len(parts)}"
                )
            try:
                trunc = float(parts[1])
                occl = int(float(parts[2]))
                # alpha and the 2D box's left/right go unused but must parse
                _alpha, _, bbox_top, _, bbox_bottom = (float(v) for v in parts[3:8])
                h, w, l = (float(v) for v in parts[8:11])
                loc_cam = [float(v) for v in parts[11:14]]
                ry = float(parts[14])
                score = float(parts[15]) if len(parts) > 15 else None
                if not all(map(math.isfinite, (h, w, l, ry, *loc_cam))):
                    raise ValueError("dimensions, location and rotation_y must be finite")
                bottom = calib.cam_to_lidar(np.array(loc_cam))[0]
                box = FullPoseBox(
                    center=bottom + np.array([0.0, 0.0, h / 2.0]),
                    dims=np.array([l, w, h]),
                    euler=EulerXYZ(0.0, 0.0, wrap_angle(-ry - math.pi / 2.0)),
                    class_id=class_id_for(parts[0]),
                    score=score,
                )
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            difficulty = assign_difficulty(bbox_bottom - bbox_top, occl, trunc)
            records.append(Pose6dRecord(frame, box, difficulty))
    return records


def _json_float(number: int | float) -> float:
    """A JSON number as a float; an integer past the float range reads as
    infinite, as ``json`` reads ``1e999``."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def read_pose6d(path) -> list[Pose6dRecord]:
    """Read JSONL full-pose records; malformed lines raise with a line number.

    Each line is checked on its parsed Python values: center, dims and
    euler are arrays of JSON numbers (booleans are not numbers), score
    is a JSON number or null, and the class name is one
    :func:`class_id_for` knows.  The center, dims and euler triples of the
    file then fill one (n, 3, 3) array, from which one
    :func:`~fullpose.geom.boxes_from_arrays` call builds the file's boxes.
    """
    rows, triples, class_ids, scores = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            except ValueError as exc:  # an integer longer than Python's int-string limit
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise ParseError(f"{path}:{lineno}: expected a JSON object")
            missing = {"frame", "class", "center", "dims", "euler"} - set(obj)
            if missing:
                raise ParseError(f"{path}:{lineno}: missing keys {sorted(missing)}")
            center, dims, euler = obj["center"], obj["dims"], obj["euler"]
            if not (type(center) is type(dims) is type(euler) is list
                    and _JSON_NUMBERS.issuperset(map(type, values := center + dims + euler))):
                raise ParseError(f"{path}:{lineno}: center/dims/euler must be numeric triples")
            try:
                values = list(map(float, values))
            except OverflowError:
                values = list(map(_json_float, values))
            if len(center) != 3 or len(dims) != 3 or len(euler) != 3:
                raise ParseError(f"{path}:{lineno}: center/dims/euler must have 3 entries")
            if any(d <= 0.0 for d in values[3:6]):
                raise ParseError(f"{path}:{lineno}: dims must be positive")
            if not all(map(math.isfinite, values)):
                raise ParseError(f"{path}:{lineno}: non-finite numbers")
            difficulty = obj.get("difficulty")
            if difficulty is not None and difficulty not in DIFFICULTY_LABELS:
                raise ParseError(f"{path}:{lineno}: {_unknown_difficulty(difficulty)}")
            score = obj.get("score")
            if score is not None:
                if type(score) not in _JSON_NUMBERS:
                    raise ParseError(f"{path}:{lineno}: score must be a number")
                score = _json_float(score)
                if not 0.0 <= score <= 1.0:
                    raise ParseError(f"{path}:{lineno}: score must lie in [0, 1], got {score}")
            try:
                class_ids.append(class_id_for(str(obj["class"])))
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            rows.append((str(obj["frame"]), difficulty))
            triples.append(values)
            scores.append(score)
    block = np.array(triples, dtype=np.float64).reshape(-1, 3, 3)
    try:
        ids = np.array(class_ids, dtype=np.int64)
    except OverflowError:  # numpy would read ids past int64 as floats or objects
        ids = np.array(class_ids, dtype=object)
    boxes = boxes_from_arrays(block[:, 0], block[:, 1], block[:, 2], ids, scores)
    return [Pose6dRecord(frame, box, difficulty) for (frame, difficulty), box in zip(rows, boxes)]


def write_pose6d(records, path) -> None:
    """Write records as JSONL, with one write per file.

    The class is written as :func:`class_name_for` names the box's class
    id, so a ``class_<id>`` that has a name comes back under that name.
    """
    lines = []
    for rec in records:
        box = rec.box
        euler = box.euler
        obj = {
            "frame": rec.frame,
            "class": class_name_for(box.class_id),
            "center": np.asarray(box.center, dtype=np.float64).tolist(),
            "dims": np.asarray(box.dims, dtype=np.float64).tolist(),
            "euler": [float(euler.theta_x), float(euler.theta_y), float(euler.theta_z)],
        }
        if box.score is not None:
            obj["score"] = float(box.score)
        if rec.difficulty is not None:
            obj["difficulty"] = rec.difficulty
        lines.append(json.dumps(obj) + "\n")
    with _replacing(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def write_ply(cloud: PointCloud, path, colors=None) -> None:
    """ASCII PLY export with optional per-point uint8 RGB colors."""
    n = len(cloud)
    if colors is not None:
        colors = np.asarray(colors)
        if colors.shape != (n, 3):
            raise ValueError("colors must be (n, 3)")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {n}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        if colors is not None:
            fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        for i in range(n):
            x, y, z = cloud.points[i]
            if colors is None:
                fh.write(f"{x:.6f} {y:.6f} {z:.6f}\n")
            else:
                r, g, b = (int(c) for c in colors[i])
                fh.write(f"{x:.6f} {y:.6f} {z:.6f} {r} {g} {b}\n")


@dataclass(frozen=True)
class ToolkitConfig:
    """Typed configuration for the whole toolkit, with paper defaults."""

    nms_iou: float = 0.1
    codec: CodecConfig = field(default_factory=CodecConfig)
    slopeaug: SlopeAugConfig = field(default_factory=SlopeAugConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    head: HeadConfig = field(default_factory=HeadConfig)

    def __post_init__(self):
        if not 0.0 <= self.nms_iou <= 1.0:
            raise ValueError(f"nms_iou must lie in [0, 1], got {self.nms_iou}")


def _scalars(config) -> dict:
    """The default of each field of ``config`` that is not a nested config."""
    return {k: v for k, v in vars(config).items() if not is_dataclass(v)}


# the JSON layout follows the dataclasses: a top-level key per scalar field
# of ToolkitConfig, a section per nested config class; the head section
# omits its codec, which is the top-level codec section
_TOP_DEFAULTS = _scalars(ToolkitConfig())
_SECTION_DEFAULTS = {k: _scalars(v) for k, v in vars(ToolkitConfig()).items() if is_dataclass(v)}
_TOP_KEYS = tuple(_TOP_DEFAULTS) + tuple(_SECTION_DEFAULTS)


def _check_keys(data: dict, allowed, context: str) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {context}{key}")


def _typed(value, default, key: str):
    """``value`` with the JSON type of ``default``: an integer for an int, a
    number (made a float) for a float, an array of those for a tuple."""
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"config value {key} must be an array, got {value!r}")
        return tuple(_typed(v, default[0], key) for v in value)
    want, kinds = ("an integer", int) if isinstance(default, int) else ("a number", (int, float))
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"config value {key} must be {want}, got {value!r}")
    return type(default)(value)


def _section(data: dict, name: str) -> dict:
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    defaults = _SECTION_DEFAULTS[name]
    _check_keys(section, defaults, f"{name}.")
    return {k: _typed(v, defaults[k], f"{name}.{k}") for k, v in section.items()}


def load_config(path=None) -> ToolkitConfig:
    """Load a JSON config; omitted keys fall back to the library defaults.

    Unknown keys and values without the JSON type of their default raise
    ConfigError naming the offending key.
    """
    if path is None:
        data = {}
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None
            except ValueError as exc:  # an integer longer than Python's int-string limit
                raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(data, _TOP_KEYS, "")
    try:
        codec_cfg = CodecConfig(**_section(data, "codec"))
        head_kwargs = _section(data, "head")
        return ToolkitConfig(
            **{k: _typed(data[k], d, k) for k, d in _TOP_DEFAULTS.items() if k in data},
            codec=codec_cfg,
            slopeaug=SlopeAugConfig(**_section(data, "slopeaug")),
            eval=EvalConfig(**_section(data, "eval")),
            head=HeadConfig(codec=codec_cfg, **head_kwargs),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config value: {exc}") from None
