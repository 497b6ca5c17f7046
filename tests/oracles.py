"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (single-axis
matrices, literal greedy loops, Monte-Carlo membership counting) so it
shares no code path with the library functions it checks.  The scene
synthesis and codec oracles at the end are the exception: they are the
literal per-point, per-center and per-box loops that the vectorized code
must repeat bit for bit, so they reuse the library's rotations, membership
test, array terrain, plane fit and target encoders (the placement oracle
stands boxes with a numpy resting pose; the decode oracle spells out the
scalar decode formulas) and differ only in how they loop and draw.  The
checks and label IO at the very end are the library's per-value numpy
checks and per-record JSONL reader and writer, kept literally because the
Python-scalar versions must repeat them message for message and byte
for byte.  The training oracles last are the per-array forward, backward,
head loss and Adam step that the one-vector training must repeat bit for
bit; they reuse only the library's elementwise losses and sigmoid.  The
loss oracle is the per-call composite loss that the per-frame loss rows
must repeat bit for bit: it selects rows by boolean mask and checks the
labels on every call, and makes fresh gradient arrays each time.
The true-positive error oracle is the per-pair scalar arithmetic that the
batched error pass of matching must repeat bit for bit.  ``blas_build``
names numpy's BLAS and the core it runs, for the messages of
byte-equality checks whose bytes depend on the BLAS kernel.
"""

from __future__ import annotations

import math

import numpy as np


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)


def euler_matrix_oracle(tx: float, ty: float, tz: float) -> np.ndarray:
    """Extrinsic x-y-z composition from explicit single-axis matrices."""
    return rot_z(tz) @ rot_y(ty) @ rot_x(tx)


def points_in_box_oracle(points: np.ndarray, center, dims, tx, ty, tz) -> np.ndarray:
    """Membership via an explicitly inverted transform, point by point."""
    rot = euler_matrix_oracle(tx, ty, tz)
    inv = np.linalg.inv(rot)
    half = np.asarray(dims, dtype=float) / 2.0
    out = np.zeros(len(points), dtype=bool)
    for i, p in enumerate(points):
        local = inv @ (np.asarray(p, dtype=float) - center)
        out[i] = bool(np.all(np.abs(local) <= half))
    return out


def monte_carlo_iou3d(box_a, box_b, n_samples: int, rng: np.random.Generator) -> float:
    """IoU of two yaw-only boxes by uniform sampling over a shared bound.

    Membership tests run in each box's local frame via a test-built yaw
    matrix, independent of the library's corner/clipping code: a yaw keeps
    z, so a sample is inside when its z lies in the box's z interval and
    its xy offset projects onto both footprint axes within the half sizes.
    """

    def corners(box):
        l, w, h = box.dims
        offs = np.array(
            [[sx * l / 2, sy * w / 2, sz * h / 2]
             for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        )
        return offs @ rot_z(box.euler.theta_z).T + box.center

    all_corners = np.vstack([corners(box_a), corners(box_b)])
    lo = all_corners.min(axis=0)
    hi = all_corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n_samples, 3))

    def inside(box):
        half = np.asarray(box.dims) / 2.0
        rot = rot_z(box.euler.theta_z)
        dx = pts[:, 0] - box.center[0]
        dy = pts[:, 1] - box.center[1]
        mask = np.abs(pts[:, 2] - box.center[2]) <= half[2]
        mask &= np.abs(dx * rot[0, 0] + dy * rot[1, 0]) <= half[0]
        mask &= np.abs(dx * rot[0, 1] + dy * rot[1, 1]) <= half[1]
        return mask

    in_a = inside(box_a)
    in_b = inside(box_b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def nms_oracle(boxes, iou_threshold: float, iou_fn) -> list[int]:
    """Quadratic reference suppression (descending score, index ties).

    ``iou_fn(i, j)`` is the IoU of candidate ``boxes[i]`` with kept ``boxes[j]``.
    """
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept = []
    for i in order:
        if all(iou_fn(i, j) <= iou_threshold for j in kept):
            kept.append(i)
    return kept


def bev_corners_oracle(box) -> np.ndarray:
    """Counterclockwise (4, 2) footprint corners from a test-built yaw matrix."""
    l, w = box.dims[0], box.dims[1]
    local = np.array([[l / 2, w / 2], [-l / 2, w / 2], [-l / 2, -w / 2], [l / 2, -w / 2]])
    return local @ rot_z(box.euler.theta_z)[:2, :2].T + box.center[:2]


def polygon_area_oracle(poly: np.ndarray) -> float:
    """Shoelace area of one (n, 2) polygon."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def clip_polygon_oracle(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clipping of one ``subject`` by a convex CCW ``clip``."""
    output = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        if not output:
            break
        a = clip[i]
        edge = clip[(i + 1) % n] - a
        polygon, output = output, []
        # signed cross; >= 0 keeps boundary points (closed clip region)
        sides = [edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) for p in polygon]
        for j, cur in enumerate(polygon):
            prev = polygon[j - 1]
            s_cur, s_prev = sides[j], sides[j - 1]
            if (s_cur >= 0.0) != (s_prev >= 0.0):
                t = s_prev / (s_prev - s_cur)
                output.append(
                    (
                        prev[0] + t * (cur[0] - prev[0]),
                        prev[1] + t * (cur[1] - prev[1]),
                    )
                )
            if s_cur >= 0.0:
                output.append(cur)
    return np.array(output) if output else np.empty((0, 2))


def bev_iou_oracle(a, b) -> float:
    """Footprint IoU of one pair: clip ``a`` by ``b``, no early reject."""
    ca, cb = bev_corners_oracle(a), bev_corners_oracle(b)
    inter = polygon_area_oracle(clip_polygon_oracle(ca, cb))
    union = polygon_area_oracle(ca) + polygon_area_oracle(cb) - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def iou3d_oracle(a, b) -> float:
    """KITTI-style 3D IoU of one pair: footprint intersection times z-overlap."""
    za0, za1 = a.center[2] - a.dims[2] / 2, a.center[2] + a.dims[2] / 2
    zb0, zb1 = b.center[2] - b.dims[2] / 2, b.center[2] + b.dims[2] / 2
    dz = min(za1, zb1) - max(za0, zb0)
    if dz <= 0.0:
        return 0.0
    inter = polygon_area_oracle(
        clip_polygon_oracle(bev_corners_oracle(a), bev_corners_oracle(b))) * dz
    union = float(np.prod(a.dims)) + float(np.prod(b.dims)) - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


# local face frame: (axis index of the face normal, sign, in-plane axes)
_FACES = (
    (2, 1.0, 0, 1),   # top
    (2, -1.0, 0, 1),  # bottom
    (1, 1.0, 0, 2),   # +y side
    (1, -1.0, 0, 2),  # -y side
    (0, 1.0, 1, 2),   # +x side
    (0, -1.0, 1, 2),  # -x side
)


def sample_box_surface_oracle(box, count: int, rng: np.random.Generator) -> np.ndarray:
    """Face sampling point by point: one scalar draw per in-plane coordinate."""
    l, w, h = box.dims
    areas = np.array([l * w, l * w, l * h, l * h, w * h, w * h])
    faces = rng.choice(len(_FACES), size=count, p=areas / areas.sum())
    local = np.empty((count, 3))
    for i, f in enumerate(faces):
        axis, sign, u_axis, v_axis = _FACES[f]
        local[i, axis] = sign * box.dims[axis] / 2.0
        local[i, u_axis] = rng.uniform(-0.5, 0.5) * box.dims[u_axis]
        local[i, v_axis] = rng.uniform(-0.5, 0.5) * box.dims[v_axis]
    return local @ box.rotation().T + box.center


def resting_euler_oracle(normal, yaw: float):
    """``synth.resting_euler`` on numpy arrays: the rotated normal as an array."""
    from fullpose.geom import EulerXYZ

    n = np.asarray(normal, dtype=np.float64)
    c, s = math.cos(-yaw), math.sin(-yaw)
    m = np.array([c * n[0] - s * n[1], s * n[0] + c * n[1], n[2]])
    theta_x = math.asin(np.clip(-m[1], -1.0, 1.0))
    theta_y = math.atan2(m[0], m[2])
    return EulerXYZ(theta_x, theta_y, yaw)


def place_boxes_oracle(terrain, spec, rng: np.random.Generator) -> list:
    """``synth.place_boxes`` with one-row array reads of the terrain.

    Each kept position reads ``terrain.normal`` and ``terrain.height`` on a
    (1, 2) array and stands the box with :func:`resting_euler_oracle`.
    Overlap is the BEV IoU kernel's decision on the two boxes.
    """
    from fullpose.geom import FullPoseBox, bev_iou
    from fullpose.synth import _DIMS_JITTER, _EDGE_MARGIN, PlacementFailureError

    x0, x1, y0, y1 = terrain.extent
    m = _EDGE_MARGIN
    class_ids = sorted(spec.class_weights)
    weights = np.array([spec.class_weights[i] for i in class_ids], dtype=np.float64)
    class_p = weights / weights.sum()
    boxes = []
    rejections = forced_ramp = 0
    if spec.ramp_box_fraction is not None and terrain.ramp_start is not None:
        forced_ramp = round(spec.ramp_box_fraction * spec.box_count)
    while len(boxes) < spec.box_count:
        if rejections >= 1000:
            raise PlacementFailureError(
                f"placed {len(boxes)}/{spec.box_count} boxes after 1000 rejections")
        xy = np.array([rng.uniform(x0 + m, x1 - m), rng.uniform(y0 + m, y1 - m)])
        if terrain.ramp_start is not None:
            want_ramp = len(boxes) < forced_ramp if spec.ramp_box_fraction is not None else None
            on_ramp = xy[0] > terrain.ramp_start + spec.crease_margin
            on_flat = xy[0] < terrain.ramp_start - spec.crease_margin
            if not (on_ramp or on_flat) or (want_ramp is not None and want_ramp != on_ramp):
                rejections += 1
                continue
        cls = int(class_ids[rng.choice(len(class_ids), p=class_p)])
        dims = np.asarray(spec.class_dims[cls], dtype=np.float64)
        dims = dims * (1.0 + rng.uniform(-_DIMS_JITTER, _DIMS_JITTER, 3))
        yaw = rng.uniform(*spec.yaw_range)
        normal = terrain.normal(xy)[0]
        foot = np.array([xy[0], xy[1], float(terrain.height(xy)[0])])
        box = FullPoseBox(center=foot + normal * (dims[2] / 2.0), dims=dims,
                          euler=resting_euler_oracle(normal, yaw), class_id=cls)
        if any(bev_iou(box, other) > 0.0 for other in boxes):
            rejections += 1
            continue
        rejections = 0
        boxes.append(box)
    return boxes


def fit_plane_normal_oracle(points) -> np.ndarray:
    """Unit normal of the least-squares plane z = ax + by + c, via ``column_stack`` and ``norm``."""
    a = np.column_stack([points[:, 0], points[:, 1], np.ones(len(points))])
    coef, *_ = np.linalg.lstsq(a, points[:, 2], rcond=None)
    normal = np.array([-coef[0], -coef[1], 1.0])
    return normal / np.linalg.norm(normal)


def make_features_oracle(frame, noise_sigma: float, rng: np.random.Generator,
                         feature_dim: int = 16, class_count: int = 2,
                         bg_per_frame: int = 12, fit_radius: float = 2.0):
    """``(centers, features)`` of ``synth.make_features``, center by center.

    Every background candidate is tested against every box, and every
    radius doubling recomputes the distances to all ground points.
    """
    from fullpose.geom import points_in_box
    from fullpose.synth import GROUND_SOURCE

    info_dim = 5 + class_count
    centers, cues = [], []
    for box in frame.boxes:
        local = rng.uniform(-0.25, 0.25, 3) * box.dims
        centers.append(box.center + box.rotation() @ local)
        cue = np.zeros(class_count)
        cue[box.class_id % class_count] = 1.0
        cues.append(cue)

    ground_pts = frame.cloud.points[frame.cloud.extras[:, 0] == GROUND_SOURCE]
    lo = ground_pts[:, :2].min(axis=0)
    hi = ground_pts[:, :2].max(axis=0)
    made = attempts = 0
    while made < bg_per_frame and attempts < 100 * bg_per_frame:
        attempts += 1
        xy = rng.uniform(lo, hi)
        j = int(np.argmin(np.linalg.norm(ground_pts[:, :2] - xy, axis=1)))
        candidate = ground_pts[j].copy()
        if any(points_in_box(candidate[None, :], b)[0] for b in frame.boxes):
            continue
        centers.append(candidate)
        cues.append(np.zeros(class_count))
        made += 1

    pts = np.asarray(centers)
    features = np.zeros((len(pts), feature_dim))
    for i, center in enumerate(pts):
        radius = fit_radius
        for _ in range(4):
            sel = np.linalg.norm(ground_pts[:, :2] - center[:2], axis=1) <= radius
            if sel.sum() >= 8:
                break
            radius *= 2.0
        local_ground = ground_pts[sel] if sel.sum() >= 3 else ground_pts
        features[i, 0:3] = fit_plane_normal_oracle(local_ground)
        features[i, 3] = center[2] - local_ground[:, 2].mean()
        features[i, 4] = local_ground[:, 2].std()
        features[i, 5:info_dim] = cues[i]
    features[:, :info_dim] += rng.standard_normal((len(pts), info_dim)) * noise_sigma
    if feature_dim > info_dim:
        features[:, info_dim:] = rng.standard_normal((len(pts), feature_dim - info_dim))
    return pts, features


def _wrap_angle_oracle(theta: float) -> float:
    wrapped = math.fmod(theta, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    if wrapped >= 2.0 * math.pi:
        wrapped = 0.0
    return wrapped


def encode_yaw_oracle(theta_z: float, cfg) -> tuple[int, float]:
    """Scalar yaw bin and residual, with ``int``/``min`` on Python floats."""
    theta = _wrap_angle_oracle(theta_z)
    delta = cfg.bin_size
    idx = min(int(theta // delta), cfg.n_yaw_bins - 1)
    return idx, (theta - idx * delta + delta / 2.0) / delta


def head_decode_oracle(out, centers, cfg):
    """``head.head_decode`` center by center, with scalar decode formulas.

    An exactly-zero raw tilt decodes to zero, and the tilt passes only
    where the slope score exceeds 0.5.
    """
    from fullpose.geom import EulerXYZ, FullPoseBox

    ccfg = cfg.codec
    delta = ccfg.bin_size

    def tilt(raw, t):
        if raw == 0.0:
            return 0.0
        if raw < 0.0:
            return raw * (math.pi / 2.0) - t
        return raw * (math.pi / 2.0) + t

    pts = np.asarray(centers, dtype=np.float64)
    boxes = []
    for i in range(len(out)):
        logits = out.class_logits[i]
        shifted = np.exp(logits - logits.max())
        probs = shifted / shifted.sum()
        cls_id = int(np.argmax(logits))
        yaw_bin = int(np.argmax(out.yaw_bin_logits[i]))
        yaw = _wrap_angle_oracle((yaw_bin + float(out.yaw_residual[i])) * delta - delta / 2.0)
        s_g = float(out.s_g[i])
        theta_x = tilt(float(out.tilt[i, 0]), ccfg.t_theta_x) if s_g > 0.5 else 0.0
        theta_y = tilt(float(out.tilt[i, 1]), ccfg.t_theta_y) if s_g > 0.5 else 0.0
        boxes.append(
            FullPoseBox(
                center=pts[i] + out.center_offset[i],
                dims=np.exp(out.log_dims[i]),
                euler=EulerXYZ(theta_x, theta_y, yaw),
                class_id=cls_id,
                score=float(probs[cls_id]),
            )
        )
    return boxes


def make_targets_oracle(centers, gts, cfg):
    """``codec.make_targets`` center by center: each center encodes its box."""
    from fullpose.codec import (
        BoxTargets,
        encode_center_offset,
        encode_dims,
        encode_tilt,
    )
    from fullpose.geom import points_in_box

    pts = np.asarray(centers, dtype=np.float64)
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
            # the slope rule written out: |roll| or |pitch| reaches its threshold
            ground[i] = int(abs(box.euler.theta_x) >= cfg.t_theta_x
                            or abs(box.euler.theta_y) >= cfg.t_theta_y)
            yaw_bin[i], yaw_res[i] = encode_yaw_oracle(box.euler.theta_z, cfg)
            tilt[i, 0] = encode_tilt(box.euler.theta_x, cfg.t_theta_x)
            tilt[i, 1] = encode_tilt(box.euler.theta_y, cfg.t_theta_y)
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


def as_vec3_oracle(value, name: str = "vector") -> np.ndarray:
    """``geom._as_vec3`` with numpy's ``isfinite`` over the whole vector."""
    v = np.asarray(value, dtype=np.float64).reshape(-1)
    if v.shape != (3,):
        raise ValueError(f"{name} must have 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite components: {v}")
    return v


def box_checks_oracle(center, dims, score) -> None:
    """``FullPoseBox``'s checks as numpy array comparisons."""
    as_vec3_oracle(center, "center")
    dims = as_vec3_oracle(dims, "dims")
    if np.any(dims <= 0):
        raise ValueError(f"dims must be positive, got {dims}")
    if score is not None and not 0.0 <= score <= 1.0:
        raise ValueError(f"score must lie in [0, 1], got {score}")


def read_pose6d_oracle(path) -> list:
    """``dataio.read_pose6d`` record by record, with numpy checks per record."""
    import json

    from fullpose.dataio import ParseError, Pose6dRecord, class_id_for
    from fullpose.evaluation import DIFFICULTY_LABELS
    from fullpose.geom import EulerXYZ, FullPoseBox

    def array(value) -> list:
        if not isinstance(value, list):
            raise TypeError("not a JSON array")
        return value

    def number(value) -> float:
        """A JSON number; an integer that rounds past the float range is
        infinite, as ``1e999`` is."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError("not a JSON number")
        if isinstance(value, int) and abs(value) >= 2 ** 1024 - 2 ** 970:
            return math.inf if value > 0 else -math.inf
        return float(value)

    records = []
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
            if not isinstance(obj["frame"], str):
                raise ParseError(f"{path}:{lineno}: frame must be a JSON string")
            try:
                center = np.array([number(v) for v in array(obj["center"])])
                dims = np.array([number(v) for v in array(obj["dims"])])
                euler = np.array([number(v) for v in array(obj["euler"])])
            except TypeError:
                raise ParseError(f"{path}:{lineno}: center/dims/euler must be numeric triples") from None
            if center.shape != (3,) or dims.shape != (3,) or euler.shape != (3,):
                raise ParseError(f"{path}:{lineno}: center/dims/euler must have 3 entries")
            if np.any(dims <= 0):
                raise ParseError(f"{path}:{lineno}: dims must be positive")
            if not (np.all(np.isfinite(center)) and np.all(np.isfinite(dims)) and np.all(np.isfinite(euler))):
                raise ParseError(f"{path}:{lineno}: non-finite numbers")
            difficulty = obj.get("difficulty")
            if difficulty is not None and difficulty not in DIFFICULTY_LABELS:
                raise ParseError(
                    f"{path}:{lineno}: unknown difficulty {difficulty!r}, "
                    f"expected one of {', '.join(DIFFICULTY_LABELS)}"
                )
            try:
                score = None if obj.get("score") is None else number(obj["score"])
            except TypeError:
                raise ParseError(f"{path}:{lineno}: score must be a number") from None
            if score is not None and not 0.0 <= score <= 1.0:
                raise ParseError(f"{path}:{lineno}: score must lie in [0, 1], got {score}")
            try:
                class_id = class_id_for(str(obj["class"]))
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            # each box goes through the checked constructors on its own
            box = FullPoseBox(center=center, dims=dims, euler=EulerXYZ(*euler.tolist()),
                              class_id=class_id, score=score)
            records.append(Pose6dRecord(frame=obj["frame"], box=box, difficulty=difficulty))
    return records


def write_pose6d_oracle(records, path) -> None:
    """``dataio.write_pose6d`` with one ``json.dumps`` and one write per record."""
    import json

    from fullpose.dataio import class_name_for

    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            box = rec.box
            obj = {
                "frame": rec.frame,
                "class": class_name_for(box.class_id),
                "center": list(map(float, box.center)),
                "dims": list(map(float, box.dims)),
                "euler": list(map(float, box.euler.as_array())),
            }
            if box.score is not None:
                obj["score"] = float(box.score)
            if rec.difficulty is not None:
                obj["difficulty"] = rec.difficulty
            fh.write(json.dumps(obj) + "\n")


def adam_step_oracle(params, grads, m_list, v_list, t: int, lr: float) -> None:
    """Adam step ``t`` (from 1) over whole arrays, one temporary per operation.

    The per-array formula ``nn.adam_step`` had before it worked in
    blocks; the blocked update must repeat it bit for bit.
    """
    b1, b2 = 0.9, 0.999
    correct1 = 1.0 - b1**t
    correct2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, m_list, v_list):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / correct1) / (np.sqrt(v / correct2) + 1e-8)


def mlp_forward_oracle(params, x):
    """Forward pass with ``a @ W.T + b`` per layer; caches (input, pre-act, act)."""
    a = np.asarray(x, dtype=np.float64)
    cache = []
    for layer in params.layers:
        z = a @ layer.weights.T + layer.bias
        out = np.maximum(z, 0.0) if layer.activation == "relu" else z
        cache.append((a, z, out))
        a = out
    return a, cache


def mlp_backward_oracle(params, cache, dy):
    """Reverse pass with a float 0/1 relu mask and every input gradient computed."""
    da = np.asarray(dy, dtype=np.float64)
    grads = [None] * len(params.layers)
    for i in reversed(range(len(params.layers))):
        x_in, z, _ = cache[i]
        layer = params.layers[i]
        mask = (z > 0.0).astype(np.float64) if layer.activation == "relu" else np.ones_like(z)
        dz = da * mask
        grads[i] = (dz.T @ x_in, dz.sum(axis=0))
        da = dz @ layer.weights
    return da, grads


def composite_box_loss_oracle(out, targets):
    """``nn.composite_box_loss`` on whole targets, every row selection made per call."""
    from dataclasses import fields, replace

    from fullpose.nn import (
        _PROB_EPS,
        _TERM_KEYS,
        LossBreakdown,
        ShapeMismatchError,
        cross_entropy,
        focal_loss,
        smooth_l1,
    )

    if out.class_logits.shape[0] != len(targets):
        raise ShapeMismatchError("outputs and targets disagree on batch size")
    grad = replace(out, **{f.name: np.zeros_like(getattr(out, f.name)) for f in fields(out)})
    result = LossBreakdown(total=0.0, terms={k: 0.0 for k in _TERM_KEYS}, grad=grad)
    fg = np.asarray(targets.foreground, dtype=bool)
    n_p = int(fg.sum())
    if n_p == 0:
        return 0.0, result
    sloped = fg & (np.asarray(targets.ground_label) > 0)
    terms = result.terms

    # each supervised term: loss of one output field against one target
    # field over the given rows, divided by the row count (0 rows: no term)
    for term, loss_fn, field_name, target_name, rows, count in (
        ("cls", cross_entropy, "class_logits", "class_label", fg, n_p),
        ("dim", smooth_l1, "log_dims", "log_dims", fg, n_p),
        ("posi", smooth_l1, "center_offset", "center_offset", fg, n_p),
        ("tilt", smooth_l1, "tilt", "tilt", sloped, int(sloped.sum())),
        ("yaw_bin", cross_entropy, "yaw_bin_logits", "yaw_bin", fg, n_p),
        ("yaw_res", smooth_l1, "yaw_residual", "yaw_residual", fg, n_p),
    ):
        if count == 0:
            continue
        loss, dloss = loss_fn(getattr(out, field_name)[rows], getattr(targets, target_name)[rows])
        terms[term] = float(loss.sum()) / count
        getattr(grad, field_name)[rows] = dloss / count

    p_raw = out.s_g[fg]
    p = np.clip(p_raw, _PROB_EPS, 1.0 - _PROB_EPS)
    seg_loss, seg_grad = focal_loss(p, targets.ground_label[fg])
    # a saturated score sits on the clip boundary; its true upstream
    # gradient through the sigmoid is ~0, so drop the clipped one
    seg_grad = np.where((p_raw > _PROB_EPS) & (p_raw < 1.0 - _PROB_EPS), seg_grad, 0.0)
    terms["seg"] = float(seg_loss.sum()) / n_p
    grad.s_g[fg] = seg_grad / n_p

    result.total = float(
        terms["cls"] + terms["dim"] + terms["posi"]
        + (terms["seg"] + terms["tilt"])
        + (terms["yaw_bin"] + terms["yaw_res"])
    )
    return result.total, result


def head_loss_oracle(params, features, targets):
    """``head.head_loss`` as a list of fresh per-array gradients in parameter order."""
    from fullpose import head, nn

    seg_z, seg_cache = mlp_forward_oracle(params.seg, features)
    trunk, shared_cache = mlp_forward_oracle(params.shared, features)
    caches = {"seg": seg_cache, "shared": shared_cache}
    fields = {"s_g": nn.sigmoid(seg_z[:, 0])}
    for name, field_name in head._BRANCHES.items():
        y, caches[name] = mlp_forward_oracle(getattr(params, name), trunk)
        fields[field_name] = y[:, 0] if y.shape[1] == 1 else y
    out = head.HeadOutput(**fields)
    loss, bd = composite_box_loss_oracle(out, targets)
    grads = {}
    dtrunk = np.zeros_like(caches["shared"][-1][2])
    for name, field_name in head._BRANCHES.items():
        dout = getattr(bd.grad, field_name)
        dx, grads[name] = mlp_backward_oracle(
            getattr(params, name), caches[name], dout[:, None] if dout.ndim == 1 else dout
        )
        dtrunk += dx
    _, grads["shared"] = mlp_backward_oracle(params.shared, caches["shared"], dtrunk)
    dseg_z = (bd.grad.s_g * out.s_g * (1.0 - out.s_g))[:, None]
    _, grads["seg"] = mlp_backward_oracle(params.seg, caches["seg"], dseg_z)
    return loss, [g for name in head._GROUPS for pair in grads[name] for g in pair], bd


def train_toy_oracle(dataset, cfg, epochs: int, seed: int, lr: float):
    """``head.train_toy`` on separate arrays with the oracle loss and Adam."""
    from fullpose import head

    params = head.init_head(cfg, np.random.default_rng(seed))
    arrays = head.head_param_list(params)
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    t = 0
    for _ in range(epochs):
        for features, targets in dataset:
            _, grads, _ = head_loss_oracle(params, features, targets)
            t += 1
            adam_step_oracle(arrays, grads, m, v, t, lr)
    return params


def tp_errors_oracle(det, gt) -> tuple[float, float, float]:
    """Translation error, aligned scale IoU and geodesic orientation error of one
    true positive, one scalar call each, as ``evaluation`` computed them per pair."""
    trans = float(np.linalg.norm(det.center - gt.center))
    inter = float(np.prod(np.minimum(det.dims, gt.dims)))
    scale = inter / (det.volume + gt.volume - inter)
    rot_a, rot_b = det.rotation(), gt.rotation()
    if np.array_equal(rot_a, rot_b):
        return trans, scale, 0.0
    trace = float(np.trace(rot_a.T @ rot_b))
    return trans, scale, math.acos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0))


def blas_build() -> str:
    """numpy's BLAS and the OpenBLAS core it runs, for a byte-equality failure:
    which halves of a product round like its one call depends on the kernel
    and its threads, so ``nn._verdict`` checks each product key once, on
    the kernel that runs, assuming the values do not matter; a failure here
    under a split reads as that assumption broken on this kernel.  A
    ``DYNAMIC_ARCH`` build picks its core at load time, so the core is read
    from the loaded library; the build configuration, which names only the
    core it was compiled on, is the fallback."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas_core()
    detail = f"core {core}" if core else blas.get("openblas configuration")
    return f"BLAS {blas.get('name')} {blas.get('version')}: {detail}"


def _openblas_core() -> str | None:
    """The core name that numpy's bundled scipy-openblas reports, or None."""
    import ctypes
    from pathlib import Path

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def on_measured_core() -> bool:
    """Whether numpy runs the OpenBLAS core on which the split tests' counts
    were measured (SkylakeX): there the paper head's three large products
    split.  Another core finds its own verdicts and may split fewer."""
    return _openblas_core() == "SkylakeX"
