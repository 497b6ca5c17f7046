"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (single-axis
matrices, literal greedy loops, Monte-Carlo membership counting) so it
shares no code path with the library functions it checks.
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
    matrix, independent of the library's corner/clipping code.
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
        local = (pts - box.center) @ rot_z(box.euler.theta_z)
        return np.all(np.abs(local) <= np.asarray(box.dims) / 2.0, axis=1)

    in_a = inside(box_a)
    in_b = inside(box_b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def fps_oracle(points: np.ndarray, k: int, weights=None) -> list[int]:
    """Literal greedy furthest point sampling with lowest-index ties.

    Walks a precomputed distance table with explicit scalar loops: each
    step scans every unselected point for the largest (weighted) distance
    to its nearest selected point, first maximum winning.
    """
    n = len(points)
    table = [[float(np.linalg.norm(points[i] - points[j])) for j in range(n)] for i in range(n)]
    selected = [0]
    nearest = [table[i][0] for i in range(n)]
    while len(selected) < k:
        best_idx, best_score = -1, -1.0
        for i in range(n):
            if i in selected:
                continue
            score = nearest[i] if weights is None else weights[i] * nearest[i]
            if score > best_score:
                best_idx, best_score = i, score
        selected.append(best_idx)
        for i in range(n):
            if table[i][best_idx] < nearest[i]:
                nearest[i] = table[i][best_idx]
    return selected


def nms_oracle(boxes, iou_threshold: float, iou_fn) -> list[int]:
    """Quadratic reference suppression (descending score, index ties)."""
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
    kept = []
    for i in order:
        if all(iou_fn(boxes[i], boxes[j]) <= iou_threshold for j in kept):
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
