"""Full-pose boxes and the geometry toolbox.

Walks through the rotation conventions, oriented-box overlap metrics, and
the suppression primitive, printing each result as it goes.
"""

import math

import numpy as np

from fullpose import (
    EulerXYZ,
    FullPoseBox,
    axis_angle_transform,
    bev_iou,
    box_corners,
    center_distance,
    euler_to_matrix,
    iou3d,
    matrix_to_euler,
    nms,
    to_euler_xy,
)

# A box is a center, (l, w, h) dimensions, and extrinsic x-y-z Euler angles.
# Yaw is the outermost rotation, so zero roll/pitch gives the familiar
# BEV-style box.
car = FullPoseBox(
    center=np.array([12.0, -2.0, 0.8]),
    dims=np.array([4.2, 1.8, 1.6]),
    euler=EulerXYZ(theta_x=0.0, theta_y=math.radians(-15), theta_z=0.6),
    class_id=1,
)
print("a car resting on a 15-degree slope:")
print("  rotation matrix:\n", np.round(car.rotation(), 4))
print("  corners:\n", np.round(box_corners(car), 3))

# Euler <-> matrix round trips are exact away from the pitch singularity.
euler = matrix_to_euler(euler_to_matrix(EulerXYZ(0.1, 0.2, 0.3)))
print("round trip of (0.1, 0.2, 0.3):", euler)

# Rotating about a horizontal axis through a pivot is the core move used
# to synthesize slopes; the tilt part of that rotation in Euler terms:
axis = np.array([0.0, 1.0, 0.0])
transform = axis_angle_transform(axis, math.radians(12), pivot=[10, 0, 0])
print("point (20,0,0) tilted about the anchor:", np.round(transform.apply([20.0, 0, 0]), 4))
print("tilt split (roll, pitch):", tuple(round(v, 4) for v in to_euler_xy(axis, math.radians(12))))

# Overlap metrics: BEV IoU ignores tilt, 3D IoU adds the z extent.
other = FullPoseBox(car.center + [1.0, 0.3, 0.0], car.dims, car.euler, class_id=1)
print("bev_iou:", round(bev_iou(car, other), 4))
print("iou3d:", round(iou3d(car, other), 4))
print("center distance:", round(center_distance(car, other), 4))

# Non-maximum suppression keeps the best-scored of overlapping boxes.
dets = [
    FullPoseBox(car.center, car.dims, car.euler, class_id=1, score=0.9),
    FullPoseBox(car.center + 0.2, car.dims, car.euler, class_id=1, score=0.7),
    FullPoseBox(car.center + [15, 0, 0], car.dims, car.euler, class_id=1, score=0.8),
]
print("nms kept:", [int(i) for i in nms(dets, iou_threshold=0.1)])
