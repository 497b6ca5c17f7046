"""Full-pose (6-DOF) 3D box toolkit for sloped-terrain LiDAR perception.

Modules:

* :mod:`fullpose.geom` - rotations, oriented boxes, IoU, NMS.
* :mod:`fullpose.slopeaug` - pseudo-slope scene synthesis from flat frames.
* :mod:`fullpose.codec` - ground-aware pose target encoding/decoding.
* :mod:`fullpose.nn` - dense kernels and losses with verified gradients.
* :mod:`fullpose.head` - toy trainable ground-aware detection head.
* :mod:`fullpose.evaluation` - matching, AP, TP scores, composite score.
* :mod:`fullpose.synth` - procedural scenes, clouds, and features.
* :mod:`fullpose.dataio` - velodyne/KITTI/JSONL/PLY/config IO.
* :mod:`fullpose.cli` - batch pipelines (``fullpose`` entry point).
"""

from .errors import FullposeError
from .geom import (
    EulerXYZ,
    FullPoseBox,
    PointCloud,
    RigidTransform,
    axis_angle_transform,
    bev_iou,
    box_corners,
    center_distance,
    euler_to_matrix,
    iou3d,
    matrix_to_euler,
    nms,
    pairwise_bev_iou,
    pairwise_iou3d,
    points_in_box,
    to_euler_xy,
)
from .codec import BoxTargets, CodecConfig, YawCode
from .slopeaug import LabeledFrame, SlopeAugConfig, SlopeAugParams
from .evaluation import EvalConfig, EvalReport, MatchCriterion, evaluate, rods
from .head import HeadConfig, HeadOutput, HeadParams, head_decode, head_forward, train_toy
from .synth import SceneSpec, Terrain
from .dataio import Pose6dRecord, ToolkitConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "BoxTargets",
    "CodecConfig",
    "EulerXYZ",
    "EvalConfig",
    "EvalReport",
    "FullPoseBox",
    "FullposeError",
    "HeadConfig",
    "HeadOutput",
    "HeadParams",
    "LabeledFrame",
    "MatchCriterion",
    "PointCloud",
    "Pose6dRecord",
    "RigidTransform",
    "SceneSpec",
    "SlopeAugConfig",
    "SlopeAugParams",
    "Terrain",
    "ToolkitConfig",
    "YawCode",
    "axis_angle_transform",
    "bev_iou",
    "box_corners",
    "center_distance",
    "euler_to_matrix",
    "evaluate",
    "head_decode",
    "head_forward",
    "iou3d",
    "load_config",
    "matrix_to_euler",
    "nms",
    "pairwise_bev_iou",
    "pairwise_iou3d",
    "points_in_box",
    "rods",
    "to_euler_xy",
    "train_toy",
]
