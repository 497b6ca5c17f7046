"""How box attributes become regression targets and come back out.

Yaw gets a bin plus residual, tilt is threshold-shifted and normalized
and only supervised on sloped terrain, dimensions are log-mapped, and
centers are offset-encoded from their coarse center.
"""

import math

import numpy as np

from fullpose import CodecConfig, EulerXYZ, FullPoseBox
from fullpose.codec import (
    decode_tilt,
    decode_yaw,
    encode_tilt,
    encode_yaw,
    gate_tilt,
    ground_label,
    make_targets,
)
from fullpose.geom import box_columns

cfg = CodecConfig()  # 12 yaw bins, 10 degree terrain thresholds
deg = math.degrees

print("yaw encoding (12 bins of 30 degrees):")
for yaw_deg in (0.0, 17.2, 95.0, -30.0):
    code = encode_yaw(math.radians(yaw_deg), cfg)
    back = decode_yaw(code, cfg)
    print(f"  {yaw_deg:7.1f} deg -> bin {code.bin:2d}, residual {code.residual:.4f}"
          f" -> {deg(back):7.1f} deg")

print("\ntilt encoding (threshold 10 deg, normalized by 90 deg):")
for tilt_deg in (10.0, 20.0, -20.0, 45.0):
    t = encode_tilt(math.radians(tilt_deg), cfg.t_theta_y)
    back = decode_tilt(t, cfg.t_theta_y)
    print(f"  {tilt_deg:6.1f} deg -> target {t:+.4f} -> {deg(back):6.1f} deg")
print("  (a target of exactly 0 decodes to 0: it comes from 0 deg as well as from 10 deg)")

print("\nthe slope gate zeroes tilt unless the terrain score clears 0.5:")
for score in (0.2, 0.5, 0.8):
    print(f"  s_g={score:.1f}: decoded pitch = {deg(gate_tilt(score, math.radians(20))):.1f} deg")

# Targets for a batch of coarse centers against two ground-truth boxes,
# one flat and one on a slope.
flat = FullPoseBox(np.array([5.0, 0, 0.8]), np.array([4.2, 1.8, 1.6]),
                   EulerXYZ(0, 0, 0.4), class_id=1)
sloped = FullPoseBox(np.array([25.0, 2, 2.1]), np.array([4.2, 1.8, 1.6]),
                     EulerXYZ(0, math.radians(-18), 1.2), class_id=1)
print("\nground labels:", ground_label(flat.euler.as_array(), cfg), "(flat box),",
      ground_label(sloped.euler.as_array(), cfg), "(sloped box)")

centers = np.array([
    [5.2, 0.1, 0.7],    # inside the flat box
    [24.8, 2.0, 2.0],   # inside the sloped box
    [40.0, -8.0, 0.0],  # background
])
targets = make_targets(centers, box_columns([flat, sloped]), cfg)
for i in range(len(targets)):
    if not targets.foreground[i]:
        print(f"  center {i}: background")
        continue
    print(f"  center {i}: class {targets.class_label[i]}, "
          f"terrain {'sloped' if targets.ground_label[i] else 'flat'}, "
          f"yaw bin {targets.yaw_bin[i]}, tilt targets {np.round(targets.tilt[i], 4)}, "
          f"offset {np.round(targets.center_offset[i], 2)}")
