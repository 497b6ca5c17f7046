"""Turning a flat scene into a pseudo-sloped one.

Builds a flat synthetic frame, splits it at a sampled anchor, tilts the
far side, and shows how the annotations pick up roll/pitch while keeping
their yaw.  Exports before/after clouds as PLY for a viewer, colored by
which side of the split each point landed on.
"""

import math
from pathlib import Path

import numpy as np

from fullpose import SceneSpec, SlopeAugConfig, Terrain
from fullpose.dataio import write_ply
from fullpose.slopeaug import apply, augment, frame_rng, sample_params, split_cloud
from fullpose.synth import make_scene

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

frame = make_scene(SceneSpec(terrain=Terrain(), box_count=6, density=3.0),
                   np.random.default_rng(4))
print(f"flat frame: {len(frame.cloud)} points, {len(frame.boxes)} boxes")
print("all boxes flat?", all(b.euler.theta_x == b.euler.theta_y == 0 for b in frame.boxes))

cfg = SlopeAugConfig()  # anchor 8-32 m out, slope 5-25 degrees, p_s = 0.1
params = sample_params(cfg, np.random.default_rng(12))
print(f"sampled slope: anchor {np.round(params.tau, 2)}, "
      f"gamma {math.degrees(params.gamma):.1f} deg")

near, far = split_cloud(frame.cloud, params.tau)
print(f"split: {len(near)} near points stay put, {len(far)} get tilted")

sloped = apply(frame, params)
for before, after in zip(frame.boxes, sloped.boxes):
    moved = not np.allclose(before.center, after.center)
    print(
        f"  box at x={before.center[0]:5.1f}: "
        f"{'tilted' if moved else 'unchanged'}, "
        f"roll/pitch ({math.degrees(after.euler.theta_x):6.2f}, "
        f"{math.degrees(after.euler.theta_y):6.2f}) deg, "
        f"yaw kept: {after.euler.theta_z == before.euler.theta_z}"
    )

colors = np.zeros((len(frame.cloud), 3), dtype=int)
colors[near] = [120, 120, 120]
colors[far] = [200, 60, 60]
write_ply(frame.cloud, out_dir / "flat.ply", colors)
write_ply(sloped.cloud, out_dir / "sloped.ply", colors)
print(f"wrote {out_dir}/flat.ply and {out_dir}/sloped.ply (far side in red)")

# In a training loop the whole thing is one call with a per-frame stream;
# the probability gate means most frames pass through untouched.
applied = sum(
    augment(frame, cfg, frame_rng(0, f"frame-{i}")) is not frame for i in range(100)
)
print(f"augment applied to {applied}/100 frames at p_s={cfg.p_s}")
