"""The rotated-3D evaluation protocol on a controlled detection set.

Echoing the ground truth back as detections scores a perfect report;
adding center noise degrades the center-distance AP and the translation
score first, which is exactly what those metrics are for.
"""

import dataclasses
import math

import numpy as np

from fullpose import EulerXYZ, FullPoseBox, evaluate
from fullpose.evaluation import MatchCriterion, average_precision, match, rods, tp_scores

rng = np.random.default_rng(5)
gts = {}
for f in range(8):
    gts[f"{f:06d}"] = [
        FullPoseBox(rng.uniform(-15, 15, 3), np.array([4.2, 1.8, 1.6]),
                    EulerXYZ(0, rng.uniform(-0.3, 0.3), rng.uniform(0, 2 * math.pi)),
                    class_id=1)
        for _ in range(5)
    ]


def detections(noise):
    out = {}
    for f, boxes in gts.items():
        out[f] = [
            dataclasses.replace(
                b,
                center=b.center + rng.normal(0, noise, 3),
                dims=b.dims.copy(),
                score=float(rng.uniform(0.5, 1.0)),
            )
            for b in boxes
        ]
    return out


perfect = {
    f: [dataclasses.replace(b, center=b.center.copy(), dims=b.dims.copy(), score=1.0)
        for b in boxes]
    for f, boxes in gts.items()
}
report = evaluate(perfect, gts)
print("ground truth echoed back:")
print(report.text_table())

print("\nwith 0.4 m center noise:")
report = evaluate(detections(0.4), gts)
print(report.text_table())

# The pieces are usable on their own: match one frame and inspect TPs.
frame = "000000"
result = match(detections(0.2)[frame], gts[frame], MatchCriterion("center_distance", 1.0))
scores = tp_scores([result])
print(f"\nsingle frame: {int(result.det_tp.sum())}/{len(result.det_tp)} TPs, "
      f"ats={scores.ats:.3f} ass={scores.ass:.3f} aos={scores.aos:.3f}")
print("AP at 11 recall positions:", round(average_precision([result], 11), 3))
print("composite score:", round(rods(average_precision([result], 40),
                                     scores.ats, scores.ass, scores.aos), 3))
