"""Seeded benchmark inputs that the toolkit does not make itself.

``synth`` labels every box ``moderate`` and the toy head yields about one
detection per ground-truth box, so neither the difficulty buckets nor NMS
would see realistic work.  These generators fill that gap from the
workload seed alone, with their own random streams, and write plain
JSONL files in the native annotation format for the program to read.
They run between pipeline stages, outside every timed interval.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DIFFICULTY_MIX = {"easy": 0.3, "moderate": 0.35, "hard": 0.25, "ignored": 0.1}

# proposal jitter around a ground-truth box: center (m), relative dims, euler (rad)
CENTER_SIGMA = (0.6, 0.6, 0.15)
DIMS_JITTER = 0.15
EULER_SIGMA = (0.03, 0.03, 0.25)
SCORE_RANGE = (0.05, 0.95)


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def write_jsonl(objs, path: Path) -> None:
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")


def relabel_difficulty(labels_dir: Path, seed: int) -> None:
    """Give every label a difficulty drawn from DIFFICULTY_MIX, in place."""
    rng = np.random.default_rng([seed, 1])
    names = list(DIFFICULTY_MIX)
    probs = np.array([DIFFICULTY_MIX[n] for n in names])
    for path in sorted(labels_dir.glob("*.jsonl")):
        objs = read_jsonl(path)
        for obj, idx in zip(objs, rng.choice(len(names), size=len(objs), p=probs)):
            obj["difficulty"] = names[idx]
        write_jsonl(objs, path)


def write_proposals(labels_dir: Path, out_dir: Path, per_gt: int, seed: int) -> None:
    """Scored, jittered copies of every ground-truth box, one file per frame."""
    rng = np.random.default_rng([seed, 2])
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(labels_dir.glob("*.jsonl")):
        proposals = []
        for obj in read_jsonl(path):
            center, dims, euler = (np.array(obj[k]) for k in ("center", "dims", "euler"))
            for _ in range(per_gt):
                proposals.append({
                    "frame": obj["frame"],
                    "class": obj["class"],
                    "center": (center + rng.normal(0.0, CENTER_SIGMA)).tolist(),
                    "dims": (dims * (1.0 + rng.uniform(-DIMS_JITTER, DIMS_JITTER, 3))).tolist(),
                    "euler": (euler + rng.normal(0.0, EULER_SIGMA)).tolist(),
                    "score": float(rng.uniform(*SCORE_RANGE)),
                })
        write_jsonl(proposals, out_dir / path.name)
