"""Fixed input shapes of the benchmark workloads.

Each workload makes one layer do most of the work and leaves another
light, so that a change to one layer shows on one workload and not on
the other.  Sizes are fixed; only the seed varies the scenes.
"""

from __future__ import annotations

from dataclasses import dataclass

SMALL_HEAD = {"feature_dim": 16, "shared_widths": [32, 16], "seg_hidden": [16]}


@dataclass(frozen=True)
class Workload:
    name: str
    train_scenes: int
    test_scenes: int
    boxes: int            # ground-truth boxes per frame
    density: float        # cloud points per square meter
    bg_centers: int       # background centers per train frame
    test_bg_centers: int  # background centers per test frame
    epochs: int
    p_s: float            # slope augmentation probability on the test split
    head: dict            # config "head" section; empty means paper defaults
    proposals_per_gt: int = 0
    difficulty_mix: bool = False

    @property
    def config(self) -> dict:
        return {"head": self.head} if self.head else {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="crowded",
            train_scenes=4, test_scenes=20, boxes=15, density=1.0, bg_centers=12, test_bg_centers=12,
            epochs=60, p_s=0.5, head=SMALL_HEAD, proposals_per_gt=8, difficulty_mix=True,
        ),
        Workload(
            name="training",
            train_scenes=3, test_scenes=24, boxes=10, density=1.0, bg_centers=120, test_bg_centers=20,
            epochs=30, p_s=0.1, head={},
        ),
    )
}
