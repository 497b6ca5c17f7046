"""The batch CLI end to end, inside a scratch directory.

synth -> augment -> train-head -> eval -> stats, exercising the same
subcommands the ``fullpose`` entry point exposes.  Each call returns the
machine-readable summary the CLI would print as JSON.
"""

import json
import tempfile
from pathlib import Path

from fullpose import cli
from fullpose.dataio import read_pose6d, write_pose6d

root = Path(tempfile.mkdtemp(prefix="fullpose-demo-"))
flat = root / "flat"
sloped = root / "sloped"


def run(argv):
    print("$ fullpose " + " ".join(argv))
    outcome = cli.run(argv)
    assert outcome.exit_code == 0, outcome.summary
    print(json.dumps(outcome.summary, indent=2, sort_keys=True)[:300], "...\n")
    return outcome.summary


run(["synth", "--scenes", "6", "--ramp-deg", "15", "--output", str(flat),
     "--boxes", "5", "--density", "2.0", "--seed", "3"])

run(["augment", "--input", str(flat), "--output", str(sloped),
     "--p-s", "0.5", "--seed", "3"])

run(["train-head", "--data", str(flat), "--epochs", "20",
     "--out", str(root / "head.bin"), "--seed", "3"])

# score the ground truth back at itself to sanity-check the evaluator
pred = root / "echo"
(pred / "labels").mkdir(parents=True)
for path in sorted((sloped / "labels").glob("*.jsonl")):
    records = read_pose6d(path)
    for rec in records:
        rec.box.score = 1.0
    write_pose6d(records, pred / "labels" / path.name)

summary = run(["eval", "--gt", str(sloped), "--pred", str(pred),
               "--csv", str(root / "report.csv")])
print("echo evaluation composite score:", summary["rotated"]["1"]["rods"])

run(["stats", "--input", str(sloped), "--out", str(root / "stats.csv")])
run(["gradcheck"])
print("scratch outputs under", root)
