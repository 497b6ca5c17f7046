"""The benchmark's seed-0 outputs still hash to its recorded reference digests.

Runs ``perfbench/run.py --workload W --seed 0 --seconds 0 --trace 0`` in a
fresh interpreter for each workload: one warm-up pipeline checked against
``perfbench/reference.json`` and the minimum number of repeats.  A change
to any benchmark output then fails here.  The digests hold only for the
numpy/BLAS build they were recorded with, so the test skips where the
run reports another fingerprint.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def snapshot() -> dict:
    """Path and sha256 of every file under perfbench/."""
    return {p.relative_to(BENCH).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(BENCH.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", ["crowded", "training"])
def test_seed_zero_matches_reference(workload):
    before = snapshot()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=600,
    )
    assert snapshot() == before
    assert proc.returncode == 0, proc.stderr[-2000:]
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    if details["reference"].startswith("not applicable: recorded with"):
        pytest.skip(f"reference digests {details['reference'][len('not applicable: '):]}")
    assert details["reference"] == "checked"
    assert result["correct"] is True
    assert result["failed"] == 0
