"""Every demo script runs to completion.

Each demo runs in its own interpreter with the working directory and
``TMPDIR`` inside a fresh temporary directory, so the files the demos
write (``demo_output/``, the batch-pipeline scratch tree) stay there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fullpose

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(fullpose.__file__).resolve().parents[1])


def test_demos_found():
    # an empty parametrization would skip silently
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
