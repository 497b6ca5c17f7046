"""Set-up of one benchmark process: imports, config load, scratch dirs.

``run.py`` times this script from process start to exit several times
and reports the median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py CONFIG.json SCRATCH_DIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fullpose import cli, dataio  # noqa: E402,F401  (cli imports every pipeline module)

cfg = dataio.load_config(sys.argv[1])
for sub in ("train", "test", "aug", "pred"):
    (Path(sys.argv[2]) / sub).mkdir(parents=True, exist_ok=True)
