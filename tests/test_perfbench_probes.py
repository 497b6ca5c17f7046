"""The benchmark's layer probes name functions that exist.

``perfbench/layers.py`` wraps library functions by name for the traced
run (``--trace 1``); a renamed or deleted function would break that run
without failing any library test.  The module is loaded from its file
and only read: no probe is installed.
"""

import importlib.util
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_names_a_callable():
    layers = load_layers()
    assert layers.PROBES
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in layers.PROBES
               if not callable(getattr(module, attr, None))]
    assert missing == []
