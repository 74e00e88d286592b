"""The benchmark's traced layers name functions that exist.

``bench/tracing.py`` wraps the program functions listed in its ``LAYERS``;
a rename or deletion in the program would otherwise surface only when the
benchmark runs. The module is imported, never installed, so nothing is
wrapped here.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
        assert tracing.LAYERS
        for layer, module_name, attr, _ in tracing.LAYERS:
            target = importlib.import_module(module_name)
            for part in attr.split("."):
                assert hasattr(target, part), f"traced layer {layer}: {module_name}.{attr} is missing"
                target = getattr(target, part)
            assert callable(target), f"traced layer {layer}: {module_name}.{attr} is not callable"
    finally:
        for name in ("tracing", "harness"):
            sys.modules.pop(name, None)
