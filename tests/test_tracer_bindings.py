"""The benchmark's traced run wraps ctqw functions by module and name; a
renamed or deleted function would drop out of its per-layer numbers unseen."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    try:
        layers = importlib.import_module("layers")
        traced = [(module, name) for module, name, _, _ in layers.TRACED]
    finally:
        sys.modules.pop("layers", None)
    assert traced
    unresolved = [f"{module}.{name}" for module, name in traced
                  if not callable(getattr(importlib.import_module(module), name, None))]
    assert unresolved == []
