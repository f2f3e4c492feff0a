"""The benchmark's tracer wraps fejercert functions by module and name, so a
rename in the package must show here rather than in a benchmark run."""

import importlib
from pathlib import Path

from fejercert.oracle import EncodedState

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    missing = [f"{mod}.{name}" for mod, name in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"fejercert.{mod}"), name, None))]
    assert missing == []
    assert "__post_init__" in vars(EncodedState)
