"""Checks on the benchmark harness in ``perfbench/`` that need no benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    """The tracer times a layer by swapping a module attribute by name, and a
    name that no longer exists is only reported, so its metric reads 0."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up here
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    assert tracing.WRAPS
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.WRAPS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
