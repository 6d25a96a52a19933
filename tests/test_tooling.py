"""Checks on the benchmark harness in ``perfbench/`` and on the README that
need no benchmark or CLI run."""

import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_readme_config_loads(tmp_path):
    """The README's example config passes the CLI's whole-file check."""
    from tsxplain import cli

    block = (ROOT / "README.md").read_text().split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "cfg.json"
    path.write_text(block)
    args = cli.build_parser().parse_args(["synth", "--config", str(path)])
    settings = cli.load_config(path, args)
    assert settings.seeds == (0, 1, 2) and settings.T == 20
    assert settings.synth.n_patients == 1000 and settings.max_patients == 25
