"""Checks on the benchmark harness in ``perfbench/`` and on the README that
need no benchmark or CLI run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from conftest import toy_cohort

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PROBES = ROOT / "perfbench" / "probes.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _load_tracing():
    return _load(TRACING, "perfbench_tracing")


def test_traced_names_resolve():
    """The tracer times a layer by swapping a module attribute by name, and a
    name that no longer exists is only reported, so its metric reads 0."""
    tracing = _load_tracing()
    assert tracing.WRAPS
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.WRAPS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_cohort_interface_used_by_perfbench():
    """The tracer counts cohort rows through ``patients``, and the kernel
    probes cut their batch as a cohort of the first records."""
    from tsxplain.data import Cohort

    c = toy_cohort([(None, 3), (2, 4), (None, 6), (1, 5)])
    assert _load_tracing()._cohort_rows(c) == 3 + 4 + 6 + 5
    batch = Cohort(c.schema, c.patients[:2], c.T).stacked()
    for got, want in zip(batch, c.stacked()):
        assert np.array_equal(got, want[:2])


def test_kernel_probes_run_on_a_cohort():
    """The probes cut their batch through the records constructor and hand
    its blocks to the public kernels, so a change to the cohort's blocks
    that breaks them fails here, not only in a benchmark run."""
    probes = _load(PROBES, "perfbench_probes")
    probes.BATCH_REPEATS = probes.COALITION_REPEATS = 1  # this module copy only
    c = toy_cohort([(None, 3), (2, 4), (None, 6), (1, 5)], F=4)
    out = probes.kernel_probes(c)
    assert sorted(out) == sorted(
        [f"model.{kernel}_batch{variant}_ms" for kernel in ("forward", "backward")
         for variant in ("", "_attention")] + ["model.forward_coalition_ms"])
    assert all(np.isfinite(v) and v > 0 for v in out.values())


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


def test_traced_attention_train_counts_softmax():
    """The attention kernel's softmax is the traced ``softmax_axis``, so an
    attention ``train`` counts softmax calls; it does not go through
    ``attention_matrix``, whose span times only the explanation calls."""
    from tsxplain import model

    tracing = _load_tracing()
    cohort = toy_cohort([(1, 4), (None, 5), (2, 6), (None, 3), (3, 6), (None, 4)], F=4)
    with tracing.Tracer() as tracer:
        # looked up on the module inside the block, so the span wraps it
        model.train(cohort, model.TrainConfig(hidden_size=2, max_epochs=2, batch_size=4),
                    use_attention=True)
    metrics = tracing.layer_metrics(tracer, 0)
    assert metrics["model.train_calls"] == 1
    assert metrics["numerics.softmax_calls"] > 0
    assert not any(s.name == "model.attention_matrix" for s in tracer.spans)


def test_cli_calls_explain_patient_once_per_patient(tmp_path, monkeypatch):
    """The tracer times IT-SHAP per patient by wrapping ``explain_patient``
    and reads the config as its fifth positional argument; the CLI makes one
    such call per explained patient."""
    import json

    from tsxplain import cli, itshap, model
    from tsxplain.data import load_cohort
    from tsxplain.numerics import RngStream

    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(out), "seeds": [0], "T": 8,
                               "synth": {"n_patients": 40, "mean_stay": 5.0},
                               "itshap": {"max_patients": 5, "n_samples": 256}}))
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    cohort = load_cohort(out / "cohort.csv", out / "schema.txt", T=8)
    gru, _ = model.init_params(cohort.F, 3, RngStream(0), use_attention=False)
    model.save_model(model.TrainedModel(
        gru=gru, attention=None, schema_fingerprint=model.schema_fingerprint(cohort.schema)),
        out / "ckpt_gru_seed0.txt")
    calls, explain = [], itshap.explain_patient
    monkeypatch.setattr(itshap, "explain_patient",
                        lambda *a, **k: calls.append(a) or explain(*a, **k))
    assert cli.main(["explain", "--config", str(cfg), "--method", "itshap"]) == 0
    assert len(calls) == 5
    hook = _load_tracing()._explain_patient_attrs
    for args in calls:
        assert isinstance(args[4], itshap.ExplainerConfig)
        assert hook(args, {}, None) == {"mode": "cell"}
