import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsxplain import cli, model
from tsxplain import data as data_mod
from tsxplain import evaluation as eval_mod
from tsxplain import itshap as itshap_mod
from tsxplain.cmi import MIN_VALID_SAMPLES, CmiConfig
from tsxplain.data import SynthConfig, load_cohort, split_train_test
from tsxplain.errors import ConfigError, DataError
from tsxplain.itshap import ExplainerConfig, explain_patient
from tsxplain.model import TrainConfig
from tsxplain.numerics import RngStream

from conftest import freeze
from oracles import cmi_scores_by_cell


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = {
        "out_dir": str(tmp_path / "out"),
        "seeds": [0, 1],
        "T": 8,
        "synth": {
            "n_patients": 60,
            "mdr_fraction": 0.2,
            "signal_strength": 6.0,
            "mean_stay": 5.0,
        },
        "train": {"max_epochs": 3, "hidden_size": 4, "batch_size": 16},
    }
    if extra:
        for key, value in extra.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def run(argv):
    return cli.main(argv)


def write_metrics(tmp_path):
    """A config and the two aggregate metric files ``report`` reads, written
    by ``save_metric_series`` for T = 3 without training."""
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    for variant, shift in (("gru", 0.0), ("attention", 0.1)):
        runs = [{m: [0.7 - shift, None, 0.5 + r / 10] for m in eval_mod.METRICS}
                for r in range(2)]
        eval_mod.save_metric_series(eval_mod.aggregate_repeats(runs),
                                    out / f"metrics_{variant}.csv")
    return cfg_path, out


class TestSynth:
    def test_writes_cohort_files(self, tmp_path, capsys):
        cfg_path, cfg = write_config(tmp_path)
        assert run(["synth", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        cohort = load_cohort(out / "cohort.csv", out / "schema.txt", T=8)
        assert len(cohort.patients) == 60
        assert "patients: 60" in capsys.readouterr().out

    def test_row_count_matches_stays(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        out = tmp_path / "out"
        cohort = load_cohort(out / "cohort.csv", out / "schema.txt", T=8)
        with open(out / "cohort.csv") as fh:
            n_rows = sum(1 for _ in fh) - 1
        assert n_rows == sum(p.stay_length for p in cohort.patients)

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        first = (tmp_path / "out" / "cohort.csv").read_bytes()
        run(["synth", "--config", str(cfg_path)])
        assert (tmp_path / "out" / "cohort.csv").read_bytes() == first

    def test_zero_fraction_all_negative(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, {"synth": {"mdr_fraction": 0.0}})
        run(["synth", "--config", str(cfg_path)])
        out = tmp_path / "out"
        cohort = load_cohort(out / "cohort.csv", out / "schema.txt", T=8)
        assert not cohort.y.any()

    def test_without_synth_section_exit_2_leaves_no_out_dir(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
        assert run(["synth", "--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_seed_flag_changes_cohort(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        first = (tmp_path / "out" / "cohort.csv").read_bytes()
        run(["synth", "--config", str(cfg_path), "--seed", "7"])
        assert (tmp_path / "out" / "cohort.csv").read_bytes() != first


class TestTrain:
    def test_checkpoints_and_metrics(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        assert run(["train", "--config", str(cfg_path), "--attention", "off"]) == 0
        out = tmp_path / "out"
        for seed in (0, 1):
            assert (out / f"ckpt_gru_seed{seed}.txt").exists()
            assert (out / f"run_gru_seed{seed}.csv").exists()
        with open(out / "metrics_gru.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["metric", "t", "mean", "std", "n_defined"]
        # 8 steps per metric, 3 metrics
        assert len(rows) == 1 + 3 * 8

    def test_train_before_synth_exit_3(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert run(["train", "--config", str(cfg_path)]) == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_cohort_value_exit_3(self, tmp_path, capsys, bad):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        data = tmp_path / "out" / "cohort.csv"
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("env_0")
        row = next(r for r in rows[1:] if r[col] != "")
        row[col] = bad
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert run(["train", "--config", str(cfg_path), "--attention", "off"]) == 3
        err = capsys.readouterr().err
        assert f"patient {row[0]}" in err and "env_0" in err
        assert not (tmp_path / "out" / "ckpt_gru_seed0.txt").exists()

    def test_non_finite_loss_exit_4(self, tmp_path, capsys, monkeypatch):
        # non-finite cohort values and step sizes are rejected before
        # training, so the loss itself is made non-finite here
        monkeypatch.setattr(model, "_epoch_loss", lambda *args: float("nan"))
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        capsys.readouterr()
        assert run(["train", "--config", str(cfg_path), "--attention", "off"]) == 4
        assert "non-finite loss" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ckpt_gru_seed0.txt").exists()

    def test_non_finite_metric_exit_4_removes_run_file(self, tmp_path, capsys, monkeypatch):
        """The long-CSV writer refuses a NaN metric: train exits 4 and leaves
        no run file that holds it."""
        real = eval_mod.evaluate

        def nan_auc(*args):
            table = real(*args)
            table["roc_auc"][0] = float("nan")
            return table

        monkeypatch.setattr(eval_mod, "evaluate", nan_auc)
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        capsys.readouterr()
        assert run(["train", "--config", str(cfg_path), "--attention", "off"]) == 4
        assert "non-finite value nan" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run_gru_seed0.csv").exists()

    def test_non_finite_loss_in_one_cv_fit_names_it(self, tmp_path, capsys, monkeypatch):
        """Two grid points × two folds make one stack of four CV fits; only
        the third fit's first validation loss is made non-finite."""
        calls = []
        epoch_loss = model._epoch_loss

        def third_is_nan(*args):
            calls.append(args)
            return float("nan") if len(calls) == 3 else epoch_loss(*args)

        monkeypatch.setattr(model, "_epoch_loss", third_is_nan)
        cfg_path, _ = write_config(
            tmp_path, {"train": {"cv_folds": 2, "grid": {"learning_rates": [0.5, 1.0]}}})
        run(["synth", "--config", str(cfg_path)])
        capsys.readouterr()
        assert run(["train", "--config", str(cfg_path), "--attention", "off"]) == 4
        err = capsys.readouterr().err
        assert ("non-finite loss at epoch 1 of the CV fit of grid point 2, fold 1: "
                "val_loss nan") in err
        assert "train_loss" not in err
        assert len(calls) == 3
        assert not (tmp_path / "out" / "ckpt_gru_seed0.txt").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("where", ["learning_rate", "grid"])
    def test_bad_learning_rate_exit_2(self, tmp_path, capsys, where, value):
        train = ({"learning_rate": value} if where == "learning_rate"
                 else {"grid": {"learning_rates": [0.5, value]}})
        cfg_path, _ = write_config(tmp_path, {"train": train})
        run(["synth", "--config", str(cfg_path)])
        capsys.readouterr()
        assert run(["train", "--config", str(cfg_path), "--attention", "off"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "learning_rate" in err
        assert not (tmp_path / "out" / "ckpt_gru_seed0.txt").exists()

    def test_single_class_cohort_exit_3(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, {"synth": {"mdr_fraction": 0.0}})
        run(["synth", "--config", str(cfg_path)])
        assert run(["train", "--config", str(cfg_path)]) == 3

    def test_threshold_is_one_value(self, tmp_path):
        """The top-level threshold is both the checkpoint's and the one the
        run table is evaluated at."""
        cfg_path, _ = write_config(tmp_path, {"threshold": 0.05, "seeds": [0]})
        run(["synth", "--config", str(cfg_path)])
        assert run(["train", "--config", str(cfg_path), "--attention", "off"]) == 0
        out = tmp_path / "out"
        ckpt = out / "ckpt_gru_seed0.txt"
        assert f"threshold {float.hex(0.05)}\n" in ckpt.read_text()
        cohort = load_cohort(out / "cohort.csv", out / "schema.txt", T=8)
        _, test_c = split_train_test(cohort, 0.7, RngStream(0).child(100))
        trained = model.load_model(ckpt)
        with open(out / "run_gru_seed0.csv", newline="") as fh:
            written = [(m, int(t), None if v == "" else float(v))
                       for m, t, v in list(csv.reader(fh))[1:]]

        def rows(threshold):
            table = eval_mod.evaluate(trained, test_c, threshold)
            return [(m, t + 1, v) for m in eval_mod.METRICS for t, v in enumerate(table[m])]

        assert written == rows(0.05)
        assert written != rows(0.5)


class TestExplain:
    @pytest.fixture()
    def prepared(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        run(["train", "--config", str(cfg_path), "--seed", "0,1"])
        return cfg_path, tmp_path / "out"

    def test_attention_leaves_cohort_blocks_unwritten(self, prepared, monkeypatch):
        """The attention map reads the cohort's X, which holds X⊙M: on a
        frozen cohort it writes the same files."""
        cfg_path, out = prepared
        argv = ["explain", "--config", str(cfg_path), "--method", "attention"]
        assert run(argv) == 0
        want = (out / "importance_attention_all.csv").read_bytes()
        load = data_mod.load_cohort
        monkeypatch.setattr(data_mod, "load_cohort", lambda *a, **k: freeze(load(*a, **k)))
        assert run(argv) == 0
        assert (out / "importance_attention_all.csv").read_bytes() == want

    def test_cmi_without_checkpoint(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        assert run(
            ["explain", "--config", str(cfg_path), "--method", "cmi"]
        ) == 0
        out = tmp_path / "out"
        assert (out / "importance_cmi_all.csv").exists()
        assert (out / "importance_cmi_all.pgm").exists()
        assert (out / "importance_cmi_all.pgm.scale.txt").exists()

    @pytest.mark.parametrize("cmi", [
        {"max_conditioners": 1.5}, {"max_conditioners": -1}, {"n_bins": 2.5},
        {"n_bins": True}, {"top_k": 2.5}, {"top_k": -2}, {"top_k": 0},
        {"threshold": "x"}, {"threshold": float("nan")},
        {"top_k": 2, "threshold": 0.01},
    ])
    def test_cmi_bad_config_exit_2(self, tmp_path, capsys, cmi):
        cfg_path, _ = write_config(tmp_path, {"cmi": cmi})
        run(["synth", "--config", str(cfg_path)])
        capsys.readouterr()
        assert run(["explain", "--config", str(cfg_path), "--method", "cmi"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "importance_cmi_all.csv").exists()

    def test_attention_method(self, prepared):
        cfg_path, out = prepared
        assert run(
            ["explain", "--config", str(cfg_path), "--method", "attention",
             "--scope", "positive"]
        ) == 0
        assert (out / "importance_attention_positive.csv").exists()
        assert run(
            ["explain", "--config", str(cfg_path), "--method", "attention",
             "--scope", "negative"]
        ) == 0
        with open(out / "importance_attention_negative.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "t", "attribution", "n_valid", "scope"]
        assert {r[4] for r in rows[1:]} == {"negative"}
        cohort = load_cohort(out / "cohort.csv", out / "schema.txt", T=8)
        _, M, y, valid = cohort.stacked()
        negative = ~y.any(axis=1)
        expected = (M * valid[:, None, :])[negative].sum(axis=0)
        assert [int(r[3]) for r in rows[1:]] == [int(v) for v in expected.ravel()]

    def test_attention_on_plain_checkpoint_exit_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        run(["train", "--config", str(cfg_path), "--attention", "off"])
        # only plain checkpoints exist: the attention checkpoint is missing
        assert run(
            ["explain", "--config", str(cfg_path), "--method", "attention"]
        ) == 3

    def test_itshap(self, prepared):
        cfg_path, out = prepared
        cfg = json.loads(cfg_path.read_text())
        cfg["itshap"] = {"max_patients": 4, "exact_threshold": 6, "n_samples": 256}
        cfg_path.write_text(json.dumps(cfg))
        assert run(
            ["explain", "--config", str(cfg_path), "--method", "itshap"]
        ) == 0
        assert (out / "importance_itshap_all.csv").exists()
        with open(out / "attributions_itshap_all.csv") as fh:
            assert {row["mode"] for row in csv.DictReader(fh)} == {"itshap-cell"}

    @pytest.mark.parametrize("itshap", [
        {"ridge": float("nan")},
        {"ridge": float("inf")},
        {"ridge": -1e-6},
        {"max_patients": -58},
        {"max_patients": 0},
        {"max_patients": 2.5},
        {"n_samples": 1024.5},
        {"seed": 1.5},
        {"seed": -1},
        {"exact_threshold": True},
        {"explain_logit": "yes"},
        {"explain_logit": 1},
        {"mode": "timestep"},  # its step table has no CLI artefact
    ])
    def test_itshap_bad_config_exit_2(self, prepared, capsys, itshap):
        cfg_path, out = prepared
        cfg = json.loads(cfg_path.read_text())
        cfg["itshap"] = {"max_patients": 2, **itshap}
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run(
            ["explain", "--config", str(cfg_path), "--method", "itshap"]
        ) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "importance_itshap_all.csv").exists()

    def test_itshap_empty_scope_plays_no_game(self, prepared, capsys, monkeypatch):
        cfg_path, out = prepared
        cfg = json.loads(cfg_path.read_text())
        cfg["itshap"] = {"max_patients": 1}
        cfg_path.write_text(json.dumps(cfg))
        cohort = load_cohort(out / "cohort.csv", out / "schema.txt", T=8)
        _, test_c = split_train_test(cohort, 0.7, RngStream(0).child(100))
        # the one explained patient is outside this scope
        scope = "negative" if test_c.y[0].any() else "positive"
        played = []

        def counting_explain(*args, **kwargs):
            played.append(args)
            return explain_patient(*args, **kwargs)

        monkeypatch.setattr(itshap_mod, "explain_patient", counting_explain)
        capsys.readouterr()
        assert run(["explain", "--config", str(cfg_path), "--method", "itshap",
                    "--scope", scope]) == 3
        assert f"no patients in scope {scope!r}" in capsys.readouterr().err
        assert played == []
        assert not (out / f"importance_itshap_{scope}.csv").exists()

    def test_itshap_small_budget_exit_2_before_any_game(self, prepared, capsys, monkeypatch):
        """The sample budget is checked against the largest explained game
        before the background is built or the smaller games are played."""
        cfg_path, out = prepared
        cohort = load_cohort(out / "cohort.csv", out / "schema.txt", T=8)
        _, test_c = split_train_test(cohort, 0.7, RngStream(0).child(100))
        players = test_c.M[:6].sum(axis=(1, 2))
        largest = int(players.max())
        assert players[0] < largest  # a per-game check would play game 1 first
        cfg = json.loads(cfg_path.read_text())
        cfg["itshap"] = {"max_patients": 6, "exact_threshold": 6, "n_samples": largest + 1}
        cfg_path.write_text(json.dumps(cfg))
        called = []
        for name in ("background_matrix", "explain_patient"):
            monkeypatch.setattr(itshap_mod, name, lambda *a, name=name, **k: called.append(name))
        capsys.readouterr()
        assert run(["explain", "--config", str(cfg_path), "--method", "itshap"]) == 2
        assert f"too small for {largest} players" in capsys.readouterr().err
        assert called == []
        assert not (out / "importance_itshap_all.csv").exists()

    def test_itshap_unknown_steps_exit_2(self, prepared):
        cfg_path, out = prepared
        cfg = json.loads(cfg_path.read_text())
        cfg["itshap"] = {"max_patients": 2, "steps": "finall"}
        cfg_path.write_text(json.dumps(cfg))
        assert run(
            ["explain", "--config", str(cfg_path), "--method", "itshap"]
        ) == 2
        assert not (out / "importance_itshap_all.csv").exists()

    @pytest.mark.parametrize("variant", ["gru", "attention"])
    def test_truncated_checkpoint_exit_3(self, prepared, capsys, variant):
        cfg_path, out = prepared
        ckpt = out / f"ckpt_{variant}_seed0.txt"
        lines = ckpt.read_text().splitlines(keepends=True)
        argv = ["explain", "--config", str(cfg_path), "--method", "itshap",
                "--attention", "on" if variant == "attention" else "off"]
        for cut in range(len(lines)):
            ckpt.write_text("".join(lines[:cut]))
            capsys.readouterr()
            assert run(argv) == 3, f"cut after {cut} of {len(lines)} lines"
            assert "data error" in capsys.readouterr().err
        # byte-level cuts past the magic line, most of them inside a line
        text = "".join(lines)
        for cut in range(len(lines[0]), len(text), 97):
            ckpt.write_text(text[:cut])
            capsys.readouterr()
            assert run(argv) == 3, f"cut after {cut} of {len(text)} bytes"
            assert "data error" in capsys.readouterr().err

    def test_itshap_nan_weight_exit_3(self, prepared, capsys):
        cfg_path, out = prepared
        ckpt = out / "ckpt_gru_seed0.txt"
        lines = ckpt.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("array W_out")) + 1
        lines[row] = " ".join(["nan"] + lines[row].split(" ")[1:])
        ckpt.write_text("".join(lines))
        capsys.readouterr()
        assert run(["explain", "--config", str(cfg_path), "--method", "itshap",
                    "--attention", "off"]) == 3
        err = capsys.readouterr().err
        assert "non-finite value in array W_out" in err and "Traceback" not in err
        assert not list(out.glob("*itshap*"))

    def test_itshap_non_finite_exit_4_writes_nothing(self, prepared):
        """Loadable values so large that the model overflows make NaN
        attributions; explain exits 4 before it writes any of them, and its
        one stderr line is the report. It runs in a new process, where an
        unsilenced overflow would warn instead of raising."""
        cfg_path, out = prepared
        cfg = json.loads(cfg_path.read_text())
        cfg["itshap"] = {"max_patients": 3, "n_samples": 256}
        cfg_path.write_text(json.dumps(cfg))
        with open(out / "cohort.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        env = [i for i, name in enumerate(rows[0]) if name.startswith("env_")]
        for row in rows[1:]:
            for i in env:
                row[i] = row[i] and "1.7e308"
        data_mod.write_long_csv(out / "cohort.csv", rows)
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "tsxplain.cli", "explain", "--config", str(cfg_path),
             "--method", "itshap"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 4, done.stderr
        assert done.stderr == ("runtime error: itshap explanation has a non-finite value; "
                               "nothing written\n")
        assert not list(out.glob("importance_itshap_*"))
        assert not list(out.glob("attributions_itshap_*"))

    def test_schema_duplicate_key_exit_3(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        schema = tmp_path / "out" / "schema.txt"
        text = schema.read_text()
        schema.write_text(text.replace("kind: binary", "kind: binary\nkind: numeric", 1))
        capsys.readouterr()
        assert run(["explain", "--config", str(cfg_path), "--method", "cmi"]) == 3
        assert "duplicate schema key 'kind'" in capsys.readouterr().err

    def test_explain_without_checkpoint_exit_3(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        assert run(
            ["explain", "--config", str(cfg_path), "--method", "itshap"]
        ) == 3

    @pytest.mark.parametrize("method", ["cmi", "attention", "itshap"])
    def test_without_cohort_exit_3_leaves_no_out_dir(self, tmp_path, method):
        cfg_path, _ = write_config(tmp_path)
        assert run(["explain", "--config", str(cfg_path), "--method", method]) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("conditioning", ["none", "greedy_selected"])
    def test_cmi_unscored_huge_values(self, tmp_path, conditioning):
        """A numeric column observed in fewer than 10 rows a step is never
        scored, so its 1e300 values are never cast to integer codes."""
        cfg_path, cfg = write_config(tmp_path, {"cmi": {"conditioning": conditioning}})
        run(["synth", "--config", str(cfg_path)])
        data = tmp_path / "out" / "cohort.csv"
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("env_0")
        kept: dict[str, int] = {}
        for row in rows[1:]:
            kept[row[1]] = kept.get(row[1], 0) + 1
            row[col] = "1e+300" if kept[row[1]] <= 3 else ""
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.warns(RuntimeWarning):  # what a cast of the column would do
            np.array([1e300]).astype(np.int64)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["explain", "--config", str(cfg_path), "--method", "cmi"]) == 0
        cohort = load_cohort(data, tmp_path / "out" / "schema.txt", T=8)
        S, counts = cmi_scores_by_cell(cohort, CmiConfig(**cfg["cmi"]))
        f = cohort.schema.index("env_0")
        assert 0 < counts[f].max() < MIN_VALID_SAMPLES and S.any()
        with open(tmp_path / "out" / "importance_cmi_all.csv", newline="") as fh:
            written = list(csv.DictReader(fh))
        assert len(written) == S.size
        for r in written:
            f, t = cohort.schema.index(r["feature"]), int(r["t"]) - 1
            assert float(r["score_bits"]) == S[f, t]
            assert int(r["n_valid"]) == counts[f, t]

    def test_out_of_memory_exit_4(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, {"synth": {"n_patients": 30}})
        assert run(["synth", "--config", str(cfg_path)]) == 0
        # the cohort's (2, n, F, T) block for this T exceeds any address
        # space, so the allocation fails at once
        cfg_path, _ = write_config(tmp_path, {"synth": {"n_patients": 30}, "T": 10**12})
        capsys.readouterr()
        assert run(["explain", "--config", str(cfg_path), "--method", "cmi"]) == 4
        err = capsys.readouterr().err
        assert "runtime error" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "importance_cmi_all.csv").exists()


class TestReport:
    def test_full_pipeline(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        run(["train", "--config", str(cfg_path)])
        assert run(["report", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert (out / "delta_report.csv").exists()
        summary = (out / "report_summary.txt").read_text()
        assert "gru - attention" in summary

    def test_identical_series_zero_delta(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        run(["train", "--config", str(cfg_path), "--attention", "off"])
        out = tmp_path / "out"
        (out / "metrics_attention.csv").write_bytes(
            (out / "metrics_gru.csv").read_bytes()
        )
        run(["report", "--config", str(cfg_path)])
        with open(out / "delta_report.csv") as fh:
            rows = list(csv.reader(fh))
        for row in rows[2:]:
            if row[2] != "":
                assert float(row[2]) == 0.0

    def test_report_without_metrics_exit_3(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert run(["report", "--config", str(cfg_path)]) == 3

    def test_report_after_one_seed_train_names_the_cause(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, {"seeds": [0]})
        assert run(["synth", "--config", str(cfg_path)]) == 0
        assert run(["train", "--config", str(cfg_path), "--attention", "off"]) == 0
        assert "need train over at least two seeds" in capsys.readouterr().out
        assert not list((tmp_path / "out").glob("metrics_*.csv"))
        assert run(["report", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "metrics need train over at least two seeds" in err

    def test_written_metrics_accepted(self, tmp_path):
        cfg_path, out = write_metrics(tmp_path)
        assert run(["report", "--config", str(cfg_path)]) == 0
        assert "nan" not in (out / "delta_report.csv").read_text()

    def test_metric_undefined_at_every_step_reads_undefined(self, tmp_path):
        """A metric that no step defines has no mean: the summary says
        "undefined" where it would print nan. It runs in a new process, as a
        user would run it."""
        cfg_path, out = write_metrics(tmp_path)
        for variant in ("gru", "attention"):
            runs = [{m: [None] * 3 if m == "sensitivity" else [0.6, 0.7, 0.5 + r / 10]
                     for m in eval_mod.METRICS} for r in range(2)]
            eval_mod.save_metric_series(eval_mod.aggregate_repeats(runs),
                                        out / f"metrics_{variant}.csv")
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "tsxplain.cli", "report", "--config", str(cfg_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        summary = (out / "report_summary.txt").read_text()
        assert "nan" not in summary
        lines = [line for line in summary.splitlines() if line.startswith("sensitivity")]
        assert len(lines) == 3 and all(line.endswith(": undefined") for line in lines)
        assert "roc_auc mean over steps (gru): 0.616667" in summary

    def test_overflowing_means_exit_3(self, tmp_path, capsys):
        """Means at the float64 maximum, of opposite signs, would overflow
        every delta to inf; they are no proportions, so report refuses them."""
        cfg_path, out = write_metrics(tmp_path)
        for variant, value in (("gru", "1.7e308"), ("attention", "-1.7e308")):
            path = out / f"metrics_{variant}.csv"
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            for row in rows[1:]:
                row[2] = row[2] and value
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert run(["report", "--config", str(cfg_path)]) == 3
        assert "mean must be in [0, 1]" in capsys.readouterr().err
        assert not (out / "delta_report.csv").exists()
        assert not (out / "report_summary.txt").exists()

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[1].__setitem__(0, "auroc"),  # unknown metric
        lambda rows: rows[1].__setitem__(1, "-3"),
        lambda rows: rows[1].__setitem__(1, "0"),
        lambda rows: rows[1].__setitem__(1, "4"),  # a gap: steps 2, 3, 4
        lambda rows: rows[2].__setitem__(1, "1"),  # step 1 twice
        lambda rows: rows[1].__setitem__(1, "1.5"),  # non-integer step
        lambda rows: rows[1].pop(),  # short row
        lambda rows: rows[1].append("0"),  # long row
        lambda rows: rows[1].__setitem__(2, "nan"),
        lambda rows: rows[1].__setitem__(3, "inf"),
        lambda rows: rows[1].__setitem__(3, ""),  # mean without std
        lambda rows: rows[1].__setitem__(4, "-1"),  # negative n_defined
        lambda rows: rows[1].__setitem__(4, "x"),
        lambda rows: rows.__setitem__(0, ["metric", "t", "value"]),  # header
        lambda rows: rows.__delitem__(slice(None)),  # empty file
        lambda rows: rows.__delitem__(slice(7, None)),  # specificity missing
        lambda rows: rows[1].__setitem__(2, "1.0000001"),  # a proportion above 1
        lambda rows: rows[1].__setitem__(2, "-0.1"),
        lambda rows: rows[1].__setitem__(3, "-0.2"),  # negative std
    ])
    def test_malformed_metrics_exit_3(self, tmp_path, capsys, edit):
        cfg_path, out = write_metrics(tmp_path)
        path = out / "metrics_attention.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert run(["report", "--config", str(cfg_path)]) == 3
        assert "data error" in capsys.readouterr().err
        assert not (out / "delta_report.csv").exists()


class TestConfigHandling:
    def test_missing_config_exit_2(self, tmp_path):
        assert run(["synth", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["synth", "--config", str(path)]) == 2

    def test_unknown_synth_key_exit_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, {"synth": {"bogus_knob": 1}})
        assert run(["synth", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("command", ["synth", "train", "explain", "report"])
    def test_unknown_top_level_key_exit_2(self, tmp_path, capsys, command):
        cfg_path, _ = write_config(tmp_path, {"seedz": [5]})
        argv = [command, "--config", str(cfg_path)]
        if command == "explain":
            argv += ["--method", "cmi"]
        assert run(argv) == 2
        assert "unknown config keys: seedz" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_object_config_exit_2(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert run(["synth", "--config", str(path)]) == 2

    @pytest.mark.parametrize("key,value", [
        ("synth", 5), ("train", [1]), ("cmi", "none"), ("itshap", None),
        ("seeds", 5), ("seeds", [0, 1.5]), ("T", "8"), ("T", 8.0),
        ("threshold", None), ("threshold", float("nan")),
        ("train_fraction", "0.7"), ("out_dir", 3), ("cohort_csv", None),
        ("train_fraction", 0), ("train_fraction", 1.5), ("T", 0),
    ])
    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_badly_typed_top_level_value_exit_2(self, tmp_path, capsys, command,
                                                key, value):
        cfg_path, _ = write_config(tmp_path, {key: value})
        assert run([command, "--config", str(cfg_path)]) == 2
        assert f"config key '{key}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("synth", [
        {"n_patients": 30.5}, {"n_patients": True}, {"n_patients": 0},
        {"n_care": 2.0}, {"n_antibiotic": 0}, {"T": 2.5}, {"seed": -1},
        {"seed": 1.5}, {"mdr_fraction": 1.0}, {"missing_rate": float("nan")},
        {"mean_stay": 0}, {"signal_strength": "4"}, {"signal_strength": float("inf")},
        {"T": 8}, {"seed": 0},  # set at the top level only
        {"mean_stay": 1e19},  # past what numpy's Poisson draw takes
    ])
    def test_bad_synth_field_exit_2(self, tmp_path, capsys, synth):
        cfg_path, _ = write_config(tmp_path, {"synth": synth})
        assert run(["synth", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and next(iter(synth)) in err
        assert not (tmp_path / "out" / "cohort.csv").exists()

    @pytest.mark.parametrize("train", [
        {"max_epochs": 2.5}, {"max_epochs": True}, {"hidden_size": 0},
        {"patience": -1}, {"patience": 1.5}, {"batch_size": "16"}, {"cv_folds": 2.0},
        {"dropout_rate": float("nan")}, {"threshold": "x"},
        {"grid": {"hidden_sizes": [2.5]}}, {"grid": {"dropout_rates": [0.0, 1.0]}},
        {"grid": {"learning_rate": [0.5]}}, {"grid": [0.5]}, {"seed": 5},
        {"threshold": 0.5}, {"cv_folds": 1},
        # a scalar and the grid list that would override it
        {"learning_rate": 0.5, "grid": {"learning_rates": [0.25, 0.5]}},
        {"dropout_rate": 0.1, "grid": {"dropout_rates": [0.0]}},
        {"grid": {"hidden_sizes": [2, 3]}},  # the base config sets hidden_size
    ])
    def test_bad_train_field_exit_2(self, tmp_path, capsys, train):
        cfg_path, _ = write_config(tmp_path, {"train": train})
        run(["synth", "--config", str(cfg_path)])
        capsys.readouterr()
        assert run(["train", "--config", str(cfg_path), "--attention", "off"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ckpt_gru_seed0.txt").exists()

    @pytest.mark.parametrize("section,bad", [
        ("itshap", {"max_patients": 0}), ("cmi", {"n_bins": 1}), ("train", {"cv_folds": 1}),
    ])
    def test_other_commands_section_checked_exit_2(self, tmp_path, capsys, section, bad):
        cfg_path, _ = write_config(tmp_path, {section: bad})
        assert run(["synth", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["learning_rates", "dropout_rates", "hidden_sizes"])
    def test_empty_grid_list_exit_2(self, tmp_path, capsys, key):
        """An empty grid would leave train no point to fit; it stops synth
        before the cohort is written."""
        cfg_path, cfg = write_config(tmp_path)
        cfg["train"] = {"max_epochs": 3, "grid": {key: []}}
        cfg_path.write_text(json.dumps(cfg))
        assert run(["synth", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"train 'grid_{key}' must be" in err and "got ()" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value,shown", [(0.5, "0.5"), (None, "None"), ("ab", "'ab'")])
    def test_grid_value_not_a_list_exit_2(self, tmp_path, capsys, value, shown):
        """A grid value that is no list is named with its key and shown as
        given, before it is converted."""
        cfg_path, cfg = write_config(tmp_path)
        cfg["train"] = {"max_epochs": 3, "grid": {"learning_rates": value}}
        cfg_path.write_text(json.dumps(cfg))
        assert run(["synth", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: train grid 'learning_rates' must be a list, got {shown}\n")
        assert not (tmp_path / "out").exists()

    def test_message_form(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, {"synth": {"n_patients": 30.5}})
        assert run(["synth", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: synth 'n_patients' must be an integer >= 1, got 30.5\n")

    @pytest.mark.parametrize("cls,name", [
        (cls, f.name) for cls in (SynthConfig, TrainConfig, CmiConfig, ExplainerConfig)
        for f in dataclasses.fields(cls)
    ])
    def test_every_field_names_itself(self, cls, name):
        base = {"n_patients": 10} if cls is SynthConfig else {}
        with pytest.raises(ConfigError) as info:
            cls(**{**base, name: "x"})
        assert repr(name) in str(info.value) and "'x'" in str(info.value)

    def test_negative_seed_exit_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, {"seeds": [0, -1]})
        assert run(["synth", "--config", str(cfg_path)]) == 2
        cfg_path, _ = write_config(tmp_path)
        assert run(["synth", "--config", str(cfg_path), "--seed", "-2"]) == 2
        assert not (tmp_path / "out" / "cohort.csv").exists()

    def test_bad_seed_flag_exit_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert run(["synth", "--config", str(cfg_path), "--seed", "zero"]) == 2

    def test_duplicate_seed_exit_2(self, tmp_path, capsys):
        """A repeated seed would fit the same run twice and report a spread
        over one run."""
        cfg_path, _ = write_config(tmp_path, {"seeds": [0, 0]})
        assert run(["synth", "--config", str(cfg_path)]) == 2
        assert "seeds must be distinct" in capsys.readouterr().err
        cfg_path, _ = write_config(tmp_path)
        assert run(["synth", "--config", str(cfg_path), "--seed", "1,1"]) == 2
        assert run(["train", "--config", str(cfg_path), "--seed", "2,0,2"]) == 2
        assert not (tmp_path / "out").exists()


class TestHeatmap:
    def test_pgm_format_and_scale(self, tmp_path):
        matrix = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "map.pgm"
        cli.save_heatmap_pgm(matrix, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        assert lines[3].split() == ["0", "64"]
        assert lines[4].split() == ["128", "255"]
        scale = (tmp_path / "map.pgm.scale.txt").read_text()
        assert "min 0.0" in scale and "max 4.0" in scale

    def test_constant_matrix_no_division_error(self, tmp_path):
        cli.save_heatmap_pgm(np.full((2, 3), 1.5), tmp_path / "flat.pgm")
        lines = (tmp_path / "flat.pgm").read_text().splitlines()
        assert lines[3].split() == ["0", "0", "0"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_refused(self, tmp_path, bad):
        """A non-finite cell would be cast to a garbage gray level; the
        FloatingPointError is the CLI's exit 4, and neither file is written."""
        matrix = np.array([[0.0, 1.0], [bad, 4.0]])
        with pytest.raises(FloatingPointError, match="non-finite"):
            cli.save_heatmap_pgm(matrix, tmp_path / "map.pgm")
        assert list(tmp_path.iterdir()) == []


# Fuzzed inputs: whatever the values, a command ends in a documented exit
# code (0, 2 config, 3 data, 4 runtime) and never raises, which would print
# a traceback. Numbers stay small so that accepted values run quickly.
FUZZ_VALUES = st.one_of(
    # half the draws are values that many fields accept, so runs also succeed
    st.one_of(st.integers(1, 4), st.sampled_from([0.0, 0.25, 0.5])),
    st.one_of(
        st.none(), st.booleans(), st.integers(-2, 4),
        st.sampled_from([2.5, -0.5, 1e308, float("nan"), float("inf")]),
        st.sampled_from(["", "x", "none", "greedy_selected", "equal_width",
                         "timestep", "all"]),
        st.lists(st.integers(-1, 3), max_size=2),
        st.dictionaries(st.sampled_from(["learning_rates", "hidden_sizes", "lr"]),
                        st.lists(st.sampled_from([0.5, 1, 2.5, -1]), max_size=2),
                        max_size=2),
    ),
)
SECTION_FIELDS = {
    "synth": ["n_patients", "mdr_fraction", "n_previous_culture", "n_antibiotic",
              "n_environment", "n_care", "signal_strength", "missing_rate",
              "mean_stay", "T", "seed", "bogus"],
    "train": ["learning_rate", "dropout_rate", "hidden_size", "max_epochs", "patience",
              "batch_size", "cv_folds", "threshold", "grid", "bogus"],
    "cmi": ["n_bins", "binning", "conditioning", "top_k", "threshold",
            "max_conditioners", "bogus"],
    "itshap": ["mode", "n_samples", "ridge", "exact_threshold", "seed",
               "explain_logit", "max_patients", "steps", "bogus"],
}
METRIC_CELLS = st.sampled_from([
    "roc_auc", "sensitivity", "specificity", "auroc", "", "0", "1", "2", "3", "-3",
    "1.5", "0.7", " 2", "nan", "inf", "x", "1.7e308", "-1.7e308", "1.7976931348623157e308",
])
FUZZ_SETTINGS = settings(max_examples=30, deadline=None)
CHECKPOINT_LINES = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "0x1.8p-1", "0x1.8p-1 nan",
                     "tsxplain-checkpoint-v1", "hidden_size 2", "hidden_size 0",
                     "attention 1", "threshold 0x1p-1", "threshold nan", "array W_z 2 16",
                     "array W_z 4 4", "history val_loss", "history val_loss inf",
                     "colour red"]),
    st.text(alphabet="0123456789abcdefpx.+- _", max_size=30),
)


COHORT_CELLS = st.one_of(
    st.sampled_from(["", "0", "1", "2", " 1", "01", "1.0", "0.5", "-1", "1e308", "1e309",
                     "nan", "inf", "-inf", "x", "p00001", "p00002", "label"]),
    st.text(alphabet="0123456789.e+-x ", max_size=8),
)
SCHEMA_LINES = st.sampled_from([
    "", "name: pc_0", "name: zz", "name:", "kind: binary", "kind: numeric",
    "kind: categorical", "group: care", "group: nonsense", "colour: red", "pc_0",
])


def _edit_lines(text, edit, data, new_line):
    """``text`` with one line deleted, duplicated, swapped with another or
    replaced by ``new_line(line)``, or cut at a byte."""
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    if edit == "delete":
        lines[i : i + 1] = []
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "swap":
        j = data.draw(st.integers(0, len(lines) - 1), label="other line")
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "replace":
        lines[i] = new_line(lines[i])
    else:
        return text[: data.draw(st.integers(0, len(text) - 1), label="bytes")]
    return "".join(lines)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A cohort, a plain-GRU checkpoint for seed 0 and the two metric files."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg_path, _ = write_config(root)
    assert run(["synth", "--config", str(cfg_path)]) == 0
    assert run(["train", "--config", str(cfg_path), "--seed", "0", "--attention", "off"]) == 0
    write_metrics(root)
    return root


class TestFuzz:
    @given(section=st.sampled_from(sorted(SECTION_FIELDS)), data=st.data())
    @FUZZ_SETTINGS
    def test_section_values(self, fuzz_dir, section, data):
        key = data.draw(st.sampled_from(SECTION_FIELDS[section]), label="key")
        value = data.draw(FUZZ_VALUES, label="value")
        out = fuzz_dir / "out"
        cfg = json.loads((fuzz_dir / "config.json").read_text())
        # commands that write a cohort or checkpoints get their own directory
        cfg["out_dir"] = str(out if section in ("cmi", "itshap") else fuzz_dir / section)
        if section != "synth":
            cfg["cohort_csv"] = str(out / "cohort.csv")
            cfg["schema"] = str(out / "schema.txt")
        if section == "synth":
            cfg["synth"] = {"n_patients": 20, key: value}
            argv = ["synth"]
        elif section == "train":
            cfg["train"] = {"max_epochs": 2, "hidden_size": 2, "batch_size": 16,
                            key: value}
            argv = ["train", "--seed", "0", "--attention", "off"]
        else:
            base = {"max_patients": 2, "n_samples": 256} if section == "itshap" else {}
            cfg[section] = {**base, key: value}
            argv = ["explain", "--method", section]
        cfg_path = fuzz_dir / f"fuzz_{section}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(argv + ["--config", str(cfg_path)]) in (0, 2, 3, 4)

    @given(
        edits=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 5), METRIC_CELLS),
                       max_size=3),
        raw=st.one_of(st.none(), st.binary(max_size=60)),
    )
    @FUZZ_SETTINGS
    def test_metrics_csv(self, fuzz_dir, edits, raw):
        out = fuzz_dir / "out"
        cfg_path = fuzz_dir / "config.json"
        write_metrics(fuzz_dir)
        path = out / "metrics_attention.csv"
        if raw is not None:
            path.write_bytes(raw)
        else:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            for r, c, cell in edits:
                row = rows[r]
                if c < len(row):
                    row[c] = cell
                else:
                    row.append(cell)
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        written = [out / "delta_report.csv", out / "report_summary.txt"]
        for p in written:
            p.unlink(missing_ok=True)
        code = run(["report", "--config", str(cfg_path)])
        assert code in (0, 3)
        if code == 0:
            for p in written:
                text = p.read_text()
                assert "nan" not in text and "inf" not in text, p.name

    @given(edit=st.sampled_from(["delete", "duplicate", "swap", "replace", "cut"]),
           data=st.data())
    @FUZZ_SETTINGS
    def test_checkpoint_edits(self, fuzz_dir, edit, data):
        out = fuzz_dir / "out"
        ckpt = out / "ckpt_gru_seed0.txt"
        text = ckpt.read_text()
        damaged = _edit_lines(
            text, edit, data,
            lambda line: data.draw(CHECKPOINT_LINES, label="new line") + "\n",
        )
        assume(damaged != text)
        cfg = json.loads((fuzz_dir / "config.json").read_text())
        cfg["itshap"] = {"max_patients": 2, "n_samples": 256}
        cfg_path = fuzz_dir / "fuzz_checkpoint.json"
        cfg_path.write_text(json.dumps(cfg))
        for old in out.glob("*itshap*"):
            old.unlink()
        ckpt.write_text(damaged)
        try:
            try:
                loaded = model.load_model(ckpt)
            except (ConfigError, DataError) as exc:
                expected = 2 if isinstance(exc, ConfigError) else 3
            else:
                # an edit can keep the layout, e.g. swapping two rows of equal width
                params = [getattr(loaded.gru, name) for name in model.GRU_ARRAYS]
                assert all(np.isfinite(p).all() for p in params)
                expected = 0
            assert run(["explain", "--config", str(cfg_path), "--method", "itshap",
                        "--attention", "off"]) == expected
            assert bool(list(out.glob("*itshap*"))) == (expected == 0)
        finally:
            ckpt.write_text(text)

    @given(target=st.sampled_from(["cohort.csv", "schema.txt"]),
           edit=st.sampled_from(["delete", "duplicate", "swap", "replace", "cut"]),
           data=st.data())
    @FUZZ_SETTINGS
    def test_cohort_edits(self, fuzz_dir, target, edit, data):
        out = fuzz_dir / "out"
        path = out / target
        original = path.read_bytes()
        text = original.decode()  # keeps the csv writer's \r\n line ends

        def new_line(line):
            if target == "schema.txt":
                return data.draw(SCHEMA_LINES, label="new line") + "\n"
            cells = line.rstrip("\r\n").split(",")
            c = data.draw(st.integers(0, len(cells) - 1), label="cell")
            cells[c] = data.draw(COHORT_CELLS, label="new cell")
            return ",".join(cells) + "\r\n"

        damaged = _edit_lines(text, edit, data, new_line)
        assume(damaged != text)
        scores = out / "importance_cmi_all.csv"
        scores.unlink(missing_ok=True)
        path.write_bytes(damaged.encode())
        try:
            # an exception that main() does not map to an exit code fails here
            code = run(["explain", "--config", str(fuzz_dir / "config.json"),
                        "--method", "cmi"])
            assert code in (0, 3)
            assert scores.exists() == (code == 0)
            if code == 0:
                with open(scores, newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                assert rows and all(np.isfinite(float(r[2])) for r in rows)
        finally:
            path.write_bytes(original)
