import csv
import json

import numpy as np
import pytest

from tsxplain import cli
from tsxplain.data import load_cohort


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
        assert not any(p.is_positive for p in cohort.patients)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_exit_4(self, tmp_path, capsys):
        # the cohort loader rejects non-finite values, so a non-finite step
        # size is what drives the weights, and the loss, to nan here
        cfg_path, _ = write_config(tmp_path, {"train": {"learning_rate": float("inf")}})
        run(["synth", "--config", str(cfg_path)])
        capsys.readouterr()
        assert run(["train", "--config", str(cfg_path), "--attention", "off"]) == 4
        assert "non-finite loss" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ckpt_gru_seed0.txt").exists()

    def test_single_class_cohort_exit_3(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, {"synth": {"mdr_fraction": 0.0}})
        run(["synth", "--config", str(cfg_path)])
        assert run(["train", "--config", str(cfg_path)]) == 3


class TestExplain:
    @pytest.fixture()
    def prepared(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        run(["train", "--config", str(cfg_path), "--seed", "0,1"])
        return cfg_path, tmp_path / "out"

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
        negatives = [p for p in cohort.patients if not p.is_positive]
        expected = sum(p.M * p.valid_steps()[None, :] for p in negatives)
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
        assert (out / "attributions_itshap_all.csv").exists()

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

    def test_explain_without_checkpoint_exit_3(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        run(["synth", "--config", str(cfg_path)])
        assert run(
            ["explain", "--config", str(cfg_path), "--method", "itshap"]
        ) == 3


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

    def test_bad_seed_flag_exit_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert run(["synth", "--config", str(cfg_path), "--seed", "zero"]) == 2


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
