"""Command-line front end: cohort synthesis, training with repeats,
explanation with any of the three XAI methods, and report emission.

All commands read one JSON config file; flags override the seed list,
output directory, and method/scope choices. Outputs are deterministic
given the config and seeds. Exit codes: 0 success, 2 config error,
3 data error, 4 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import cmi as cmi_mod
from . import data as data_mod
from . import evaluation as eval_mod
from . import itshap as itshap_mod
from . import model as model_mod
from .errors import (
    ConfigError, DataError, NotTrainedError, SchemaError, is_finite_real, is_integer,
)
from .numerics import RngStream


_PATH = ("a path string", lambda v: isinstance(v, str))
_SECTION = ("a JSON object", lambda v: isinstance(v, dict))
# the top-level keys the commands read, each with what its value must be;
# any other key is a typo
CONFIG_KEYS = {
    "out_dir": _PATH,
    "cohort_csv": _PATH,
    "schema": _PATH,
    "seeds": ("a list of integers",
              lambda v: isinstance(v, list) and all(is_integer(s) for s in v)),
    "T": ("an integer", is_integer),
    "threshold": ("a finite number", is_finite_real),
    "train_fraction": ("a finite number", is_finite_real),
    "synth": _SECTION,
    "train": _SECTION,
    "cmi": _SECTION,
    "itshap": _SECTION,
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in cfg.items():
        what, check = CONFIG_KEYS[key]
        if not check(value):
            raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    return cfg


def _out_dir(cfg: dict, args) -> Path:
    out = Path(args.out or cfg.get("out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seeds(cfg: dict, args) -> list[int]:
    if getattr(args, "seed", None):
        try:
            seeds = [int(s) for s in args.seed.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --seed value {args.seed!r}") from exc
    else:
        seeds = list(cfg.get("seeds", [0, 1, 2]))
    if not seeds:
        raise ConfigError("seed list must be nonempty")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {min(seeds)}")
    return seeds


def _synth_config(cfg: dict, seed: int) -> data_mod.SynthConfig:
    section = dict(cfg.get("synth", {}))
    section.setdefault("T", cfg.get("T", data_mod.DEFAULT_T))
    section.setdefault("seed", seed)
    try:
        return data_mod.SynthConfig(**section)
    except TypeError as exc:
        raise ConfigError(f"bad synth section: {exc}") from exc


def _train_config(cfg: dict, seed: int) -> model_mod.TrainConfig:
    section = dict(cfg.get("train", {}))
    if "seed" in section:
        raise ConfigError("train takes no seed; each run's seed comes from 'seeds' or --seed")
    grid = section.pop("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError(f"train grid must be a JSON object, got {grid!r}")
    unknown = sorted(set(grid) - {"learning_rates", "dropout_rates", "hidden_sizes"})
    if unknown:
        raise ConfigError(f"unknown train grid keys: {', '.join(unknown)}")
    kwargs = dict(section)
    kwargs["seed"] = seed
    kwargs.setdefault("threshold", cfg.get("threshold", 0.5))
    try:
        for key, values in grid.items():
            kwargs[f"grid_{key}"] = tuple(values)
        return model_mod.TrainConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad train section: {exc}") from exc


def _cmi_config(cfg: dict) -> cmi_mod.CmiConfig:
    try:
        return cmi_mod.CmiConfig(**cfg.get("cmi", {}))
    except TypeError as exc:
        raise ConfigError(f"bad cmi section: {exc}") from exc


def _explainer_config(cfg: dict) -> tuple[itshap_mod.ExplainerConfig, dict]:
    section = dict(cfg.get("itshap", {}))
    extras = {
        "max_patients": section.pop("max_patients", 50),
        "steps": section.pop("steps", "final"),
    }
    if extras["steps"] not in ("final", "all"):
        raise ConfigError(f"itshap steps must be 'final' or 'all', got {extras['steps']!r}")
    if not (is_integer(extras["max_patients"]) and extras["max_patients"] >= 1):
        raise ConfigError(
            f"itshap max_patients must be an integer >= 1, got {extras['max_patients']!r}"
        )
    try:
        return itshap_mod.ExplainerConfig(**section), extras
    except TypeError as exc:
        raise ConfigError(f"bad itshap section: {exc}") from exc


def _cohort_paths(cfg: dict, out: Path) -> tuple[Path, Path]:
    data_path = Path(cfg.get("cohort_csv", out / "cohort.csv"))
    schema_path = Path(cfg.get("schema", out / "schema.txt"))
    return data_path, schema_path


def _load_cohort(cfg: dict, out: Path) -> data_mod.Cohort:
    data_path, schema_path = _cohort_paths(cfg, out)
    if not data_path.exists() or not schema_path.exists():
        raise DataError(
            f"cohort files not found ({data_path}, {schema_path}); run synth first"
        )
    return data_mod.load_cohort(data_path, schema_path, T=cfg.get("T", data_mod.DEFAULT_T))


def save_heatmap_pgm(matrix: np.ndarray, path: Path) -> None:
    """Grayscale F x T heatmap as text PGM (P2) with a sidecar scale file."""
    lo = float(matrix.min())
    hi = float(matrix.max())
    span = hi - lo if hi > lo else 1.0
    levels = np.rint((matrix - lo) / span * 255.0).astype(int)
    F, T = matrix.shape
    lines = ["P2", f"{T} {F}", "255"]
    for f in range(F):
        lines.append(" ".join(str(v) for v in levels[f]))
    Path(path).write_text("\n".join(lines) + "\n")
    Path(str(path) + ".scale.txt").write_text(
        f"min {repr(lo)}\nmax {repr(hi)}\n"
    )


def cmd_synth(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    seeds = _seeds(cfg, args)
    scfg = _synth_config(cfg, seeds[0])
    cohort = data_mod.synth_cohort(scfg)
    data_path, schema_path = _cohort_paths(cfg, out)
    data_path.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_cohort(cohort, data_path, schema_path)
    n_pos = sum(p.is_positive for p in cohort.patients)
    n = len(cohort.patients)
    print(f"wrote {data_path} and {schema_path}")
    print(f"patients: {n}, positive: {n_pos} ({n_pos / n:.3f}), features: {cohort.F}, T: {cohort.T}")
    return 0


def _variants(args) -> list[str]:
    mode = getattr(args, "attention", None) or "both"
    if mode == "on":
        return ["attention"]
    if mode == "off":
        return ["gru"]
    if mode == "both":
        return ["gru", "attention"]
    raise ConfigError(f"bad --attention value {mode!r}")


def cmd_train(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    seeds = _seeds(cfg, args)
    cohort = _load_cohort(cfg, out)
    classes = {p.is_positive for p in cohort.patients}
    if len(classes) < 2:
        raise DataError("cohort has a single class; training would be degenerate")
    fraction = cfg.get("train_fraction", 0.7)
    threshold = cfg.get("threshold", 0.5)
    variants = _variants(args)

    runs: dict[str, list[eval_mod.StepTable]] = {v: [] for v in variants}
    for seed in seeds:
        train_c, test_c = data_mod.split_train_test(
            cohort, fraction, RngStream(seed).child(100)
        )
        tcfg = _train_config(cfg, seed)
        for variant in variants:
            trained = model_mod.train(train_c, tcfg, use_attention=(variant == "attention"))
            model_mod.save_model(trained, out / f"ckpt_{variant}_seed{seed}.txt")
            table = eval_mod.evaluate(trained, test_c, threshold)
            header = ["metric", "t", "value"]
            data_mod.write_long_csv(out / f"run_{variant}_seed{seed}.csv", [header] + [
                [m, t + 1, v] for m in eval_mod.METRICS for t, v in enumerate(table[m])
            ])
            runs[variant].append(table)
            print(f"seed {seed} variant {variant}: trained and evaluated")

    for variant in variants:
        if len(runs[variant]) >= 2:
            series = eval_mod.aggregate_repeats(runs[variant])
            eval_mod.save_metric_series(series, out / f"metrics_{variant}.csv")
            print(f"wrote {out / f'metrics_{variant}.csv'}")
    return 0


def cmd_explain(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    seeds = _seeds(cfg, args)
    scope = args.scope or "all"
    method = args.method
    cohort = _load_cohort(cfg, out)
    names = cohort.schema.names

    if method == "cmi":
        scoped = cohort.subset(cohort.scope_indices(scope))
        ccfg = _cmi_config(cfg)
        scores = cmi_mod.cmi_feature_scores(scoped, ccfg)
        selection = None
        if (ccfg.top_k is None) != (ccfg.threshold is None):
            selection = cmi_mod.select_features(scores, ccfg)
        path = out / f"importance_cmi_{scope}.csv"
        cmi_mod.save_scores(scores, selection, names, path)
        save_heatmap_pgm(scores.S, out / f"importance_cmi_{scope}.pgm")
        print(f"wrote {path}")
        return 0

    variant = "attention" if method == "attention" else (
        "attention" if getattr(args, "attention", None) == "on" else "gru"
    )
    ckpt = out / f"ckpt_{variant}_seed{seeds[0]}.txt"
    if not ckpt.exists():
        raise DataError(f"checkpoint not found: {ckpt}; run train first")
    trained = model_mod.load_model(ckpt)
    if trained.schema_fingerprint != model_mod.schema_fingerprint(cohort.schema):
        raise SchemaError("checkpoint schema fingerprint does not match cohort")

    if method == "attention":
        if trained.attention is None:
            raise ConfigError("attention explanation requested on a no-attention checkpoint")
        maps = [
            itshap_mod.ImportanceMatrix(
                W=model_mod.attention_matrix(p.X * p.M, trained.attention),
                base=np.zeros(cohort.T), method="attention", patient_id=p.id,
            )
            for p in cohort.patients
        ]
        agg = itshap_mod.aggregate_by_class(maps, cohort, scope)
        path = out / f"importance_attention_{scope}.csv"
        itshap_mod.save_aggregate(agg, names, path)
        save_heatmap_pgm(agg.W, out / f"importance_attention_{scope}.pgm")
        print(f"wrote {path}")
        return 0

    if method == "itshap":
        xcfg, extras = _explainer_config(cfg)
        fraction = cfg.get("train_fraction", 0.7)
        train_c, test_c = data_mod.split_train_test(
            cohort, fraction, RngStream(seeds[0]).child(100)
        )
        B = itshap_mod.background_matrix(train_c)
        explained = test_c.patients[: extras["max_patients"]]
        explanations = []
        for p in explained:
            steps = [p.stay_length] if extras["steps"] == "final" else None
            explanations.append(
                itshap_mod.explain_patient(
                    trained, p.X, p.M, B, xcfg,
                    stay_length=p.stay_length, steps=steps, patient_id=p.id,
                )
            )
        sub = test_c.subset(range(len(explained)))
        agg = itshap_mod.aggregate_by_class(explanations, sub, scope)
        path = out / f"importance_itshap_{scope}.csv"
        itshap_mod.save_aggregate(agg, names, path)
        save_heatmap_pgm(agg.W, out / f"importance_itshap_{scope}.pgm")
        per_patient = out / f"attributions_itshap_{scope}.csv"
        itshap_mod.save_attributions(explanations, names, per_patient)
        print(f"wrote {path}")
        return 0

    raise ConfigError(f"unknown method {method!r}")


def cmd_report(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    paths = {v: out / f"metrics_{v}.csv" for v in ("gru", "attention")}
    for v, p in paths.items():
        if not p.exists():
            raise DataError(f"missing aggregate metrics for {v}: {p}; run train first")
    gru_series = eval_mod.load_metric_series(paths["gru"])
    att_series = eval_mod.load_metric_series(paths["attention"])
    report = eval_mod.delta_report(gru_series, att_series)
    eval_mod.save_delta_report(report, out / "delta_report.csv")

    lines = ["model comparison: plain GRU minus attention GRU", ""]
    for m in eval_mod.METRICS:
        for label, series in (("gru", gru_series), ("attention", att_series)):
            d = series[m].defined
            avg = float(series[m].mean[d].mean()) if d.any() else float("nan")
            lines.append(f"{m} mean over steps ({label}): {avg:.6f}")
        d = report.defined[m]
        avg = float(report.mean_delta[m][d].mean()) if d.any() else float("nan")
        lines.append(f"{m} mean delta over steps (gru - attention): {avg:.6f}")
        lines.append("")
    lines.append(f"sign convention: {report.sign_convention}")
    (out / "report_summary.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'delta_report.csv'} and {out / 'report_summary.txt'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsxplain",
        description="masked GRU temporal classification with explainability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", help="comma-separated seed list override")
        p.add_argument("--out", help="output directory override")

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    common(p)
    p = sub.add_parser("train", help="train models over seeds and evaluate")
    common(p)
    p.add_argument("--attention", choices=["on", "off", "both"], default="both")
    p = sub.add_parser("explain", help="emit importance matrices")
    common(p)
    p.add_argument("--method", choices=["cmi", "attention", "itshap"], required=True)
    p.add_argument("--scope", choices=data_mod.SCOPES, default="all")
    p.add_argument("--attention", choices=["on", "off"], default="off",
                   help="which checkpoint itshap explains")
    p = sub.add_parser("report", help="model-comparison delta report")
    common(p)
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "explain": cmd_explain,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg_path = args.config
    try:
        cfg = load_config(cfg_path)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, SchemaError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NotTrainedError, ArithmeticError, ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
