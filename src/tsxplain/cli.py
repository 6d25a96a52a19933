"""Command-line front end: cohort synthesis, training with repeats,
explanation with any of the three XAI methods, and report emission.

All commands read one JSON config file, which is checked whole before any
command runs; flags override the seed list, output directory, and
method/scope choices. Outputs are deterministic given the config and
seeds. Exit codes: 0 success, 2 config error, 3 data error, 4 runtime/numeric
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import cmi as cmi_mod
from . import data as data_mod
from . import evaluation as eval_mod
from . import itshap as itshap_mod
from . import model as model_mod
from .errors import (
    ConfigError, DataError, NotTrainedError, SchemaError, check_values, integer, is_integer,
    number, one_of,
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
    "T": integer(1),
    "threshold": number(),
    "train_fraction": number("(0, 1)"),
    "synth": _SECTION,
    "train": _SECTION,
    "cmi": _SECTION,
    "itshap": _SECTION,
}


@dataclasses.dataclass(frozen=True)
class Settings:
    """Every value the commands read, each from one config key or flag."""

    out: Path
    cohort_csv: Path
    schema: Path
    seeds: tuple[int, ...]
    T: int
    threshold: float
    train_fraction: float
    synth: Optional[data_mod.SynthConfig]  # None when the config has no synth section
    train: model_mod.TrainConfig  # with the first seed
    cmi: cmi_mod.CmiConfig
    itshap: itshap_mod.ExplainerConfig
    max_patients: int
    steps: str


def _section(cfg: dict, name: str, make, **fixed):
    """``make(**section, **fixed)`` for the config section ``name``. The
    ``fixed`` values come from the top level, so the section may not set them."""
    section = cfg.get(name, {})
    taken = sorted(set(section) & set(fixed))
    if taken:
        key = taken[0]
        source = "'seeds' or --seed" if key == "seed" else f"the top-level {key!r}"
        raise ConfigError(f"{name} takes no {key}; it comes from {source}")
    try:
        return make(**section, **fixed)
    except TypeError as exc:
        raise ConfigError(f"bad {name} section: {exc}") from exc


# each train grid list, with the scalar it replaces
GRID_KEYS = {"learning_rates": "learning_rate", "dropout_rates": "dropout_rate",
             "hidden_sizes": "hidden_size"}
_LIST = ("a list", lambda v: isinstance(v, list))


def _train_config(**fields) -> model_mod.TrainConfig:
    """The train section's TrainConfig; its grid lists become the grid_* fields."""
    grid = fields.pop("grid", {})
    check_values({"grid": grid}, {"grid": _SECTION}, "train")
    unknown = sorted(set(grid) - set(GRID_KEYS))
    if unknown:
        raise ConfigError(f"unknown train grid keys: {', '.join(unknown)}")
    check_values(grid, dict.fromkeys(GRID_KEYS, _LIST), "train grid")
    cfg = model_mod.TrainConfig(**fields, **{f"grid_{k}": tuple(v) for k, v in grid.items()})
    both = [k for k in grid if GRID_KEYS[k] in fields]
    if both:  # the grid list would win, and the scalar go unread
        raise ConfigError(f"train sets both {GRID_KEYS[both[0]]} and grid.{both[0]}; "
                          "give one of them")
    return cfg


# the itshap keys only the CLI reads, and its one mode: the timestep game
# fills no CLI artefact, so explain_patient plays cell-mode games only
ITSHAP_KEYS = {"mode": one_of("cell"), "max_patients": integer(1), "steps": one_of("final", "all")}


def _explainer_config(max_patients=50, steps="final", **fields):
    """The itshap section's ExplainerConfig plus the two keys only the CLI reads."""
    check_values({**fields, "max_patients": max_patients, "steps": steps}, ITSHAP_KEYS, "itshap")
    return itshap_mod.ExplainerConfig(**fields), max_patients, steps


def load_config(path, args) -> Settings:
    """Read the config file and check all of it, every section included,
    with the ``--seed`` and ``--out`` flags in ``args`` applied."""
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
    check_values(cfg, CONFIG_KEYS, "config key")

    if args.seed:
        try:
            seeds = [int(s) for s in args.seed.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --seed value {args.seed!r}") from exc
    else:
        seeds = cfg.get("seeds", [0, 1, 2])
    if not seeds:
        raise ConfigError("seed list must be nonempty")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {min(seeds)}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")
    out = Path(args.out or cfg.get("out_dir", "out"))
    T = cfg.get("T", data_mod.DEFAULT_T)
    threshold = cfg.get("threshold", 0.5)
    synth = (_section(cfg, "synth", data_mod.SynthConfig, T=T, seed=seeds[0])
             if "synth" in cfg else None)
    train = _section(cfg, "train", _train_config, seed=seeds[0], threshold=threshold)
    xcfg, max_patients, steps = _section(cfg, "itshap", _explainer_config)
    return Settings(
        out=out, cohort_csv=Path(cfg.get("cohort_csv", out / "cohort.csv")),
        schema=Path(cfg.get("schema", out / "schema.txt")), seeds=tuple(seeds), T=T,
        threshold=threshold, train_fraction=cfg.get("train_fraction", 0.7), synth=synth,
        train=train, cmi=_section(cfg, "cmi", cmi_mod.CmiConfig), itshap=xcfg,
        max_patients=max_patients, steps=steps,
    )


def _load_cohort(s: Settings) -> data_mod.Cohort:
    if not s.cohort_csv.exists() or not s.schema.exists():
        raise DataError(f"cohort files not found ({s.cohort_csv}, {s.schema}); run synth first")
    return data_mod.load_cohort(s.cohort_csv, s.schema, T=s.T)


def _split(cohort: data_mod.Cohort, s: Settings, seed: int, rows=None):
    """The (train, test) split of ``seed``: ``explain`` explains the test
    patients of the model that ``train`` fitted on the train patients. With
    ``rows``, the split of those patients as indices into ``cohort``."""
    return data_mod.split_train_test(cohort, s.train_fraction, RngStream(seed).child(100), rows)


def _checkpoint(s: Settings, variant: str, seed: int) -> Path:
    return s.out / f"ckpt_{variant}_seed{seed}.txt"


def save_heatmap_pgm(matrix: np.ndarray, path: Path) -> None:
    """Grayscale F x T heatmap as text PGM (P2) with a sidecar scale file.
    A non-finite matrix is a FloatingPointError, and neither file is written."""
    if not np.isfinite(matrix).all():
        raise FloatingPointError(f"{path}: non-finite heatmap value; nothing written")
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


def cmd_synth(s: Settings, args) -> int:
    if s.synth is None:
        raise ConfigError("synth needs a synth section with at least n_patients")
    cohort = data_mod.synth_cohort(s.synth)
    for path in (s.cohort_csv, s.schema):
        path.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_cohort(cohort, s.cohort_csv, s.schema)
    n_pos, n = int(cohort.y.any(axis=1).sum()), len(cohort.ids)
    print(f"wrote {s.cohort_csv} and {s.schema}")
    print(f"patients: {n}, positive: {n_pos} ({n_pos / n:.3f}), features: {cohort.F}, T: {cohort.T}")
    return 0


VARIANTS = {"on": ["attention"], "off": ["gru"], "both": ["gru", "attention"]}


def cmd_train(s: Settings, args) -> int:
    cohort = _load_cohort(s)
    positive = cohort.y.any(axis=1)
    if positive.all() or not positive.any():
        raise DataError("cohort has a single class; training would be degenerate")
    variants = VARIANTS[args.attention]

    runs: dict[str, list[eval_mod.StepTable]] = {v: [] for v in variants}
    for seed in s.seeds:
        # every fit and evaluation reads the loaded cohort through row indices
        train_rows, test_rows = _split(cohort, s, seed, cohort.row_indices())
        tcfg = dataclasses.replace(s.train, seed=seed)
        for variant in variants:
            trained = model_mod.train(cohort, tcfg, use_attention=(variant == "attention"),
                                      rows=train_rows)
            s.out.mkdir(parents=True, exist_ok=True)
            model_mod.save_model(trained, _checkpoint(s, variant, seed))
            table = eval_mod.evaluate(trained, cohort, s.threshold, test_rows)
            data_mod.write_long_csv(
                s.out / f"run_{variant}_seed{seed}.csv", [["metric", "t", "value"]],
                [[[m] * cohort.T, np.arange(1, cohort.T + 1), table[m]] for m in eval_mod.METRICS])
            runs[variant].append(table)
            print(f"seed {seed} variant {variant}: trained and evaluated")

    if len(s.seeds) < 2:
        print("wrote no aggregate metrics: they need train over at least two seeds")
        return 0
    for variant in variants:
        series = eval_mod.aggregate_repeats(runs[variant])
        eval_mod.save_metric_series(series, s.out / f"metrics_{variant}.csv")
        print(f"wrote {s.out / f'metrics_{variant}.csv'}")
    return 0


def cmd_explain(s: Settings, args) -> int:
    out, scope, method = s.out, args.scope, args.method
    cohort = _load_cohort(s)
    names = cohort.schema.names

    if method == "cmi":
        scores = cmi_mod.cmi_feature_scores(cohort, s.cmi, scope)
        selection = None
        if s.cmi.top_k is not None or s.cmi.threshold is not None:
            selection = cmi_mod.select_features(scores, s.cmi)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"importance_cmi_{scope}.csv"
        cmi_mod.save_scores(scores, selection, names, path)
        save_heatmap_pgm(scores.S, out / f"importance_cmi_{scope}.pgm")
        print(f"wrote {path}")
        return 0

    variant = "attention" if method == "attention" or args.attention == "on" else "gru"
    ckpt = _checkpoint(s, variant, s.seeds[0])
    if not ckpt.exists():
        raise DataError(f"checkpoint not found: {ckpt}; run train first")
    trained = model_mod.load_model(ckpt)
    if trained.schema_fingerprint != model_mod.schema_fingerprint(cohort.schema):
        raise SchemaError("checkpoint schema fingerprint does not match cohort")

    if method == "attention":
        if trained.attention is None:
            raise ConfigError("attention explanation requested on a no-attention checkpoint")
        explained = cohort
        W = model_mod.attention_matrix(cohort.X, trained.attention)  # X holds X⊙M
    else:
        # the split as row indices, so neither side is copied
        train_rows, test_rows = _split(cohort, s, s.seeds[0], cohort.row_indices())
        explained = cohort.subset(test_rows[:s.max_patients])
        # an empty scope or too small a sample budget fails before any work;
        # a patient's largest game has the observed cells as its players
        explained.scope_indices(scope)
        itshap_mod.check_budget(int(explained.M.sum(axis=(1, 2)).max()), s.itshap)
        # numpy's overflow warnings stay silent: the check below is the one report
        with np.errstate(over="ignore", invalid="ignore"):
            B = itshap_mod.background_matrix(cohort, train_rows)
            W, base = itshap_mod.explain_patients(
                trained, explained.X, explained.M, B, s.itshap, explained.stay,
                all_steps=(s.steps == "all"),
            )

    # an overflow in the model turns into NaN attributions, not into an error
    if not (np.isfinite(W).all() and (method != "itshap" or np.isfinite(base).all())):
        raise FloatingPointError(f"{method} explanation has a non-finite value; nothing written")
    mean, counts = itshap_mod.aggregate_by_class(W, explained, scope)
    path = out / f"importance_{method}_{scope}.csv"
    itshap_mod.save_aggregate(mean, counts, scope, names, path)
    save_heatmap_pgm(mean, out / f"importance_{method}_{scope}.pgm")
    if method == "itshap":
        itshap_mod.save_attributions(explained.ids, W, base, "itshap-" + s.itshap.mode,
                                     names, out / f"attributions_itshap_{scope}.csv")
    print(f"wrote {path}")
    return 0


def cmd_report(s: Settings, args) -> int:
    out = s.out
    paths = {v: out / f"metrics_{v}.csv" for v in ("gru", "attention")}
    for v, p in paths.items():
        if not p.exists():
            raise DataError(f"missing aggregate metrics for {v}: {p}; aggregate "
                            "metrics need train over at least two seeds")
    gru_series = eval_mod.load_metric_series(paths["gru"])
    att_series = eval_mod.load_metric_series(paths["attention"])
    report = eval_mod.delta_report(gru_series, att_series)
    eval_mod.save_delta_report(report, out / "delta_report.csv")

    def average(values, defined) -> str:
        """The mean over the defined steps, or a word when no step is."""
        return f"{float(values[defined].mean()):.6f}" if defined.any() else "undefined"

    lines = ["model comparison: plain GRU minus attention GRU", ""]
    for m in eval_mod.METRICS:
        for label, series in (("gru", gru_series), ("attention", att_series)):
            avg = average(series[m].mean, series[m].defined)
            lines.append(f"{m} mean over steps ({label}): {avg}")
        avg = average(report.mean_delta[m], report.defined[m])
        lines.append(f"{m} mean delta over steps (gru - attention): {avg}")
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
    try:
        settings = load_config(args.config, args)
        return COMMANDS[args.command](settings, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, SchemaError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NotTrainedError, ArithmeticError, ValueError, OSError, MemoryError,
            np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
