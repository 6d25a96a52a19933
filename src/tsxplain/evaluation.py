"""Mask-aware per-time-step metrics and aggregation over repeated runs.

Steps where a metric is undefined (a class is missing among the patients
still in the ICU at that step) are flagged as None rather than imputed.
``evaluate`` reads the test patients as row indices into the cohort they
were loaded in and forwards them one ``model.row_blocks`` block at a time,
so its memory is bounded by the block, not by the test set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import Cohort, read_long_csv, write_long_csv
from .errors import DataError
from .model import TrainedModel, forward_prepared, row_blocks

METRICS = ("roc_auc", "sensitivity", "specificity")

StepTable = dict  # metric name -> list of Optional[float], one per step


@dataclass
class MetricSeries:
    mean: np.ndarray  # (T,)
    std: np.ndarray  # (T,)
    defined: np.ndarray  # (T,) bool
    n_defined: np.ndarray  # (T,) runs contributing per step


@dataclass
class DeltaReport:
    """Per-step differences a - b; negative values mean b outperforms a."""

    mean_delta: dict  # metric -> (T,)
    std_delta: dict
    defined: dict
    sign_convention: str = "negative values indicate the second model outperforms the first"


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, ties sharing the mean of the ranks they span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def roc_auc_step(scores, labels) -> Optional[float]:
    """Mann-Whitney AUC: probability a random positive outscores a random
    negative, ties counted 1/2. None when a class is missing; a non-finite
    score is a DataError."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise DataError("scores and labels must have equal length")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def sens_spec_step(
    scores, labels, threshold: float
) -> tuple[Optional[float], Optional[float]]:
    """(sensitivity, specificity) at the threshold; score >= threshold is a
    positive call. A missing class flags that component None."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    pred = scores >= threshold
    pos = labels == 1
    neg = labels == 0
    sens = float(pred[pos].mean()) if pos.any() else None
    spec = float((~pred[neg]).mean()) if neg.any() else None
    return sens, spec


def evaluate(
    model: TrainedModel, test: Cohort, threshold: Optional[float] = None, rows=None
) -> StepTable:
    """Per-step metric table over the patients of ``test`` at ``rows``
    (indices, every patient by default) valid at each step. Each block of
    rows has the bits of one forward over them all. Over every patient a
    block is a slice of the cohort's ``X``, a view; given ``rows`` it is
    gathered by index."""
    every = rows is None
    rows = test.row_indices(rows)
    if not rows.size:
        raise DataError("test cohort is empty")
    if threshold is None:
        threshold = model.threshold
    yhat = np.empty((len(rows), test.T))
    for start, stop in row_blocks(len(rows)):
        # X holds X⊙M, the model's input; a gathered block is not named, so
        # it is freed when its forward returns
        yhat[start:stop] = forward_prepared(
            test.X[start:stop] if every else test.X[rows[start:stop]], model.gru, model.attention)
    y, valid = test.labels(rows)
    table: StepTable = {m: [] for m in METRICS}
    for t in range(test.T):
        sel = valid[:, t]
        if not sel.any():
            for m in METRICS:
                table[m].append(None)
            continue
        s, l = yhat[sel, t], y[sel, t]
        table["roc_auc"].append(roc_auc_step(s, l))
        sens, spec = sens_spec_step(s, l, threshold)
        table["sensitivity"].append(sens)
        table["specificity"].append(spec)
    return table


def aggregate_repeats(runs: Sequence[StepTable]) -> dict[str, MetricSeries]:
    """Per-step mean and sample std over runs, skipping undefined entries;
    a step is defined iff at least 2 runs define it."""
    if len(runs) < 2:
        raise DataError("need at least 2 runs to aggregate")
    T = len(runs[0][METRICS[0]])
    for run in runs:
        for m in METRICS:
            if len(run[m]) != T:
                raise DataError("runs have misaligned steps")
    out = {}
    any_defined = False
    for m in METRICS:
        mean = np.zeros(T)
        std = np.zeros(T)
        defined = np.zeros(T, dtype=bool)
        n_def = np.zeros(T, dtype=np.int64)
        for t in range(T):
            vals = [run[m][t] for run in runs if run[m][t] is not None]
            n_def[t] = len(vals)
            if len(vals) >= 2:
                defined[t] = True
                any_defined = True
                mean[t] = float(np.mean(vals))
                std[t] = float(np.std(vals, ddof=1))
        out[m] = MetricSeries(mean=mean, std=std, defined=defined, n_defined=n_def)
    if not any_defined:
        raise DataError("no step is defined in at least 2 runs")
    return out


def delta_report(
    a: dict[str, MetricSeries], b: dict[str, MetricSeries]
) -> DeltaReport:
    if set(a) != set(b):
        raise DataError("series sets have different metrics")
    mean_delta, std_delta, defined = {}, {}, {}
    for m in a:
        if a[m].mean.shape != b[m].mean.shape:
            raise DataError("series are misaligned in steps")
        mean_delta[m] = a[m].mean - b[m].mean
        std_delta[m] = a[m].std - b[m].std
        defined[m] = a[m].defined & b[m].defined
        mean_delta[m][~defined[m]] = 0.0
        std_delta[m][~defined[m]] = 0.0
    return DeltaReport(mean_delta=mean_delta, std_delta=std_delta, defined=defined)


def _where_defined(values: np.ndarray, defined: np.ndarray) -> list:
    """The cells of a per-step column: each value where its step is
    defined, and ``None`` (an empty cell) where it is not."""
    return [v if d else None for v, d in zip(values.tolist(), defined.tolist())]


def save_metric_series(series: dict[str, MetricSeries], path) -> None:
    """Write `metric,t,mean,std,n_defined` rows; mean and std stay empty at
    undefined steps."""
    def block(m: str) -> list:
        s = series[m]
        return [[m] * len(s.mean), np.arange(1, len(s.mean) + 1), _where_defined(s.mean, s.defined),
                _where_defined(s.std, s.defined), s.n_defined.astype(np.int64)]

    write_long_csv(path, [["metric", "t", "mean", "std", "n_defined"]], map(block, METRICS))


def load_metric_series(path) -> dict[str, MetricSeries]:
    """Read what ``save_metric_series`` writes. A wrong header is a
    SchemaError; a malformed row, an unknown metric, a non-finite number, a
    mean outside [0, 1] or a negative std (every metric is a proportion),
    or steps of a metric that are not 1..T once each raise DataError."""
    rows: dict[str, list] = {m: [] for m in METRICS}
    for lines, columns in read_long_csv(path, ["metric", "t", "mean", "std", "n_defined"]):
        for line, m, t, mean, std, n_def in zip(lines, *columns):
            where = f"{path} line {line}"
            if m not in METRICS:
                raise DataError(f"{where}: metric {m!r} is not one of {', '.join(METRICS)}")
            try:
                t, n_def = int(t), int(n_def)
                mean, std = (None, None) if mean == std == "" else (float(mean), float(std))
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from exc
            if n_def < 0 or (mean is not None and not (math.isfinite(mean) and math.isfinite(std))):
                raise DataError(f"{where}: n_defined must be >= 0 and mean and std finite")
            if mean is not None and not (0.0 <= mean <= 1.0 and std >= 0.0):
                raise DataError(f"{where}: mean must be in [0, 1] and std >= 0")
            rows[m].append((t, mean, std, n_def))
    out = {}
    for m, entries in rows.items():
        if not entries:
            raise DataError(f"metric {m} missing from {path}")
        steps, means, stds, n_def = zip(*sorted(entries, key=lambda e: e[0]))
        if steps != tuple(range(1, len(steps) + 1)):
            raise DataError(f"{path}: steps of metric {m} must be 1..{len(steps)}, each once")
        defined = np.array([v is not None for v in means])
        mean, std = (np.array([0.0 if v is None else v for v in vs]) for vs in (means, stds))
        out[m] = MetricSeries(mean=mean, std=std, defined=defined,
                              n_defined=np.array(n_def, dtype=np.int64))
    return out


def save_delta_report(report: DeltaReport, path) -> None:
    """Write `metric,t,mean_delta,std_delta` rows with the sign convention in
    a header comment row."""
    def block(m: str) -> list:
        defined = report.defined[m]
        return [[m] * len(defined), np.arange(1, len(defined) + 1),
                _where_defined(report.mean_delta[m], defined),
                _where_defined(report.std_delta[m], defined)]

    head = [[f"# sign convention: {report.sign_convention}"],
            ["metric", "t", "mean_delta", "std_delta"]]
    write_long_csv(path, head, map(block, METRICS))
