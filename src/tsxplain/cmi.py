"""Pre-hoc feature scoring from plug-in entropy estimates.

Entropies are maximum-likelihood (plug-in) over empirical frequencies, in
bits. Continuous variables are discretized (equal-frequency by default)
before estimation. Scores are computed per (feature, time step) against the
step label, using only samples observed under the validity mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Cohort, write_long_csv
from .errors import ConfigError, DataError

MIN_VALID_SAMPLES = 10


@dataclass(frozen=True)
class CmiConfig:
    n_bins: int = 8
    binning: str = "equal_frequency"  # or "equal_width"
    conditioning: str = "none"  # or "greedy_selected"
    top_k: Optional[int] = None
    threshold: Optional[float] = None
    max_conditioners: int = 2

    def __post_init__(self):
        if self.n_bins < 2:
            raise ConfigError("n_bins must be at least 2")
        if self.binning not in ("equal_frequency", "equal_width"):
            raise ConfigError(f"unknown binning {self.binning!r}")
        if self.conditioning not in ("none", "greedy_selected"):
            raise ConfigError(f"unknown conditioning {self.conditioning!r}")


@dataclass
class CmiScores:
    S: np.ndarray  # (F, T) nonnegative bits; absent cells are 0
    valid_counts: np.ndarray  # (F, T) ints

    def absent(self) -> np.ndarray:
        return self.valid_counts < MIN_VALID_SAMPLES


def _codes(samples) -> np.ndarray:
    arr = np.asarray(samples)
    if arr.size == 0:
        raise DataError("samples must be nonempty")
    if arr.ndim == 1:
        _, codes = np.unique(arr, return_inverse=True)
        return codes
    if arr.ndim == 2:
        # joint alphabet over columns
        _, codes = np.unique(arr, axis=0, return_inverse=True)
        return codes
    raise DataError("samples must be 1-D or 2-D")


def _entropy_from_codes(codes: np.ndarray) -> float:
    counts = np.bincount(codes)
    counts = counts[counts > 0]
    p = counts / codes.shape[0]
    return float(-np.sum(p * np.log2(p)))


def entropy(samples) -> float:
    """Shannon entropy of a discrete sample, in bits (0 log 0 = 0)."""
    return _entropy_from_codes(_codes(samples))


def _paired(*columns) -> np.ndarray:
    cols = []
    length = None
    for c in columns:
        arr = np.asarray(c)
        if arr.ndim == 1:
            arr = arr[:, None]
        if length is None:
            length = arr.shape[0]
        elif arr.shape[0] != length:
            raise DataError("paired samples must have equal lengths")
        cols.append(_codes_matrix(arr))
    return np.concatenate(cols, axis=1)


def _codes_matrix(arr: np.ndarray) -> np.ndarray:
    out = np.empty(arr.shape, dtype=np.int64)
    for j in range(arr.shape[1]):
        _, out[:, j] = np.unique(arr[:, j], return_inverse=True)
    return out


def joint_entropy(a, b) -> float:
    return entropy(_paired(a, b))


def conditional_entropy(a, b) -> float:
    """H(a | b) = H(a, b) - H(b)."""
    return joint_entropy(a, b) - entropy(_paired(b))


def mutual_information(a, b) -> float:
    """I(a; b) = H(a) - H(a | b), in bits."""
    return entropy(_paired(a)) - conditional_entropy(a, b)


def conditional_mutual_information(a, b, z) -> float:
    """I(a; b | z) = H(a,z) + H(b,z) - H(a,b,z) - H(z).

    ``z`` may be one or several conditioning columns (1-D or 2-D).
    """
    return (
        entropy(_paired(a, z))
        + entropy(_paired(b, z))
        - entropy(_paired(a, b, z))
        - entropy(_paired(z))
    )


def discretize(values: np.ndarray, n_bins: int, binning: str) -> np.ndarray:
    """Map continuous values to integer bin codes."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.astype(np.int64)
    if binning == "equal_frequency":
        qs = np.quantile(values, np.linspace(0, 1, n_bins + 1)[1:-1])
        edges = np.unique(qs)
    else:
        lo, hi = values.min(), values.max()
        if hi == lo:
            return np.zeros(values.shape, dtype=np.int64)
        edges = np.linspace(lo, hi, n_bins + 1)[1:-1]
    return np.searchsorted(edges, values, side="right").astype(np.int64)


def _cell_samples(c: Cohort, f: int, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, labels, and patient indices for (f, t) over observed patients."""
    vals, labels, who = [], [], []
    for i, p in enumerate(c.patients):
        if t < p.stay_length and p.M[f, t] == 1.0:
            vals.append(p.X[f, t])
            labels.append(p.y[t])
            who.append(i)
    return np.asarray(vals), np.asarray(labels), np.asarray(who, dtype=np.int64)


def cmi_feature_scores(c: Cohort, cfg: CmiConfig) -> CmiScores:
    """Score every (feature, time step) cell against the step label.

    With conditioning "none" each score is the plug-in mutual information
    between the (discretized) feature and the label. With "greedy_selected"
    features at each step are scored sequentially, each conditioned on the
    joint of the already-selected features at that step (capped at
    ``max_conditioners``). Cells with fewer than 10 observed samples are
    left at 0 and flagged absent via valid_counts.
    """
    if not c.patients:
        raise DataError("cohort is empty")
    F, T = c.F, c.T
    S = np.zeros((F, T))
    counts = np.zeros((F, T), dtype=np.int64)

    for t in range(T):
        cell: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for f in range(F):
            vals, labels, who = _cell_samples(c, f, t)
            counts[f, t] = len(vals)
            if len(vals) < MIN_VALID_SAMPLES:
                continue
            if c.schema.features[f].kind == "numeric":
                vals = discretize(vals, cfg.n_bins, cfg.binning)
            cell[f] = (vals, labels, who)

        if cfg.conditioning == "none":
            for f, (vals, labels, _) in cell.items():
                S[f, t] = mutual_information(vals, labels)
        else:
            remaining = sorted(cell)
            selected: list[int] = []
            while remaining:
                best_f, best_score = None, None
                for f in remaining:
                    score = _greedy_score(cell, f, selected[: cfg.max_conditioners])
                    if best_score is None or score > best_score:
                        best_f, best_score = f, score
                S[best_f, t] = best_score
                selected.append(best_f)
                remaining.remove(best_f)
    return CmiScores(S=S, valid_counts=counts)


def _greedy_score(cell, f: int, conditioners: list[int]) -> float:
    vals, labels, who = cell[f]
    if not conditioners:
        return mutual_information(vals, labels)
    # restrict to patients observed for the feature and all conditioners
    common = who
    for g in conditioners:
        common = np.intersect1d(common, cell[g][2], assume_unique=True)
    if len(common) < MIN_VALID_SAMPLES:
        return mutual_information(vals, labels)
    pick = np.isin(who, common)
    z_cols = []
    for g in conditioners:
        gvals, _, gwho = cell[g]
        z_cols.append(gvals[np.isin(gwho, common)])
    return conditional_mutual_information(
        vals[pick], labels[pick], np.stack(z_cols, axis=1)
    )


def select_features(s: CmiScores, cfg: CmiConfig) -> np.ndarray:
    """Binary (F, T) selection matrix; absent cells are never selected."""
    if (cfg.top_k is None) == (cfg.threshold is None):
        raise ConfigError("exactly one of top_k and threshold must be set")
    present = ~s.absent()
    out = np.zeros(s.S.shape)
    if cfg.threshold is not None:
        out[(s.S >= cfg.threshold) & present] = 1.0
        return out
    for t in range(s.S.shape[1]):
        col_present = np.flatnonzero(present[:, t])
        if col_present.size == 0:
            continue
        ranked = col_present[np.argsort(-s.S[col_present, t], kind="stable")]
        out[ranked[: cfg.top_k], t] = 1.0
    return out


def save_scores(s: CmiScores, selection: Optional[np.ndarray], feature_names, path) -> None:
    """Write `feature,t,score_bits,n_valid,selected` rows."""
    F, T = s.S.shape
    header = ["feature", "t", "score_bits", "n_valid", "selected"]
    write_long_csv(path, [header] + [
        [feature_names[f], t + 1, s.S[f, t], int(s.valid_counts[f, t]),
         None if selection is None else str(int(selection[f, t]))]
        for f in range(F) for t in range(T)
    ])
