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
from .errors import ConfigError, DataError, is_finite_real, is_integer

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
        if not (is_integer(self.n_bins) and self.n_bins >= 2):
            raise ConfigError(f"n_bins must be an integer >= 2, got {self.n_bins!r}")
        if not (is_integer(self.max_conditioners) and self.max_conditioners >= 0):
            raise ConfigError(
                f"max_conditioners must be an integer >= 0, got {self.max_conditioners!r}"
            )
        if not (self.top_k is None or (is_integer(self.top_k) and self.top_k >= 1)):
            raise ConfigError(f"top_k must be an integer >= 1 or null, got {self.top_k!r}")
        if not (self.threshold is None or is_finite_real(self.threshold)):
            raise ConfigError(
                f"threshold must be a finite number or null, got {self.threshold!r}"
            )
        if self.top_k is not None and self.threshold is not None:
            raise ConfigError("set at most one of top_k and threshold")
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


def _ranks(col: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of a 1-D column in value order, and the number of levels.

    Non-negative integers below ``max(4n, 2**16)`` are ranked without a sort,
    by a presence table: ``cumsum(bincount(col) > 0) - 1``; the bound keeps
    the table's length within a small multiple of the column's. Anything
    else (floats, booleans, uint64, negative values, larger keys) goes
    through ``np.unique``.
    """
    if (col.dtype.kind in "iu" and np.can_cast(col.dtype, np.intp) and col.min() >= 0
            and col.max() < max(4 * col.shape[0], 2**16)):
        table = np.cumsum(np.bincount(col) > 0) - 1
        return table[col], int(table[-1]) + 1
    levels, rank = np.unique(col, return_inverse=True)
    return rank, levels.size


def _codes(*columns) -> np.ndarray:
    """Joint codes of the sample rows, numbered in lexicographic row order.

    Each argument is one variable (1-D) or several (2-D, one per column).
    Each variable is ranked (see ``_ranks``), folded into the running code
    as its less significant digit and the result ranked again, so every key
    stays below n * (number of levels) and ``bincount`` of the codes lists
    the counts in the order ``np.unique(axis=0)`` finds the rows.
    """
    arrays = [np.asarray(c) for c in columns]
    if any(a.ndim not in (1, 2) for a in arrays):
        raise DataError("samples must be 1-D or 2-D")
    if not arrays or any(a.size == 0 for a in arrays):
        raise DataError("samples must be nonempty")
    if len({a.shape[0] for a in arrays}) > 1:
        raise DataError("paired samples must have equal lengths")
    codes = None
    for a in arrays:
        for col in a.reshape(a.shape[0], -1).T:
            rank, levels = _ranks(col)
            codes = rank if codes is None else _ranks(codes * levels + rank)[0]
    return codes


def entropy(*columns) -> float:
    """Shannon entropy in bits (0 log 0 = 0) of a discrete sample, or the
    joint entropy of several paired ones (see ``_codes``)."""
    codes = _codes(*columns)
    counts = np.bincount(codes)
    p = counts / codes.shape[0]
    return float(-np.sum(p * np.log2(p)))


def joint_entropy(a, b) -> float:
    return entropy(a, b)


def conditional_entropy(a, b) -> float:
    """H(a | b) = H(a, b) - H(b)."""
    return joint_entropy(a, b) - entropy(b)


def mutual_information(a, b) -> float:
    """I(a; b) = H(a) - H(a | b), in bits."""
    return entropy(a) - conditional_entropy(a, b)


def conditional_mutual_information(a, b, z) -> float:
    """I(a; b | z) = H(a,z) + H(b,z) - H(a,b,z) - H(z).

    ``z`` may be one or several conditioning columns (1-D or 2-D).
    """
    return entropy(a, z) + entropy(b, z) - entropy(a, b, z) - entropy(z)


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


def cmi_feature_scores(c: Cohort, cfg: CmiConfig, scope: str = "all") -> CmiScores:
    """Score every (feature, time step) cell against the step label, over
    the patients in ``scope`` (see ``Cohort.scope_indices``).

    With conditioning "none" each score is the plug-in mutual information
    between the (discretized) feature and the label. With "greedy_selected"
    features at each step are scored sequentially, each conditioned on the
    joint of the already-selected features at that step (capped at
    ``max_conditioners``) over the patients observed for all of them; when
    fewer than 10 are, the feature gets its unconditioned score. Once the
    conditioning set is full, the remaining features all keep the scores of
    that round, which is what further rounds would give them. Cells with
    fewer than 10 observed samples are left at 0 and flagged absent via
    valid_counts.
    """
    picked = np.asarray(c.scope_indices(scope))
    F, T = c.F, c.T
    S = np.zeros((F, T))
    counts = np.zeros((F, T), dtype=np.int64)

    for t in range(T):
        # (picked, F) values and observed flags at step t; validation keeps
        # the mask zero beyond each stay, so the flags also mark valid steps
        X = c.X[picked, :, t]
        seen = c.M[picked, :, t] == 1.0
        y = _ranks(c.y[picked, t])[0]
        counts[:, t] = seen.sum(axis=0)
        scored = [f for f in range(F) if counts[f, t] >= MIN_VALID_SAMPLES]
        # the scored cells as int64 codes (bins, or the ranks of a binary
        # feature's values), which every entropy then ranks without a sort;
        # the unscored columns are never read and stay 0
        codes = np.zeros(X.shape, dtype=np.int64)
        for f in scored:
            if c.schema.features[f].kind == "numeric":
                codes[seen[:, f], f] = discretize(X[seen[:, f], f], cfg.n_bins, cfg.binning)
            else:
                codes[seen[:, f], f] = _ranks(X[seen[:, f], f])[0]

        def score(f: int, conditioners: list[int]) -> float:
            if conditioners:
                common = seen[:, [f, *conditioners]].all(axis=1)
                if common.sum() >= MIN_VALID_SAMPLES:
                    return conditional_mutual_information(
                        codes[common, f], y[common], codes[np.ix_(common, conditioners)]
                    )
            return mutual_information(codes[seen[:, f], f], y[seen[:, f]])

        # greedy rounds fill the conditioning set ("none" keeps it empty);
        # once it is full, later rounds would only score the remaining
        # features against it again to the same values, so all are final
        full = cfg.max_conditioners if cfg.conditioning == "greedy_selected" else 0
        selected: list[int] = []
        while scored:
            scores = [score(f, selected) for f in scored]
            if len(selected) == full:
                S[scored, t] = scores
                break
            best = int(np.argmax(scores))  # the first of equal best scores
            S[scored[best], t] = scores[best]
            selected.append(scored.pop(best))
    return CmiScores(S=S, valid_counts=counts)


def select_features(s: CmiScores, cfg: CmiConfig) -> np.ndarray:
    """Binary (F, T) selection matrix; absent cells are never selected."""
    if cfg.top_k is None and cfg.threshold is None:
        raise ConfigError("one of top_k and threshold must be set")
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
