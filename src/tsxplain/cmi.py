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
from .errors import ConfigError, DataError, check_values, integer, number, one_of, optional

MIN_VALID_SAMPLES = 10
CMI_RULES = {
    "n_bins": integer(2), "binning": one_of("equal_frequency", "equal_width"),
    "conditioning": one_of("none", "greedy_selected"), "top_k": optional(integer(1)),
    "threshold": optional(number()), "max_conditioners": integer(0),
}


@dataclass(frozen=True)
class CmiConfig:
    n_bins: int = 8
    binning: str = "equal_frequency"  # or "equal_width"
    conditioning: str = "none"  # or "greedy_selected"
    top_k: Optional[int] = None
    threshold: Optional[float] = None
    max_conditioners: int = 2

    def __post_init__(self):
        check_values(vars(self), CMI_RULES, "cmi")
        if self.top_k is not None and self.threshold is not None:
            raise ConfigError("set at most one of top_k and threshold")


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


def _count(keys: np.ndarray, space: int, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys below ``space``, ascending, and their (weighted)
    counts. A key space past ``max(4 * keys.size, 2**16)`` is counted by a
    sort, as ``_ranks`` does, so a table stays within a small multiple of
    the keys it counts."""
    if space <= max(4 * keys.size, 2**16):
        counts = np.bincount(keys, weights, minlength=space)
        at = np.flatnonzero(counts)
        return at, counts[at]
    at, inverse = np.unique(keys, return_inverse=True)
    return at, np.bincount(inverse, weights)


def _entropies(at: np.ndarray, counts: np.ndarray, block: int, n: np.ndarray) -> list[float]:
    """The entropy in bits of each column's counts: column j owns the keys
    ``[j * block, (j + 1) * block)`` and has ``n[j]`` samples. Its nonzero
    counts, in key order, are the array ``entropy`` counts, and each entropy
    is the same expression over it, so it has the same bits."""
    ends = np.searchsorted(at, np.arange(n.size + 1) * block)
    p = counts / np.repeat(n, np.diff(ends))
    terms = p * np.log2(p)
    return [float(-np.add.reduce(terms[lo:hi])) for lo, hi in zip(ends[:-1], ends[1:])]


def _entropy_terms(a, y, ly: int, z, lz: int, rows) -> tuple[list[float], ...]:
    """H(a, z), H(y, z), H(a, y, z) and H(z) of each row of the codes ``a``
    (k, n) over the samples its row of ``rows`` marks, from one count table
    of the joint (a, y, z) keys; ``y`` and ``z`` are codes below ``ly`` and
    ``lz`` shared by all rows. Each row gets its own block of keys, offset by
    its index, and the key order is the lexicographic order of the codes,
    which is the order ``entropy`` counts the samples in; each marginal is
    recounted from the joint's nonzero cells."""
    k = rows.shape[0]
    la = int(a.max()) + 1
    size = la * ly * lz
    at, joint = _count(((a * ly + y) * lz + z + np.arange(k)[:, None] * size)[rows], k * size)
    f, cell = np.divmod(at, size)
    a, cell = np.divmod(cell, ly * lz)
    y, z = np.divmod(cell, lz)
    n = rows.sum(axis=1)
    return (
        _entropies(*_count((f * la + a) * lz + z, k * la * lz, joint), la * lz, n),
        _entropies(*_count((f * ly + y) * lz + z, k * ly * lz, joint), ly * lz, n),
        _entropies(at, joint, size, n),
        _entropies(*_count(f * lz + z, k * lz, joint), lz, n),
    )


def _step_codes(X, seen, scored, kinds, cfg: CmiConfig) -> np.ndarray:
    """The scored features' (F, n) values at a step as int64 codes in the
    order of the values they code: bins of a numeric feature's observed
    values, and for a binary feature the rank of its value among all the
    values the step's binary features take. The unscored features stay 0,
    and no count reads the codes of unobserved cells."""
    codes = np.zeros(X.shape, dtype=np.int64)
    flags = scored[kinds[scored] == "binary"]
    codes[flags] = np.searchsorted(np.unique(X[flags][seen[flags]]), X[flags])
    for f in scored[kinds[scored] == "numeric"]:
        codes[f, seen[f]] = discretize(X[f, seen[f]], cfg.n_bins, cfg.binning)
    return codes


def _conditioned_scores(codes, seen, y, ly, features, conditioners, mi) -> np.ndarray:
    """``conditional_mutual_information`` of each feature's codes and the
    labels given the conditioners' codes, over the samples that observe the
    feature and every conditioner; ``mi`` (the unconditioned score) where
    fewer than ``MIN_VALID_SAMPLES`` do."""
    scores = mi[features]
    common = seen[conditioners].all(axis=0)
    rows = seen[np.ix_(features, common)]
    ok = rows.sum(axis=1) >= MIN_VALID_SAMPLES
    if ok.any():
        # the conditioners' joint code, ranked once over the samples that see
        # them all; each feature's samples are a subset, where its order holds
        z = _codes(*codes[np.ix_(conditioners, common)])
        h_az, h_yz, h_ayz, h_z = _entropy_terms(
            codes[np.ix_(features[ok], common)], y[common], ly, z, int(z.max()) + 1,
            rows[ok])
        scores[ok] = [az + yz - ayz - hz for az, yz, ayz, hz in zip(h_az, h_yz, h_ayz, h_z)]
    return scores


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
    valid_counts. Each round scores all of its features at once from one
    count table (see ``_entropy_terms``), to the bits that
    ``mutual_information`` and ``conditional_mutual_information`` give.
    """
    picked = np.asarray(c.scope_indices(scope))
    F, T = c.F, c.T
    kinds = np.array([feature.kind for feature in c.schema.features])
    S = np.zeros((F, T))
    counts = np.zeros((F, T), dtype=np.int64)

    for t in range(T):
        # (F, picked) values and observed flags at step t, a feature a row;
        # validation keeps the mask zero beyond each stay, so the flags also
        # mark valid steps
        X = c.X[:, :, t].T[:, picked]
        seen = c.M[:, :, t].T[:, picked]
        y, ly = _ranks(c.y[picked, t])
        counts[:, t] = seen.sum(axis=1)
        scored = np.flatnonzero(counts[:, t] >= MIN_VALID_SAMPLES)
        if not scored.size:
            continue
        codes = _step_codes(X, seen, scored, kinds, cfg)
        # round 0's mutual informations, and each later round's fallback
        h_a, h_y, h_ay, _ = _entropy_terms(codes[scored], y, ly, 0, 1, seen[scored])
        mi = np.zeros(F)
        mi[scored] = [ha - (hay - hy) for ha, hay, hy in zip(h_a, h_ay, h_y)]

        # greedy rounds fill the conditioning set ("none" keeps it empty);
        # once it is full, later rounds would only score the remaining
        # features against it again to the same values, so all are final
        full = cfg.max_conditioners if cfg.conditioning == "greedy_selected" else 0
        remaining, selected = scored, []
        while remaining.size:
            scores = (_conditioned_scores(codes, seen, y, ly, remaining, selected, mi)
                      if selected else mi[remaining])
            if len(selected) == full:
                S[remaining, t] = scores
                break
            best = int(np.argmax(scores))  # the first of equal best scores
            S[remaining[best], t] = scores[best]
            selected.append(int(remaining[best]))
            remaining = np.delete(remaining, best)
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
