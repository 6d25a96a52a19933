"""Post-hoc Shapley-value explainer for the masked temporal classifier.

Each per-step output is treated as a coalition game: players are either
whole time columns ("timestep" mode, the literal column-selection
perturbation) or individual observed (feature, step) cells ("cell" mode,
which yields full F x T attribution heatmaps). Deactivated players are
replaced by a background matrix of training-cohort feature means. Small
games are enumerated exactly; larger games use paired-complement coalition
sampling with Shapley kernel weights and a ridge-stabilized weighted linear
fit. The two degenerate coalitions (empty/full) enter as exactness
constraints, so the base value equals the background output and the
attributions sum to the explained output exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .data import Cohort, write_long_csv
from .errors import ConfigError, DataError, NotTrainedError
from .model import TrainedModel, forward_prepared
from .numerics import RngStream, weighted_least_squares


@dataclass(frozen=True)
class ExplainerConfig:
    mode: str = "cell"  # or "timestep"
    n_samples: int = 2048
    ridge: float = 1e-6
    exact_threshold: int = 12
    seed: int = 0
    explain_logit: bool = False

    def __post_init__(self):
        if self.mode not in ("cell", "timestep"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not (0 <= self.exact_threshold <= 16):
            raise ConfigError("exact_threshold must be in 0..16")
        if self.n_samples < 2:
            raise ConfigError("n_samples must be at least 2")
        if self.ridge < 0:
            raise ConfigError("ridge must be nonnegative")


@dataclass
class StepExplanation:
    weights: np.ndarray  # (m,) attribution per player
    base: float  # model output with every player deactivated
    players: tuple
    output: float  # model output with every player active


@dataclass
class ImportanceMatrix:
    W: np.ndarray  # (F, T); aggregation reads only valid (observed, in-stay) cells
    base: np.ndarray  # (T,) per explained output step
    method: str
    scope: str = "all"
    patient_id: Optional[str] = None
    step_table: Optional[np.ndarray] = None  # (T, T) lower-triangular, timestep mode
    n_valid: Optional[np.ndarray] = None  # per-cell patient counts for aggregates


def background_matrix(train: Cohort) -> np.ndarray:
    """Per-cell mean of observed values over the training cohort; cells never
    observed fall back to the feature's all-step mean, then 0."""
    if not train.patients:
        raise DataError("training cohort is empty")
    X, M, _, _ = train.stacked()
    num = (X * M).sum(axis=0)
    den = M.sum(axis=0)
    B = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    feat_num = (X * M).sum(axis=(0, 2))
    feat_den = M.sum(axis=(0, 2))
    feat_mean = np.divide(
        feat_num, feat_den, out=np.zeros_like(feat_num), where=feat_den > 0
    )
    missing = den == 0
    B[missing] = np.broadcast_to(feat_mean[:, None], B.shape)[missing]
    return B


def timestep_players(t: int) -> tuple:
    return tuple(range(t))


def cell_players(M: np.ndarray, t: int) -> tuple:
    return tuple(
        (f, tau) for tau in range(t) for f in range(M.shape[0]) if M[f, tau] == 1.0
    )


def shap_kernel_weight(players: int, coalition_size: int) -> float:
    """Regression weight for an interior coalition of the given size."""
    m, s = int(players), int(coalition_size)
    if not (0 <= s <= m):
        raise ValueError("coalition_size must be in 0..players")
    if s == 0 or s == m:
        # degenerate coalitions are enforced as exactness constraints instead
        return float("inf")
    return (m - 1) / (math.comb(m, s) * s * (m - s))


def _evaluate_coalitions(
    model: TrainedModel,
    X: np.ndarray,
    M: np.ndarray,
    t: int,
    B: np.ndarray,
    players: tuple,
    mode: str,
    Z: np.ndarray,
    explain_logit: bool,
) -> np.ndarray:
    """Vectorized game evaluation: returns the output at step t for each
    coalition row of Z."""
    K, m = Z.shape
    F, T = X.shape
    masked = (X * M)[:, :t]
    inputs = np.zeros((K, F, T))
    if mode == "timestep":
        zcols = np.zeros((K, t), dtype=bool)
        zcols[:, list(players)] = Z
        inputs[:, :, :t] = np.where(zcols[:, None, :], masked[None], B[None, :, :t])
    else:
        inputs[:, :, :t] = masked[None]
        for j, (f, tau) in enumerate(players):
            off = ~Z[:, j]
            inputs[off, f, tau] = B[f, tau]
    yhat = forward_prepared(inputs, model.gru, model.attention)[:, t - 1]
    if explain_logit:
        p = np.clip(yhat, 1e-12, 1.0 - 1e-12)
        return np.log(p / (1.0 - p))
    return yhat


def _solve_constrained(
    Z: np.ndarray, v: np.ndarray, w: np.ndarray, v0: float, fx: float, ridge: float
) -> np.ndarray:
    """Weighted linear fit with g(0)=v0 and g(1)=fx eliminated by
    substituting the last attribution."""
    m = Z.shape[1]
    total = fx - v0
    if m == 1:
        return np.array([total])
    zf = Z.astype(np.float64)
    targets = v - v0 - zf[:, -1] * total
    design = zf[:, :-1] - zf[:, -1:]
    coeffs = weighted_least_squares(design, targets, w, ridge=ridge)
    return np.append(coeffs, total - coeffs.sum())


def shapley_values(
    value_fn, m: int, cfg: ExplainerConfig, seed_index: int = 0
) -> tuple[np.ndarray, float, float]:
    """Shapley attributions of an arbitrary coalition game.

    ``value_fn`` maps a boolean coalition matrix (K, m) to outputs (K,).
    Returns (attributions, empty-coalition value, full-coalition value).
    Games with at most ``cfg.exact_threshold`` players are enumerated and
    solved exactly; larger games use paired-complement coalition sampling.
    """
    full = float(value_fn(np.ones((1, m), dtype=bool))[0])
    empty = float(value_fn(np.zeros((1, m), dtype=bool))[0])
    if m == 0:
        return np.zeros(0), empty, full
    if m == 1:
        return np.array([full - empty]), empty, full

    if m <= cfg.exact_threshold:
        rows, weights = [], []
        for s in range(1, m):
            wk = shap_kernel_weight(m, s)
            for subset in combinations(range(m), s):
                row = np.zeros(m, dtype=bool)
                row[list(subset)] = True
                rows.append(row)
                weights.append(wk)
        Z = np.array(rows)
        w = np.array(weights)
        ridge = 0.0
    else:
        if cfg.n_samples < m + 2:
            raise ConfigError(
                f"n_samples={cfg.n_samples} too small for {m} players"
            )
        gen = RngStream(cfg.seed).child(seed_index).generator()
        rows, weights = [], []
        for j in range(m):  # all singletons and their complements
            row = np.zeros(m, dtype=bool)
            row[j] = True
            rows.append(row)
            weights.append(shap_kernel_weight(m, 1))
            rows.append(~row)
            weights.append(shap_kernel_weight(m, m - 1))
        sizes = np.arange(2, m - 1)
        if sizes.size > 0:
            # kernel(s) * comb(m, s) simplifies to (m - 1) / (s * (m - s))
            probs = (m - 1) / (sizes * (m - sizes)).astype(np.float64)
            probs = probs / probs.sum()
            n_pairs = max((cfg.n_samples - len(rows)) // 2, 0)
            drawn = gen.choice(sizes, size=n_pairs, p=probs)
            for s in drawn:
                subset = gen.choice(m, size=int(s), replace=False)
                row = np.zeros(m, dtype=bool)
                row[subset] = True
                rows.append(row)
                weights.append(shap_kernel_weight(m, int(s)))
                rows.append(~row)
                weights.append(shap_kernel_weight(m, m - int(s)))
        Z = np.array(rows)
        w = np.array(weights)
        ridge = cfg.ridge

    v = np.asarray(value_fn(Z), dtype=np.float64)
    phi = _solve_constrained(Z, v, w, empty, full, ridge)
    return phi, empty, full


def explain_step(
    model: TrainedModel,
    X: np.ndarray,
    M: np.ndarray,
    t: int,
    B: np.ndarray,
    cfg: ExplainerConfig,
) -> StepExplanation:
    """Shapley attributions for the output at step t over all players up to t."""
    if model is None or model.gru is None:
        raise NotTrainedError("explainer requires a trained model")
    X = np.asarray(X, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    players = (
        timestep_players(t) if cfg.mode == "timestep" else cell_players(M, t)
    )

    def value(Z):
        return _evaluate_coalitions(
            model, X, M, t, B, players, cfg.mode, Z, cfg.explain_logit
        )

    phi, empty, full = shapley_values(value, len(players), cfg, seed_index=t)
    return StepExplanation(phi, empty, players, full)


def explain_patient(
    model: TrainedModel,
    X: np.ndarray,
    M: np.ndarray,
    B: np.ndarray,
    cfg: ExplainerConfig,
    stay_length: Optional[int] = None,
    steps: Optional[Sequence[int]] = None,
    patient_id: Optional[str] = None,
) -> ImportanceMatrix:
    """Explain each requested valid output step; in cell mode the F x T
    attribution matrix comes from the final explained step's game, with
    per-step base values retained. In timestep mode a lower-triangular
    step-attribution table is stored instead."""
    X = np.asarray(X, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    F, T = X.shape
    if stay_length is None:
        nonzero = np.flatnonzero(M.any(axis=0))
        if nonzero.size == 0:
            raise DataError("mask is empty; pass stay_length explicitly")
        stay_length = int(nonzero[-1]) + 1
    if steps is None:
        steps = list(range(1, stay_length + 1))
    steps = sorted(set(int(t) for t in steps))
    if any(t < 1 or t > stay_length for t in steps):
        raise DataError("explained steps must lie within the patient's stay")

    W = np.zeros((F, T))
    base = np.zeros(T)
    table = np.zeros((T, T)) if cfg.mode == "timestep" else None
    final_step = steps[-1]
    for t in steps:
        res = explain_step(model, X, M, t, B, cfg)
        base[t - 1] = res.base
        if cfg.mode == "timestep":
            for j, tau in enumerate(res.players):
                table[t - 1, tau] = res.weights[j]
        elif t == final_step:
            for j, (f, tau) in enumerate(res.players):
                W[f, tau] = res.weights[j]
    return ImportanceMatrix(
        W=W,
        base=base,
        method="itshap-" + cfg.mode,
        patient_id=patient_id,
        step_table=table,
    )


def aggregate_by_class(
    explanations: Sequence[ImportanceMatrix], cohort: Cohort, scope: str
) -> ImportanceMatrix:
    """Cellwise mean of per-patient importance matrices over the patients in
    scope, restricted to each patient's valid (observed, in-stay) cells."""
    picked = cohort.scope_indices(scope)
    if len(explanations) != len(cohort.patients):
        raise DataError("explanations are not aligned with the cohort")
    for expl, patient in zip(explanations, cohort.patients):
        if expl.patient_id is not None and expl.patient_id != patient.id:
            raise DataError("explanations are not aligned with the cohort")
    F, T = explanations[picked[0]].W.shape
    total = np.zeros((F, T))
    counts = np.zeros((F, T), dtype=np.int64)
    base_total = np.zeros(T)
    base_counts = np.zeros(T, dtype=np.int64)
    for i in picked:
        expl, patient = explanations[i], cohort.patients[i]
        vsteps = patient.valid_steps()
        valid_cells = (patient.M == 1.0) & vsteps[None, :]
        total[valid_cells] += expl.W[valid_cells]
        counts += valid_cells
        base_total[vsteps] += expl.base[vsteps]
        base_counts += vsteps
    W = np.divide(total, counts, out=np.zeros_like(total), where=counts > 0)
    base = np.divide(
        base_total, base_counts, out=np.zeros_like(base_total), where=base_counts > 0
    )
    return ImportanceMatrix(
        W=W,
        base=base,
        method=explanations[picked[0]].method,
        scope=scope,
        patient_id=None,
        n_valid=counts,
    )


def save_attributions(
    explanations: Sequence[ImportanceMatrix], feature_names, path
) -> None:
    """Write `patient_id,feature,t,attribution,base_t,mode` rows."""
    header = ["patient_id", "feature", "t", "attribution", "base_t", "mode"]
    write_long_csv(path, [header] + [
        [expl.patient_id, feature_names[f], t + 1, expl.W[f, t], expl.base[t],
         expl.method]
        for expl in explanations
        for f in range(expl.W.shape[0])
        for t in range(expl.W.shape[1])
    ])


def save_aggregate(agg: ImportanceMatrix, feature_names, path) -> None:
    """Write `feature,t,attribution,n_valid,scope` rows."""
    F, T = agg.W.shape
    header = ["feature", "t", "attribution", "n_valid", "scope"]
    write_long_csv(path, [header] + [
        [feature_names[f], t + 1, agg.W[f, t],
         None if agg.n_valid is None else int(agg.n_valid[f, t]), agg.scope]
        for f in range(F) for t in range(T)
    ])
