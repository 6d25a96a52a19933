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
from typing import Optional, Sequence

import numpy as np

from .data import Cohort, write_long_csv
from .errors import ConfigError, DataError, NotTrainedError, is_finite_real, is_integer
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
        for name in ("n_samples", "exact_threshold", "seed"):
            if not is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        if not (0 <= self.exact_threshold <= 16):
            raise ConfigError("exact_threshold must be in 0..16")
        if self.n_samples < 2:
            raise ConfigError("n_samples must be at least 2")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not (is_finite_real(self.ridge) and self.ridge >= 0):
            raise ConfigError("ridge must be a finite nonnegative number")
        if not isinstance(self.explain_logit, bool):
            raise ConfigError(f"explain_logit must be true or false, got {self.explain_logit!r}")


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
    step_table: Optional[np.ndarray] = None  # (T, T) lower-triangular, timestep mode


def background_matrix(train: Cohort) -> np.ndarray:
    """Per-cell mean of observed values over the training cohort; cells never
    observed fall back to the feature's all-step mean, then 0."""
    if not train.ids.size:
        raise DataError("training cohort is empty")
    X, M = train.X, train.M
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


def _step_output(yhat: np.ndarray, explain_logit: bool) -> np.ndarray:
    """The explained quantity: the probability, or its clipped logit."""
    if explain_logit:
        p = np.clip(yhat, 1e-12, 1.0 - 1e-12)
        return np.log(p / (1.0 - p))
    return yhat


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
        f_idx, tau_idx = np.array(players, dtype=np.intp).reshape(m, 2).T
        inputs[:, f_idx, tau_idx] = np.where(
            Z, masked[f_idx, tau_idx], B[f_idx, tau_idx]
        )
    yhat = forward_prepared(inputs, model.gru, model.attention)[:, t - 1]
    return _step_output(yhat, explain_logit)


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


def _coalitions(
    m: int, cfg: ExplainerConfig, seed_index: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Interior coalitions Z (K, m) of an m-player game (m >= 2), their
    kernel weights w (K,) and the ridge to solve them with.

    Up to ``cfg.exact_threshold`` players every subset is listed, ordered by
    size and then as ``itertools.combinations`` lists them. Larger games take
    all singletons and sampled subsets, each followed by its complement.
    """
    kernel = np.array([shap_kernel_weight(m, s) for s in range(m + 1)])
    if m <= cfg.exact_threshold:
        codes = np.arange(1, 2**m - 1)
        # player 0 is the most significant bit, so within one size the
        # combinations order is descending code order
        Z = ((codes[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(bool)
        sizes = Z.sum(axis=1)
        order = np.lexsort((-codes, sizes))
        return Z[order], kernel[sizes[order]], 0.0

    if cfg.n_samples < m + 2:
        raise ConfigError(f"n_samples={cfg.n_samples} too small for {m} players")
    gen = RngStream(cfg.seed).child(seed_index).generator()
    sizes = np.arange(2, m - 1)
    n_pairs = max((cfg.n_samples - 2 * m) // 2, 0) if sizes.size > 0 else 0
    Z = np.zeros((2 * (m + n_pairs), m), dtype=bool)
    Z[np.arange(0, 2 * m, 2), np.arange(m)] = True  # row 2j: singleton j
    if sizes.size > 0:
        # kernel(s) * comb(m, s) simplifies to (m - 1) / (s * (m - s))
        probs = (m - 1) / (sizes * (m - sizes)).astype(np.float64)
        probs = probs / probs.sum()
        drawn = gen.choice(sizes, size=n_pairs, p=probs)
        for row, s in zip(Z[2 * m :: 2], drawn):
            row[gen.choice(m, size=int(s), replace=False)] = True
    Z[1::2] = ~Z[0::2]  # each row is followed by its complement
    return Z, kernel[Z.sum(axis=1)], cfg.ridge


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
    Z, w, ridge = _coalitions(m, cfg, seed_index)
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
) -> ImportanceMatrix:
    """Explain each requested valid output step. In cell mode only the final
    explained step's game is played: it gives the F x T attribution matrix,
    and the base values of the earlier steps come from one forward over the
    background-filled stay. In timestep mode every step's game is played and
    a lower-triangular step-attribution table is stored instead."""
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
    table = None
    if cfg.mode == "timestep":
        table = np.zeros((T, T))
        for t in steps:
            res = explain_step(model, X, M, t, B, cfg)
            base[t - 1] = res.base
            for j, tau in enumerate(res.players):
                table[t - 1, tau] = res.weights[j]
    else:
        res = explain_step(model, X, M, steps[-1], B, cfg)
        base[steps[-1] - 1] = res.base
        for j, (f, tau) in enumerate(res.players):
            W[f, tau] = res.weights[j]
        if len(steps) > 1:
            # The model is causal (per-column attention, in-order GRU): the
            # empty coalition of step t, with every observed cell up to t set
            # to B, has at t the value that one forward with every observed
            # cell set to B has at t. Both are one-row forwards of the same
            # shape, so the values agree bit for bit.
            background = np.where(M == 1.0, B, X * M)
            yhat = forward_prepared(background[None], model.gru, model.attention)[0]
            earlier = np.array(steps[:-1]) - 1
            base[earlier] = _step_output(yhat, cfg.explain_logit)[earlier]
    return ImportanceMatrix(W=W, base=base, method="itshap-" + cfg.mode, step_table=table)


def aggregate_by_class(
    W: np.ndarray, cohort: Cohort, scope: str
) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise mean of the importance block W (n, F, T), whose row i is the
    cohort's patient i, over the patients in scope, restricted to each
    patient's valid (observed, in-stay) cells; and the (F, T) counts of the
    patients each cell's mean is over."""
    picked = cohort.scope_indices(scope)
    if W.shape != cohort.M.shape:
        raise DataError(f"importance block of shape {W.shape} is not aligned with "
                        f"the cohort's {cohort.M.shape}")
    _, M, _, valid = cohort.stacked()
    cells = (M[picked] == 1.0) & valid[picked, None, :]
    rows = np.where(cells, W[picked], 0.0)
    # cumsum adds the rows in patient order for any F x T, as a loop over the
    # patients does (a plain sum pairs up the terms of a one-cell block);
    # + 0.0 turns a lone -0.0 into the +0.0 of a sum started from zeros
    total = np.cumsum(rows, axis=0, out=rows)[-1] + 0.0
    counts = cells.sum(axis=0)
    return np.divide(total, counts, out=np.zeros_like(total), where=counts > 0), counts


def save_attributions(
    ids, W: np.ndarray, base: np.ndarray, method: str, feature_names, path
) -> None:
    """Write `patient_id,feature,t,attribution,base_t,mode` rows, one per
    cell of each patient's row of W (n, F, T), with its step's base (n, T)."""
    n, F, T = W.shape
    header = ["patient_id", "feature", "t", "attribution", "base_t", "mode"]
    write_long_csv(path, [header] + [
        [ids[i], feature_names[f], t + 1, W[i, f, t], base[i, t], method]
        for i in range(n) for f in range(F) for t in range(T)
    ])


def save_aggregate(W: np.ndarray, counts: np.ndarray, scope: str, feature_names, path) -> None:
    """Write `feature,t,attribution,n_valid,scope` rows."""
    F, T = W.shape
    header = ["feature", "t", "attribution", "n_valid", "scope"]
    write_long_csv(path, [header] + [
        [feature_names[f], t + 1, W[f, t], int(counts[f, t]), scope]
        for f in range(F) for t in range(T)
    ])
