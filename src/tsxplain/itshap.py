"""Post-hoc Shapley-value explainer for the masked temporal classifier.

Each per-step output is treated as a coalition game whose players are the
individual observed (feature, step) cells ("cell" mode, which yields full
F x T attribution heatmaps). ``explain_step`` also plays, for library use,
the game whose players are whole time columns ("timestep" mode, the literal
column-selection perturbation); ``explain_patient``, which the CLI calls,
plays cell-mode games only. Deactivated players are replaced by a
background matrix of training-cohort feature means. Small games are
enumerated exactly; larger games use paired-complement coalition sampling
with Shapley kernel weights and a ridge-stabilized weighted linear fit,
which plays no pair whose weight is below float64 resolution. The two
degenerate coalitions (empty/full) enter as exactness constraints, so the
base value equals the background output and the attributions sum to the
explained output exactly. A game assembles and forwards its coalition rows
in the row blocks of ``model.row_blocks``, with the bits of one forward over
them all, so the model's inputs and activations take memory bounded by the
block; the fit's (K, m) design still grows with the K rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Cohort, write_long_csv
from .errors import ConfigError, DataError, NotTrainedError, check_values, integer, number, one_of
from .model import TrainedModel, forward_prepared, row_blocks
from .numerics import RngStream, weighted_least_squares


EXPLAINER_RULES = {
    "mode": one_of("cell", "timestep"), "n_samples": integer(2), "ridge": number("[0, inf)"),
    "exact_threshold": integer(0, 16), "seed": integer(0),
    "explain_logit": ("true or false", lambda v: isinstance(v, bool)),
}


@dataclass(frozen=True)
class ExplainerConfig:
    mode: str = "cell"  # or "timestep"
    n_samples: int = 2048
    ridge: float = 1e-6
    exact_threshold: int = 12
    seed: int = 0
    explain_logit: bool = False

    def __post_init__(self):
        check_values(vars(self), EXPLAINER_RULES, "itshap")


@dataclass
class StepExplanation:
    weights: np.ndarray  # (m,) attribution per player
    base: float  # model output with every player deactivated
    players: tuple
    output: float  # model output with every player active


def background_matrix(train: Cohort, rows=None) -> np.ndarray:
    """Per-cell mean of observed values over the training patients, those
    of ``train`` at ``rows`` (sorted indices, every patient by default);
    cells never observed fall back to the feature's all-step mean, then 0.
    Given ``rows``, they are gathered only while the sums are taken."""
    X, M = (train.X, train.M) if rows is None else (train.X[rows], train.M[rows])  # X holds X⊙M
    if not len(X):
        raise DataError("training cohort is empty")
    num = X.sum(axis=0)
    den = M.sum(axis=0)
    B = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    feat_num = X.sum(axis=(0, 2))
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
    coalition row of Z, forwarding one block of rows at a time."""
    K, m = Z.shape
    F, T = X.shape
    masked = (X * M)[:, :t]
    if mode == "cell":
        f_idx, tau_idx = np.array(players, dtype=np.intp).reshape(m, 2).T
    yhat = np.empty(K)
    for start, stop in row_blocks(K):
        Zb = Z[start:stop]
        inputs = np.zeros((stop - start, F, T))
        if mode == "timestep":
            zcols = np.zeros((stop - start, t), dtype=bool)
            zcols[:, list(players)] = Zb
            inputs[:, :, :t] = np.where(zcols[:, None, :], masked[None], B[None, :, :t])
        else:
            inputs[:, :, :t] = masked[None]
            inputs[:, f_idx, tau_idx] = np.where(
                Zb, masked[f_idx, tau_idx], B[f_idx, tau_idx]
            )
        yhat[start:stop] = forward_prepared(inputs, model.gru, model.attention)[:, t - 1]
    return _step_output(yhat, explain_logit)


def _solve_constrained(
    Z: np.ndarray, v: np.ndarray, w: np.ndarray, v0: float, fx: float, ridge: float
) -> np.ndarray:
    """Weighted linear fit of an m-player game (m >= 2) with g(0)=v0 and
    g(1)=fx eliminated by substituting the last attribution."""
    total = fx - v0
    # straight from the bool Z: numpy casts it to float64 a buffer at a time
    targets = v - v0 - Z[:, -1] * total
    design = np.subtract(Z[:, :-1], Z[:, -1:], dtype=np.float64)
    coeffs = weighted_least_squares(design, targets, w, ridge=ridge)
    return np.append(coeffs, total - coeffs.sum())


def check_budget(m: int, cfg: ExplainerConfig) -> None:
    """Raise ``ConfigError`` if an m-player game is sampled and ``n_samples``
    is below m + 2. Whatever the budget, the game plays its m singletons,
    their m complements and the empty and full sets; ``n_samples`` bounds
    the sampled rows beyond those at ``n_samples - 2m``."""
    if m > cfg.exact_threshold and cfg.n_samples < m + 2:
        raise ConfigError(f"n_samples={cfg.n_samples} too small for {m} players")


def _coalitions(
    m: int, cfg: ExplainerConfig, seed_index: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Interior coalitions Z (K, m) of an m-player game (m >= 2), their
    kernel weights w (K,) and the ridge to solve them with.

    Up to ``cfg.exact_threshold`` players every subset is listed, ordered by
    size and then as ``itertools.combinations`` lists them. Larger games take
    all singletons and sampled subsets, each followed by its complement. Of
    the (n_samples - 2m) // 2 drawn pair sizes, those whose kernel weight is
    below float64 epsilon times a singleton's are dropped before their
    subsets are drawn: such rows cannot move the fit. ``n_samples`` thus
    bounds the sampled rows rather than counting them; no size is dropped
    for m <= 57.
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

    check_budget(m, cfg)
    gen = RngStream(cfg.seed).child(seed_index).generator()
    sizes = np.arange(2, m - 1)
    drawn = sizes[:0]  # games of up to 3 players have no interior pair size
    if sizes.size > 0:
        # kernel(s) * comb(m, s) simplifies to (m - 1) / (s * (m - s))
        probs = (m - 1) / (sizes * (m - sizes)).astype(np.float64)
        probs = probs / probs.sum()
        drawn = gen.choice(sizes, size=max((cfg.n_samples - 2 * m) // 2, 0), p=probs)
        drawn = drawn[kernel[drawn] >= np.finfo(np.float64).eps * kernel[1]]
    Z = np.zeros((2 * (m + drawn.size), m), dtype=bool)
    Z[np.arange(0, 2 * m, 2), np.arange(m)] = True  # row 2j: singleton j
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
    stay_length: int,
    all_steps: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Cell-mode IT-SHAP of one patient: the (F, T) attributions of the
    output at the stay's final step, the one game played, and the (T,) base
    values, at that step or, with ``all_steps``, at every step of the stay.
    Steps beyond the stay keep zeros."""
    if cfg.mode != "cell":
        raise ConfigError(f"explain_patient plays cell-mode games, got mode {cfg.mode!r}")
    F, T = X.shape
    if not 1 <= stay_length <= T:
        raise DataError(f"stay_length {stay_length} out of 1..{T}")
    W, base = np.zeros((F, T)), np.zeros(T)
    res = explain_step(model, X, M, stay_length, B, cfg)
    base[stay_length - 1] = res.base
    for j, (f, tau) in enumerate(res.players):
        W[f, tau] = res.weights[j]
    if all_steps and stay_length > 1:
        # The model is causal (per-column attention, in-order GRU): the
        # empty coalition of step t, with every observed cell up to t set
        # to B, has at t the value that one forward with every observed
        # cell set to B has at t. Both are one-row forwards of the same
        # shape, so the values agree bit for bit.
        background = np.where(M == 1.0, B, X * M)
        yhat = forward_prepared(background[None], model.gru, model.attention)[0]
        base[: stay_length - 1] = _step_output(yhat, cfg.explain_logit)[: stay_length - 1]
    return W, base


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
    cells = M[picked] & valid[picked, None, :]
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
    write_long_csv(path, [header], [[
        np.repeat(np.asarray(ids, dtype=object), F * T),
        np.tile(np.repeat(np.array(feature_names, dtype=object), T), n),
        np.tile(np.arange(1, T + 1), n * F), W.ravel(),
        np.broadcast_to(base[:, None, :], W.shape).ravel(), np.full(W.size, method, dtype=object),
    ]])


def save_aggregate(W: np.ndarray, counts: np.ndarray, scope: str, feature_names, path) -> None:
    """Write `feature,t,attribution,n_valid,scope` rows."""
    F, T = W.shape
    header = ["feature", "t", "attribution", "n_valid", "scope"]
    write_long_csv(path, [header], [[
        np.repeat(np.array(feature_names, dtype=object), T), np.tile(np.arange(1, T + 1), F),
        W.ravel(), counts.ravel().astype(np.int64), np.full(W.size, scope, dtype=object),
    ]])
