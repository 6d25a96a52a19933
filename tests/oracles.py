"""Slow, literal reference implementations used only by tests: the
two-branch sigmoid, one GRU step on a single column, forward and BPTT with
per-step concatenation and per-step gradient accumulation, the attention
pre-activation and weight gradient as the einsums the kernel replaced, coalition
perturbation one player at a time, IT-SHAP with coalitions built one row at
a time, each game's rows forwarded in one whole batch and a full game played
for every explained step, IT-SHAP of each patient on its own (its own draws,
fit and background forward), CMI screening that gathers each (feature, step)
cell's samples patient by patient, bins each cell with its own
``np.quantile`` call and codes joint alphabets with
``np.unique(axis=0)``, CMI screening that makes one entropy call per term
of each (cell, round) score, and central-difference gradients, average ranks
found by walking tied runs, a cohort CSV reader that groups rows by patient
and parses one cell at a time, a cohort CSV reader that holds the whole
file as strings, one list per column, before it parses any, a cohort CSV
writer that formats one patient record's cells one at a time, a long-CSV
writer that formats one row, and one cell, at a time, a synthetic
cohort generator that builds one patient record at a time, X⊙M as the
product of float64 value and mask blocks, k-fold splits that copy each
fold's patients into cohorts, a training loop that runs each grid point ×
fold fit on its own on those copies, and a scope average that adds each
patient's importance matrix on its own, and an evaluation that forwards
a whole test cohort at once."""

import copy
import csv
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

from tsxplain.cmi import (
    MIN_VALID_SAMPLES,
    _ranks,
    conditional_mutual_information,
    discretize,
    mutual_information,
)
from tsxplain.data import (
    DEFAULT_T,
    Cohort,
    PatientRecord,
    SynthConfig,
    _calibrate_intercept,
    build_labels,
    compute_class_weights,
    load_schema,
    save_schema,
    split_train_test,
    synth_schema,
)
from tsxplain.errors import ConfigError, DataError, SchemaError, ShapeError
from tsxplain.evaluation import METRICS, roc_auc_step, sens_spec_step
from tsxplain.itshap import (
    _coalitions,
    _evaluate_coalitions,
    _solve_constrained,
    _step_output,
    cell_players,
    shap_kernel_weight,
    timestep_players,
)
from tsxplain.model import (
    GRU_ARRAYS,
    GRUParams,
    TrainedModel,
    _backward_core,
    _forward_core,
    _loss_grad_yhat,
    forward_prepared,
    init_params,
    schema_fingerprint,
    tbbce,
)
from tsxplain.numerics import RngStream, sigmoid


def sigmoid_two_branch(x: np.ndarray) -> np.ndarray:
    """The logistic function computed separately on each sign of x through
    masked gathers and scatters."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_step(x_t: np.ndarray, h_prev: np.ndarray, p: GRUParams) -> np.ndarray:
    """One recurrence step on a single input column."""
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    H = p.hidden_size
    F = p.n_features
    if x_t.shape != (F,) or h_prev.shape != (H,):
        raise ShapeError(f"expected x ({F},) and h ({H},)")
    cat1 = np.concatenate([x_t, h_prev])
    z = sigmoid(p.W_z @ cat1 + p.b_z)
    r = sigmoid(p.W_r @ cat1 + p.b_r)
    cat2 = np.concatenate([r * h_prev, x_t])
    hc = np.tanh(p.W_h @ cat2 + p.b_h)
    return (1.0 - z) * hc + z * h_prev


def attention_pre_einsum(W, b, Xin):
    """The attention pre-activation W X + b of every patient of Xin
    (n, F, T) as one einsum, the form the kernel used before it shared one
    matmul with ``attention_matrix``."""
    return np.einsum("fg,ngt->nft", W, Xin) + b[None, :, None]


def attention_grad_einsum(dpre, Xin):
    """The attention weight gradient, the sum over patients and steps of
    dpre[:, :, t] outer Xin[:, :, t], as one einsum."""
    return np.einsum("nft,ngt->fg", dpre, Xin)


def gru_bptt(Xin, gru: GRUParams, att, y, valid, beta, dropout_mask=None, einsum=False):
    """Batched forward over Xin (n, F, T) and exact TBBCE gradients, one
    step at a time: per-step concatenated inputs, separate gate matmuls and
    sigmoids, and every parameter gradient accumulated as each step is
    reached, from the last step to the first. The attention contractions
    are the kernel's matmuls, or with ``einsum`` the einsums they replaced.
    Returns (yhat, grads)."""
    n, F, T = Xin.shape
    H = gru.hidden_size
    A = None
    Xeff = Xin
    if att is not None:
        if einsum:
            pre = attention_pre_einsum(att.W, att.b, Xin)
        else:
            pre = att.W @ Xin + att.b[None, :, None]
        e = np.exp(pre - pre.max(axis=1, keepdims=True))
        A = e / e.sum(axis=1, keepdims=True)
        Xeff = Xin * A

    h = np.zeros((n, H))
    yhat = np.empty((n, T))
    steps = []
    for t in range(T):
        x = Xeff[:, :, t]
        cat1 = np.concatenate([x, h], axis=1)
        z = sigmoid(cat1 @ gru.W_z.T + gru.b_z)
        r = sigmoid(cat1 @ gru.W_r.T + gru.b_r)
        cat2 = np.concatenate([r * h, x], axis=1)
        hc = np.tanh(cat2 @ gru.W_h.T + gru.b_h)
        h_new = (1.0 - z) * hc + z * h
        h_out = h_new if dropout_mask is None else h_new * dropout_mask[:, :, t]
        yhat[:, t] = sigmoid(h_out @ gru.W_out + gru.b_out)
        steps.append((x, h, z, r, hc, h_out))
        h = h_new

    grads = {
        "W_z": np.zeros_like(gru.W_z), "W_r": np.zeros_like(gru.W_r),
        "W_h": np.zeros_like(gru.W_h), "b_z": np.zeros(H), "b_r": np.zeros(H),
        "b_h": np.zeros(H), "W_out": np.zeros(H), "b_out": 0.0,
    }
    do_all = _loss_grad_yhat(yhat, y, valid, beta) * yhat * (1.0 - yhat)
    dXeff = np.zeros((n, F, T))
    dh_next = np.zeros((n, H))
    for t in range(T - 1, -1, -1):
        x, h_prev, z, r, hc, h_out = steps[t]
        do = do_all[:, t]
        grads["W_out"] += do @ h_out
        grads["b_out"] += float(do.sum())
        dh_from_out = do[:, None] * gru.W_out[None, :]
        if dropout_mask is not None:
            dh_from_out = dh_from_out * dropout_mask[:, :, t]
        dh = dh_next + dh_from_out
        dz = dh * (h_prev - hc)
        dhc = dh * (1.0 - z)
        dh_prev = dh * z
        dahc = dhc * (1.0 - hc * hc)
        cat2 = np.concatenate([r * h_prev, x], axis=1)
        grads["W_h"] += dahc.T @ cat2
        grads["b_h"] += dahc.sum(axis=0)
        dcat2 = dahc @ gru.W_h
        drh = dcat2[:, :H]
        dx = dcat2[:, H:].copy()
        dr = drh * h_prev
        dh_prev += drh * r
        dar = dr * r * (1.0 - r)
        daz = dz * z * (1.0 - z)
        cat1 = np.concatenate([x, h_prev], axis=1)
        grads["W_r"] += dar.T @ cat1
        grads["b_r"] += dar.sum(axis=0)
        grads["W_z"] += daz.T @ cat1
        grads["b_z"] += daz.sum(axis=0)
        dcat1 = dar @ gru.W_r + daz @ gru.W_z
        dx += dcat1[:, :F]
        dh_prev += dcat1[:, F:]
        dXeff[:, :, t] = dx
        dh_next = dh_prev

    if att is not None:
        dA = dXeff * Xin
        inner = np.sum(dA * A, axis=1, keepdims=True)
        dpre = A * (dA - inner)
        if einsum:
            grads["att_W"] = attention_grad_einsum(dpre, Xin)
        else:
            dpre_f, Xin_f = (v.transpose(1, 0, 2).reshape(F, n * T) for v in (dpre, Xin))
            grads["att_W"] = dpre_f @ Xin_f.T
        grads["att_b"] = dpre.sum(axis=(0, 2))
    return yhat, grads


@dataclass(frozen=True)
class Coalition:
    z: np.ndarray  # bool (m,)
    players: tuple  # step indices (timestep mode) or (f, step) pairs (cell mode)
    mode: str


def perturb(
    X: np.ndarray, M: np.ndarray, coalition: Coalition, t: int, B: np.ndarray
) -> np.ndarray:
    """Assemble the model input for a coalition: active players keep the
    masked original value, deactivated ones take the background value."""
    X = np.asarray(X, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    if X.shape != M.shape or X.shape != B.shape:
        raise ShapeError("X, M, B must share shape (F, T)")
    if not (1 <= t <= X.shape[1]):
        raise DataError(f"step {t} outside 1..{X.shape[1]}")
    if len(coalition.z) != len(coalition.players):
        raise DataError("coalition vector length does not match players")
    out = (X * M)[:, :t].copy()
    if coalition.mode == "timestep":
        for j, tau in enumerate(coalition.players):
            if not coalition.z[j]:
                out[:, tau] = B[:, tau]
    else:
        for j, (f, tau) in enumerate(coalition.players):
            if not coalition.z[j]:
                out[f, tau] = B[f, tau]
    return out


def coalitions_by_row(m: int, cfg, seed_index: int = 0, play_every_pair: bool = False):
    """Interior coalitions of an m-player game (m >= 2) and their kernel
    weights, one row and one ``shap_kernel_weight`` call at a time: every
    subset in ``combinations`` order when m <= ``cfg.exact_threshold``,
    otherwise the singletons and sampled subsets, each followed by its
    complement. A drawn pair whose weight is below float64 epsilon times a
    singleton's gets no subset draw and no rows, unless ``play_every_pair``
    asks for the earlier sampler that kept every drawn pair. Returns
    (Z, w, ridge)."""
    rows, weights = [], []
    if m <= cfg.exact_threshold:
        for s in range(1, m):
            wk = shap_kernel_weight(m, s)
            for subset in combinations(range(m), s):
                row = np.zeros(m, dtype=bool)
                row[list(subset)] = True
                rows.append(row)
                weights.append(wk)
        return np.array(rows), np.array(weights), 0.0
    if cfg.n_samples < m + 2:
        raise ConfigError(f"n_samples={cfg.n_samples} too small for {m} players")
    gen = RngStream(cfg.seed).child(seed_index).generator()
    for j in range(m):  # all singletons and their complements
        row = np.zeros(m, dtype=bool)
        row[j] = True
        rows.append(row)
        weights.append(shap_kernel_weight(m, 1))
        rows.append(~row)
        weights.append(shap_kernel_weight(m, m - 1))
    sizes = np.arange(2, m - 1)
    if sizes.size > 0:
        probs = (m - 1) / (sizes * (m - sizes)).astype(np.float64)
        probs = probs / probs.sum()
        n_pairs = max((cfg.n_samples - len(rows)) // 2, 0)
        drawn = gen.choice(sizes, size=n_pairs, p=probs)
        for s in drawn:
            wk = shap_kernel_weight(m, int(s))
            if wk < np.finfo(np.float64).eps * shap_kernel_weight(m, 1) and not play_every_pair:
                continue
            subset = gen.choice(m, size=int(s), replace=False)
            row = np.zeros(m, dtype=bool)
            row[subset] = True
            rows.append(row)
            weights.append(wk)
            rows.append(~row)
            weights.append(shap_kernel_weight(m, m - int(s)))
    return np.array(rows), np.array(weights), cfg.ridge


def coalition_inputs_by_player(X, M, t, B, players, mode, Z) -> np.ndarray:
    """Model inputs (K, F, T) for the coalition rows of Z, switching off one
    player at a time; columns from t on stay zero."""
    K = Z.shape[0]
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
    return inputs


def evaluate_coalitions_whole_batch(model, X, M, t, B, players, mode, Z, explain_logit):
    """The output at step t (or its clipped logit) of every coalition row of
    Z, from one forward over the inputs of all its rows at once."""
    inputs = coalition_inputs_by_player(X, M, t, B, players, mode, Z)
    yhat = forward_prepared(inputs, model.gru, model.attention)[:, t - 1]
    if explain_logit:
        p = np.clip(yhat, 1e-12, 1.0 - 1e-12)
        return np.log(p / (1.0 - p))
    return yhat


def explain_step_game(model, X, M, t, B, cfg):
    """The full coalition game of step t: (weights, base, players, output)."""
    players = timestep_players(t) if cfg.mode == "timestep" else cell_players(M, t)

    def value(Z):
        return evaluate_coalitions_whole_batch(model, X, M, t, B, players, cfg.mode, Z,
                                               cfg.explain_logit)

    m = len(players)
    full = float(value(np.ones((1, m), dtype=bool))[0])
    empty = float(value(np.zeros((1, m), dtype=bool))[0])
    if m == 0:
        return np.zeros(0), empty, players, full
    if m == 1:
        return np.array([full - empty]), empty, players, full
    Z, w, ridge = coalitions_by_row(m, cfg, seed_index=t)
    phi = _solve_constrained(Z, value(Z), w, empty, full, ridge)
    return phi, empty, players, full


def explain_patient_every_step(model, X, M, B, cfg, stay_length, all_steps=False):
    """Cell-mode IT-SHAP over a stay playing the full game of the final step
    and, with ``all_steps``, of every earlier step too: (W, base) with the
    final step's attributions and each played step's base value."""
    X = np.asarray(X, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    F, T = X.shape
    W = np.zeros((F, T))
    base = np.zeros(T)
    for t in range(1 if all_steps else stay_length, stay_length + 1):
        weights, base[t - 1], players, _ = explain_step_game(model, X, M, t, B, cfg)
        if t == stay_length:
            for j, (f, tau) in enumerate(players):
                W[f, tau] = weights[j]
    return W, base


def explain_patient_alone(model, X, M, B, cfg, stay_length, all_steps=False):
    """Cell-mode IT-SHAP of one patient that shares nothing with another:
    it draws its own coalitions, forwards its full and empty coalitions as
    two one-row batches, fits its own (K, m - 1) design, and forwards one
    more row, with every observed cell set to B, for the base values of the
    earlier steps. Returns (W, base) as ``explain_patient`` does."""
    X = np.asarray(X, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    F, T = X.shape
    t = stay_length
    players = cell_players(M, t)

    def value(Z):
        return _evaluate_coalitions(model, X, M, t, B, players, "cell", Z, cfg.explain_logit)

    m = len(players)
    full = float(value(np.ones((1, m), dtype=bool))[0])
    empty = float(value(np.zeros((1, m), dtype=bool))[0])
    if m == 0:
        phi = np.zeros(0)
    elif m == 1:
        phi = np.array([full - empty])
    else:
        Z, w, ridge = _coalitions(m, cfg, t)
        phi = _solve_constrained(Z, value(Z), w, empty, full, ridge)
    W, base = np.zeros((F, T)), np.zeros(T)
    base[t - 1] = empty
    for j, (f, tau) in enumerate(players):
        W[f, tau] = phi[j]
    if all_steps and t > 1:
        background = np.where(M == 1.0, B, X * M)
        yhat = forward_prepared(background[None], model.gru, model.attention)[0]
        base[: t - 1] = _step_output(yhat, cfg.explain_logit)[: t - 1]
    return W, base


def aggregate_by_patient(W, cohort, scope):
    """Cellwise mean of the patients' (F, T) importance matrices ``W[i]``
    over the patients in scope, restricted to each patient's valid
    (observed, in-stay) cells, one patient at a time; and the per-cell
    counts of those patients."""
    picked = cohort.scope_indices(scope)
    _, M, _, valid = cohort.stacked()
    F, T = W[picked[0]].shape
    total = np.zeros((F, T))
    counts = np.zeros((F, T), dtype=np.int64)
    for i in picked:
        valid_cells = (M[i] == 1.0) & valid[i][None, :]
        total[valid_cells] += W[i][valid_cells]
        counts += valid_cells
    return np.divide(total, counts, out=np.zeros_like(total), where=counts > 0), counts


def finite_diff_grad(
    f: Callable[[np.ndarray], float], p: np.ndarray, h: float
) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    if h <= 0:
        raise ValueError("h must be positive")
    p = np.asarray(p, dtype=np.float64)
    g = np.zeros_like(p)
    for j in range(p.size):
        e = np.zeros_like(p)
        e.flat[j] = h
        g.flat[j] = (f(p + e) - f(p - e)) / (2.0 * h)
    return g


def evaluate_whole_batch(model, test, threshold=None):
    """The per-step metric table of a test cohort and its (n, T) scores,
    from one forward over all its patients at once."""
    threshold = model.threshold if threshold is None else threshold
    X, _, y, valid = test.stacked()
    yhat = forward_prepared(X, model.gru, model.attention)
    table = {m: [] for m in METRICS}
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
    return table, yhat


def average_ranks_loop(x: np.ndarray) -> np.ndarray:
    """1-based ranks with tied runs found by walking the stably sorted
    values, each run given the mean of the ranks it spans."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.shape[0])
    sx = x[order]
    i = 0
    while i < x.shape[0]:
        j = i
        while j + 1 < x.shape[0] and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def entropy_unique_rows(samples) -> float:
    """Plug-in entropy in bits of a 1-D sample or of the rows of a 2-D one,
    the joint alphabet found by ``np.unique(axis=0)``."""
    arr = np.asarray(samples)
    if arr.size == 0:
        raise DataError("samples must be nonempty")
    if arr.ndim == 1:
        _, codes = np.unique(arr, return_inverse=True)
    elif arr.ndim == 2:
        _, codes = np.unique(arr, axis=0, return_inverse=True)
    else:
        raise DataError("samples must be 1-D or 2-D")
    counts = np.bincount(codes.ravel())
    counts = counts[counts > 0]
    p = counts / codes.shape[0]
    return float(-np.sum(p * np.log2(p)))


def _ranked_columns(*columns) -> np.ndarray:
    """Each column replaced by its ``np.unique`` rank, side by side."""
    cols = []
    for c in columns:
        arr = np.asarray(c)
        if arr.ndim == 1:
            arr = arr[:, None]
        out = np.empty(arr.shape, dtype=np.int64)
        for j in range(arr.shape[1]):
            _, out[:, j] = np.unique(arr[:, j], return_inverse=True)
        cols.append(out)
    return np.concatenate(cols, axis=1)


def mutual_information_unique_rows(a, b) -> float:
    h_a = entropy_unique_rows(_ranked_columns(a))
    return h_a - (entropy_unique_rows(_ranked_columns(a, b))
                  - entropy_unique_rows(_ranked_columns(b)))


def cmi_unique_rows(a, b, z) -> float:
    return (
        entropy_unique_rows(_ranked_columns(a, z))
        + entropy_unique_rows(_ranked_columns(b, z))
        - entropy_unique_rows(_ranked_columns(a, b, z))
        - entropy_unique_rows(_ranked_columns(z))
    )


def discretize_by_quantile(values, n_bins: int, binning: str) -> np.ndarray:
    """``discretize`` with one ``np.quantile`` call for a cell's
    equal-frequency edges."""
    if binning != "equal_frequency" or not len(values):
        return discretize(values, n_bins, binning)
    edges = np.unique(np.quantile(values, np.linspace(0, 1, n_bins + 1)[1:-1]))
    return np.searchsorted(edges, values, side="right").astype(np.int64)


def cmi_scores_by_cell(c, cfg) -> tuple[np.ndarray, np.ndarray]:
    """(S, valid_counts) of CMI screening with each cell's samples gathered
    one patient at a time, greedy conditioning sets intersected as index
    lists and joint alphabets coded with ``np.unique(axis=0)``."""
    if not c.patients:
        raise DataError("cohort is empty")
    F, T = c.F, c.T
    S = np.zeros((F, T))
    counts = np.zeros((F, T), dtype=np.int64)
    for t in range(T):
        cell = {}
        for f in range(F):
            vals, labels, who = [], [], []
            for i, p in enumerate(c.patients):
                if t < p.stay_length and p.M[f, t] == 1.0:
                    vals.append(p.X[f, t])
                    labels.append(p.y[t])
                    who.append(i)
            vals, labels = np.asarray(vals), np.asarray(labels)
            counts[f, t] = len(vals)
            if len(vals) < MIN_VALID_SAMPLES:
                continue
            if c.schema.features[f].kind == "numeric":
                vals = discretize_by_quantile(vals, cfg.n_bins, cfg.binning)
            cell[f] = (vals, labels, np.asarray(who, dtype=np.int64))

        if cfg.conditioning == "none":
            for f, (vals, labels, _) in cell.items():
                S[f, t] = mutual_information_unique_rows(vals, labels)
            continue
        remaining = sorted(cell)
        selected = []
        while remaining:
            best_f, best_score = None, None
            for f in remaining:
                score = _greedy_score_by_lists(cell, f, selected[: cfg.max_conditioners])
                if best_score is None or score > best_score:
                    best_f, best_score = f, score
            S[best_f, t] = best_score
            selected.append(best_f)
            remaining.remove(best_f)
    return S, counts


def _greedy_score_by_lists(cell, f, conditioners) -> float:
    vals, labels, who = cell[f]
    if not conditioners:
        return mutual_information_unique_rows(vals, labels)
    common = who
    for g in conditioners:
        common = np.intersect1d(common, cell[g][2], assume_unique=True)
    if len(common) < MIN_VALID_SAMPLES:
        return mutual_information_unique_rows(vals, labels)
    pick = np.isin(who, common)
    z_cols = [cell[g][0][np.isin(cell[g][2], common)] for g in conditioners]
    return cmi_unique_rows(vals[pick], labels[pick], np.stack(z_cols, axis=1))


def cmi_scores_by_call(c, cfg, scope: str = "all") -> tuple[np.ndarray, np.ndarray]:
    """(S, valid_counts) of CMI screening with each (cell, round) score one
    call of ``mutual_information`` or ``conditional_mutual_information``,
    each of whose entropies ranks and counts its own sample."""
    picked = np.asarray(c.scope_indices(scope))
    F, T = c.F, c.T
    S = np.zeros((F, T))
    counts = np.zeros((F, T), dtype=np.int64)
    for t in range(T):
        X = c.X[picked, :, t]
        seen = c.M[picked, :, t] == 1.0
        y = _ranks(c.y[picked, t])[0]
        counts[:, t] = seen.sum(axis=0)
        scored = [f for f in range(F) if counts[f, t] >= MIN_VALID_SAMPLES]
        codes = np.zeros(X.shape, dtype=np.int64)
        for f in scored:
            if c.schema.features[f].kind == "numeric":
                codes[seen[:, f], f] = discretize_by_quantile(X[seen[:, f], f], cfg.n_bins,
                                                              cfg.binning)
            else:
                codes[seen[:, f], f] = _ranks(X[seen[:, f], f])[0]

        def score(f, conditioners):
            if conditioners:
                common = seen[:, [f, *conditioners]].all(axis=1)
                if common.sum() >= MIN_VALID_SAMPLES:
                    return conditional_mutual_information(
                        codes[common, f], y[common], codes[np.ix_(common, conditioners)]
                    )
            return mutual_information(codes[seen[:, f], f], y[seen[:, f]])

        full = cfg.max_conditioners if cfg.conditioning == "greedy_selected" else 0
        selected = []
        while scored:
            scores = [score(f, selected) for f in scored]
            if len(selected) == full:
                S[scored, t] = scores
                break
            best = int(np.argmax(scores))
            S[scored[best], t] = scores[best]
            selected.append(scored.pop(best))
    return S, counts


def write_long_csv_by_row(path, rows) -> None:
    """Long-CSV writer that formats each cell of each row on its own: a
    float (a numpy one too) as the ``repr`` of a finite Python float,
    ``None`` as an empty cell, anything else unchanged. A non-finite float is
    a FloatingPointError, and on any error the file is removed."""
    with open(path, "w", newline="") as fh:
        try:
            writer = csv.writer(fh)
            for row in rows:
                cells = []
                for v in row:
                    if isinstance(v, float):
                        v = float(v)
                        if not math.isfinite(v):
                            raise FloatingPointError(
                                f"{path}: non-finite value {v!r}; nothing written")
                        v = repr(v)
                    cells.append("" if v is None else v)
                writer.writerow(cells)
        except BaseException:
            fh.close()
            Path(path).unlink()
            raise


def save_cohort_by_patient(cohort: Cohort, data_path, schema_path) -> None:
    """Cohort CSV writer that walks the patient records and formats each
    numpy cell on its own: an integral value as an int, any other as repr."""

    def format_cell(value) -> str:
        if value == int(value):
            return str(int(value))
        return repr(float(value))

    save_schema(cohort.schema, schema_path)
    with open(data_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "t", "label"] + cohort.schema.names)
        for p in cohort.patients:
            for t in range(p.stay_length):
                row = [p.id, str(t + 1), str(int(p.y[t]))]
                for f in range(cohort.F):
                    row.append(format_cell(p.X[f, t]) if p.M[f, t] == 1.0 else "")
                writer.writerow(row)


def float_mask_product(patients) -> np.ndarray:
    """X⊙M of the records as every command formed it while a cohort kept its
    mask as float64: both fields stacked as float64 blocks and multiplied."""
    def block(field):
        return np.array([getattr(p, field) for p in patients], dtype=np.float64)
    return block("X") * block("M")


def load_cohort_by_cell(data_path, schema_path, T: int = DEFAULT_T) -> Cohort:
    """Cohort CSV reader that groups rows by patient id, sorts each patient's
    rows by day, skips rows with an empty label and parses each feature cell
    on its own."""
    schema, patients = load_records_by_cell(data_path, schema_path, T)
    return Cohort(schema=schema, patients=patients, T=T)


def load_records_by_cell(data_path, schema_path, T: int = DEFAULT_T):
    """The schema and the patient records, float64 mask included, that
    ``load_cohort_by_cell`` stacks into its cohort."""
    schema = load_schema(schema_path)
    expected = ["patient_id", "t", "label"] + schema.names
    rows_by_patient: dict[str, list[tuple[int, str, list[str]]]] = {}
    order: list[str] = []
    with open(data_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError("cohort file is empty")
        if header != expected:
            unknown = [h for h in header[3:] if h not in schema.names]
            if unknown:
                raise SchemaError(f"unknown feature columns: {unknown}")
            raise SchemaError("cohort header does not match schema feature order")
        for row in reader:
            if not row:
                continue
            pid, t_str, label = row[0], row[1], row[2]
            try:
                t = int(t_str)
            except ValueError as exc:
                raise DataError(f"non-integer time step {t_str!r}") from exc
            if not (1 <= t <= T):
                raise DataError(f"time step {t} outside 1..{T} for patient {pid}")
            if pid not in rows_by_patient:
                rows_by_patient[pid] = []
                order.append(pid)
            rows_by_patient[pid].append((t, label, row[3:]))

    patients = []
    for pid in order:
        rows = sorted(rows_by_patient[pid], key=lambda r: r[0])
        labeled = [(t, lab, cells) for t, lab, cells in rows if lab.strip() != ""]
        if not labeled:
            raise DataError(f"patient {pid} has no labeled days")
        stay = max(t for t, _, _ in labeled)
        X = np.zeros((schema.F, T))
        M = np.zeros((schema.F, T))
        y = np.zeros(T)
        for t, lab, cells in labeled:
            if lab not in ("0", "1"):
                raise DataError(f"patient {pid}: label must be 0 or 1, got {lab!r}")
            y[t - 1] = float(lab)
            for f, cell in enumerate(cells):
                if cell.strip() == "":
                    continue
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise DataError(
                        f"patient {pid}: bad value {cell!r} in {schema.names[f]}"
                    ) from exc
                if not math.isfinite(value):
                    raise DataError(
                        f"patient {pid}: non-finite value {cell!r} in {schema.names[f]}"
                    )
                if schema.features[f].kind == "binary" and value not in (0.0, 1.0):
                    raise DataError(
                        f"patient {pid}: non-binary value {value} in binary "
                        f"feature {schema.names[f]}"
                    )
                X[f, t - 1] = value
                M[f, t - 1] = 1.0
        patients.append(PatientRecord(id=pid, X=X, M=M, y=y, stay_length=stay))
    return schema, patients


def load_cohort_by_column(data_path, schema_path, T: int = DEFAULT_T) -> Cohort:
    """Cohort CSV reader that holds every cell of the file as a string, in one
    list per column, until the whole file is read, and then checks and parses
    each column at once, with the checks, order and messages of
    ``load_cohort``."""
    schema = load_schema(schema_path)
    header = ["patient_id", "t", "label"] + schema.names
    columns: list[list[str]] = [[] for _ in header]
    lines: list[int] = []  # the file line on which each row ends
    try:
        with open(data_path, newline="") as fh:
            reader = csv.reader(fh)
            got = next(reader, [])
            if got != header:
                raise SchemaError(f"{data_path}: header {got} is not {header}")
            for row in reader:
                if len(row) != len(header):
                    raise DataError(f"{data_path} line {reader.line_num}: {len(row)} cells, "
                                    f"expected {len(header)}")
                lines.append(reader.line_num)
                for column, cell in zip(columns, row):
                    column.append(cell)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{data_path} is not CSV text: {exc}") from exc

    def reject(bad, message) -> None:
        if bad.any():
            raise DataError(message(int(np.argmax(bad))))

    ids, days, labels = (np.array(c, dtype=object) for c in columns[:3])
    start = np.flatnonzero(np.r_[len(ids) > 0, ids[1:] != ids[:-1]])  # a block per patient
    stay = np.diff(np.r_[start, len(ids)])
    patient = np.repeat(np.arange(len(start)), stay)
    day = np.arange(len(ids)) - start[patient] + 1
    reject(ids == "", lambda r: f"cohort line {lines[r]}: empty patient_id")
    block_ids, blocks = np.unique(ids[start], return_counts=True)
    reject(blocks > 1, lambda i: f"patient {block_ids[i]}: rows are not one block")
    due = np.array([str(d) for d in range(stay.max(initial=0) + 1)], dtype=object)[day]
    reject(days != due,
           lambda r: f"patient {ids[r]}: time step {days[r]!r} where day {day[r]} is due")
    reject(day > T, lambda r: f"time step {day[r]} outside 1..{T} for patient {ids[r]}")
    reject((labels != "0") & (labels != "1"),
           lambda r: f"patient {ids[r]}: label must be 0 or 1, got {labels[r]!r}")

    X = np.zeros((len(start), schema.F, T))
    M = np.zeros(X.shape, dtype=bool)
    y = np.zeros((len(start), T))
    y[patient, day - 1] = labels == "1"
    for f, feature in enumerate(schema.features):
        cells = np.array(columns[3 + f], dtype=object)
        seen = np.flatnonzero(cells != "")
        try:
            values = cells[seen].astype(np.float64)
        except ValueError as exc:
            raise DataError(f"bad value in {feature.name}: {exc}") from exc
        binary = feature.kind == "binary"
        reject(~np.isfinite(values) | (binary & ~np.isin(values, (0.0, 1.0))),
               lambda i: f"patient {ids[seen[i]]} day {day[seen[i]]}: "
                         f"{'non-binary' if np.isfinite(values[i]) else 'non-finite'} "
                         f"value {cells[seen[i]]!r} in {feature.name}")
        X[patient[seen], f, day[seen] - 1] = values
        M[patient[seen], f, day[seen] - 1] = True
    return Cohort.from_blocks(schema, T, X, M, y, stay, ids[start])._validate()


def synth_cohort_by_patient(cfg: SynthConfig) -> Cohort:
    """``synth_cohort`` with each patient's arrays built as a record of its
    own and the records stacked into a cohort afterwards."""
    return Cohort(schema=synth_schema(cfg), patients=synth_records_by_patient(cfg), T=cfg.T)


def synth_records_by_patient(cfg: SynthConfig) -> list[PatientRecord]:
    """The patient records, float64 mask included, that
    ``synth_cohort_by_patient`` stacks into its cohort."""
    schema = synth_schema(cfg)
    F, T, n = schema.F, cfg.T, cfg.n_patients
    stream = RngStream(cfg.seed)
    g_stay = stream.child(0).generator()
    g_pc = stream.child(1).generator()
    g_label = stream.child(2).generator()
    g_feat = stream.child(3).generator()
    g_mask = stream.child(4).generator()

    stays = np.clip(1 + g_stay.poisson(max(cfg.mean_stay - 1.0, 0.0), size=n), 1, T)

    n_pc = cfg.n_previous_culture
    active = g_pc.random((n, n_pc)) < 0.35
    onset = np.where(g_pc.random((n, n_pc)) < 0.7, 1, 2)
    signal = active.sum(axis=1).astype(np.float64)

    std = float(signal.std())
    if cfg.signal_strength > 0 and std > 0:
        scores = cfg.signal_strength * (signal - signal.mean()) / std
    else:
        scores = np.zeros(n)
    if cfg.mdr_fraction <= 0.0:
        p = np.zeros(n)
    else:
        p = sigmoid(scores + _calibrate_intercept(scores, cfg.mdr_fraction))
    positive = g_label.random(n) < p
    culture_geom = g_label.geometric(0.6, size=n)

    pc_idx = schema.group_indices("previous_culture")
    abx_idx = schema.group_indices("antibiotic")
    env_idx = schema.group_indices("environment")
    care_idx = schema.group_indices("care")

    patients = []
    for i in range(n):
        stay = int(stays[i])
        X = np.zeros((F, T))
        for j, f in enumerate(pc_idx):
            if active[i, j]:
                start = min(int(onset[i, j]), stay)
                X[f, start - 1 : stay] = 1.0
        for f in abx_idx:
            for _ in range(int(g_feat.integers(1, 3))):
                start = int(g_feat.integers(1, stay + 1))
                dur = int(g_feat.geometric(0.4))
                X[f, start - 1 : min(start - 1 + dur, stay)] = 1.0
        for f in env_idx:
            X[f, :stay] = g_feat.poisson(3.0, size=stay).astype(np.float64)
        for f in care_idx:
            if schema.features[f].kind == "binary":
                X[f, :stay] = (g_feat.random(stay) < 0.3).astype(np.float64)
            else:
                X[f, :stay] = np.round(g_feat.gamma(2.0, 1.5, size=stay), 3)

        if positive[i]:
            culture_day = int(min(culture_geom[i], stay))
            y = build_labels(culture_day, stay, T)
        else:
            y = build_labels(None, stay, T)

        M = np.zeros((F, T))
        M[:, :stay] = 1.0
        if cfg.missing_rate > 0:
            drop = g_mask.random((F, stay)) < cfg.missing_rate
            M[:, :stay][drop] = 0.0
        X = X * M  # missing cells store 0 by construction

        patients.append(
            PatientRecord(id=f"p{i:05d}", X=X, M=M, y=y, stay_length=stay)
        )
    return patients


def fit_sequential(train_c, val_c, lr, dropout, H, cfg, rng, use_attention):
    """One training run on its own: every batch through the unstacked
    kernel, and a training-loss forward over the whole training set after
    every epoch. Returns the best-validation-epoch (gru, att) and the
    history."""
    F = train_c.F
    gru, att = init_params(F, H, rng.child(0), use_attention)
    beta = compute_class_weights(train_c)
    Xtr, Mtr, ytr, vtr = train_c.stacked()
    Xin_tr = Xtr * Mtr
    Xva, Mva, yva, vva = val_c.stacked()
    Xin_va = Xva * Mva
    n = Xin_tr.shape[0]
    T = train_c.T

    shuffle_gen = rng.child(1).generator()
    drop_gen = rng.child(2).generator()

    best = None  # (val_loss, gru copy, att copy, epoch)
    history = {"train_loss": [], "val_loss": []}
    since_best = 0
    for epoch in range(cfg.max_epochs):
        order = shuffle_gen.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            Xb, yb, vb = Xin_tr[idx], ytr[idx], vtr[idx]
            if dropout > 0.0:
                keep = (drop_gen.random((len(idx), H, T)) >= dropout) / (1.0 - dropout)
            else:
                keep = None
            _, cache = _forward_core(Xb, gru, att, dropout_mask=keep, want_cache=True)
            grads = _backward_core(cache, gru, att, yb, vb, beta.beta, dropout_mask=keep)
            for name in GRU_ARRAYS[:-1]:
                param = getattr(gru, name)
                param -= lr * grads[name]
            gru.b_out -= lr * float(grads["b_out"])
            if att is not None:
                att.W -= lr * grads["att_W"]
                att.b -= lr * grads["att_b"]

        train_loss = tbbce(_forward_core(Xin_tr, gru, att), ytr, vtr, beta)
        val_loss = tbbce(_forward_core(Xin_va, gru, att), yva, vva, beta)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise FloatingPointError(
                f"non-finite loss at epoch {epoch + 1}: train {train_loss}, "
                f"validation {val_loss}"
            )
        history["train_loss"].append(train_loss)
        history["val_loss"].append(val_loss)

        if best is None or val_loss < best[0]:
            best = (val_loss, copy.deepcopy(gru), copy.deepcopy(att), epoch)
            since_best = 0
        else:
            since_best += 1
            if since_best > cfg.patience:
                break

    history["best_epoch"] = best[3]
    history["best_val_loss"] = best[0]
    return best[1], best[2], history


def kfold_cohorts(c, k, rng):
    """k patient-disjoint folds stratified by whether a patient ever turns
    positive, each a (train, validation) pair of cohort copies."""
    gen = rng.generator()
    positive = c.y.any(axis=1)
    pos, neg = np.flatnonzero(positive), np.flatnonzero(~positive)
    order = np.concatenate([pos[gen.permutation(len(pos))], neg[gen.permutation(len(neg))]])
    fold = np.arange(len(order)) % k
    return [(c.subset(np.sort(order[fold != i])), c.subset(np.sort(order[fold == i])))
            for i in range(k)]


def train_sequential(train_cohort, cfg, use_attention):
    """``train`` with every grid point × fold CV fit and the final fit run
    one after another through ``fit_sequential``."""
    points = cfg.grid_points()
    rng = RngStream(cfg.seed)
    best_point = None
    best_score = None
    if len(points) == 1:
        best_point = points[0]
    else:
        for gi, (lr, dr, H) in enumerate(points):
            folds = kfold_cohorts(train_cohort, cfg.cv_folds, rng.child(1, gi))
            scores = []
            for fi, (ftrain, fval) in enumerate(folds):
                _, _, hist = fit_sequential(
                    ftrain, fval, lr, dr, H, cfg, rng.child(2, gi, fi), use_attention
                )
                scores.append(hist["best_val_loss"])
            mean_score = float(np.mean(scores))
            if best_score is None or mean_score < best_score:
                best_score = mean_score
                best_point = (lr, dr, H)

    lr, dr, H = best_point
    inner_train, inner_val = split_train_test(train_cohort, 0.8, rng.child(3))
    gru, att, history = fit_sequential(
        inner_train, inner_val, lr, dr, H, cfg, rng.child(4), use_attention
    )
    history["selected"] = {"learning_rate": lr, "dropout_rate": dr, "hidden_size": H}
    return TrainedModel(
        gru=gru,
        attention=att,
        schema_fingerprint=schema_fingerprint(train_cohort.schema),
        history=history,
        threshold=cfg.threshold,
    )
