"""Masked GRU temporal classifier with optional per-variable attention.

The recurrence (single hidden layer, per-step sigmoid readout):

    z_t = sigmoid(W_z [x_t, h_{t-1}] + b_z)
    r_t = sigmoid(W_r [x_t, h_{t-1}] + b_r)
    hc_t = tanh(W_h [r_t * h_{t-1}, x_t] + b_h)
    h_t = (1 - z_t) * hc_t + z_t * h_{t-1}
    yhat_t = sigmoid(w_out . h_t + b_out)

Inputs are consumed through the validity mask: x_t is a column of X * M
(and additionally of the attention matrix A when attention is enabled, with
A computed from the masked input so stored values at masked cells can never
influence the output). Training minimizes the per-step class-balanced binary
cross entropy with exact reverse-mode gradients through time, plain SGD,
5-fold CV over the hyperparameter grid, and early stopping. The kernel takes
optional leading model axes, so the CV fits of one hidden size train in
lockstep as one stack, each with the bits it would have on its own.
"""

from __future__ import annotations

import copy
import hashlib
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import ClassWeights, Cohort, FeatureSchema, compute_class_weights, kfold, split_train_test
from .errors import ConfigError, DataError, ShapeError, is_finite_real, is_integer
from .numerics import RngStream, sigmoid, softmax, softmax_axis

EPS = 1e-7


# the GRUParams arrays in field and checkpoint order; b_out is a Python float
GRU_ARRAYS = ("W_z", "W_r", "W_h", "b_z", "b_r", "b_h", "W_out", "b_out")


@dataclass
class GRUParams:
    W_z: np.ndarray  # (H, F+H), gate input [x, h_prev]
    W_r: np.ndarray  # (H, F+H)
    W_h: np.ndarray  # (H, H+F), candidate input [r*h_prev, x]
    b_z: np.ndarray  # (H,)
    b_r: np.ndarray
    b_h: np.ndarray
    W_out: np.ndarray  # (H,)
    b_out: float
    hidden_size: int

    @property
    def n_features(self) -> int:
        return self.W_z.shape[-1] - self.hidden_size


@dataclass
class AttentionParams:
    W: np.ndarray  # (F, F)
    b: np.ndarray  # (F,)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.25
    dropout_rate: float = 0.0
    hidden_size: int = 8
    max_epochs: int = 40
    patience: int = 5
    batch_size: int = 64
    seed: int = 0
    cv_folds: int = 5
    threshold: float = 0.5
    grid_learning_rates: Optional[tuple[float, ...]] = None
    grid_dropout_rates: Optional[tuple[float, ...]] = None
    grid_hidden_sizes: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        for lr in (self.learning_rate, *(self.grid_learning_rates or ())):
            if not (is_finite_real(lr) and lr > 0):
                raise ConfigError(f"learning rates must be finite and positive, got {lr!r}")
        for dr in (self.dropout_rate, *(self.grid_dropout_rates or ())):
            if not (is_finite_real(dr) and 0.0 <= dr < 1.0):
                raise ConfigError(f"dropout rates must be in [0, 1), got {dr!r}")
        counts = [("hidden_size", self.hidden_size, 1), ("max_epochs", self.max_epochs, 1),
                  ("patience", self.patience, 0), ("batch_size", self.batch_size, 1),
                  ("seed", self.seed, 0), ("cv_folds", self.cv_folds, 2)]
        counts += [("grid hidden_sizes", h, 1) for h in self.grid_hidden_sizes or ()]
        for name, value, least in counts:
            if not (is_integer(value) and value >= least):
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if not is_finite_real(self.threshold):
            raise ConfigError(f"threshold must be a finite number, got {self.threshold!r}")

    def grid_points(self) -> list[tuple[float, float, int]]:
        lrs = self.grid_learning_rates
        drs = self.grid_dropout_rates
        hss = self.grid_hidden_sizes
        if lrs is None:
            lrs = (self.learning_rate,)
        if drs is None:
            drs = (self.dropout_rate,)
        if hss is None:
            hss = (self.hidden_size,)
        points = list(itertools.product(lrs, drs, hss))
        if not points:
            raise ConfigError("hyperparameter grid is empty")
        return points


@dataclass
class TrainedModel:
    gru: GRUParams
    attention: Optional[AttentionParams]
    schema_fingerprint: str
    history: dict = field(default_factory=dict)
    threshold: float = 0.5


def schema_fingerprint(schema: FeatureSchema) -> str:
    text = ";".join(f"{f.name},{f.kind},{f.group}" for f in schema.features)
    return hashlib.sha256(text.encode()).hexdigest()


def init_params(
    F: int, H: int, rng: RngStream, use_attention: bool
) -> tuple[GRUParams, Optional[AttentionParams]]:
    gen = rng.generator()
    scale = 1.0 / np.sqrt(F + H)
    gru = GRUParams(
        W_z=gen.uniform(-scale, scale, (H, F + H)),
        W_r=gen.uniform(-scale, scale, (H, F + H)),
        W_h=gen.uniform(-scale, scale, (H, H + F)),
        b_z=np.zeros(H),
        b_r=np.zeros(H),
        b_h=np.zeros(H),
        W_out=gen.uniform(-1.0 / np.sqrt(H), 1.0 / np.sqrt(H), H),
        b_out=0.0,
        hidden_size=H,
    )
    att = None
    if use_attention:
        # zero init makes the initial attention exactly uniform, so training
        # raises mass on informative features instead of whichever the random
        # draw happened to favor
        att = AttentionParams(W=np.zeros((F, F)), b=np.zeros(F))
    return gru, att


def attention_matrix(X: np.ndarray, a: AttentionParams) -> np.ndarray:
    """Per-column softmax over features of the affine map W X + b, for one
    patient's X (F, T) or for each row of a cohort's block (n, F, T)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-2] != a.W.shape[1]:
        raise ShapeError(f"X must be ({a.W.shape[1]}, T) or (n, {a.W.shape[1]}, T)")
    return softmax_axis(a.W @ X + a.b[:, None], axis="cols")


def _each_model(subscripts: str, a: np.ndarray, b: np.ndarray, shape: tuple) -> np.ndarray:
    """``np.einsum(subscripts, a, b)`` for each model stacked on the leading
    axes of ``b`` (whose last three axes are n, F, T), into an array of
    ``shape``. One call per model keeps each model's summation order, which
    one einsum over the stack is not known to keep."""
    lead = b.shape[:-3]
    out = np.empty(shape)
    for a_m, b_m, out_m in zip(a.reshape((-1,) + a.shape[len(lead):]),
                               b.reshape((-1,) + b.shape[-3:]),
                               out.reshape((-1,) + shape[len(lead):])):
        np.einsum(subscripts, a_m, b_m, out=out_m)
    return out


def _forward_core(
    Xin: np.ndarray,
    gru: GRUParams,
    att: Optional[AttentionParams],
    dropout_mask: Optional[np.ndarray] = None,
    want_cache: bool = False,
):
    """Batched forward over prepared inputs Xin (..., n, F, T).

    Xin is the assembled model input (masked original data, or a coalition
    perturbation); masking is the caller's responsibility. Leading axes, if
    any, index models trained side by side: every parameter array then has
    the same leading axes (``b_out`` one value per model), and each model's
    slice of the result has the bits that a call on its slice alone gives.
    Returns yhat (..., n, T) and, if requested, the activation cache for
    the backward pass.
    """
    lead = Xin.shape[:-3]
    n, F, T = Xin.shape[-3:]
    H = gru.hidden_size
    if att is not None:
        pre = _each_model("fg,ngt->nft", att.W, Xin, Xin.shape)
        pre += att.b[..., None, :, None]
        A = softmax(pre, axis=-2)  # over features, as in attention_matrix
        Xeff = Xin * A
    else:
        A = None
        Xeff = Xin

    # Both gates share one pre-activation buffer and one sigmoid call; each
    # keeps its own matmul, since one stacked (F+H, 2H) matmul changes the
    # BLAS kernel, and so the bits, for hidden_size 1. The gate inputs [x, h]
    # and candidate inputs [r*h, x] are filled into buffers, kept for every
    # step when the backward pass needs them and reused otherwise, so wide
    # inference batches allocate no (T, n, .) arrays. numpy runs a matmul
    # over leading axes as one BLAS call per model on that model's strides,
    # so stacking models leaves each one's bits as they are.
    W_zT, W_rT, W_hT = (np.swapaxes(w, -1, -2) for w in (gru.W_z, gru.W_r, gru.W_h))
    W_out = gru.W_out[..., None]
    zr_pre = np.empty(lead + (n, 2 * H))
    b_zr = np.concatenate([gru.b_z, gru.b_r], axis=-1)[..., None, :]
    steps = T if want_cache else 1
    cat1 = np.empty((steps,) + lead + (n, F + H))
    cat2 = np.empty((steps,) + lead + (n, H + F))
    logits = np.empty(lead + (n, T))
    h = np.zeros(lead + (n, H))
    zr_all, hc_all, h_out_all = [], [], []
    for t in range(T):
        c1 = cat1[t if want_cache else 0]
        c2 = cat2[t if want_cache else 0]
        c1[..., :F] = Xeff[..., t]
        c1[..., F:] = h
        np.matmul(c1, W_zT, out=zr_pre[..., :H])
        np.matmul(c1, W_rT, out=zr_pre[..., H:])
        zr_pre += b_zr
        zr = sigmoid(zr_pre)
        np.multiply(zr[..., H:], h, out=c2[..., :H])
        c2[..., H:] = c1[..., :F]
        hc = c2 @ W_hT
        hc += gru.b_h[..., None, :]
        np.tanh(hc, out=hc)
        h_new = (1.0 - zr[..., :H]) * hc + zr[..., :H] * h
        h_out = h_new if dropout_mask is None else h_new * dropout_mask[..., t]
        logits[..., t] = (h_out @ W_out)[..., 0]
        if want_cache:
            zr_all.append(zr)
            hc_all.append(hc)
            h_out_all.append(h_out)
        h = h_new
    logits += np.asarray(gru.b_out)[..., None, None]
    yhat = sigmoid(logits)
    if want_cache:
        cache = {"cat1": cat1, "cat2": cat2, "zr": zr_all, "hc": hc_all,
                 "h_out": h_out_all, "A": A, "Xin": Xin, "yhat": yhat}
        return yhat, cache
    return yhat


def forward_prepared(
    Xin: np.ndarray, gru: GRUParams, att: Optional[AttentionParams]
) -> np.ndarray:
    """Run the classifier on pre-assembled inputs (n, F, T) -> yhat (n, T)."""
    Xin = np.asarray(Xin, dtype=np.float64)
    if Xin.ndim != 3:
        raise ShapeError("expected a batch of shape (n, F, T)")
    return _forward_core(Xin, gru, att)


def forward(X: np.ndarray, M: np.ndarray, model: TrainedModel) -> np.ndarray:
    """Predict per-step probabilities for one patient; consumers apply
    validity masks to the returned length-T vector."""
    X = np.asarray(X, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    if X.shape != M.shape or X.ndim != 2:
        raise ShapeError("X and M must both be (F, T)")
    if X.shape[0] != model.gru.n_features:
        raise ShapeError(
            f"expected {model.gru.n_features} features, got {X.shape[0]}"
        )
    return _forward_core((X * M)[None], model.gru, model.attention)[0]


def tbbce(
    yhat: np.ndarray,
    y: np.ndarray,
    valid: np.ndarray,
    beta: ClassWeights,
) -> float:
    """Class-balanced BCE in nats, averaged over valid (patient, step) pairs."""
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if yhat.shape != y.shape or yhat.shape != valid.shape:
        raise ShapeError("yhat, y, valid must share shape (n, T)")
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise DataError("no valid (patient, step) pairs in batch")
    p = np.clip(yhat, EPS, 1.0 - EPS)
    b = beta.beta[None, :]
    terms = b * y * np.log(p) + (1.0 - b) * (1.0 - y) * np.log(1.0 - p)
    return float(-np.sum(terms[valid]) / n_valid)


def _loss_grad_yhat(
    yhat: np.ndarray, y: np.ndarray, valid: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """d tbbce / d yhat for arrays (..., n, T), beta (..., T): each model on
    the leading axes averages over its own valid pairs."""
    n_valid = valid.sum(axis=(-2, -1))[..., None, None]
    p = np.clip(yhat, EPS, 1.0 - EPS)
    b = beta[..., None, :]
    g = -(b * y / p - (1.0 - b) * (1.0 - y) / (1.0 - p)) / n_valid
    g = np.where(valid, g, 0.0)
    return g


def _backward_core(
    cache: dict,
    gru: GRUParams,
    att: Optional[AttentionParams],
    y: np.ndarray,
    valid: np.ndarray,
    beta: np.ndarray,
    dropout_mask: Optional[np.ndarray] = None,
) -> dict:
    """Gradients of each stacked model's loss, with the leading axes of
    ``_forward_core``; ``b_out``'s gradient has the leading shape."""
    yhat = cache["yhat"]
    lead = yhat.shape[:-2]
    n, T = yhat.shape[-2:]
    H = gru.hidden_size
    F = gru.n_features

    grads = {name: np.zeros_like(getattr(gru, name)) for name in GRU_ARRAYS[:-1]}
    grads["b_out"] = np.zeros(lead)
    dyhat = _loss_grad_yhat(yhat, y, valid, beta)
    do_all = dyhat * yhat * (1.0 - yhat)

    cat1, cat2 = cache["cat1"], cache["cat2"]
    W_out = gru.W_out[..., None, :]
    # the input gradient only feeds the attention parameters
    dXeff = np.zeros(lead + (n, F, T)) if att is not None else None
    dh_next = np.zeros(lead + (n, H))
    for t in range(T - 1, -1, -1):
        do = do_all[..., t]
        h_out = cache["h_out"][t]
        grads["W_out"] += (do[..., None, :] @ h_out)[..., 0, :]
        grads["b_out"] += do.sum(axis=-1)
        dh_from_out = do[..., None] * W_out
        if dropout_mask is not None:
            dh_from_out = dh_from_out * dropout_mask[..., t]
        dh = dh_next + dh_from_out

        c1, c2 = cat1[t], cat2[t]
        h_prev = c1[..., F:]
        zr = cache["zr"][t]
        z, r = zr[..., :H], zr[..., H:]
        hc = cache["hc"][t]
        omz = 1.0 - z

        dz = dh * (h_prev - hc)
        dhc = dh * omz
        dh_prev = dh * z

        dahc = dhc * (1.0 - hc * hc)
        grads["W_h"] += np.swapaxes(dahc, -1, -2) @ c2
        grads["b_h"] += dahc.sum(axis=-2)
        dcat2 = dahc @ gru.W_h
        drh = dcat2[..., :H]
        dr = drh * h_prev
        dh_prev += drh * r

        dar = dr * r * (1.0 - r)
        daz = dz * z * omz
        grads["W_r"] += np.swapaxes(dar, -1, -2) @ c1
        grads["b_r"] += dar.sum(axis=-2)
        grads["W_z"] += np.swapaxes(daz, -1, -2) @ c1
        grads["b_z"] += daz.sum(axis=-2)
        dcat1 = dar @ gru.W_r + daz @ gru.W_z
        dh_prev += dcat1[..., F:]

        if dXeff is not None:
            np.add(dcat2[..., H:], dcat1[..., :F], out=dXeff[..., t])
        dh_next = dh_prev

    if att is not None:
        A = cache["A"]
        Xin = cache["Xin"]
        # softmax over the feature axis, per (patient, step) column; dA and
        # then dpre = A * (dA - inner) are formed in dXeff's buffer
        dA = np.multiply(dXeff, Xin, out=dXeff)
        inner = np.sum(dA * A, axis=-2, keepdims=True)
        dpre = np.multiply(np.subtract(dA, inner, out=dA), A, out=dA)
        grads["att_W"] = _each_model("nft,ngt->fg", dpre, Xin, lead + (F, F))
        grads["att_b"] = dpre.sum(axis=(-3, -1))
    return grads


def backward(
    batch: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    model: TrainedModel,
    beta: ClassWeights,
) -> dict:
    """Exact TBBCE gradients for all parameters on a batch (X, M, y, valid)."""
    X, M, y, valid = batch
    Xin = np.asarray(X, dtype=np.float64) * np.asarray(M, dtype=np.float64)
    _, cache = _forward_core(Xin, model.gru, model.attention, want_cache=True)
    grads = _backward_core(
        cache, model.gru, model.attention, np.asarray(y, dtype=np.float64),
        np.asarray(valid, dtype=bool), beta.beta,
    )
    grads["b_out"] = float(grads["b_out"])
    return grads


def _stack(models: list[tuple[GRUParams, Optional[AttentionParams]]]):
    """One (gru, att) whose arrays hold the models on a leading axis."""
    grus = [g for g, _ in models]
    gru = GRUParams(*(np.array([getattr(g, name) for g in grus]) for name in GRU_ARRAYS),
                    hidden_size=grus[0].hidden_size)
    if models[0][1] is None:
        return gru, None
    return gru, AttentionParams(np.array([a.W for _, a in models]),
                                np.array([a.b for _, a in models]))


def _take(gru: GRUParams, att: Optional[AttentionParams], sel):
    """The stacked models at ``sel``: one model for an integer (views, with
    unstacked shapes), a stack of views for a slice, a copy for an array."""
    taken = GRUParams(*(getattr(gru, name)[sel] for name in GRU_ARRAYS),
                      hidden_size=gru.hidden_size)
    return taken, None if att is None else AttentionParams(att.W[sel], att.b[sel])


def _apply_grads(gru: GRUParams, att: Optional[AttentionParams], grads: dict,
                 lr: np.ndarray, sel) -> None:
    """One SGD step of the stacked models at ``sel``, each at its rate in lr."""
    pairs = [(getattr(gru, name), grads[name]) for name in GRU_ARRAYS]
    if att is not None:
        pairs += [(att.W, grads["att_W"]), (att.b, grads["att_b"])]
    for param, grad in pairs:
        param[sel] -= lr.reshape(lr.shape + (1,) * (grad.ndim - 1)) * grad


def _epoch_loss(Xin, y, valid, gru, att, beta) -> float:
    yhat = _forward_core(Xin, gru, att)
    return tbbce(yhat, y, valid, beta)


class _Fit:
    """One training run: its masked inputs, labels, class weights and
    hyperparameters, its random streams (init, shuffle and dropout are
    children 0, 1 and 2 of ``rng``) and its early-stopping state. ``label``
    names the run in errors; only a run with ``record_train`` computes its
    training loss after every epoch."""

    def __init__(self, train_c: Cohort, val_c: Cohort, lr: float, dropout: float, H: int,
                 rng: RngStream, label: str, record_train: bool = False):
        _, _, self.y, self.valid = train_c.stacked()
        self.Xin = train_c.X * train_c.M
        _, _, y_va, valid_va = val_c.stacked()
        self.val = (val_c.X * val_c.M, y_va, valid_va)
        self.beta = compute_class_weights(train_c)
        self.lr, self.dropout, self.H = lr, dropout, H
        self.rng, self.label, self.record_train = rng, label, record_train
        self.shuffle = rng.child(1).generator()
        self.drop = rng.child(2).generator()
        self.history = {"train_loss": [], "val_loss": []} if record_train else {"val_loss": []}
        self.best = None  # (val_loss, gru copy, att copy, epoch)
        self.since_best = 0

    def dropout_mask(self, rows: int, T: int) -> np.ndarray:
        """The inverted-dropout keep mask of one batch; all ones at rate 0,
        where nothing is drawn."""
        if self.dropout == 0.0:
            return np.ones((rows, self.H, T))
        return (self.drop.random((rows, self.H, T)) >= self.dropout) / (1.0 - self.dropout)


def _fit(
    fits: list[_Fit], cfg: TrainConfig, use_attention: bool
) -> list[tuple[GRUParams, Optional[AttentionParams], dict]]:
    """Train runs of one hidden size in lockstep, each with its own data,
    step size, dropout rate, random streams and early stopping, and return
    each run's best-validation-epoch parameters and history.

    The live runs' parameters are stacked on a leading axis. Within an epoch
    batch k of every live run is stepped together, one kernel call per
    batch row count, since runs with fewer rows have smaller last batches.
    A run that stops early leaves the stack. Each run's slice has the bits
    it would have if the run were trained on its own.
    """
    H = fits[0].H
    T = fits[0].y.shape[1]
    gru, att = _stack([init_params(f.Xin.shape[1], H, f.rng.child(0), use_attention)
                       for f in fits])
    lrs = np.array([f.lr for f in fits])
    betas = np.array([f.beta.beta for f in fits])
    live = list(fits)  # the run at each stack position
    for epoch in range(cfg.max_epochs):
        orders = [f.shuffle.permutation(len(f.Xin)) for f in live]
        for start in range(0, max(map(len, orders)), cfg.batch_size):
            batches = [order[start : start + cfg.batch_size] for order in orders]
            for rows in sorted({len(idx) for idx in batches} - {0}):
                pos = [j for j, idx in enumerate(batches) if len(idx) == rows]
                sel = slice(None) if len(pos) == len(live) else np.array(pos)
                runs = [(live[j], batches[j]) for j in pos]
                keep = (np.array([f.dropout_mask(rows, T) for f, _ in runs])
                        if any(f.dropout > 0.0 for f, _ in runs) else None)
                g, a = _take(gru, att, sel)
                Xb = np.array([f.Xin[idx] for f, idx in runs])
                # no cache outlives its step: a stack's cache is G models large
                grads = _backward_core(
                    _forward_core(Xb, g, a, dropout_mask=keep, want_cache=True)[1], g, a,
                    np.array([f.y[idx] for f, idx in runs]),
                    np.array([f.valid[idx] for f, idx in runs]), betas[sel],
                    dropout_mask=keep)
                _apply_grads(gru, att, grads, lrs[sel], sel)

        stay = []
        for j, f in enumerate(live):
            g, a = _take(gru, att, j)
            losses = {}
            if f.record_train:
                losses["train_loss"] = _epoch_loss(f.Xin, f.y, f.valid, g, a, f.beta)
            losses["val_loss"] = val_loss = _epoch_loss(*f.val, g, a, f.beta)
            if not all(map(math.isfinite, losses.values())):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch + 1} of the {f.label}: "
                    + ", ".join(f"{key} {value}" for key, value in losses.items())
                )
            for key, value in losses.items():
                f.history[key].append(value)
            if f.best is None or val_loss < f.best[0]:
                f.best = (val_loss, *copy.deepcopy((g, a)), epoch)
                f.since_best = 0
            else:
                f.since_best += 1
            if f.since_best <= cfg.patience:
                stay.append(j)
        if len(stay) < len(live):
            if not stay:
                break
            gru, att = _take(gru, att, np.array(stay))
            lrs, betas = lrs[stay], betas[stay]
            live = [live[j] for j in stay]

    results = []
    for f in fits:
        val_loss, g, a, epoch = f.best
        g.b_out = float(g.b_out)
        results.append((g, a, {**f.history, "best_epoch": epoch, "best_val_loss": val_loss}))
    return results


def _cv_select(train_cohort: Cohort, points: list, cfg: TrainConfig, rng: RngStream,
               use_attention: bool) -> tuple[float, float, int]:
    """The grid point with the lowest mean best validation loss over the
    folds (the first on ties). The CV fits of one hidden size train in
    lockstep and record only validation losses."""
    cv = {(gi, fi): _Fit(ftrain, fval, lr, dr, H, rng.child(2, gi, fi),
                         f"CV fit of grid point {gi + 1}, fold {fi + 1}")
          for gi, (lr, dr, H) in enumerate(points)
          for fi, (ftrain, fval) in enumerate(kfold(train_cohort, cfg.cv_folds,
                                                    rng.child(1, gi)))}
    for H in dict.fromkeys(H for _, _, H in points):
        _fit([f for f in cv.values() if f.H == H], cfg, use_attention)
    means = [float(np.mean([cv[gi, fi].best[0] for fi in range(cfg.cv_folds)]))
             for gi in range(len(points))]
    return points[means.index(min(means))]


def train(train_cohort: Cohort, cfg: TrainConfig, use_attention: bool) -> TrainedModel:
    """Grid-search hyperparameters with k-fold CV on the balanced loss, then
    retrain on the full training set with an internal 80/20 early-stopping
    split and restore the best-validation-epoch parameters."""
    if not train_cohort.ids.size:
        raise DataError("training cohort is empty")
    points = cfg.grid_points()
    rng = RngStream(cfg.seed)
    best_point = points[0]
    if len(points) > 1:
        best_point = _cv_select(train_cohort, points, cfg, rng, use_attention)

    lr, dr, H = best_point
    inner_train, inner_val = split_train_test(train_cohort, 0.8, rng.child(3))
    final = _Fit(inner_train, inner_val, lr, dr, H, rng.child(4), "final fit", record_train=True)
    [(gru, att, history)] = _fit([final], cfg, use_attention)
    history["selected"] = {"learning_rate": lr, "dropout_rate": dr, "hidden_size": H}
    return TrainedModel(
        gru=gru,
        attention=att,
        schema_fingerprint=schema_fingerprint(train_cohort.schema),
        history=history,
        threshold=cfg.threshold,
    )


# ---------------------------------------------------------------------------
# Checkpoint I/O: deterministic text format with hex floats (bit-exact).
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "tsxplain-checkpoint-v1"


def _layout(F: int, H: int, attention: bool) -> list[tuple[str, int, int]]:
    """The checkpoint arrays in file order with their (rows, cols); a vector
    is stored as one row and the scalar ``b_out`` as a 1x1 array."""
    shapes = [(H, F + H), (H, F + H), (H, H + F), (1, H), (1, H), (1, H), (1, H), (1, 1)]
    layout = [(name, r, c) for name, (r, c) in zip(GRU_ARRAYS, shapes)]
    if attention:
        layout += [("att_W", F, F), ("att_b", 1, F)]
    return layout


def save_model(model: TrainedModel, path) -> None:
    gru, att = model.gru, model.attention
    out = io.StringIO()
    out.write(f"{CHECKPOINT_MAGIC}\n")
    out.write(f"schema_fingerprint {model.schema_fingerprint}\n")
    out.write(f"hidden_size {gru.hidden_size}\n")
    out.write(f"threshold {float.hex(float(model.threshold))}\n")
    out.write(f"attention {1 if att is not None else 0}\n")
    layout = _layout(gru.n_features, gru.hidden_size, att is not None)
    params = [getattr(gru, name) for name in GRU_ARRAYS] + ([att.W, att.b] if att else [])
    for (name, r, c), value in zip(layout, params):
        out.write(f"array {name} {r} {c}\n")
        for row in np.reshape(value, (r, c)):
            out.write(" ".join(float.hex(float(v)) for v in row) + "\n")
    for key in ("train_loss", "val_loss"):
        values = (model.history or {}).get(key, [])
        out.write(f"history {key} " + " ".join(float.hex(float(v)) for v in values) + "\n")
    with open(path, "w") as fh:
        fh.write(out.getvalue())


def load_model(path) -> TrainedModel:
    """Read a checkpoint written by ``save_model``, line for line: the magic
    and header lines, each array of the layout, the two history lines, then
    the end of the file. A file that does not start with the magic line
    raises ``ConfigError``; any other deviation, a non-finite value
    included, raises ``DataError``."""
    # undecodable bytes become U+FFFD, which no line of the format matches
    with open(path, errors="replace") as fh:
        text = fh.read()
    if not text:
        raise DataError(f"checkpoint is empty: {path}")
    lines = text.split("\n")
    if lines[0] != CHECKPOINT_MAGIC:
        raise ConfigError(f"not a {CHECKPOINT_MAGIC} file: {path}")

    def malformed(why: str) -> DataError:
        return DataError(f"malformed checkpoint {path}: {why}")

    # save_model ends every line with a newline, so a file cut inside a line
    # is caught even where the cut still leaves valid hex digits
    if lines[-1]:
        raise malformed("truncated inside its last line")
    rest = iter(lines[1:-1])

    def take(prefix: str = "") -> str:
        """The next line, which must start with ``prefix``, without it."""
        line = next(rest, None)
        if line is None or not line.startswith(prefix):
            raise malformed(f"expected a line starting {prefix!r}, got {line!r}")
        return line[len(prefix) :]

    def finite(cells: list[str], where: str) -> list[float]:
        try:
            values = [float.fromhex(v) for v in cells]
        except ValueError:
            raise malformed(f"bad hex float in {where}") from None
        if not all(map(math.isfinite, values)):
            raise malformed(f"non-finite value in {where}")
        return values

    fingerprint = take("schema_fingerprint ")
    hidden = take("hidden_size ")
    H = int(hidden) if hidden.isdecimal() else 0
    if H < 1 or hidden != str(H):
        raise malformed(f"bad hidden_size {hidden!r}")
    (threshold,) = finite([take("threshold ")], "threshold")
    attention = take("attention ")
    if attention not in ("0", "1"):
        raise malformed(f"bad attention flag {attention!r}")
    # the W_z header, the line after the attention flag, fixes F
    cols = lines[5].rpartition(" ")[2]
    F = int(cols) - H if cols.isdecimal() else 0
    if F < 1:
        raise malformed(f"bad array W_z header {lines[5]!r}")

    arrays = []
    for name, r, c in _layout(F, H, attention == "1"):
        header = take()
        if header != f"array {name} {r} {c}":
            raise malformed(f"expected 'array {name} {r} {c}', got {header!r}")
        rows = [finite(take().split(" "), f"array {name}") for _ in range(r)]
        if any(len(row) != c for row in rows):
            raise malformed(f"array {name} is not {r}x{c}")
        arrays.append(np.array(rows, dtype=np.float64))
    history = {}
    for key in ("train_loss", "val_loss"):
        cells = take(f"history {key} ")
        history[key] = finite(cells.split(" ") if cells else [], f"history {key}")
    if next(rest, None) is not None:
        raise malformed("unexpected line after the history")

    # GRU_ARRAYS is the GRUParams field order: three matrices, four vectors, b_out
    gru = GRUParams(*arrays[:3], *(a[0] for a in arrays[3:7]), b_out=float(arrays[7][0, 0]),
                    hidden_size=H)
    att = AttentionParams(W=arrays[8], b=arrays[9][0]) if attention == "1" else None
    return TrainedModel(gru=gru, attention=att, schema_fingerprint=fingerprint,
                        history=history, threshold=threshold)
