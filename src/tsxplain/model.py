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
5-fold CV over the hyperparameter grid, and early stopping.
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
from .errors import ConfigError, DataError, ShapeError
from .numerics import RngStream, sigmoid, softmax_axis

EPS = 1e-7


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
        return self.W_z.shape[1] - self.hidden_size


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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must be in [0, 1)")
        for n in (self.hidden_size, self.max_epochs, self.batch_size, self.cv_folds):
            if n <= 0:
                raise ConfigError("counts must be positive")
        if self.patience < 0:
            raise ConfigError("patience must be nonnegative")

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
    """Per-column softmax over features of the affine map W X + b."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != a.W.shape[1]:
        raise ShapeError(f"X must be ({a.W.shape[1]}, T)")
    return softmax_axis(a.W @ X + a.b[:, None], axis="cols")


def _forward_core(
    Xin: np.ndarray,
    gru: GRUParams,
    att: Optional[AttentionParams],
    dropout_mask: Optional[np.ndarray] = None,
    want_cache: bool = False,
):
    """Batched forward over prepared inputs Xin (n, F, T).

    Xin is the assembled model input (masked original data, or a coalition
    perturbation); masking is the caller's responsibility. Returns yhat
    (n, T) and, if requested, the activation cache for the backward pass.
    """
    n, F, T = Xin.shape
    H = gru.hidden_size
    if att is not None:
        pre = np.einsum("fg,ngt->nft", att.W, Xin) + att.b[None, :, None]
        shifted = pre - pre.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        A = e / e.sum(axis=1, keepdims=True)
        Xeff = Xin * A
    else:
        A = None
        Xeff = Xin

    # Both gates share one pre-activation buffer and one sigmoid call; each
    # keeps its own matmul, since one stacked (F+H, 2H) matmul changes the
    # BLAS kernel, and so the bits, for hidden_size 1. The gate inputs [x, h]
    # and candidate inputs [r*h, x] are filled into buffers, kept for every
    # step when the backward pass needs them and reused otherwise, so wide
    # inference batches allocate no (T, n, .) arrays.
    W_zT, W_rT, W_hT = gru.W_z.T, gru.W_r.T, gru.W_h.T
    zr_pre = np.empty((n, 2 * H))
    b_zr = np.concatenate([gru.b_z, gru.b_r])
    steps = T if want_cache else 1
    cat1 = np.empty((steps, n, F + H))
    cat2 = np.empty((steps, n, H + F))
    logits = np.empty((n, T))
    h = np.zeros((n, H))
    zr_all, hc_all, h_out_all = [], [], []
    for t in range(T):
        c1 = cat1[t if want_cache else 0]
        c2 = cat2[t if want_cache else 0]
        c1[:, :F] = Xeff[:, :, t]
        c1[:, F:] = h
        np.matmul(c1, W_zT, out=zr_pre[:, :H])
        np.matmul(c1, W_rT, out=zr_pre[:, H:])
        zr_pre += b_zr
        zr = sigmoid(zr_pre)
        np.multiply(zr[:, H:], h, out=c2[:, :H])
        c2[:, H:] = c1[:, :F]
        hc = c2 @ W_hT
        hc += gru.b_h
        np.tanh(hc, out=hc)
        h_new = (1.0 - zr[:, :H]) * hc + zr[:, :H] * h
        h_out = h_new if dropout_mask is None else h_new * dropout_mask[:, :, t]
        logits[:, t] = h_out @ gru.W_out
        if want_cache:
            zr_all.append(zr)
            hc_all.append(hc)
            h_out_all.append(h_out)
        h = h_new
    logits += gru.b_out
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
    n_valid = int(valid.sum())
    p = np.clip(yhat, EPS, 1.0 - EPS)
    b = beta[None, :]
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
    yhat = cache["yhat"]
    n, T = yhat.shape
    H = gru.hidden_size
    F = gru.n_features

    grads = {
        "W_z": np.zeros_like(gru.W_z),
        "W_r": np.zeros_like(gru.W_r),
        "W_h": np.zeros_like(gru.W_h),
        "b_z": np.zeros(H),
        "b_r": np.zeros(H),
        "b_h": np.zeros(H),
        "W_out": np.zeros(H),
        "b_out": 0.0,
    }
    dyhat = _loss_grad_yhat(yhat, y, valid, beta)
    do_all = dyhat * yhat * (1.0 - yhat)

    cat1, cat2 = cache["cat1"], cache["cat2"]
    # the input gradient only feeds the attention parameters
    dXeff = np.zeros((n, F, T)) if att is not None else None
    dh_next = np.zeros((n, H))
    for t in range(T - 1, -1, -1):
        do = do_all[:, t]
        h_out = cache["h_out"][t]
        grads["W_out"] += do @ h_out
        grads["b_out"] += float(do.sum())
        dh_from_out = do[:, None] * gru.W_out[None, :]
        if dropout_mask is not None:
            dh_from_out = dh_from_out * dropout_mask[:, :, t]
        dh = dh_next + dh_from_out

        c1, c2 = cat1[t], cat2[t]
        h_prev = c1[:, F:]
        zr = cache["zr"][t]
        z, r = zr[:, :H], zr[:, H:]
        hc = cache["hc"][t]
        omz = 1.0 - z

        dz = dh * (h_prev - hc)
        dhc = dh * omz
        dh_prev = dh * z

        dahc = dhc * (1.0 - hc * hc)
        grads["W_h"] += dahc.T @ c2
        grads["b_h"] += dahc.sum(axis=0)
        dcat2 = dahc @ gru.W_h
        drh = dcat2[:, :H]
        dr = drh * h_prev
        dh_prev += drh * r

        dar = dr * r * (1.0 - r)
        daz = dz * z * omz
        grads["W_r"] += dar.T @ c1
        grads["b_r"] += dar.sum(axis=0)
        grads["W_z"] += daz.T @ c1
        grads["b_z"] += daz.sum(axis=0)
        dcat1 = dar @ gru.W_r + daz @ gru.W_z
        dh_prev += dcat1[:, F:]

        if dXeff is not None:
            np.add(dcat2[:, H:], dcat1[:, :F], out=dXeff[:, :, t])
        dh_next = dh_prev

    if att is not None:
        A = cache["A"]
        Xin = cache["Xin"]
        dA = dXeff * Xin
        # softmax over the feature axis, per (patient, step) column
        inner = np.sum(dA * A, axis=1, keepdims=True)
        dpre = A * (dA - inner)
        grads["att_W"] = np.einsum("nft,ngt->fg", dpre, Xin)
        grads["att_b"] = dpre.sum(axis=(0, 2))
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
    return _backward_core(
        cache, model.gru, model.attention, np.asarray(y, dtype=np.float64),
        np.asarray(valid, dtype=bool), beta.beta,
    )


def _apply_grads(gru: GRUParams, att: Optional[AttentionParams], grads: dict, lr: float):
    gru.W_z -= lr * grads["W_z"]
    gru.W_r -= lr * grads["W_r"]
    gru.W_h -= lr * grads["W_h"]
    gru.b_z -= lr * grads["b_z"]
    gru.b_r -= lr * grads["b_r"]
    gru.b_h -= lr * grads["b_h"]
    gru.W_out -= lr * grads["W_out"]
    gru.b_out -= lr * grads["b_out"]
    if att is not None:
        att.W -= lr * grads["att_W"]
        att.b -= lr * grads["att_b"]


def _epoch_loss(Xin, y, valid, gru, att, beta) -> float:
    yhat = _forward_core(Xin, gru, att)
    return tbbce(yhat, y, valid, beta)


def _fit(
    train_c: Cohort,
    val_c: Cohort,
    lr: float,
    dropout: float,
    H: int,
    cfg: TrainConfig,
    rng: RngStream,
    use_attention: bool,
) -> tuple[GRUParams, Optional[AttentionParams], dict]:
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
            _apply_grads(gru, att, grads, lr)

        train_loss = _epoch_loss(Xin_tr, ytr, vtr, gru, att, beta)
        val_loss = _epoch_loss(Xin_va, yva, vva, gru, att, beta)
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


def train(train_cohort: Cohort, cfg: TrainConfig, use_attention: bool) -> TrainedModel:
    """Grid-search hyperparameters with k-fold CV on the balanced loss, then
    retrain on the full training set with an internal 80/20 early-stopping
    split and restore the best-validation-epoch parameters."""
    if not train_cohort.patients:
        raise DataError("training cohort is empty")
    points = cfg.grid_points()
    rng = RngStream(cfg.seed)

    best_point = None
    best_score = None
    if len(points) == 1:
        best_point = points[0]
    else:
        for gi, (lr, dr, H) in enumerate(points):
            folds = kfold(train_cohort, cfg.cv_folds, rng.child(1, gi))
            scores = []
            for fi, (ftrain, fval) in enumerate(folds):
                _, _, hist = _fit(
                    ftrain, fval, lr, dr, H, cfg, rng.child(2, gi, fi), use_attention
                )
                scores.append(hist["best_val_loss"])
            mean_score = float(np.mean(scores))
            if best_score is None or mean_score < best_score:
                best_score = mean_score
                best_point = (lr, dr, H)

    lr, dr, H = best_point
    inner_train, inner_val = split_train_test(train_cohort, 0.8, rng.child(3))
    gru, att, history = _fit(
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


# ---------------------------------------------------------------------------
# Checkpoint I/O: deterministic text format with hex floats (bit-exact).
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "tsxplain-checkpoint-v1"


def _write_array(out: io.StringIO, name: str, arr: np.ndarray) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    out.write(f"array {name} {arr.shape[0]} {arr.shape[1]}\n")
    for row in arr:
        out.write(" ".join(float.hex(float(v)) for v in row))
        out.write("\n")


def save_model(model: TrainedModel, path) -> None:
    out = io.StringIO()
    out.write(f"{CHECKPOINT_MAGIC}\n")
    out.write(f"schema_fingerprint {model.schema_fingerprint}\n")
    out.write(f"hidden_size {model.gru.hidden_size}\n")
    out.write(f"threshold {float.hex(float(model.threshold))}\n")
    out.write(f"attention {1 if model.attention is not None else 0}\n")
    _write_array(out, "W_z", model.gru.W_z)
    _write_array(out, "W_r", model.gru.W_r)
    _write_array(out, "W_h", model.gru.W_h)
    _write_array(out, "b_z", model.gru.b_z)
    _write_array(out, "b_r", model.gru.b_r)
    _write_array(out, "b_h", model.gru.b_h)
    _write_array(out, "W_out", model.gru.W_out)
    _write_array(out, "b_out", np.array([model.gru.b_out]))
    if model.attention is not None:
        _write_array(out, "att_W", model.attention.W)
        _write_array(out, "att_b", model.attention.b)
    hist = model.history or {}
    for key in ("train_loss", "val_loss"):
        values = hist.get(key, [])
        out.write(f"history {key} " + " ".join(float.hex(float(v)) for v in values) + "\n")
    with open(path, "w") as fh:
        fh.write(out.getvalue())


def load_model(path) -> TrainedModel:
    """Read a checkpoint written by ``save_model``. A file that does not
    start with the magic line raises ``ConfigError``; a checkpoint that does
    but is truncated or malformed raises ``DataError``."""
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise DataError(f"checkpoint is empty: {path}")
    if lines[0] != CHECKPOINT_MAGIC:
        raise ConfigError(f"not a {CHECKPOINT_MAGIC} file: {path}")

    def malformed(why: str) -> DataError:
        return DataError(f"malformed checkpoint {path}: {why}")

    # save_model ends every line with a newline, so a file cut inside a line
    # is caught even where the cut still leaves valid hex digits
    if not text.endswith("\n"):
        raise malformed("truncated inside its last line")

    def hex_floats(cells: list[str], where: str) -> list[float]:
        try:
            return [float.fromhex(v) for v in cells]
        except ValueError:
            raise malformed(f"bad hex float in {where}") from None

    pos = 1
    header: dict[str, str] = {}
    arrays: dict[str, np.ndarray] = {}
    history: dict[str, list[float]] = {}
    while pos < len(lines):
        parts = lines[pos].split()
        if parts[:1] == ["array"]:
            if len(parts) != 4 or not (parts[2].isdigit() and parts[3].isdigit()):
                raise malformed(f"bad array header {lines[pos]!r}")
            name, r, c = parts[1], int(parts[2]), int(parts[3])
            rows = [hex_floats(row.split(), f"array {name}")
                    for row in lines[pos + 1 : pos + 1 + r]]
            if len(rows) != r or any(len(row) != c for row in rows):
                raise malformed(f"array {name} is not {r}x{c}")
            arrays[name] = np.array(rows, dtype=np.float64).reshape(r, c)
            pos += 1 + r
        elif parts[:1] == ["history"] and len(parts) >= 2:
            history[parts[1]] = hex_floats(parts[2:], f"history {parts[1]}")
            pos += 1
        else:
            key, _, value = lines[pos].partition(" ")
            header[key] = value
            pos += 1

    for key in ("schema_fingerprint", "hidden_size", "threshold", "attention"):
        if key not in header:
            raise malformed(f"missing header {key!r}")
    for key in ("train_loss", "val_loss"):
        if key not in history:
            raise malformed(f"missing history {key!r}")
    if not header["hidden_size"].isdigit() or int(header["hidden_size"]) < 1:
        raise malformed(f"bad hidden_size {header['hidden_size']!r}")
    if header["attention"] not in ("0", "1"):
        raise malformed(f"bad attention flag {header['attention']!r}")
    threshold = hex_floats([header["threshold"]], "threshold")[0]
    H = int(header["hidden_size"])
    F = arrays["W_z"].shape[1] - H if "W_z" in arrays else 0
    shapes = {
        "W_z": (H, F + H), "W_r": (H, F + H), "W_h": (H, H + F),
        "b_z": (1, H), "b_r": (1, H), "b_h": (1, H), "W_out": (1, H), "b_out": (1, 1),
    }
    if header["attention"] == "1":
        shapes.update({"att_W": (F, F), "att_b": (1, F)})
    for name, shape in shapes.items():
        if name not in arrays:
            raise malformed(f"missing array {name!r}")
        if F < 1 or arrays[name].shape != shape:
            raise malformed(f"array {name} has shape {arrays[name].shape}, expected {shape}")

    gru = GRUParams(
        W_z=arrays["W_z"],
        W_r=arrays["W_r"],
        W_h=arrays["W_h"],
        b_z=arrays["b_z"].ravel(),
        b_r=arrays["b_r"].ravel(),
        b_h=arrays["b_h"].ravel(),
        W_out=arrays["W_out"].ravel(),
        b_out=float(arrays["b_out"].ravel()[0]),
        hidden_size=H,
    )
    att = None
    if header["attention"] == "1":
        att = AttentionParams(W=arrays["att_W"], b=arrays["att_b"].ravel())
    return TrainedModel(
        gru=gru,
        attention=att,
        schema_fingerprint=header["schema_fingerprint"],
        history=history,
        threshold=threshold,
    )
