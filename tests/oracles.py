"""Slow, literal reference implementations used only by tests: the
two-branch sigmoid, one GRU step on a single column, forward and BPTT with
per-step concatenation and per-step gradient accumulation, coalition
perturbation one player at a time, and central-difference gradients."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from tsxplain.errors import DataError, ShapeError
from tsxplain.model import _loss_grad_yhat, GRUParams
from tsxplain.numerics import sigmoid


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


def gru_bptt(Xin, gru: GRUParams, att, y, valid, beta, dropout_mask=None):
    """Batched forward over Xin (n, F, T) and exact TBBCE gradients, one
    step at a time: per-step concatenated inputs, separate gate matmuls and
    sigmoids, and every parameter gradient accumulated as each step is
    reached, from the last step to the first. Returns (yhat, grads)."""
    n, F, T = Xin.shape
    H = gru.hidden_size
    A = None
    Xeff = Xin
    if att is not None:
        pre = np.einsum("fg,ngt->nft", att.W, Xin) + att.b[None, :, None]
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
        grads["att_W"] = np.einsum("nft,ngt->fg", dpre, Xin)
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
