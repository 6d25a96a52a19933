"""Slow, literal reference implementations used only by tests: one GRU step
on a single column, coalition perturbation one player at a time, and
central-difference gradients."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from tsxplain.errors import DataError, ShapeError
from tsxplain.model import GRUParams
from tsxplain.numerics import sigmoid


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
