"""Float64 sigmoid and softmax, seeded RNG streams, and a ridge-stabilized
weighted least-squares solver.

All operations are pure and operate on ``numpy.ndarray`` values in float64.
Shape checking is explicit so callers get a ``ShapeError`` instead of a silent
broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError, SingularSystemError


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function without branches or masked gathers.

    With e = exp(min(x, -x)), that is exp(-x) where x >= 0 and exp(x)
    elsewhere (``minimum`` returns x itself when x is nan), it is 1 / (1 + e)
    and e / (1 + e) respectively: the same expressions on the same operands,
    hence the same bits, as the two-branch form.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.negative(x, out=np.empty_like(x))
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def softmax_axis(m: np.ndarray, axis: str) -> np.ndarray:
    """Softmax along ``axis`` of a matrix, or of each matrix of a stack on
    the last two axes ("rows": each row sums to 1, "cols": each column sums
    to 1), stabilized by max subtraction."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2:
        raise ShapeError("softmax_axis requires a matrix or a stack of matrices")
    if axis == "rows":
        ax = -1
    elif axis == "cols":
        ax = -2
    else:
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
    return softmax(m, ax)


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along an integer ``axis`` of an array of any rank, stabilized
    by max subtraction; no checks (``softmax_axis`` is the checked form)."""
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def weighted_least_squares(
    design: np.ndarray,
    targets: Sequence[float],
    weights: Sequence[float],
    ridge: float = 0.0,
) -> np.ndarray:
    """Solve argmin_c sum_k w_k (y_k - X_k . c)^2 + ridge * ||c||^2 via the
    normal equations."""
    X = as_matrix(design)
    y = np.asarray(targets, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0] or X.shape[0] != w.shape[0]:
        raise ShapeError(
            f"rows={X.shape[0]}, targets={y.shape[0]}, weights={w.shape[0]} must agree"
        )
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")

    Xw = X * w[:, None]
    A = X.T @ Xw
    b = Xw.T @ y
    A = A + np.diag(np.full(X.shape[1], ridge))
    if ridge == 0.0 and np.linalg.matrix_rank(A) < A.shape[0]:
        raise SingularSystemError(
            "normal equations are singular; pass ridge > 0 to stabilize"
        )
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal equations are singular; pass ridge > 0 to stabilize"
        ) from exc


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by a 64-bit seed plus a substream path.

    Backed by numpy's Philox counter-based generator: identical (seed, path)
    yields identical draws on every platform. ``child`` derives independent
    substreams without consuming state from the parent.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))
