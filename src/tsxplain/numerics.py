"""Float64 sigmoid and softmax, seeded RNG streams, and a ridge-stabilized
weighted least-squares solver, split into a design half and a target half so
fits that share a design factor it once.

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
    if axis not in ("rows", "cols"):
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
    ax = -1 if axis == "rows" else -2
    e = m - np.max(m, axis=ax, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=ax, keepdims=True)
    return e


@dataclass(frozen=True)
class NormalEquations:
    """The target-free half of a weighted least-squares fit: the weighted
    design Xw = X * w and the matrix A = X^T Xw + ridge * I, checked once."""

    Xw: np.ndarray
    A: np.ndarray


def normal_equations(design: np.ndarray, weights: Sequence[float], ridge: float = 0.0
                     ) -> NormalEquations:
    """The design-only terms of ``weighted_least_squares``, for fits that
    share one design and weights and differ in their targets alone. Raises
    ``SingularSystemError`` at ridge 0 if A has not full rank."""
    X = as_matrix(design)
    w = np.asarray(weights, dtype=np.float64).ravel()
    if X.shape[0] != w.shape[0]:
        raise ShapeError(f"rows={X.shape[0]}, weights={w.shape[0]} must agree")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")

    Xw = X * w[:, None]
    A = X.T @ Xw
    A = A + np.diag(np.full(X.shape[1], ridge))
    if ridge == 0.0 and np.linalg.matrix_rank(A) < A.shape[0]:
        raise SingularSystemError(
            "normal equations are singular; pass ridge > 0 to stabilize"
        )
    return NormalEquations(Xw, A)


def solve_normal(eq: NormalEquations, targets: Sequence[float]) -> np.ndarray:
    """The per-target half of ``weighted_least_squares``: b = Xw^T y, then
    solve A c = b."""
    y = np.asarray(targets, dtype=np.float64).ravel()
    if eq.Xw.shape[0] != y.shape[0]:
        raise ShapeError(f"rows={eq.Xw.shape[0]}, targets={y.shape[0]} must agree")
    b = eq.Xw.T @ y
    try:
        return np.linalg.solve(eq.A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal equations are singular; pass ridge > 0 to stabilize"
        ) from exc


def weighted_least_squares(
    design: np.ndarray,
    targets: Sequence[float],
    weights: Sequence[float],
    ridge: float = 0.0,
) -> np.ndarray:
    """Solve argmin_c sum_k w_k (y_k - X_k . c)^2 + ridge * ||c||^2 via the
    normal equations: ``solve_normal`` of ``normal_equations``."""
    return solve_normal(normal_equations(design, weights, ridge), targets)


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
