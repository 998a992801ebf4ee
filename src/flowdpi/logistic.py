"""Binary logistic regression with L2 penalty, trained by full-batch
gradient descent with backtracking line search.

Every sum over the entries of a ``FeatureBatch`` is taken by
``np.add.reduceat``, one segment per row (a score) or per column (a
gradient component).  Its order is fixed: a segment ``x`` sums to
``x[0] + P(x[1:])``, where ``P`` is numpy's pairwise sum, so no BLAS
kernel decides the bits of a weight or a score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .textfeat import FeatureBatch


def sigmoid(z):
    """Numerically stable logistic function (sign-split form): with
    ``e = exp(-|z|)``, ``1/(1+e)`` for ``z >= 0`` and ``e/(1+e)``
    otherwise.  A float gives a float."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    out = np.where(z >= 0, 1.0 / d, e / d)
    return out if out.ndim else float(out)


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    lam: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(self.weights)) or not np.isfinite(self.bias):
            raise ValueError("model parameters must be finite")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


class _Segments:
    """The segments ``indptr[i]:indptr[i + 1]`` of a CSR array.

    ``np.add.reduceat`` cannot express an empty segment, so only the
    non-empty ones, at ``keep`` (None: all of them), are passed to it.
    """

    def __init__(self, indptr: np.ndarray):
        lengths = indptr[1:] - indptr[:-1]
        self.keep = (None if np.count_nonzero(lengths) == lengths.shape[0]
                     else np.flatnonzero(lengths))
        self.starts = indptr[:-1] if self.keep is None else indptr[self.keep]

    def sums(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``S`` of each segment of ``values`` into ``out``.  An empty
        segment sums to -0.0, the one x with x + y == y for every y."""
        if self.keep is None:
            return np.add.reduceat(values, self.starts, out=out)
        out.fill(-0.0)
        out[self.keep] = np.add.reduceat(values, self.starts)
        return out


def _check(model: LogisticModel, X: FeatureBatch) -> None:
    if X.shape[1] != model.dim:
        raise ValueError(f"feature dimension mismatch: "
                         f"{X.shape[1]} != {model.dim}")
    # as unsigned numbers, negative indices are out of range too
    if X.indices.shape[0] and X.indices.view(np.uintp).max() >= model.dim:
        raise ValueError("feature index out of range")


def _margins(X: FeatureBatch, rows: _Segments, w: np.ndarray, b: float,
             products: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``S(data * w[indices]) + b`` of each row, in its column order; an
    empty row's margin is ``b``.  ``X`` has passed ``_check``."""
    w.take(X.indices, out=products, mode="clip")
    products *= X.data
    out = rows.sums(products, out)
    out += b
    return out


class _Objective:
    """Loss and gradient of one training batch.  The column-sorted copy
    of the entries (stable, so each column keeps row order) and the
    scratch buffers are built once."""

    def __init__(self, X: FeatureBatch, y: np.ndarray, lam: float):
        n, dim = X.shape
        self.X, self.y, self.lam, self.n = X, y, lam, n
        self.rows = _Segments(X.indptr)
        order = np.argsort(X.indices, kind="stable")
        self.col_rows = np.repeat(np.arange(n), np.diff(X.indptr))[order]
        self.col_data = X.data[order]
        col_ptr = np.zeros(dim + 1, dtype=np.intp)
        np.cumsum(np.bincount(X.indices, minlength=dim), out=col_ptr[1:])
        self.cols = _Segments(col_ptr)
        self.products = np.empty(X.data.shape[0])
        self.z, self.t = np.empty(n), np.empty(n)

    def __call__(self, w: np.ndarray, b: float):
        y, n, lam, products = self.y, self.n, self.lam, self.products
        z = _margins(self.X, self.rows, w, b, products, self.z)
        # logaddexp(0, z) - y*z == -[y ln h + (1-y) ln(1-h)], stable for
        # large |z|.  np.add.reduce is what np.mean and np.sum call, without
        # their wrappers' cost, which shows when n is small.
        t = np.logaddexp(0.0, z, out=self.t)
        t -= np.multiply(y, z)
        loss = float(np.add.reduce(t)) / n
        loss += lam / (2 * n) * float(np.add.reduce(w * w))
        residual = sigmoid(z)
        residual -= y
        residual.take(self.col_rows, out=products, mode="clip")
        products *= self.col_data
        grad_w = self.cols.sums(products, np.empty_like(w))
        grad_w /= n
        grad_w += lam / n * w
        return loss, grad_w, float(np.add.reduce(residual)) / n


def _labels(X: FeatureBatch, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape[0] != X.shape[0]:
        raise ValueError("X and y length mismatch")
    return y


def loss_grad(model: LogisticModel, X: FeatureBatch, y):
    """Regularized negative mean log-likelihood and its gradient.

    loss = -(1/n) sum[y ln h + (1-y) ln(1-h)] + (lam/2n)||w||^2, bias
    unregularized.  Returns (loss, grad_weights, grad_bias).
    """
    _check(model, X)
    return _Objective(X, _labels(X, y), model.lam)(model.weights, model.bias)


@dataclass(frozen=True)
class LogisticHyper:
    lam: float = 1.0
    learning_rate: float = 0.5
    max_iters: int = 5000
    tol: float = 1e-6


@dataclass
class FitInfo:
    losses: list[float] = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False


def train(X: FeatureBatch, y, hyper: LogisticHyper = LogisticHyper()
          ) -> tuple[LogisticModel, FitInfo]:
    """Deterministic full-batch gradient descent from zero weights.

    A step that would increase the loss is retried with a halved step
    size, so the accepted loss sequence is non-increasing.
    """
    y = np.asarray(y, dtype=float)
    positive = y == 1.0
    if not np.all(positive | (y == 0.0)):
        raise ValueError("labels must be 0/1")
    if positive.all() or not positive.any():
        raise ValueError("training needs both classes present")
    model = LogisticModel(np.zeros(X.shape[1]), 0.0, hyper.lam)
    _check(model, X)
    objective = _Objective(X, _labels(X, y), model.lam)
    w, b, lam = model.weights, model.bias, model.lam
    info = FitInfo()
    loss, grad_w, grad_b = objective(w, b)
    info.losses.append(loss)
    for it in range(hyper.max_iters):
        info.n_iter = it + 1
        if max(np.abs(grad_w).max(initial=0.0), abs(grad_b)) < hyper.tol:
            info.converged = True
            break
        step = hyper.learning_rate
        for _ in range(60):
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            if not (np.isfinite(w_new).all() and math.isfinite(b_new)):
                raise ValueError("model parameters must be finite")
            new_loss, new_gw, new_gb = objective(w_new, b_new)
            if new_loss <= loss:
                break
            step /= 2.0
        else:
            info.converged = True   # no descent direction left
            break
        w, b, loss, grad_w, grad_b = w_new, b_new, new_loss, new_gw, new_gb
        info.losses.append(loss)
    return LogisticModel(w, b, lam), info


def predict_proba(model: LogisticModel, X: FeatureBatch) -> np.ndarray:
    _check(model, X)
    z = _margins(X, _Segments(X.indptr), model.weights, model.bias,
                 np.empty(X.data.shape[0]), np.empty(X.shape[0]))
    return sigmoid(z)
