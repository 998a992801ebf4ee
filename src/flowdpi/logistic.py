"""Binary logistic regression with L2 penalty, trained by full-batch
gradient descent with backtracking line search."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def sigmoid(z):
    """Numerically stable logistic function (sign-split form)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
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


def _check_xy(model: LogisticModel, X: np.ndarray, y: np.ndarray | None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.dim:
        raise ValueError(f"feature dimension mismatch: "
                         f"{X.shape[1]} != {model.dim}")
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y length mismatch")
    return X, y


def loss_grad(model: LogisticModel, X, y):
    """Regularized negative mean log-likelihood and its gradient.

    loss = -(1/n) sum[y ln h + (1-y) ln(1-h)] + (lam/2n)||w||^2, bias
    unregularized.  Returns (loss, grad_weights, grad_bias).
    """
    X, y = _check_xy(model, X, np.asarray(y))
    return _loss_grad(X, y, model.weights, model.bias, model.lam)


def _loss_grad(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
               lam: float):
    """``loss_grad`` on checked float arrays."""
    n = X.shape[0]
    z = X @ w + b
    # logaddexp(0, z) - y*z == -[y ln h + (1-y) ln(1-h)], stable for large |z|
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    loss += lam / (2 * n) * float(w @ w)
    residual = sigmoid(z) - y
    grad_w = X.T @ residual / n + lam / n * w
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


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


def train(X, y, hyper: LogisticHyper = LogisticHyper()
          ) -> tuple[LogisticModel, FitInfo]:
    """Deterministic full-batch gradient descent from zero weights.

    A step that would increase the loss is retried with a halved step
    size, so the accepted loss sequence is non-increasing.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise ValueError("labels must be 0/1")
    if classes.size < 2:
        raise ValueError("training needs both classes present")
    model = LogisticModel(np.zeros(X.shape[1]), 0.0, hyper.lam)
    if y.shape[0] != X.shape[0]:
        raise ValueError("X and y length mismatch")
    w, b, lam = model.weights, model.bias, model.lam
    info = FitInfo()
    loss, grad_w, grad_b = _loss_grad(X, y, w, b, lam)
    info.losses.append(loss)
    for it in range(hyper.max_iters):
        info.n_iter = it + 1
        if max(np.max(np.abs(grad_w), initial=0.0), abs(grad_b)) < hyper.tol:
            info.converged = True
            break
        step = hyper.learning_rate
        for _ in range(60):
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            if not (np.isfinite(w_new).all() and math.isfinite(b_new)):
                raise ValueError("model parameters must be finite")
            new_loss, new_gw, new_gb = _loss_grad(X, y, w_new, b_new, lam)
            if new_loss <= loss:
                break
            step /= 2.0
        else:
            info.converged = True   # no descent direction left
            break
        w, b, loss, grad_w, grad_b = w_new, b_new, new_loss, new_gw, new_gb
        info.losses.append(loss)
    return LogisticModel(w, b, lam), info


def predict_proba(model: LogisticModel, X) -> np.ndarray:
    X, _ = _check_xy(model, X, None)
    return sigmoid(X @ model.weights + model.bias)
