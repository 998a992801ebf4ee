"""Oracles for the payload-training path.

The composition that the batch path replaced: ``fit_featurizer`` fits on
a list of payload strings, ``stack_dense`` stacks per-payload
``FeatureVector``s into a dense matrix, ``loss_grad`` is the dense
(BLAS) loss and gradient, and ``train`` is the gradient-descent loop
that built a ``LogisticModel`` and checked its inputs on every
line-search trial.

The summation order that defines a score and a gradient, in plain
Python: ``segment_sum`` is ``S``, ``margins`` and ``gradient`` apply it
to the rows and columns of a ``FeatureBatch``, and ``sparse_loss_grad``
is the loss and gradient built from them.  Tests require
``logistic.loss_grad`` and ``logistic.train`` to give the same bits as
``sparse_loss_grad`` and ``train(..., sparse_loss_grad)``, and to stay
within 1e-12 of the dense path.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from flowdpi import logistic
from flowdpi.textfeat import (FeatureBatch, Featurizer, NormalizationParams,
                              TfIdfModel, linguistic_features, trigrams)


def fit_featurizer(corpus: list[str]) -> Featurizer:
    if len(corpus) == 0:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    df: Counter[str] = Counter()
    for payload in corpus:
        df.update(set(trigrams(payload)))
    vocab = {t: i for i, t in enumerate(sorted(df))}
    n = len(corpus)
    idf = [0.0] * len(vocab)
    for t, i in vocab.items():
        idf[i] = math.log((1 + n) / (1 + df[t])) + 1.0
    cols = list(zip(*(linguistic_features(p).as_tuple() for p in corpus)))
    norm = NormalizationParams(tuple(float(min(c)) for c in cols),
                               tuple(float(max(c)) for c in cols))
    return Featurizer(TfIdfModel(vocab, tuple(idf), n), norm)


def stack_dense(vectors) -> np.ndarray:
    if not vectors:
        raise ValueError("no vectors to stack")
    dim = vectors[0].dim
    X = np.zeros((len(vectors), dim))
    for i, v in enumerate(vectors):
        if v.dim != dim:
            raise ValueError("inconsistent feature dimensions")
        if v.indices:
            X[i, list(v.indices)] = v.values
    return X


def to_dense(vec) -> np.ndarray:
    """A ``FeatureVector`` as a dense row."""
    dense = np.zeros(vec.dim)
    if vec.indices:
        dense[list(vec.indices)] = vec.values
    return dense


def dense(batch: FeatureBatch) -> np.ndarray:
    """A ``FeatureBatch`` as a dense matrix."""
    X = np.zeros(batch.shape)
    for i in range(batch.shape[0]):
        for k in range(batch.indptr[i], batch.indptr[i + 1]):
            X[i, batch.indices[k]] = batch.data[k]
    return X


def batch(X) -> FeatureBatch:
    """The non-zero entries of a dense matrix (one row for a vector), row
    by row with columns ascending."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rows, cols = np.nonzero(X)
    indptr = np.searchsorted(rows, np.arange(X.shape[0] + 1))
    return FeatureBatch(indptr, cols, X[rows, cols], X.shape)


def sigmoid(z):
    """The masked form of the logistic function the library used."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def pairwise_sum(x: list[float]) -> float:
    """numpy's pairwise sum of ``x``, term by term."""
    n = len(x)
    if n < 8:
        total = -0.0   # the additive identity: -0.0 + t == t
        for t in x:
            total += t
        return total
    if n <= 128:
        r = list(x[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += x[i + j]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5])
                                                   + (r[6] + r[7]))
        for t in x[i:]:
            total += t
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(x[:half]) + pairwise_sum(x[half:])


def segment_sum(x: list[float]) -> float:
    """``S(x) = x[0] + P(x[1:])`` of a non-empty segment."""
    return x[0] + pairwise_sum(x[1:])


def margins(batch: FeatureBatch, w, b: float) -> np.ndarray:
    """``S(data * w[indices]) + b`` of each row, in its stored order; an
    empty row's margin is ``b``."""
    indptr, indices = batch.indptr.tolist(), batch.indices.tolist()
    data, w = batch.data.tolist(), list(map(float, w))
    out = []
    for lo, hi in zip(indptr, indptr[1:]):
        terms = [data[k] * w[indices[k]] for k in range(lo, hi)]
        out.append(segment_sum(terms) + b if terms else b)
    return np.array(out, dtype=float)


def gradient(batch: FeatureBatch, residual, w, lam: float) -> np.ndarray:
    """Per column, ``S(data * residual[row])`` over its entries in row
    order, then ``/ n + lam / n * w``; an empty column's is ``lam / n *
    w``."""
    indptr, indices = batch.indptr.tolist(), batch.indices.tolist()
    data, residual = batch.data.tolist(), list(map(float, residual))
    n = batch.shape[0]
    terms = [[] for _ in range(batch.shape[1])]
    for i in range(n):
        for k in range(indptr[i], indptr[i + 1]):
            terms[indices[k]].append(data[k] * residual[i])
    return np.array([segment_sum(t) / n + lam / n * float(w[j]) if t
                     else lam / n * float(w[j])
                     for j, t in enumerate(terms)], dtype=float)


def sparse_loss_grad(model: logistic.LogisticModel, batch: FeatureBatch, y):
    """``logistic.loss_grad`` from ``margins`` and ``gradient``."""
    y = np.asarray(y, dtype=float)
    n = batch.shape[0]
    w = model.weights
    z = margins(batch, w, model.bias)
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    loss += model.lam / (2 * n) * float(np.sum(w * w))
    residual = sigmoid(z) - y
    return (loss, gradient(batch, residual, w, model.lam),
            float(np.mean(residual)))


def loss_grad(model: logistic.LogisticModel, X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    z = X @ model.weights + model.bias
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    loss += model.lam / (2 * n) * float(model.weights @ model.weights)
    h = logistic.sigmoid(z)
    grad_w = X.T @ (h - y) / n + model.lam / n * model.weights
    grad_b = float(np.mean(h - y))
    return loss, grad_w, grad_b


def train(X, y, hyper: logistic.LogisticHyper = logistic.LogisticHyper(),
          loss_grad=loss_grad):
    """The descent loop on a dense ``X`` and the dense ``loss_grad``, or on
    a ``FeatureBatch`` and ``sparse_loss_grad``."""
    y = np.asarray(y, dtype=float)
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise ValueError("labels must be 0/1")
    if classes.size < 2:
        raise ValueError("training needs both classes present")
    model = logistic.LogisticModel(np.zeros(X.shape[1]), 0.0, hyper.lam)
    info = logistic.FitInfo()
    loss, grad_w, grad_b = loss_grad(model, X, y)
    info.losses.append(loss)
    for it in range(hyper.max_iters):
        info.n_iter = it + 1
        if max(np.max(np.abs(grad_w), initial=0.0), abs(grad_b)) < hyper.tol:
            info.converged = True
            break
        step = hyper.learning_rate
        for _ in range(60):
            w_new = model.weights - step * grad_w
            b_new = model.bias - step * grad_b
            trial = logistic.LogisticModel(w_new, b_new, hyper.lam)
            new_loss, new_gw, new_gb = loss_grad(trial, X, y)
            if new_loss <= loss:
                break
            step /= 2.0
        else:
            info.converged = True
            break
        model, loss, grad_w, grad_b = trial, new_loss, new_gw, new_gb
        info.losses.append(loss)
    return model, info
