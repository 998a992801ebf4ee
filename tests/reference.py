"""The payload-training composition that the batch path replaced.

``fit_featurizer`` fits on a list of payload strings, ``stack_dense``
stacks per-payload ``FeatureVector``s, and ``train`` is the
gradient-descent loop that built a ``LogisticModel`` and checked its
inputs on every line-search trial.  Tests require
``textfeat.fit_featurizer``, ``textfeat.stack_dense``,
``logistic.loss_grad`` and ``logistic.train`` to give the same bits as
these.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from flowdpi import logistic
from flowdpi.textfeat import (Featurizer, NormalizationParams, TfIdfModel,
                              linguistic_features, trigrams)


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


def train(X, y, hyper: logistic.LogisticHyper = logistic.LogisticHyper()):
    X = np.atleast_2d(np.asarray(X, dtype=float))
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
