"""CART-style binary decision tree on Gini impurity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np


@dataclass(frozen=True)
class TreeNode:
    # internal node: feature/threshold/left/right set, klass == -1
    # leaf: klass in {0,1} with proba = P(class 1), children == -1
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    klass: int = -1
    proba: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.klass >= 0


class _NodeArrays(NamedTuple):
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    klass: np.ndarray
    proba: np.ndarray


@dataclass
class DecisionTreeModel:
    nodes: list[TreeNode]
    n_features: int
    max_depth: int
    min_samples_split: int
    # parallel per-node arrays for batched descent, built from ``nodes``
    _arrays: _NodeArrays = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("tree must have at least one node")
        n = len(self.nodes)
        for i, node in enumerate(self.nodes):
            if node.klass == -1:
                for side, child in (("left", node.left),
                                    ("right", node.right)):
                    if not i < child < n:
                        raise ValueError(
                            f"tree node {i}: {side} child {child} is not "
                            f"after the node and inside the {n} nodes")
                if not 0 <= node.feature < self.n_features:
                    raise ValueError(
                        f"tree node {i}: feature {node.feature} is outside "
                        f"[0, {self.n_features})")
            elif node.klass not in (0, 1):
                raise ValueError(f"tree node {i}: class {node.klass} is "
                                 f"not 0, 1 or -1 (internal)")
            if not 0.0 <= node.proba <= 1.0:
                raise ValueError(f"tree node {i}: proba {node.proba} is "
                                 f"outside [0, 1]")
            if not math.isfinite(node.threshold):
                raise ValueError(f"tree node {i}: threshold "
                                 f"{node.threshold} is not finite")
        self._arrays = _NodeArrays(
            np.array([nd.feature for nd in self.nodes], dtype=np.intp),
            np.array([nd.threshold for nd in self.nodes], dtype=float),
            np.array([nd.left for nd in self.nodes], dtype=np.intp),
            np.array([nd.right for nd in self.nodes], dtype=np.intp),
            np.array([nd.klass for nd in self.nodes], dtype=int),
            np.array([nd.proba for nd in self.nodes], dtype=float),
        )


@dataclass(frozen=True)
class TreeHyper:
    max_depth: int = 12
    min_samples_split: int = 2
    min_gain: float = 1e-7

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, not {self.max_depth}")


def _impurity(n_pos, n):
    """Gini impurity of nodes holding ``n_pos`` class-1 rows out of
    ``n > 0``; elementwise over arrays."""
    p = n_pos / n
    return 2.0 * p * (1.0 - p)


def _best_split(X: np.ndarray,
                y: np.ndarray) -> Optional[tuple[int, float, float]]:
    """Best (feature, threshold, gain); ties keep the lowest feature index
    then lowest threshold.  Every position between two distinct sorted
    values of every feature is scored in one pass.  The threshold is the
    midpoint of the two values, or the lower value where the midpoint
    rounds onto the upper one, so that ``x <= threshold`` sends exactly
    the rows before the position left."""
    n = y.shape[0]
    n_pos = float(y.sum())
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    pos_cum = np.cumsum(y[order], axis=0)
    parent = _impurity(n_pos, n)
    n_left = np.arange(1, n)[:, None]
    left_pos = pos_cum[:-1]
    weighted = (n_left / n * _impurity(left_pos, n_left)
                + (n - n_left) / n * _impurity(n_pos - left_pos, n - n_left))
    gain = parent - weighted
    gain[xs[:-1] == xs[1:]] = -np.inf
    if gain.size == 0:
        return None
    # feature-major order: argmax takes the lowest feature, then position
    k = int(np.argmax(gain.T.ravel()))
    f, i = divmod(k, n - 1)
    if gain[i, f] == -np.inf:
        return None
    lo, hi = xs[i, f], xs[i + 1, f]
    mid = (lo + hi) / 2.0
    return f, float(mid if mid < hi else lo), float(gain[i, f])


def _leaf(y: np.ndarray) -> TreeNode:
    n_pos = int(y.sum())
    p1 = n_pos / y.shape[0]
    # majority class, tie classified as malicious
    return TreeNode(klass=1 if p1 >= 0.5 else 0, proba=p1)


def train(X, y, hyper: TreeHyper = TreeHyper()) -> DecisionTreeModel:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("cannot train a tree on empty data")
    if y.shape[0] != X.shape[0]:
        raise ValueError("X and y length mismatch")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0/1")

    nodes: list[TreeNode] = []

    def build(idx: np.ndarray, depth: int) -> int:
        yi = y[idx]
        pure = yi.min() == yi.max()
        if (pure or depth >= hyper.max_depth
                or idx.shape[0] < hyper.min_samples_split):
            nodes.append(_leaf(yi))
            return len(nodes) - 1
        split = _best_split(X[idx], yi)
        if split is None or split[2] < hyper.min_gain:
            nodes.append(_leaf(yi))
            return len(nodes) - 1
        f, thr, _ = split
        mask = X[idx, f] <= thr
        pos = len(nodes)
        nodes.append(TreeNode())   # placeholder, patched below
        left = build(idx[mask], depth + 1)
        right = build(idx[~mask], depth + 1)
        nodes[pos] = TreeNode(feature=f, threshold=thr, left=left,
                              right=right)
        return pos

    build(np.arange(X.shape[0]), 0)
    return DecisionTreeModel(nodes, X.shape[1], hyper.max_depth,
                             hyper.min_samples_split)


def _leaves(model: DecisionTreeModel, X) -> np.ndarray:
    """Leaf index of every row, descending all rows one level per step;
    children always follow their parent, so this ends."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_features:
        raise ValueError(f"feature dimension mismatch: "
                         f"{X.shape[1]} != {model.n_features}")
    feature, threshold, left, right, klass, _ = model._arrays
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0])
    while True:
        rows = rows[klass[node[rows]] < 0]
        if rows.size == 0:
            return node
        at = node[rows]
        node[rows] = np.where(X[rows, feature[at]] <= threshold[at],
                              left[at], right[at])


def leaf_nodes(model: DecisionTreeModel, X) -> list[TreeNode]:
    """The leaf node each row of ``X`` reaches, in order."""
    return [model.nodes[i] for i in _leaves(model, X).tolist()]


def predict_one(model: DecisionTreeModel, x) -> tuple[int, float]:
    """(class, leaf P(class 1)) of one row: a one-row ``leaf_nodes``."""
    [leaf] = leaf_nodes(model, [x])
    return leaf.klass, leaf.proba


def predict(model: DecisionTreeModel, X) -> np.ndarray:
    return model._arrays.klass[_leaves(model, X)]


def predict_proba(model: DecisionTreeModel, X) -> np.ndarray:
    return model._arrays.proba[_leaves(model, X)]
