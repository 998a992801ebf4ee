"""Binary-classification evaluation: confusion matrix, threshold metrics,
ROC/PR curves with trapezoidal AUC, and stratified k-fold
cross-validation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred length mismatch")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return ConfusionMatrix(tp, fp, tn, fn)


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float      # TPR
    fpr: float
    f1: float
    # names of metrics whose denominator was zero (reported as 0)
    degenerate: frozenset[str] = frozenset()

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall, "fpr": self.fpr, "f1": self.f1,
                "degenerate": sorted(self.degenerate)}


def metrics(cm: ConfusionMatrix) -> Metrics:
    degenerate = set()

    def ratio(name, num, den):
        if den == 0:
            degenerate.add(name)
            return 0.0
        return num / den

    accuracy = ratio("accuracy", cm.tp + cm.tn, cm.total)
    precision = ratio("precision", cm.tp, cm.tp + cm.fp)
    recall = ratio("recall", cm.tp, cm.tp + cm.fn)
    fpr = ratio("fpr", cm.fp, cm.fp + cm.tn)
    f1 = ratio("f1", 2 * precision * recall, precision + recall)
    return Metrics(accuracy, precision, recall, fpr, f1,
                   frozenset(degenerate))


def _sweep(y_true, scores):
    """Walk the scores from high to low, tied scores collapsed into one
    step.  Returns each step's threshold (the first score of its tie
    group), the true and false positives at or above it, and the numbers
    of positives and negatives."""
    y_true = np.asarray(y_true, dtype=int)
    scores = np.asarray(scores, dtype=float)
    if y_true.shape != scores.shape:
        raise ValueError("y_true and scores length mismatch")
    order = np.argsort(-scores, kind="stable")
    ys, ss = y_true[order], scores[order]
    ends = np.ones(ss.shape, dtype=bool)   # last index of each tie group
    ends[:-1] = ss[1:] != ss[:-1]
    last = np.flatnonzero(ends)
    first = np.flatnonzero(np.roll(ends, 1))   # each group starts after one
    tp = np.cumsum(ys == 1)[last]
    n_pos = int(ys.sum())
    return ss[first], tp, last + 1 - tp, n_pos, ys.shape[0] - n_pos


def roc_curve(y_true, scores) -> tuple[list[tuple[float, float, float]], float]:
    """ROC points swept over distinct scores (descending), tied scores
    collapsed into one step.  Returns ([(threshold, fpr, tpr)...], auc)
    with AUC by the trapezoidal rule, summed in sweep order."""
    thresholds, tp, fp, n_pos, n_neg = _sweep(y_true, scores)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC/AUC needs both classes present")
    fpr = np.concatenate(([0.0], fp / n_neg))
    tpr = np.concatenate(([0.0], tp / n_pos))
    auc = np.cumsum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0)[-1]
    points = [(float("inf"), 0.0, 0.0)]
    points += zip(thresholds.tolist(), fpr[1:].tolist(), tpr[1:].tolist())
    return points, float(auc)


def pr_curve(y_true, scores) -> list[tuple[float, float, float]]:
    """Precision-recall points: [(threshold, recall, precision)...]."""
    thresholds, tp, fp, n_pos, _ = _sweep(y_true, scores)
    if n_pos == 0:
        raise ValueError("PR curve needs at least one positive sample")
    points = [(float("inf"), 0.0, 1.0)]
    points += zip(thresholds.tolist(), (tp / n_pos).tolist(),
                  (tp / (tp + fp)).tolist())
    return points


@dataclass
class EvalReport:
    cm: ConfusionMatrix
    metrics: Metrics
    roc_points: list[tuple[float, float, float]] = field(default_factory=list)
    pr_points: list[tuple[float, float, float]] = field(default_factory=list)
    auc: float | None = None

    def to_dict(self) -> dict:
        return {
            "confusion": {"tp": self.cm.tp, "fp": self.cm.fp,
                          "tn": self.cm.tn, "fn": self.cm.fn},
            "metrics": self.metrics.to_dict(),
            "auc": self.auc,
            "roc_points": [list(p) for p in self.roc_points],
            "pr_points": [list(p) for p in self.pr_points],
        }


def evaluate(y_true, scores, threshold: float = 0.5) -> EvalReport:
    """Full evaluation of probability scores against 0/1 labels.

    A score equal to ``threshold`` counts as malicious.  Curves/AUC are
    included when both classes are present; otherwise the threshold
    metrics alone are reported.
    """
    y_true = np.asarray(y_true, dtype=int)
    scores = np.asarray(scores, dtype=float)
    y_pred = (scores >= threshold).astype(int)
    cm = confusion(y_true, y_pred)
    report = EvalReport(cm, metrics(cm))
    if 0 < int(y_true.sum()) < y_true.shape[0]:
        report.roc_points, report.auc = roc_curve(y_true, scores)
        report.pr_points = pr_curve(y_true, scores)
    return report


def stratified_kfold(y, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint index folds whose per-class counts differ from the exact
    proportion by at most one sample.  Deterministic given the seed."""
    y = np.asarray(y)
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds = [[np.empty(0, dtype=int)] for _ in range(k)]
    ordered = np.sort(y, axis=None)
    first = np.ones(ordered.shape, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    for cls in ordered[first].tolist():
        idx = np.flatnonzero(y == cls)
        if idx.shape[0] < k:
            raise ValueError(f"class {cls} has fewer than k={k} members")
        idx = idx[rng.permutation(idx.shape[0])]
        for f, fold in enumerate(folds):   # dealt round-robin
            fold.append(idx[f::k])
    return [np.sort(np.concatenate(fold)) for fold in folds]


def cross_validate(y, k: int, seed: int, fit_predict) -> list[Metrics]:
    """Stratified k-fold cross-validation: the metrics of each held-out
    fold.  ``fit_predict(train_idx, held_out)`` fits on the rows at
    ``train_idx`` and returns 0/1 predictions for the rows at
    ``held_out``."""
    y = np.asarray(y)
    fold_metrics = []
    for held_out in stratified_kfold(y, k, seed):
        mask = np.ones(y.shape[0], dtype=bool)
        mask[held_out] = False
        y_pred = fit_predict(np.flatnonzero(mask), held_out)
        fold_metrics.append(metrics(confusion(y[held_out], y_pred)))
    return fold_metrics
