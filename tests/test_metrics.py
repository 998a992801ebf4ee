import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from flowdpi.metrics import (ConfusionMatrix, confusion, evaluate, metrics,
                             pr_curve, roc_curve, stratified_kfold)


class TestConfusion:
    def test_counts(self):
        cm = confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 1, 1)
        assert cm.total == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])


class TestMetrics:
    def test_worked_case(self):
        m = metrics(ConfusionMatrix(tp=3, fp=1, tn=5, fn=1))
        assert m.accuracy == pytest.approx(0.8)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.75)
        assert m.f1 == pytest.approx(0.75)
        assert not m.degenerate

    def test_perfect_predictions(self):
        m = metrics(confusion([1, 0, 1, 0], [1, 0, 1, 0]))
        assert m.accuracy == 1.0 and m.fpr == 0.0 and m.f1 == 1.0

    def test_degenerate_denominators_flagged(self):
        m = metrics(ConfusionMatrix(tp=0, fp=0, tn=4, fn=0))
        assert m.precision == 0.0 and m.recall == 0.0
        assert {"precision", "recall", "f1"} <= set(m.degenerate)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=60))
    def test_matches_naive_recount(self, pairs):
        y_true = [a for a, _ in pairs]
        y_pred = [b for _, b in pairs]
        m = metrics(confusion(y_true, y_pred))
        tp = sum(1 for t, p in pairs if t == 1 and p == 1)
        fp = sum(1 for t, p in pairs if t == 0 and p == 1)
        tn = sum(1 for t, p in pairs if t == 0 and p == 0)
        fn = sum(1 for t, p in pairs if t == 1 and p == 0)
        assert m.accuracy == pytest.approx((tp + tn) / len(pairs))
        if tp + fp:
            assert m.precision == pytest.approx(tp / (tp + fp))
        if tp + fn:
            assert m.recall == pytest.approx(tp / (tp + fn))
        if fp + tn:
            assert m.fpr == pytest.approx(fp / (fp + tn))


def _pairwise_auc(y_true, scores):
    """P(score_pos > score_neg), ties counted 0.5."""
    pos = [s for s, t in zip(scores, y_true) if t == 1]
    neg = [s for s, t in zip(scores, y_true) if t == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
               for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


class TestRoc:
    def test_perfect_separation(self):
        _, auc = roc_curve([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert auc == 1.0

    def test_worked_example(self):
        _, auc = roc_curve([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6])
        assert auc == pytest.approx(0.75)

    def test_anti_separation(self):
        _, auc = roc_curve([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9])
        assert auc == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve([1, 1], [0.5, 0.6])

    def test_points_monotone(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=50)
        y[0], y[1] = 0, 1
        s = rng.random(50).round(1)   # force ties
        points, _ = roc_curve(y, s)
        xs = [p[1] for p in points]
        ys = [p[2] for p in points]
        assert xs == sorted(xs) and ys == sorted(ys)
        assert (xs[0], ys[0]) == (0.0, 0.0)
        assert (xs[-1], ys[-1]) == (1.0, 1.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_auc_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        y = rng.integers(0, 2, size=n)
        y[0], y[1] = 0, 1
        scores = rng.random(n).round(2)
        _, auc = roc_curve(y, scores)
        assert auc == pytest.approx(_pairwise_auc(y, scores), abs=1e-9)


def _reference_curves(y_true, scores):
    """The tie-grouping loop the curves used before the numpy sweep:
    (roc points, auc, pr points)."""
    y_true = np.asarray(y_true, dtype=int)
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores, kind="stable")
    ys, ss = y_true[order], scores[order]
    n_pos = int(ys.sum())
    n_neg = ys.shape[0] - n_pos
    roc = [(float("inf"), 0.0, 0.0)]
    pr = [(float("inf"), 0.0, 1.0)]
    tp = fp = 0
    i = 0
    n = ys.shape[0]
    while i < n:
        thr = ss[i]
        while i < n and ss[i] == thr:
            tp += int(ys[i] == 1)
            fp += int(ys[i] == 0)
            i += 1
        roc.append((float(thr), fp / n_neg, tp / n_pos))
        pr.append((float(thr), tp / n_pos, tp / (tp + fp)))
    auc = 0.0
    for (_, x0, y0), (_, x1, y1) in zip(roc[:-1], roc[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return roc, float(auc), pr


# a few repeated values (and -0.0, equal to 0.0) make ties likely
_SCORES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                    st.floats(0.0, 1.0))


@given(st.lists(st.tuples(st.integers(0, 1), _SCORES), min_size=2,
                max_size=80),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_curves_equal_the_reference_loop_exactly(pairs, force_ties):
    y = [label for label, _ in pairs]
    y[0], y[1] = 0, 1
    scores = [round(s, 1) if force_ties else s for _, s in pairs]
    roc, auc, pr = _reference_curves(y, scores)
    got_roc, got_auc = roc_curve(y, scores)
    got_pr = pr_curve(y, scores)
    assert got_roc == roc and got_pr == pr
    # repr also tells -0.0 from 0.0 and a numpy scalar from a float
    assert repr(got_roc) == repr(roc) and repr(got_pr) == repr(pr)
    assert repr(got_auc) == repr(auc)


class TestPr:
    def test_basic_points(self):
        points = pr_curve([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6])
        assert points[0] == (float("inf"), 0.0, 1.0)
        assert points[-1][1] == 1.0   # full recall at lowest threshold

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            pr_curve([0, 0], [0.5, 0.6])


class TestEvaluate:
    def test_report_fields(self):
        report = evaluate([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1])
        assert report.auc is not None
        assert report.roc_points and report.pr_points
        doc = report.to_dict()
        assert doc["confusion"]["tp"] == 2

    def test_score_equal_to_threshold_is_malicious(self):
        cm = evaluate([1, 0, 0], [0.7, 0.7, 0.2], threshold=0.7).cm
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (1, 1, 1, 0)

    def test_single_class_skips_curves(self):
        report = evaluate([1, 1], [0.9, 0.8])
        assert report.auc is None and report.roc_points == []


class TestStratifiedKfold:
    def test_exact_divisibility(self):
        y = np.array([0] * 8 + [1] * 2)
        folds = stratified_kfold(y, 2, seed=0)
        for fold in folds:
            assert np.sum(y[fold] == 0) == 4
            assert np.sum(y[fold] == 1) == 1

    def test_partition_property(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, size=53)
        y[:5] = 1
        folds = stratified_kfold(y, 5, seed=1)
        merged = np.concatenate(folds)
        assert sorted(merged.tolist()) == list(range(53))

    def test_proportion_within_one(self):
        rng = np.random.default_rng(2)
        y = np.array([0] * 83 + [1] * 17)
        folds = stratified_kfold(y, 5, seed=3)
        for cls, total in ((0, 83), (1, 17)):
            counts = [int(np.sum(y[f] == cls)) for f in folds]
            assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        y = np.array([0] * 20 + [1] * 10)
        a = stratified_kfold(y, 5, seed=7)
        b = stratified_kfold(y, 5, seed=7)
        assert all(np.array_equal(x, z) for x, z in zip(a, b))

    @given(st.lists(st.integers(0, 3) | st.sampled_from([0.5, np.nan]),
                    max_size=40),
           st.integers(2, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_folds_and_errors_are_the_unique_based_ones(self, labels, k,
                                                        seed):
        """The split lists the classes without ``np.unique`` (which
        imports ``numpy.ma``), in the same order, so the folds and the
        errors are those of the split that used it, dtype included."""
        y = np.array(labels)
        try:
            expected = reference.stratified_kfold(y, k, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                stratified_kfold(y, k, seed)
            return
        assert [(f.dtype, f.tolist()) for f in stratified_kfold(y, k, seed)] \
            == [(f.dtype, f.tolist()) for f in expected]

    def test_small_class_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.array([0, 0, 0, 1]), 2, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold(np.array([0, 1] * 5), 1, seed=0)
