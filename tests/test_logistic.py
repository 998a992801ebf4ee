import math

import numpy as np
import pytest

from flowdpi import logistic
from flowdpi.logistic import (LogisticHyper, LogisticModel, loss_grad,
                              predict_proba, sigmoid, train)
from flowdpi.metrics import evaluate
from flowdpi.textfeat import FeatureBatch
import reference
from synth import separable_blobs

csr = reference.batch


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_algebraic_identity(self):
        assert sigmoid(math.log(3)) == pytest.approx(0.75)

    def test_saturation_without_overflow(self):
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(1000.0) == 1.0
        assert np.all(np.isfinite(sigmoid(np.array([-750.0, 750.0]))))

    def test_same_bits_as_masked_form(self):
        edges = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 745.0, -745.0]
        z = np.concatenate([edges, np.random.default_rng(2).normal(
            scale=20.0, size=5000)])
        assert sigmoid(z).tobytes() == reference.sigmoid(z).tobytes()
        for v in edges:
            assert repr(sigmoid(v)) == repr(reference.sigmoid(v))

    def test_float_gives_the_bits_of_an_array(self):
        """A float gives a float, with the bits it has in an array."""
        edges = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 745.0, -745.0,
                 746.0, -746.0, math.inf, -math.inf]
        z = np.concatenate([edges, np.random.default_rng(3).normal(
            scale=20.0, size=20000)])
        assert [sigmoid(v).hex() for v in z.tolist()] == \
            [v.hex() for v in sigmoid(z).tolist()]
        assert type(sigmoid(0.5)) is float


class TestLossGrad:
    def test_zero_model_balanced_loss_is_ln2(self):
        model = LogisticModel(np.zeros(3), 0.0, 1.0)
        X = csr(np.random.default_rng(0).normal(size=(10, 3)))
        y = np.array([0, 1] * 5)
        loss, _, _ = loss_grad(model, X, y)
        assert loss == pytest.approx(math.log(2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = rng.integers(1, 8)
            n = rng.integers(2, 15)
            X = csr(rng.normal(size=(n, d)))
            y = rng.integers(0, 2, size=n)
            model = LogisticModel(rng.normal(size=d), rng.normal(), 0.7)
            _, grad_w, grad_b = loss_grad(model, X, y)
            h = 1e-5
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                lp, _, _ = loss_grad(
                    LogisticModel(model.weights + e, model.bias, 0.7), X, y)
                lm, _, _ = loss_grad(
                    LogisticModel(model.weights - e, model.bias, 0.7), X, y)
                fd = (lp - lm) / (2 * h)
                assert abs(grad_w[j] - fd) <= 1e-6 * max(1.0, abs(fd))
            lp, _, _ = loss_grad(
                LogisticModel(model.weights, model.bias + h, 0.7), X, y)
            lm, _, _ = loss_grad(
                LogisticModel(model.weights, model.bias - h, 0.7), X, y)
            fd = (lp - lm) / (2 * h)
            assert abs(grad_b - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_large_lambda_dominated_by_penalty(self):
        n = 4
        X = csr(np.eye(n))
        y = np.array([0, 1, 0, 1])
        w = np.ones(n)
        lam = 1e8
        loss, _, _ = loss_grad(LogisticModel(w, 0.0, lam), X, y)
        assert loss == pytest.approx(lam / (2 * n) * n, rel=1e-4)

    def test_dimension_mismatch(self):
        model = LogisticModel(np.zeros(3), 0.0, 1.0)
        with pytest.raises(ValueError):
            loss_grad(model, csr(np.zeros((2, 4))), np.zeros(2))


class TestTrain:
    def test_separable_blobs_high_accuracy(self):
        X, y = separable_blobs(np.random.default_rng(7), n=200)
        X = csr(X)
        model, info = train(X, y, LogisticHyper(lam=0.01))
        acc = float(np.mean((predict_proba(model, X) >= 0.5) == y))
        assert acc >= 0.99
        assert info.n_iter <= 5000

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train(csr(np.zeros((3, 2))), np.ones(3))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError):
            train(csr(np.zeros((3, 2))), np.array([0, 1, 2]))

    def test_duplicated_dataset_same_decision_function(self):
        # with lam > 0 the penalty weight lam/2n changes under
        # duplication, so invariance only holds for the unregularized loss
        X, y = separable_blobs(np.random.default_rng(3), n=60)
        hyper = LogisticHyper(lam=0.0, max_iters=500)
        m1, _ = train(csr(X), y, hyper)
        m2, _ = train(csr(np.vstack([X, X])), np.concatenate([y, y]), hyper)
        assert np.allclose(m1.weights, m2.weights, atol=1e-6)
        assert m1.bias == pytest.approx(m2.bias, abs=1e-6)

    def test_loss_non_increasing(self):
        X, y = separable_blobs(np.random.default_rng(9), n=80)
        _, info = train(csr(X), y, LogisticHyper(max_iters=300))
        losses = np.array(info.losses)
        assert np.all(np.diff(losses) <= 0)

    def test_deterministic(self):
        X, y = separable_blobs(np.random.default_rng(5), n=50)
        X = csr(X)
        m1, _ = train(X, y)
        m2, _ = train(X, y)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias


class TestTrainMatchesReference:
    """``train`` runs on a ``FeatureBatch`` through the reduceat kernel.
    ``reference`` keeps the loop that built a ``LogisticModel`` per trial,
    the plain-Python summation order (same bits) and the dense BLAS path
    the kernel replaced (within 1e-12)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_same_bits_as_reference_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(4, 80)), int(rng.integers(1, 40))
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.1, 5.0))
        y = rng.integers(0, 2, size=n)
        y[:2] = (0, 1)
        hyper = LogisticHyper(lam=float(rng.choice([0.0, 0.01, 1.0])),
                              learning_rate=float(rng.choice([0.5, 4, 60])),
                              max_iters=int(rng.integers(1, 400)),
                              tol=float(rng.choice([1e-6, 1e-2])))
        model, info = train(csr(X), y, hyper)
        ref_model, ref_info = reference.train(csr(X), y, hyper,
                                              reference.sparse_loss_grad)
        assert model.weights.tobytes() == ref_model.weights.tobytes()
        assert repr(model.bias) == repr(ref_model.bias)
        assert list(map(repr, info.losses)) == \
            list(map(repr, ref_info.losses))
        assert (info.n_iter, info.converged) == \
            (ref_info.n_iter, ref_info.converged)
        dense_model, dense_info = reference.train(X, y, hyper)
        assert np.max(np.abs(model.weights - dense_model.weights)) <= 1e-12
        assert abs(model.bias - dense_model.bias) <= 1e-12
        assert dense_info.n_iter == info.n_iter

    def test_loss_grad_same_bits_as_reference(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 7))
        y = rng.integers(0, 2, size=30)
        model = LogisticModel(rng.normal(size=7), float(rng.normal()), 0.3)
        got = loss_grad(model, csr(X), y)
        ref = reference.sparse_loss_grad(model, csr(X), y)
        assert repr(got[0]) == repr(ref[0])
        assert got[1].tobytes() == ref[1].tobytes()
        assert repr(got[2]) == repr(ref[2])
        dense = reference.loss_grad(model, X, y)
        assert abs(got[0] - dense[0]) <= 1e-12
        assert np.max(np.abs(got[1] - dense[1])) <= 1e-12
        assert abs(got[2] - dense[2]) <= 1e-12

    def test_non_finite_trial_raises_like_reference(self):
        X = np.array([[100.0], [-100.0]])
        y = np.array([1, 0])
        hyper = LogisticHyper(learning_rate=1e308)
        for fit, data in ((train, csr(X)), (reference.train, X)):
            with np.errstate(over="ignore"), pytest.raises(
                    ValueError, match="model parameters must be finite"):
                fit(data, y, hyper)


# entries per segment: empty, below 8, the 8-accumulator block, past 128
SEGMENT_LENGTHS = (0, 1, 7, 8, 9, 16, 128, 129, 300)


def _random_batch(rng, lengths, dim):
    """Row i holds ``lengths[i]`` entries at sorted random columns, with
    values of mixed sign and magnitude so that the order of a sum
    shows in its bits."""
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.concatenate([np.sort(rng.choice(dim, k, replace=False))
                              for k in lengths]).astype(np.intp)
    data = rng.normal(size=indices.shape[0]) * 10.0 ** rng.integers(
        -6, 7, size=indices.shape[0])
    return FeatureBatch(indptr, indices, data, (len(lengths), dim))


def _transposed(X):
    """The batch whose column j holds row j of ``X``."""
    return csr(reference.dense(X).T)


class TestKernelMatchesOracle:
    """Margins and gradients give the bits of the plain-Python ``S``
    order, on rows and on columns of every ``SEGMENT_LENGTHS`` size."""

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_and_columns_of_every_length(self, seed):
        rng = np.random.default_rng(100 + seed)
        lengths = rng.permutation(SEGMENT_LENGTHS)
        by_rows = _random_batch(rng, lengths, 400)   # many empty columns
        by_cols = _transposed(by_rows)   # empty rows, columns of each length
        for X in (by_rows, by_cols):
            n, d = X.shape
            model = LogisticModel(rng.normal(size=d) * 0.05,
                                  float(rng.normal()), float(rng.uniform()))
            y = rng.integers(0, 2, size=n)
            rows = logistic._Segments(X.indptr)
            z = logistic._margins(X, rows, model.weights, model.bias,
                                  np.empty(X.data.shape[0]), np.empty(n))
            want = reference.margins(X, model.weights, model.bias)
            assert z.tobytes() == want.tobytes()
            assert predict_proba(model, X).tobytes() == \
                reference.sigmoid(want).tobytes()
            got = loss_grad(model, X, y)
            ref = reference.sparse_loss_grad(model, X, y)
            assert repr(got[0]) == repr(ref[0])
            assert got[1].tobytes() == ref[1].tobytes()
            assert repr(got[2]) == repr(ref[2])

    def test_empty_rows_and_columns(self):
        X = csr([[0.0, 0.0, 0.0], [0.0, 2.5, 0.0], [0.0, 0.0, 0.0]])
        model = LogisticModel(np.array([-3.0, 0.25, 7.0]), -1.5, 0.5)
        assert predict_proba(model, X).tobytes() == \
            reference.sigmoid(np.array([-1.5, -0.875, -1.5])).tobytes()
        _, grad_w, _ = loss_grad(model, X, [0, 1, 1])
        assert grad_w[0] == 0.5 / 3 * -3.0 and grad_w[2] == 0.5 / 3 * 7.0
        empty = csr(np.zeros((2, 3)))
        assert predict_proba(model, empty).tolist() == [
            reference.sigmoid(-1.5)] * 2
        # signed zeros: an empty row's margin is b itself, an empty
        # column's gradient is lam / n * w itself
        model = LogisticModel(np.array([-3.0, 0.25, 7.0]), -0.0, 0.0)
        z = logistic._margins(X, logistic._Segments(X.indptr),
                              model.weights, model.bias, np.empty(1),
                              np.empty(3))
        assert z.tobytes() == reference.margins(X, model.weights,
                                                -0.0).tobytes()
        assert repr(float(z[0])) == "-0.0"
        got = loss_grad(model, X, [0, 1, 1])[1]
        want = reference.sparse_loss_grad(model, X, [0, 1, 1])[1]
        assert got.tobytes() == want.tobytes()
        assert repr(float(got[0])) == "-0.0"

    def test_one_row_batch_scores_like_its_corpus(self):
        rng = np.random.default_rng(5)
        X = _random_batch(rng, rng.integers(0, 60, size=40), 200)
        model = LogisticModel(rng.normal(size=200), 0.3, 1.0)
        scores = predict_proba(model, X)
        for i in range(40):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            row = FeatureBatch(np.array([0, hi - lo]), X.indices[lo:hi],
                               X.data[lo:hi], (1, 200))
            assert predict_proba(model, row).tobytes() == \
                scores[i:i + 1].tobytes()

    def test_index_out_of_range_is_rejected(self):
        model = LogisticModel(np.zeros(3), 0.0, 1.0)
        X = FeatureBatch(np.array([0, 1, 2]), np.array([0, 3]),
                         np.array([1.0, 1.0]), (2, 3))
        with pytest.raises(ValueError, match="out of range"):
            predict_proba(model, X)
        with pytest.raises(ValueError, match="out of range"):
            train(X, [0, 1])


class TestPredict:
    def test_zero_model_tie_is_malicious(self):
        model = LogisticModel(np.zeros(2), 0.0, 1.0)
        scores = predict_proba(model, csr([0.0, 0.0]))
        assert scores[0] == 0.5
        assert evaluate([1], scores).cm.tp == 1   # the tie is malicious

    def test_bias_identity(self):
        model = LogisticModel(np.zeros(2), math.log(3), 1.0)
        assert predict_proba(model, csr([0.0, 0.0]))[0] == pytest.approx(0.75)

    def test_monotone_in_positive_weight_feature(self):
        model = LogisticModel(np.array([2.0, -1.0]), 0.1, 1.0)
        probs = [predict_proba(model, csr([x, 0.5]))[0]
                 for x in np.linspace(-3, 3, 13)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_dimension_mismatch(self):
        model = LogisticModel(np.zeros(3), 0.0, 1.0)
        with pytest.raises(ValueError):
            predict_proba(model, csr([1.0, 2.0]))
