import math

import numpy as np
import pytest

from flowdpi.logistic import (LogisticHyper, LogisticModel, loss_grad,
                              predict_proba, sigmoid, train)
from flowdpi.metrics import evaluate
import reference
from synth import separable_blobs


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_algebraic_identity(self):
        assert sigmoid(math.log(3)) == pytest.approx(0.75)

    def test_saturation_without_overflow(self):
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(1000.0) == 1.0
        assert np.all(np.isfinite(sigmoid(np.array([-750.0, 750.0]))))


class TestLossGrad:
    def test_zero_model_balanced_loss_is_ln2(self):
        model = LogisticModel(np.zeros(3), 0.0, 1.0)
        X = np.random.default_rng(0).normal(size=(10, 3))
        y = np.array([0, 1] * 5)
        loss, _, _ = loss_grad(model, X, y)
        assert loss == pytest.approx(math.log(2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = rng.integers(1, 8)
            n = rng.integers(2, 15)
            X = rng.normal(size=(n, d))
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
        X = np.eye(n)
        y = np.array([0, 1, 0, 1])
        w = np.ones(n)
        lam = 1e8
        loss, _, _ = loss_grad(LogisticModel(w, 0.0, lam), X, y)
        assert loss == pytest.approx(lam / (2 * n) * n, rel=1e-4)

    def test_dimension_mismatch(self):
        model = LogisticModel(np.zeros(3), 0.0, 1.0)
        with pytest.raises(ValueError):
            loss_grad(model, np.zeros((2, 4)), np.zeros(2))


class TestTrain:
    def test_separable_blobs_high_accuracy(self):
        X, y = separable_blobs(np.random.default_rng(7), n=200)
        model, info = train(X, y, LogisticHyper(lam=0.01))
        acc = float(np.mean((predict_proba(model, X) >= 0.5) == y))
        assert acc >= 0.99
        assert info.n_iter <= 5000

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((3, 2)), np.ones(3))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((3, 2)), np.array([0, 1, 2]))

    def test_duplicated_dataset_same_decision_function(self):
        # with lam > 0 the penalty weight lam/2n changes under
        # duplication, so invariance only holds for the unregularized loss
        X, y = separable_blobs(np.random.default_rng(3), n=60)
        hyper = LogisticHyper(lam=0.0, max_iters=500)
        m1, _ = train(X, y, hyper)
        m2, _ = train(np.vstack([X, X]), np.concatenate([y, y]), hyper)
        assert np.allclose(m1.weights, m2.weights, atol=1e-6)
        assert m1.bias == pytest.approx(m2.bias, abs=1e-6)

    def test_loss_non_increasing(self):
        X, y = separable_blobs(np.random.default_rng(9), n=80)
        _, info = train(X, y, LogisticHyper(max_iters=300))
        losses = np.array(info.losses)
        assert np.all(np.diff(losses) <= 0)

    def test_deterministic(self):
        X, y = separable_blobs(np.random.default_rng(5), n=50)
        m1, _ = train(X, y)
        m2, _ = train(X, y)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias


class TestTrainMatchesReference:
    """``train`` runs on plain arrays through the loss kernel; the loop
    that built a ``LogisticModel`` per trial is kept in ``reference``."""

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
        model, info = train(X, y, hyper)
        ref_model, ref_info = reference.train(X, y, hyper)
        assert model.weights.tobytes() == ref_model.weights.tobytes()
        assert repr(model.bias) == repr(ref_model.bias)
        assert list(map(repr, info.losses)) == \
            list(map(repr, ref_info.losses))
        assert (info.n_iter, info.converged) == \
            (ref_info.n_iter, ref_info.converged)

    def test_loss_grad_same_bits_as_reference(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 7))
        y = rng.integers(0, 2, size=30)
        model = LogisticModel(rng.normal(size=7), float(rng.normal()), 0.3)
        got, ref = loss_grad(model, X, y), reference.loss_grad(model, X, y)
        assert repr(got[0]) == repr(ref[0])
        assert got[1].tobytes() == ref[1].tobytes()
        assert repr(got[2]) == repr(ref[2])

    def test_non_finite_trial_raises_like_reference(self):
        X = np.array([[100.0], [-100.0]])
        y = np.array([1, 0])
        hyper = LogisticHyper(learning_rate=1e308)
        for fit in (train, reference.train):
            with np.errstate(over="ignore"), pytest.raises(
                    ValueError, match="model parameters must be finite"):
                fit(X, y, hyper)


class TestPredict:
    def test_zero_model_tie_is_malicious(self):
        model = LogisticModel(np.zeros(2), 0.0, 1.0)
        scores = predict_proba(model, [0.0, 0.0])
        assert scores[0] == 0.5
        assert evaluate([1], scores).cm.tp == 1   # the tie is malicious

    def test_bias_identity(self):
        model = LogisticModel(np.zeros(2), math.log(3), 1.0)
        assert predict_proba(model, [0.0, 0.0])[0] == pytest.approx(0.75)

    def test_monotone_in_positive_weight_feature(self):
        model = LogisticModel(np.array([2.0, -1.0]), 0.1, 1.0)
        probs = [predict_proba(model, [x, 0.5])[0]
                 for x in np.linspace(-3, 3, 13)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_dimension_mismatch(self):
        model = LogisticModel(np.zeros(3), 0.0, 1.0)
        with pytest.raises(ValueError):
            predict_proba(model, [1.0, 2.0])
