
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from flowdpi import tree
from flowdpi.tree import (DecisionTreeModel, TreeHyper, TreeNode, predict,
                          predict_one, predict_proba, train)


def _gini(y):
    if len(y) == 0:
        return 0.0
    p = np.mean(y)
    return 2 * p * (1 - p)


def _exhaustive_best_split(X, y):
    """Enumerate every (feature, midpoint) pair; lowest weighted Gini,
    ties broken by lowest feature then lowest threshold."""
    best = None
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f]))
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2
            left = y[X[:, f] <= thr]
            right = y[X[:, f] > thr]
            weighted = (len(left) * _gini(left)
                        + len(right) * _gini(right)) / len(y)
            key = (weighted, f, thr)
            if best is None or key < best:
                best = key
    return best


def _scalar_impurity(n_pos, n):
    p = n_pos / n
    return 2.0 * p * (1.0 - p)


def _scalar_best_split(X, y):
    """Straight-line split search, one candidate position at a time: the
    reference that the one-pass search must reproduce bit for bit."""
    n = y.shape[0]
    n_pos = float(y.sum())
    parent = _scalar_impurity(n_pos, n)
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        pos_cum = np.cumsum(y[order])
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            mid = (xs[i] + xs[i + 1]) / 2.0
            thr = mid if mid < xs[i + 1] else xs[i]
            n_left = i + 1
            left_pos = float(pos_cum[i])
            weighted = (n_left / n * _scalar_impurity(left_pos, n_left)
                        + (n - n_left) / n * _scalar_impurity(
                            n_pos - left_pos, n - n_left))
            gain = parent - weighted
            if best is None or gain > best[2]:
                best = (f, thr, gain)
    return best


class TestTrain:
    def test_one_dimensional_split(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = train(X, y)
        root = model.nodes[0]
        assert not root.is_leaf
        assert root.feature == 0 and root.threshold == 5.5
        assert np.array_equal(predict(model, X), y)
        assert predict_one(model, [3.0]) == (0, 0.0)
        assert predict_one(model, [8.0]) == (1, 1.0)

    def test_pure_data_single_leaf(self):
        model = train(np.arange(6).reshape(-1, 1), np.zeros(6))
        assert len(model.nodes) == 1
        assert model.nodes[0].is_leaf and model.nodes[0].klass == 0

    def test_max_depth_zero_majority_leaf(self):
        X = np.arange(10).reshape(-1, 1)
        y = np.array([0] * 7 + [1] * 3)
        model = train(X, y, TreeHyper(max_depth=0))
        assert len(model.nodes) == 1
        assert model.nodes[0].klass == 0
        assert model.nodes[0].proba == pytest.approx(0.3)

    def test_majority_tie_is_malicious(self):
        model = train(np.zeros((4, 1)), np.array([0, 0, 1, 1]))
        assert model.nodes[0].klass == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((0, 2)), np.zeros(0))

    def test_distinct_rows_reach_perfect_training_accuracy(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(120, 4))
        y = rng.integers(0, 2, size=120)
        model = train(X, y, TreeHyper(max_depth=10**6))
        assert float(np.mean(predict(model, X) == y)) == 1.0

    def test_root_split_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(4, 30))
            d = int(rng.integers(1, 4))
            X = np.round(rng.normal(size=(n, d)), 2)
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            model = train(X, y, TreeHyper(max_depth=1, min_gain=0.0))
            best = _exhaustive_best_split(X, y)
            root = model.nodes[0]
            if root.is_leaf:
                # no split strictly improves impurity
                assert best is None or best[0] >= _gini(y) - 1e-12
                continue
            left = y[X[:, root.feature] <= root.threshold]
            right = y[X[:, root.feature] > root.threshold]
            chosen = (len(left) * _gini(left)
                      + len(right) * _gini(right)) / len(y)
            # chosen split is optimal; exact tie-breaks may differ only
            # between splits of identical quality
            assert chosen == pytest.approx(best[0], abs=1e-12)

    @pytest.mark.parametrize("min_gain", [0.0, 1e-7])
    def test_full_trees_match_scalar_split_search(self, min_gain,
                                                  monkeypatch):
        rng = np.random.default_rng(17)
        hyper = TreeHyper(max_depth=10**6, min_gain=min_gain)
        grown = []
        for _ in range(20):
            n = int(rng.integers(2, 150))
            d = int(rng.integers(1, 5))
            # one decimal: many repeated values, so ties are common
            X = np.round(rng.normal(size=(n, d)), 1)
            y = rng.integers(0, 2, size=n)
            grown.append((X, y, train(X, y, hyper).nodes))
        monkeypatch.setattr(tree, "_best_split", _scalar_best_split)
        for X, y, nodes in grown:
            assert train(X, y, hyper).nodes == nodes

    def test_adjacent_float_values_leave_no_child_empty(self):
        # duration, packet rate; the rates of rows 0 and 1 are adjacent
        # floats, and their midpoint rounds onto the upper one
        packets = [(0.070, 7), (0.020, 2), (0.015, 1), (0.010, 1)]
        X = np.array([[d, k / d] for d, k in packets])
        y = np.array([0, 1, 0, 1])
        assert X[0, 1] == 99.99999999999999 and X[1, 1] == 100.0
        assert np.nextafter(X[0, 1], np.inf) == X[1, 1]
        model = train(X, y)
        leaves = {i for i, node in enumerate(model.nodes) if node.is_leaf}
        assert set(tree._leaves(model, X).tolist()) == leaves
        assert np.array_equal(predict(model, X), y)
        assert [predict_one(model, row)[0] for row in X] == list(y)


class TestHyper:
    def test_negative_max_depth_rejected(self):
        with pytest.raises(ValueError, match="max_depth"):
            TreeHyper(max_depth=-1)


def _stump(**root):
    """Root split on feature 0 of 2, with two leaves."""
    fields = dict(feature=0, threshold=0.5, left=1, right=2)
    fields.update(root)
    return [TreeNode(**fields), TreeNode(klass=0, proba=0.25),
            TreeNode(klass=1, proba=1.0)]


class TestModelValidation:
    def test_well_formed_stump_accepted(self):
        model = DecisionTreeModel(_stump(), 2, 1, 2)
        assert list(predict(model, [[0.0, 9.0], [1.0, 9.0]])) == [0, 1]

    @pytest.mark.parametrize("nodes, reason", [
        (_stump(left=0), "left child 0 is not after the node"),
        (_stump(right=3), "right child 3 is not after the node"),
        (_stump(left=-1), "left child -1"),
        (_stump(feature=2), "feature 2 is outside"),
        (_stump(feature=-1), "feature -1 is outside"),
        (_stump(threshold=float("nan")), "threshold nan is not finite"),
        (_stump(threshold=float("inf")), "threshold inf is not finite"),
        (_stump(klass=2), "class 2 is not"),
        (_stump()[:2] + [TreeNode(klass=1, proba=1.5)], "proba 1.5"),
        (_stump()[:2] + [TreeNode(klass=1, proba=float("nan"))],
         "proba nan"),
    ])
    def test_malformed_model_rejected(self, nodes, reason):
        with pytest.raises(ValueError, match=reason):
            DecisionTreeModel(nodes, 2, 1, 2)


class TestPredict:
    def test_single_leaf_constant(self):
        model = train(np.zeros((3, 2)), np.ones(3))
        for x in ([-5, 0], [0, 0], [99, 99]):
            assert predict_one(model, x) == (1, 1.0)

    def test_depth_bounded(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, size=200)
        model = train(X, y, TreeHyper(max_depth=4))

        def depth(i):
            node = model.nodes[i]
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(0) <= 4

    def test_dimension_mismatch(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0], [10.0, 3.0], [11.0, 2.0]])
        y = np.array([0, 0, 1, 1])
        model = train(X, y)
        with pytest.raises(ValueError):
            predict_one(model, [1.0])
        for batch in (predict, predict_proba):
            with pytest.raises(ValueError, match="dimension"):
                batch(model, np.zeros((3, 3)))
            with pytest.raises(ValueError, match="dimension"):
                batch(model, np.zeros((3, 1)))

    def test_batch_matches_row_by_row_descent(self):
        rng = np.random.default_rng(21)
        X = np.round(rng.normal(size=(300, 3)), 1)
        y = rng.integers(0, 2, size=300)
        model = train(X, y, TreeHyper(max_depth=6))
        # unseen rows, and rows that lie exactly on each split threshold
        on_threshold = []
        for node in model.nodes:
            if not node.is_leaf:
                row = rng.normal(size=3)
                row[node.feature] = node.threshold
                on_threshold.append(row)
        rows = np.vstack([X, rng.normal(size=(100, 3)), on_threshold])
        expected = [reference.predict_one(model, row) for row in rows]
        assert predict(model, rows).tolist() == [k for k, _ in expected]
        assert predict_proba(model, rows).tolist() == [p for _, p in expected]

    def test_predict_proba_in_unit_interval(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 2))
        y = rng.integers(0, 2, size=60)
        model = train(X, y, TreeHyper(max_depth=3))
        probs = predict_proba(model, X)
        assert np.all((0.0 <= probs) & (probs <= 1.0))


# a few values, so that rows often sit exactly on a threshold
_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0])


@st.composite
def _trees_and_rows(draw):
    """A random well-formed tree and rows of its width: any floats, inf
    and nan included, mixed with its threshold values."""
    n_features = draw(st.integers(1, 4))
    nodes = []

    def grow(depth):
        at = len(nodes)
        if depth == 0 or draw(st.booleans()):
            nodes.append(TreeNode(klass=draw(st.integers(0, 1)),
                                  proba=draw(st.floats(0.0, 1.0))))
            return at
        nodes.append(None)
        feature = draw(st.integers(0, n_features - 1))
        threshold = draw(_VALUES)
        left = grow(depth - 1)
        nodes[at] = TreeNode(feature=feature, threshold=threshold, left=left,
                             right=grow(depth - 1))
        return at

    grow(draw(st.integers(0, 6)))
    rows = draw(st.lists(st.lists(_VALUES | st.floats(),
                                  min_size=n_features, max_size=n_features),
                         min_size=1, max_size=20))
    return DecisionTreeModel(nodes, n_features, 6, 2), np.array(rows)


@given(_trees_and_rows())
@settings(max_examples=300, deadline=None)
def test_descent_matches_the_per_node_walk(case):
    """``_leaves``, through every name that reads it, sends each row to
    the leaf the per-node walk reaches."""
    model, X = case
    expected = [reference.predict_one(model, row) for row in X]
    assert [predict_one(model, row) for row in X] == expected
    assert predict(model, X).tolist() == [k for k, _ in expected]
    assert predict_proba(model, X).tolist() == [p for _, p in expected]
