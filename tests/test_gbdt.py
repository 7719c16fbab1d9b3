import bisect
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from suspkit import gbdt
from suspkit.gbdt import (
    GbdtClassifier,
    _leaf_paths,
    _scalar_square,
    log_loss,
    sigmoid,
)

from oracles import shapley_exact

# The classifier takes every setting explicitly; fits that only choose
# their round count grow deep trees at the usual shrinkage.
DEEP = dict(learning_rate=0.1, max_depth=6, reg_lambda=1.0)


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        assert sigmoid(np.array([math.log(3)]))[0] == pytest.approx(0.75)

    def test_extreme_inputs_stay_finite(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)


class TestLogLoss:
    def test_hand_value(self):
        y = np.array([1.0, 0.0])
        p = np.array([0.8, 0.4])
        expected = -(math.log(0.8) + math.log(0.6)) / 2
        assert log_loss(y, p) == pytest.approx(expected)

    def test_clipping_avoids_infinity(self):
        y = np.array([1.0])
        p = np.array([0.0])
        assert math.isfinite(log_loss(y, p))


class TestFit:
    def test_separable_threshold(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(200, 1))
        y = (x[:, 0] > 0).astype(float)
        model = GbdtClassifier(n_rounds=20, learning_rate=0.3, max_depth=2, reg_lambda=1.0)
        model.fit(x, y)
        pred = (model.predict_proba(x) >= 0.5).astype(float)
        assert np.mean(pred == y) == 1.0

    def test_xor_needs_depth_two(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(400, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(float)
        model = GbdtClassifier(n_rounds=40, learning_rate=0.3, max_depth=2, reg_lambda=1.0)
        model.fit(x, y)
        pred = (model.predict_proba(x) >= 0.5).astype(float)
        assert np.mean(pred == y) > 0.95

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((100, 3))
        y = (x[:, 0] + 0.1 * rng.standard_normal(100) > 0).astype(float)
        model = GbdtClassifier(n_rounds=10, **DEEP)
        model.fit(x, y)
        p = model.predict_proba(x)
        assert np.all(p > 0) and np.all(p < 1)

    def test_constant_labels(self):
        x = np.zeros((10, 2))
        y = np.ones(10)
        model = GbdtClassifier(n_rounds=3, **DEEP)
        model.fit(x, y)
        assert np.all(model.predict_proba(x) > 0.5)

    def test_nan_features_rejected(self):
        x = np.array([[1.0], [float("nan")]])
        y = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            GbdtClassifier(n_rounds=2, **DEEP).fit(x, y)

    def test_label_validation(self):
        x = np.zeros((4, 1))
        with pytest.raises(ValueError):
            GbdtClassifier(n_rounds=2, **DEEP).fit(x, np.array([0.0, 1.0, 2.0, 0.0]))


class TestImportance:
    def test_planted_column_dominates(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((300, 4))
        y = (x[:, 2] > 0).astype(float)
        model = GbdtClassifier(n_rounds=15, max_depth=2, learning_rate=0.1, reg_lambda=1.0)
        model.fit(x, y)
        imp = model.feature_importance()
        assert imp.shape == (4,)
        assert imp.sum() == pytest.approx(1.0)
        assert np.argmax(imp) == 2
        assert imp[2] > 0.8


class TestSerialization:
    def test_roundtrip_predictions_identical(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((150, 3))
        y = (x[:, 0] - x[:, 1] > 0).astype(float)
        model = GbdtClassifier(n_rounds=12, max_depth=3, learning_rate=0.1, reg_lambda=1.0)
        model.fit(x, y)
        clone = GbdtClassifier.from_dict(model.to_dict())
        np.testing.assert_array_equal(clone.predict_proba(x), model.predict_proba(x))

    def test_hyperparameters_survive(self):
        model = GbdtClassifier(n_rounds=7, learning_rate=0.05, max_depth=4, reg_lambda=1.0)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 2))
        y = (x[:, 0] > 0).astype(float)
        model.fit(x, y)
        clone = GbdtClassifier.from_dict(model.to_dict())
        assert clone.n_rounds == 7
        assert clone.learning_rate == 0.05
        assert clone.max_depth == 4

    def test_trees_keep_their_fields_and_dtypes(self, deep_model):
        # A tree's JSON keys are its field names; a load restores the
        # int32 node links and features and the float64 values.
        model, _ = deep_model
        clone = GbdtClassifier.from_dict(json.loads(json.dumps(model.to_dict())))
        names = [f.name for f in fields(gbdt.Tree)]
        expected = {"feature": np.int32, "threshold": np.float64, "left": np.int32,
                    "right": np.int32, "value": np.float64}
        assert sorted(names) == sorted(expected)
        for tree in clone.trees:
            assert list(tree.to_dict()) == names
            assert {name: getattr(tree, name).dtype for name in names} == expected

    def test_loads_a_dict_with_the_retired_keys(self, deep_model):
        # model.json once also held n_features, max_bins, min_child_hess
        # and split_gain; a load ignores them and predicts the same bits.
        model, X = deep_model
        old = {**model.to_dict(), "n_features": X.shape[1], "max_bins": 256,
               "min_child_hess": 1e-3, "split_gain": model._split_gain.tolist()}
        clone = GbdtClassifier.from_dict(json.loads(json.dumps(old)))
        probe = _probe_rows(model, X, 9)
        assert clone.decision_function(probe).tobytes() == model.decision_function(probe).tobytes()
        rows, background = probe[:8], X[:16]
        assert (clone.shap_values(rows, background).tobytes()
                == model.shap_values(rows, background).tobytes())


def _reference_fit(X, y, n_rounds, learning_rate, max_depth, reg_lambda=1.0, min_child_hess=1e-3):
    """Pure-Python boosting: one split search per node, feature and bin.

    Bin sums and running sums add in row and bin order; a feature's
    totals are numpy's sum over its own bins, and the parent term squares
    them as a float power.  The first (feature, bin) with the largest
    gain wins.
    """
    n, d = X.shape
    uppers = [gbdt._quantile_uppers(X[:, j]).tolist() for j in range(d)]
    codes = [[bisect.bisect_left(uppers[j], X[i, j]) for j in range(d)] for i in range(n)]
    pos_rate = np.clip(y.mean(), 1e-6, 1.0 - 1e-6)
    base_score = float(np.log(pos_rate / (1.0 - pos_rate)))
    raw = [base_score] * n
    split_gain = np.zeros(d)
    trees, losses = [], []
    for _ in range(n_rounds):
        p = sigmoid(np.array(raw))
        g, h = (p - y).tolist(), (p * (1.0 - p)).tolist()
        tree = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [0.0]}
        frontier = [(0, list(range(n)))]
        for depth in range(max_depth + 1):
            next_frontier = []
            for node, rows in frontier:
                best = None
                if depth < max_depth and len(rows) > 1:
                    for j in range(d):
                        n_bins = len(uppers[j]) + 1
                        g_hist = [np.float64(0.0)] * n_bins
                        h_hist = [np.float64(0.0)] * n_bins
                        for r in rows:
                            g_hist[codes[r][j]] += g[r]
                            h_hist[codes[r][j]] += h[r]
                        gt, ht = np.sum(g_hist), np.sum(h_hist)
                        gl = hl = np.float64(0.0)
                        gains = []
                        for b in range(n_bins - 1):
                            gl += g_hist[b]
                            hl += h_hist[b]
                            gr, hr = gt - gl, ht - hl
                            if hl < min_child_hess or hr < min_child_hess:
                                gains.append(-math.inf)
                                continue
                            gains.append(gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda)
                                         - gt**2 / (ht + reg_lambda))
                        if not gains or any(math.isnan(v) for v in gains):
                            continue  # argmax would land on the NaN, which no gain beats
                        b = gains.index(max(gains))
                        if best is None or gains[b] > best[0]:
                            best = (gains[b], j, b)
                if best is None or best[0] <= 0.0:
                    gs, hs = np.sum([g[r] for r in rows]), np.sum([h[r] for r in rows])
                    tree["value"][node] = -gs / (hs + reg_lambda)
                    for r in rows:
                        raw[r] += learning_rate * tree["value"][node]
                    continue
                gain, j, b = best
                split_gain[j] += gain
                tree["feature"][node], tree["threshold"][node] = j, uppers[j][b]
                for part in ([r for r in rows if codes[r][j] <= b], [r for r in rows if codes[r][j] > b]):
                    next_frontier.append((len(tree["feature"]), part))
                    for key, empty in (("feature", -1), ("threshold", 0.0), ("left", -1),
                                       ("right", -1), ("value", 0.0)):
                        tree[key].append(empty)
                tree["left"][node] = len(tree["feature"]) - 2
                tree["right"][node] = len(tree["feature"]) - 1
            frontier = next_frontier
        trees.append(tree)
        losses.append(log_loss(y, sigmoid(np.array(raw))))
    return {"base_score": base_score, "split_gain": split_gain.tolist(), "trees": trees}, losses


def _split_search_data(seed):
    """Normal, rounded, 2- and 3-valued and constant columns, plus a
    duplicate of column 0 so that gains tie exactly across features."""
    rng = np.random.default_rng(seed)
    n = 70
    X = np.column_stack([
        rng.standard_normal(n),
        np.round(rng.standard_normal(n), 1),
        rng.integers(0, 2, n).astype(float),
        rng.integers(0, 3, n) * 0.5,
        np.full(n, 2.5),
        rng.uniform(-1, 1, n),
    ])
    X = np.column_stack([X, X[:, 0]])
    y = (X[:, 0] + X[:, 2] + 0.7 * rng.standard_normal(n) > 0.5).astype(float)
    return X, y


def _walk(model, x):
    """Score of one row by a scalar walk of each tree in turn."""
    raw = model.base_score
    for tree in model.trees:
        node = 0
        while tree.feature[node] >= 0:
            go_left = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        raw += model.learning_rate * float(tree.value[node])
    return raw


def _probe_rows(model, X, seed):
    """Training rows, rows sitting exactly on split thresholds, and NaNs."""
    rng = np.random.default_rng(seed)
    thresholds = [(j, t) for tree in model.trees
                  for j, t in zip(tree.feature, tree.threshold) if j >= 0]
    on_split = X[rng.integers(0, X.shape[0], len(thresholds))].copy()
    for row, (j, t) in zip(on_split, thresholds):
        row[j] = t
    with_nan = X[:40].copy()
    with_nan[rng.random(with_nan.shape) < 0.3] = np.nan
    return np.vstack([X, on_split, with_nan, np.full((1, X.shape[1]), np.nan)])


def _max_leaves(model):
    return max(int(np.sum(tree.feature < 0)) for tree in model.trees)


@pytest.fixture(scope="module")
def deep_model():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((700, 4))
    y = (X[:, 0] * X[:, 1] + 0.8 * rng.standard_normal(700) > 0).astype(float)
    model = GbdtClassifier(n_rounds=4, learning_rate=0.3, max_depth=8, reg_lambda=1.0).fit(X, y)
    return model, X


class TestSplitSearchOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trees_match_brute_force(self, seed):
        X, y = _split_search_data(seed)
        model = GbdtClassifier(
            n_rounds=6, learning_rate=0.3, max_depth=3, reg_lambda=1.0
        ).fit(X, y)
        expected, losses = _reference_fit(X, y, 6, 0.3, 3)
        self._assert_same(model, expected, losses)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_lambda_at_the_hessian_floor(self, seed):
        # With no lambda an empty child gives 0/0, which the hessian
        # floor turns into no split.
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, (40, 3)).astype(float)
        y = (rng.random(40) > 0.5).astype(float)
        model = GbdtClassifier(n_rounds=4, learning_rate=0.3, max_depth=3,
                               reg_lambda=0.0).fit(X, y)
        expected, losses = _reference_fit(X, y, 4, 0.3, 3, reg_lambda=0.0)
        self._assert_same(model, expected, losses)

    def test_node_whose_rows_fill_only_last_bins(self):
        # The last bin holds only the values above the top quantile cut: the
        # first split isolates those rows, whose child then has no bin with
        # rows that could split it.
        x = np.arange(600.0)
        X = np.column_stack([x, x[::-1] * -1.0])
        y = (x >= 597).astype(float)
        model = GbdtClassifier(
            n_rounds=3, learning_rate=0.3, max_depth=2, reg_lambda=1.0
        ).fit(X, y)
        assert np.sum(x > model.trees[0].threshold[0]) == 3
        expected, losses = _reference_fit(X, y, 3, 0.3, 2)
        self._assert_same(model, expected, losses)

    @staticmethod
    def _assert_same(model, expected, losses):
        got = model.to_dict()
        assert json.dumps(got["trees"]) == json.dumps(expected["trees"])
        assert json.dumps(model._split_gain.tolist()) == json.dumps(expected["split_gain"])
        assert got["base_score"] == expected["base_score"]
        assert model.train_loss == losses

    def test_duplicate_column_never_wins_a_tie(self):
        X, y = _split_search_data(0)
        model = GbdtClassifier(
            n_rounds=6, learning_rate=0.3, max_depth=3, reg_lambda=1.0
        ).fit(X, y)
        used = {int(j) for tree in model.trees for j in tree.feature if j >= 0}
        assert 0 in used and X.shape[1] - 1 not in used
        assert 4 not in used  # the constant column

    def test_parent_term_squares_like_a_scalar_power(self):
        x = np.random.default_rng(5).standard_normal(20000) * 30
        expected = np.array([np.float64(v) ** 2 for v in x])
        assert _scalar_square(x).tobytes() == expected.tobytes()


def _spread_splits(parts, monkeypatch):
    """Make every fit search each level in min(parts, features)
    contiguous feature ranges, one `_best_splits` call each, and keep per node the first
    range's split among equal gains."""
    of, best_splits = gbdt._BinLayout.of, gbdt._best_splits

    def layouts(uppers):
        d = len(uppers)
        ranges = np.array_split(np.arange(d), min(parts, d))
        assert all(r.size for r in ranges)
        return [(r[0], r[-1] + 1, of(uppers[r[0]:r[-1] + 1])) for r in ranges]

    def search(codes, node_rows, g, h, ranges, lam):
        gain = None
        for lo, hi, layout in ranges:
            g_, f_, b_ = best_splits(codes[:, lo:hi], node_rows, g, h, layout, lam)
            if gain is None:
                gain, feature, split_bin = g_.copy(), f_ + lo, b_.copy()
                continue
            better = g_ > gain
            gain[better], feature[better], split_bin[better] = g_[better], f_[better] + lo, b_[better]
        return gain, feature, split_bin

    monkeypatch.setattr(gbdt._BinLayout, "of", layouts)
    monkeypatch.setattr(gbdt, "_best_splits", search)


class TestSpreadSplitSearch(TestSplitSearchOracle):
    """The oracle cases with every level searched in 2 and 3 contiguous
    feature ranges and merged.  A feature's gains depend on its own bins
    and the node's rows alone, so the trees keep every bit.  Column 6,
    the duplicate of column 0, then ties with it across a range
    boundary."""

    @pytest.fixture(autouse=True, params=[2, 3])
    def spread(self, request, monkeypatch):
        _spread_splits(request.param, monkeypatch)


def _redundant_tests_model():
    """A loaded model with no split gains and one hand-built tree: x0 <= 0,
    then x0 <= 1 again on the left and x0 <= -1 on the right, so the
    leaves behind the second tests can never be reached.  Leaves sit at
    depths 2 and 3."""
    tree = {
        "feature": [0, 0, 1, -1, -1, -1, 0, -1, -1],
        "threshold": [0.0, 1.0, 0.5, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        "left": [1, 3, 5, -1, -1, -1, 7, -1, -1],
        "right": [2, 4, 6, -1, -1, -1, 8, -1, -1],
        "value": [0.0, 0.0, 0.0, 1.0, 7.0, -2.0, 0.0, 5.0, 3.0],
    }
    return GbdtClassifier.from_dict({
        "n_rounds": 1, "learning_rate": 1.0, "max_depth": 3, "reg_lambda": 1.0,
        "base_score": 0.25, "trees": [tree],
    })


class TestBitmaskPrediction:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scalar_walk(self, seed):
        X, y = _split_search_data(seed)
        model = GbdtClassifier(
            n_rounds=8, learning_rate=0.3, max_depth=4, reg_lambda=1.0
        ).fit(X, y)
        probe = _probe_rows(model, X, seed)
        expected = np.array([_walk(model, row) for row in probe])
        assert model.decision_function(probe).tobytes() == expected.tobytes()

    def test_single_leaf_trees(self):
        X, _ = _split_search_data(4)
        model = GbdtClassifier(n_rounds=3, **DEEP).fit(X, np.ones(X.shape[0]))
        assert _max_leaves(model) == 1
        probe = _probe_rows(model, X, 4)
        expected = np.array([_walk(model, row) for row in probe])
        assert model.decision_function(probe).tobytes() == expected.tobytes()

    def test_more_than_64_leaves(self, deep_model):
        model, X = deep_model
        assert _max_leaves(model) > 64
        probe = _probe_rows(model, X, 6)
        expected = np.array([_walk(model, row) for row in probe])
        assert model.decision_function(probe).tobytes() == expected.tobytes()

    def test_roundtrip_keeps_deep_predictions(self, deep_model):
        model, X = deep_model
        clone = GbdtClassifier.from_dict(json.loads(json.dumps(model.to_dict())))
        probe = _probe_rows(model, X, 7)
        assert clone.decision_function(probe).tobytes() == model.decision_function(probe).tobytes()

    def test_empty_input(self, deep_model):
        model, X = deep_model
        assert model.decision_function(X[:0]).shape == (0,)

    def test_loaded_model_without_split_gains(self):
        model = _redundant_tests_model()
        grid = np.array([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
        rows = np.vstack([
            np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2),
            [[np.nan, 0.5], [0.0, np.nan], [-1.5, np.nan], [np.nan, np.nan]],
        ])
        expected = np.array([_walk(model, row) for row in rows])
        assert model.decision_function(rows).tobytes() == expected.tobytes()

    def test_unfitted_model_refuses_to_predict(self):
        with pytest.raises(ValueError):
            GbdtClassifier(n_rounds=3, **DEEP).decision_function(np.zeros((2, 2)))


def _enumerated_phi(model, X, background):
    """Margin-space Shapley values by coalition enumeration, row by row."""
    return np.array([shapley_exact(model.decision_function, x, background)[0] for x in X])


def _max_path_features(model):
    return max(len(bounds) for tree in model.trees for _, bounds in _leaf_paths(tree))


def _tested_twice_on_a_path(model):
    """Whether some root-to-leaf path tests one feature more than once."""
    for tree in model.trees:
        stack = [(0, ())]
        while stack:
            node, seen = stack.pop()
            f = int(tree.feature[node])
            if f < 0:
                continue
            if f in seen:
                return True
            stack += [(int(tree.left[node]), seen + (f,)), (int(tree.right[node]), seen + (f,))]
    return False


def _explained_rows(model, X, seed):
    """A few training rows, rows on split thresholds, and rows with NaN."""
    probe = _probe_rows(model, X, seed)
    rng = np.random.default_rng(seed)
    return probe[np.sort(rng.choice(probe.shape[0], size=12, replace=False))]


class TestTreeShap:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_enumeration(self, seed):
        X, y = _split_search_data(seed)
        model = GbdtClassifier(
            n_rounds=12, learning_rate=0.3, max_depth=4, reg_lambda=1.0
        ).fit(X, y)
        rows = _explained_rows(model, X, seed)
        background = np.vstack([X[:10], _probe_rows(model, X, seed + 10)[70:76]])
        phi = model.shap_values(rows, background)
        np.testing.assert_allclose(phi, _enumerated_phi(model, rows, background),
                                   atol=1e-9, rtol=0)
        gap = model.decision_function(rows) - model.decision_function(background).mean()
        np.testing.assert_allclose(phi.sum(axis=1), gap, atol=1e-12, rtol=0)

    def test_feature_tested_twice_on_a_path(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((300, 3))
        y = (np.abs(X[:, 0]) < 0.6).astype(float)
        model = GbdtClassifier(
            n_rounds=5, learning_rate=0.5, max_depth=4, reg_lambda=1.0
        ).fit(X, y)
        assert _tested_twice_on_a_path(model)
        rows = _explained_rows(model, X, 5)
        phi = model.shap_values(rows, X[:15])
        np.testing.assert_allclose(phi, _enumerated_phi(model, rows, X[:15]), atol=1e-9, rtol=0)

    def test_unreachable_leaves_behind_redundant_tests(self):
        model = _redundant_tests_model()
        grid = np.array([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
        rows = np.column_stack([grid, grid[::-1]])
        background = np.column_stack([np.roll(grid, 2), grid])
        phi = model.shap_values(rows, background)
        np.testing.assert_allclose(phi, _enumerated_phi(model, rows, background),
                                   atol=1e-12, rtol=0)

    def test_single_leaf_trees_attribute_nothing(self):
        X, _ = _split_search_data(4)
        model = GbdtClassifier(n_rounds=3, **DEEP).fit(X, np.ones(X.shape[0]))
        assert _max_leaves(model) == 1
        phi = model.shap_values(X[:5], X[5:20])
        assert np.all(phi == 0.0)

    def test_max_depth_8(self, deep_model):
        model, X = deep_model
        assert _max_path_features(model) == 4
        rows = _explained_rows(model, X, 8)
        phi = model.shap_values(rows, X[:16])
        np.testing.assert_allclose(phi, _enumerated_phi(model, rows, X[:16]), atol=1e-9, rtol=0)

    def test_paths_longer_than_the_table(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((800, 12))
        y = (np.sign(X).sum(axis=1) + 0.5 * rng.standard_normal(800) > 0).astype(float)
        model = GbdtClassifier(
            n_rounds=2, learning_rate=0.3, max_depth=12, reg_lambda=1.0
        ).fit(X, y)
        assert _max_path_features(model) > gbdt._TABLE_MAX_FEATURES
        rows = X[:4]
        phi = model.shap_values(rows, X[4:14])
        np.testing.assert_allclose(phi, _enumerated_phi(model, rows, X[4:14]), atol=1e-9, rtol=0)

    def test_pairwise_and_blocked_paths_agree_with_the_table(self, monkeypatch):
        X, y = _split_search_data(1)
        model = GbdtClassifier(
            n_rounds=10, learning_rate=0.3, max_depth=5, reg_lambda=1.0
        ).fit(X, y)
        rows = _explained_rows(model, X, 1)
        expected = model.shap_values(rows, X[:20])
        monkeypatch.setattr(gbdt, "_SHAP_BLOCK", 16)
        np.testing.assert_allclose(model.shap_values(rows, X[:20]), expected, atol=1e-12, rtol=0)
        monkeypatch.setattr(gbdt, "_TABLE_MAX_FEATURES", 0)
        np.testing.assert_allclose(model.shap_values(rows, X[:20]), expected, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("table_max", [gbdt._TABLE_MAX_FEATURES, 0], ids=["table", "paired"])
    def test_row_blocks_keep_the_bits(self, monkeypatch, table_max):
        # A block of one row and a block of every row give each row's
        # slots one addition per block of leaves, as the default does.
        X, y = _split_search_data(1)
        model = GbdtClassifier(
            n_rounds=10, learning_rate=0.3, max_depth=5, reg_lambda=1.0
        ).fit(X, y)
        monkeypatch.setattr(gbdt, "_TABLE_MAX_FEATURES", table_max)
        rows = _explained_rows(model, X, 1)
        expected = model.shap_values(rows, X[:20]).tobytes()
        for budget in (1, 1 << 40):
            monkeypatch.setattr(gbdt, "_SHAP_ROW_BLOCK", budget)
            assert model.shap_values(rows, X[:20]).tobytes() == expected

    def test_sum_of_single_tree_values(self):
        X, y = _split_search_data(2)
        model = GbdtClassifier(
            n_rounds=8, learning_rate=0.3, max_depth=4, reg_lambda=1.0
        ).fit(X, y)
        rows, background = X[:9], X[30:50]
        total = np.zeros((9, X.shape[1]))
        for tree in model.trees:
            single = GbdtClassifier.from_dict({**model.to_dict(), "base_score": 0.0,
                                               "trees": [tree.to_dict()]})
            total += single.shap_values(rows, background)
        np.testing.assert_allclose(model.shap_values(rows, background), total,
                                   atol=1e-12, rtol=0)

    def test_unread_features_get_exact_zero(self):
        X, y = _split_search_data(3)
        model = GbdtClassifier(
            n_rounds=10, learning_rate=0.3, max_depth=3, reg_lambda=1.0
        ).fit(X, y)
        read = {int(f) for tree in model.trees for f in tree.feature if f >= 0}
        unread = sorted(set(range(X.shape[1])) - read)
        assert 4 in unread  # the constant column
        phi = model.shap_values(_explained_rows(model, X, 3), X[:20])
        assert np.all(phi[:, unread] == 0.0)

    def test_input_validation(self, deep_model):
        model, X = deep_model
        with pytest.raises(ValueError):
            model.shap_values(X[:2], X[:0])
        with pytest.raises(ValueError):
            model.shap_values(X[:2], X[:5, :3])
        with pytest.raises(ValueError):
            GbdtClassifier(n_rounds=3, **DEEP).shap_values(X[:2], X[:5])
        assert model.shap_values(X[:0], X[:5]).shape == (0, X.shape[1])
