import csv

import numpy as np
import pytest

from suspkit.explainability import (
    Explanations,
    explain_matrix,
    impact_summary,
    write_explanations_csv,
    write_summary_csv,
)
from suspkit.gbdt import GbdtClassifier
from suspkit.suspension_model import (
    MODEL_KIND_GBDT,
    MODEL_KIND_LOGISTIC,
    FeatureMatrix,
    LogisticModel,
    SchemaMismatch,
    train,
)

from oracles import MAX_EXACT_FEATURES, TooManyFeatures, oracle_shapley, shapley_exact

# Every setting of the fits below; the logistic kind reads reg_lambda only.
HYPER = {"n_rounds": 6, "learning_rate": 0.3, "max_depth": 3, "reg_lambda": 1.0}


def linear_predictor(w, b=0.0):
    w = np.asarray(w, dtype=np.float64)
    return lambda X: X @ w + b


def product_predictor(X):
    return X[:, 0] * X[:, 1] + 0.5 * X[:, 2]


class TestExactAgainstOracle:
    def _compare(self, predict, m, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(m)
        background = rng.standard_normal((12, m))
        phi, base, out = shapley_exact(predict, x, background)
        phi_ref, base_ref, out_ref = oracle_shapley(predict, x, background)
        np.testing.assert_allclose(phi, phi_ref, atol=1e-9, rtol=0)
        assert base == pytest.approx(base_ref, abs=1e-9)
        assert out == pytest.approx(out_ref, abs=1e-9)
        assert abs(phi.sum() + base - out) <= 1e-9

    def test_linear_model(self):
        self._compare(linear_predictor([0.5, -1.0, 2.0, 0.1, 0.0], b=0.3), m=5, seed=0)

    def test_interaction_model(self):
        self._compare(product_predictor, m=3, seed=1)

    def test_gbdt_model(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((150, 6))
        y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(float)
        model = GbdtClassifier(n_rounds=8, max_depth=3, learning_rate=0.1, reg_lambda=1.0)
        model.fit(X, y)
        self._compare(model.predict_proba, m=6, seed=3)

    def test_logistic_model(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 4))
        y = (X @ np.array([1.0, -2.0, 0.5, 0.0]) > 0).astype(float)
        from suspkit.suspension_model import LogisticModel

        model = LogisticModel(reg_lambda=1.0).fit(X, y)
        self._compare(model.predict_proba, m=4, seed=5)


class TestShapleyAxioms:
    def test_linear_closed_form(self):
        w = np.array([0.7, -1.3, 2.0, 0.0, 4.5])
        rng = np.random.default_rng(6)
        x = rng.standard_normal(5)
        background = rng.standard_normal((100, 5))
        phi, base, out = shapley_exact(linear_predictor(w, b=1.0), x, background)
        expected = w * (x - background.mean(axis=0))
        np.testing.assert_allclose(phi, expected, atol=1e-9, rtol=0)
        assert base == pytest.approx(1.0 + background.mean(axis=0) @ w, abs=1e-9)
        assert out == pytest.approx(1.0 + x @ w, abs=1e-9)

    def test_symmetric_features_get_equal_phi(self):
        rng = np.random.default_rng(7)
        background = rng.standard_normal((20, 3))
        background[:, 1] = background[:, 0]  # interchangeable columns
        x = np.array([0.8, 0.8, -0.4])
        predict = lambda X: np.tanh(X[:, 0] + X[:, 1]) + X[:, 2] ** 2
        phi, _, _ = shapley_exact(predict, x, background)
        assert phi[0] == pytest.approx(phi[1], abs=1e-12)

    def test_null_feature_gets_zero(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4)
        background = rng.standard_normal((15, 4))
        predict = lambda X: X[:, 0] ** 2 - X[:, 2]  # ignores columns 1 and 3
        phi, _, _ = shapley_exact(predict, x, background)
        assert phi[1] == 0.0
        assert phi[3] == 0.0

    def test_feature_cap(self):
        m = MAX_EXACT_FEATURES + 1
        with pytest.raises(TooManyFeatures):
            shapley_exact(lambda X: X.sum(axis=1), np.zeros(m), np.zeros((3, m)))

    def test_background_validation(self):
        with pytest.raises(ValueError):
            shapley_exact(lambda X: X.sum(axis=1), np.zeros(3), np.zeros(3))
        with pytest.raises(SchemaMismatch):
            shapley_exact(lambda X: X.sum(axis=1), np.zeros(3), np.zeros((2, 4)))


class TestLinearShap:
    @pytest.mark.parametrize("m", [1, 6, 15])
    def test_matches_enumeration_of_the_margin(self, m):
        rng = np.random.default_rng(20 + m)
        X = rng.standard_normal((80, m)) * rng.uniform(0.1, 5.0, m)
        y = (X @ rng.standard_normal(m) + 0.3 * rng.standard_normal(80) > 0).astype(float)
        model = LogisticModel(reg_lambda=1.0).fit(X, y)
        rows, background = rng.standard_normal((4, m)), X[:12]
        phi = model.shap_values(rows, background)
        for x, row_phi in zip(rows, phi):
            expected, base, out = shapley_exact(model.decision_function, x, background)
            np.testing.assert_allclose(row_phi, expected, atol=1e-9, rtol=0)
            assert abs(row_phi.sum() + base - out) <= 1e-9

    def test_zero_coefficient_gets_exact_zero(self):
        model = LogisticModel(reg_lambda=1.0)
        model.mean = np.array([0.5, -1.0, 2.0])
        model.scale = np.array([2.0, 1.0, 0.5])
        model.coef = np.array([1.5, 0.0, -0.25])
        rng = np.random.default_rng(30)
        phi = model.shap_values(rng.standard_normal((5, 3)), rng.standard_normal((7, 3)))
        assert np.all(phi[:, 1] == 0.0)
        assert np.all(phi[:, [0, 2]] != 0.0)


def tiny_model_and_matrices(n_features=4, n=40, seed=0, kind=MODEL_KIND_LOGISTIC):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n_features))
    y = (X[:, 0] > 0).astype(int)
    names = tuple(f"f{j}" for j in range(n_features))
    make = lambda users, Xp, yp: FeatureMatrix(
        feature_names=names, user_ids=users, X=Xp, y=yp
    )
    train_m = make([f"tr{i}" for i in range(n)], X, y)
    X2 = rng.standard_normal((10, n_features))
    test_m = make([f"te{i}" for i in range(10)], X2, (X2[:, 0] > 0).astype(int))
    model = train(train_m, kind=kind, hyper=HYPER)
    return model, train_m, test_m


def explain_background(model, train_m, background_size, seed):
    """The background rows explain_matrix draws, drawn the same way."""
    bg = train_m.X[:, model.selection_mask]
    if bg.shape[0] <= background_size:
        return bg
    rng = np.random.default_rng(seed)
    return bg[np.sort(rng.choice(bg.shape[0], size=background_size, replace=False))]


def efficiency_gaps(model, exps, bg):
    """|sum(phi) + base - f(x)| of each explained row, with f the model's
    own margin and base its mean over the background."""
    margin = model.inner.decision_function
    base = float(margin(bg).mean())
    return [abs(phi.sum() + base - out) for phi, out in zip(exps.phi, margin(exps.values))]


class TestExplainMatrix:
    def test_auto_uses_exact_for_small_schemas(self):
        model, train_m, test_m = tiny_model_and_matrices()
        exps = explain_matrix(model, test_m.subset_rows([0, 3]), train_m, background_size=100,
                              seed=0)
        bg = explain_background(model, train_m, background_size=100, seed=0)
        assert exps.user_ids == ["te0", "te3"]
        for gap in efficiency_gaps(model, exps, bg):
            assert gap <= 1e-9

    def test_matches_direct_exact_call(self):
        model, train_m, test_m = tiny_model_and_matrices()
        exps = explain_matrix(model, test_m.subset_rows([1]), train_m, background_size=1000, seed=0)
        bg = train_m.X[:, model.selection_mask]
        phi, base, out = shapley_exact(
            model.inner.decision_function, test_m.X[1, model.selection_mask], bg
        )
        np.testing.assert_allclose(exps.phi[0], phi, atol=1e-12)
        # The margins the explanation's efficiency holds against.
        margin = model.inner.decision_function
        assert float(margin(bg).mean()) == pytest.approx(base, abs=1e-12)
        assert float(margin(exps.values)[0]) == pytest.approx(out, abs=1e-12)

    def test_explains_the_margin(self):
        model, train_m, test_m = tiny_model_and_matrices(n=120, kind=MODEL_KIND_GBDT)
        exps = explain_matrix(model, test_m.subset_rows([0, 2, 5]), train_m, background_size=8,
                              seed=1)
        bg = explain_background(model, train_m, background_size=8, seed=1)
        margin = model.inner.decision_function(test_m.X[:, model.selection_mask])
        assert list(model.inner.decision_function(exps.values)) == [
            margin[0], margin[2], margin[5]]
        for gap in efficiency_gaps(model, exps, bg):
            assert gap <= 1e-12

    def test_background_subsample_is_seeded(self):
        model, train_m, test_m = tiny_model_and_matrices()
        a = explain_matrix(model, test_m.subset_rows([0]), train_m, background_size=8, seed=3)
        b = explain_matrix(model, test_m.subset_rows([0]), train_m, background_size=8, seed=3)
        c = explain_matrix(model, test_m.subset_rows([0]), train_m, background_size=8, seed=4)
        np.testing.assert_array_equal(a.phi[0], b.phi[0])
        assert not np.array_equal(a.phi[0], c.phi[0])

    def test_twenty_feature_gbdt_is_explained_exactly(self):
        model, train_m, test_m = tiny_model_and_matrices(n_features=20, n=120, kind=MODEL_KIND_GBDT)
        assert len(model.feature_names) == 20 > MAX_EXACT_FEATURES
        exps = explain_matrix(model, test_m.subset_rows([0, 1]), train_m, background_size=8, seed=0)
        bg = explain_background(model, train_m, background_size=8, seed=0)
        # Features the trees never read are null players: the Shapley
        # values of the others are those of the game on the others alone.
        read = np.unique([f for tree in model.inner.trees for f in tree.feature if f >= 0])
        assert 0 < read.size <= MAX_EXACT_FEATURES
        unread = np.setdiff1d(np.arange(20), read)
        assert exps.phi.shape == (2, 20)
        for gap in efficiency_gaps(model, exps, bg):
            assert gap <= 1e-9
        for values, phi in zip(exps.values, exps.phi):
            assert np.all(phi[unread] == 0.0)

            def on_read(Z, x=values):
                full = np.broadcast_to(x, (Z.shape[0], 20)).copy()
                full[:, read] = Z
                return model.inner.decision_function(full)

            expected, _, _ = shapley_exact(on_read, values[read], bg[:, read])
            np.testing.assert_allclose(phi[read], expected, atol=1e-9, rtol=0)

    def test_twenty_feature_logistic_is_explained_exactly(self):
        model, train_m, test_m = tiny_model_and_matrices(n_features=20)
        assert len(model.feature_names) == 20 > MAX_EXACT_FEATURES
        exps = explain_matrix(model, test_m.subset_rows([0, 1]), train_m, background_size=8, seed=0)
        bg = explain_background(model, train_m, background_size=8, seed=0)
        margin = model.inner.decision_function
        for gap in efficiency_gaps(model, exps, bg):
            assert gap <= 1e-9
        for values, phi in zip(exps.values, exps.phi):
            # An additive game gives each feature its own mean marginal.
            for j in range(20):
                moved = bg.copy()
                moved[:, j] = values[j]
                expected = float(np.mean(margin(moved) - margin(bg)))
                assert phi[j] == pytest.approx(expected, abs=1e-9)

    def test_schema_mismatch(self):
        model, train_m, test_m = tiny_model_and_matrices()
        other = FeatureMatrix(
            feature_names=("g0", "g1", "g2", "g3"),
            user_ids=test_m.user_ids,
            X=test_m.X,
            y=test_m.y,
        )
        with pytest.raises(SchemaMismatch):
            explain_matrix(model, other.subset_rows([0]), train_m, background_size=8, seed=0)
        with pytest.raises(SchemaMismatch):
            explain_matrix(model, test_m.subset_rows([0]), other, background_size=8, seed=0)


def hand_explanations():
    return Explanations(
        feature_names=("alpha", "beta"),
        user_ids=["u1", "u2"],
        values=np.array([[1.0, 2.0], [3.0, 4.0]]),
        phi=np.array([[0.1, -0.4], [-0.3, 0.2]]),
    )


class TestImpactSummary:
    def test_ranking_by_mean_abs_phi(self):
        summary = impact_summary(hand_explanations())
        np.testing.assert_allclose(summary.mean_abs_phi, [0.2, 0.3])
        assert summary.ranking == ["beta", "alpha"]

    def test_empty_input(self):
        empty = Explanations(("alpha", "beta"), [], np.empty((0, 2)), np.empty((0, 2)))
        with pytest.raises(ValueError):
            impact_summary(empty)


class TestCsvOutputs:
    def test_explanations_csv(self, tmp_path):
        path = tmp_path / "explanations.csv"
        write_explanations_csv(path, hand_explanations())
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["user_id", "feature", "value", "phi"]
        assert len(rows) == 1 + 2 * 2
        assert rows[1] == ["u1", "alpha", "1.0", "0.1"]
        assert float(rows[2][3]) == -0.4

    def test_summary_csv(self, tmp_path):
        path = tmp_path / "impact.csv"
        write_summary_csv(path, impact_summary(hand_explanations()))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "mean_abs_phi", "rank"]
        assert rows[1][0] == "beta" and rows[1][2] == "1"
        assert float(rows[1][1]) == pytest.approx(0.3)
