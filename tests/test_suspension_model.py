import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspkit.errors import SuspkitError
from suspkit.gbdt import GbdtClassifier
from suspkit.pipeline import PipelineConfig
from suspkit.suspension_model import (
    MODEL_KIND_GBDT,
    MODEL_KIND_LOGISTIC,
    SELECT_ROUNDS,
    DegenerateLabels,
    FeatureMatrix,
    LogisticModel,
    SchemaMismatch,
    TooFewSamples,
    _average_ranks,
    _curves,
    cv_mean,
    evaluate,
    evaluate_scores,
    f1_score,
    kfold_cv,
    load_model,
    roc_auc,
    save_model,
    select_features,
    stratified_folds,
    train,
    write_curve_csv,
)

from oracles import oracle_average_ranks, oracle_curves

# Every setting of the fits below: the library takes no defaults.
LOGISTIC = {"reg_lambda": 1.0}
SMALL_GBDT = {"n_rounds": 10, "learning_rate": 0.1, "max_depth": 2, "reg_lambda": 1.0}


def matrix_of(X, y, names=None, users=None):
    X = np.asarray(X, dtype=np.float64)
    names = tuple(names or (f"f{j}" for j in range(X.shape[1])))
    users = list(users or (f"u{i}" for i in range(X.shape[0])))
    return FeatureMatrix(feature_names=names, user_ids=users, X=X, y=np.asarray(y))


def separable_matrix(n=60, seed=0):
    """One informative column, one noise column, labels split evenly."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = np.column_stack([y * 2.0 - 1.0 + 0.1 * rng.standard_normal(n),
                         rng.standard_normal(n)])
    return matrix_of(X, y)


class TestFeatureMatrix:
    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(ValueError):
            matrix_of(np.zeros((2, 2)), [0, 1], names=("a", "a"))

    def test_duplicate_user_ids_rejected(self):
        with pytest.raises(ValueError):
            matrix_of(np.zeros((2, 1)), [0, 1], users=["u", "u"])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            matrix_of(np.zeros((2, 1)), [0, 2])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            matrix_of(np.zeros((2, 1)), [0, 1, 1])

    def test_name_width_mismatch(self):
        with pytest.raises(ValueError):
            matrix_of(np.zeros((2, 3)), [0, 1], names=("a", "b"))

    def test_subset_rows(self):
        m = matrix_of([[1.0], [2.0], [3.0]], [0, 1, 0])
        sub = m.subset_rows([2, 0])
        assert sub.user_ids == ["u2", "u0"]
        np.testing.assert_array_equal(sub.X[:, 0], [3.0, 1.0])
        np.testing.assert_array_equal(sub.y, [0, 0])


class TestCsvRoundtrip:
    def test_nan_cells_written_empty(self, tmp_path):
        m = matrix_of([[1.5, math.nan], [math.nan, -2.25]], [1, 0])
        path = tmp_path / "m.csv"
        m.to_csv(path)
        text = path.read_text()
        assert ",," in text or text.count(",") > 0
        loaded = FeatureMatrix.from_csv(path)
        assert loaded.feature_names == m.feature_names
        assert loaded.user_ids == m.user_ids
        np.testing.assert_array_equal(loaded.y, m.y)
        np.testing.assert_array_equal(loaded.X, m.X)  # NaN == NaN via repr-exactness
        assert np.isnan(loaded.X[0, 1]) and np.isnan(loaded.X[1, 0])

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f0,label\nu0,1.0,0\n")
        with pytest.raises(SchemaMismatch):
            FeatureMatrix.from_csv(path)

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=True, allow_infinity=False, width=64),
            min_size=4,
            max_size=4,
        )
    )
    def test_values_roundtrip_exactly(self, values, tmp_path_factory):
        m = matrix_of(np.array(values).reshape(2, 2), [0, 1])
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        m.to_csv(path)
        loaded = FeatureMatrix.from_csv(path)
        for a, b in zip(loaded.X.ravel(), m.X.ravel()):
            assert (math.isnan(a) and math.isnan(b)) or a == b


class TestAssemble:
    """The family-set checks of the split matrix's assembly.

    `pipeline.extract_window_features` builds one matrix over
    `config.families`, so the family set is checked where a config file
    is read into a `PipelineConfig`.
    """

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown families"):
            PipelineConfig.from_dict({"families": ["profile", "weather"]})

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no families"):
            PipelineConfig.from_dict({"families": []})


def oracle_auc(y, scores):
    wins = ties = total = 0
    for sp in scores[y == 1]:
        for sn in scores[y == 0]:
            total += 1
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / total


class TestRocAuc:
    def test_perfect_separation(self):
        y = np.array([1, 1, 0, 0])
        assert roc_auc(y, np.array([0.9, 0.8, 0.3, 0.1])) == 1.0

    def test_all_tied_is_half(self):
        y = np.array([1, 0, 1, 0])
        assert roc_auc(y, np.full(4, 0.7)) == 0.5

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(6, 30))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            scores = rng.integers(0, 5, size=n).astype(float)  # coarse grid forces ties
            assert roc_auc(y, scores) == pytest.approx(oracle_auc(y, scores), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            roc_auc(np.ones(3), np.zeros(3))


class TestCurvesAndRanks:
    """`_curves` and `_average_ranks` against the scans they replaced."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(11)
        yield np.array([], dtype=np.int64), np.array([])
        yield np.zeros(3, dtype=np.int64), np.full(3, 0.4)
        for n in (1, 2, 7, 50, 400):
            y = rng.integers(0, 2, size=n)
            yield y, rng.random(n)  # distinct scores
            yield y, rng.integers(0, 6, size=n) / 5.0  # coarse grid forces ties

    def test_curves_equal_the_threshold_scan(self):
        for y, scores in self.cases():
            assert _curves(y, scores) == oracle_curves(y, scores)

    def test_average_ranks_equal_the_tie_scan(self):
        for _, scores in self.cases():
            np.testing.assert_array_equal(_average_ranks(scores), oracle_average_ranks(scores))

    def test_curves_at_16k_rows_take_under_50_ms(self):
        rng = np.random.default_rng(5)
        y, scores = rng.integers(0, 2, size=16_000), rng.random(16_000)
        seconds = []
        for _ in range(3):
            started = time.perf_counter()
            _curves(y, scores)
            seconds.append(time.perf_counter() - started)
        assert min(seconds) < 0.05


class TestF1:
    def test_hand_counts(self):
        # tp=2, fp=1, fn=1
        y = np.array([1, 1, 1, 0, 0])
        pred = np.array([1, 1, 0, 1, 0])
        assert f1_score(y, pred) == pytest.approx(2 / 3)

    def test_zero_denominator(self):
        assert f1_score(np.zeros(3), np.zeros(3)) == 0.0


class TestEvaluateScores:
    def test_separable_fixture(self):
        y = np.array([1, 1, 0, 0])
        report = evaluate_scores(y, np.array([0.9, 0.8, 0.3, 0.1]), split="test")
        assert report.f1 == 1.0
        assert report.roc_auc == 1.0
        assert report.accuracy == 1.0
        assert (report.n_pos, report.n_neg) == (2, 2)

    def test_curve_endpoints(self):
        y = np.array([1, 0, 1, 0])
        report = evaluate_scores(y, np.array([0.9, 0.6, 0.7, 0.2]), split="test")
        thresholds = [t for t, _, _ in report.roc_points]
        assert thresholds == sorted(thresholds, reverse=True)
        _, fpr, tpr = report.roc_points[-1]  # lowest threshold keeps everything
        assert (fpr, tpr) == (1.0, 1.0)
        _, recall, precision = report.pr_points[0]
        assert recall == 0.5 and precision == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="second_test scores must be finite"):
            evaluate_scores(np.array([1, 0, 1, 0]), np.array([0.2, bad, 0.9, 0.1]),
                            split="second_test")

    def test_curve_csv_roundtrip(self, tmp_path):
        report = evaluate_scores(np.array([1, 0]), np.array([0.8, 0.1]), split="test")
        path = tmp_path / "roc.csv"
        write_curve_csv(path, report.roc_points)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,x,y"
        assert len(lines) == 1 + len(report.roc_points)

    def test_report_range_validation(self):
        from suspkit.suspension_model import EvalReport

        with pytest.raises(ValueError):
            EvalReport(split="test", f1=1.2, roc_auc=0.5, accuracy=0.5, n_pos=1, n_neg=1)


class TestLogisticModel:
    def test_learns_separable_data(self):
        m = separable_matrix()
        model = LogisticModel(reg_lambda=1.0).fit(m.X, m.y.astype(float))
        pred = (model.predict_proba(m.X) >= 0.5).astype(int)
        assert np.mean(pred == m.y) == 1.0
        assert model.coef[0] > 0  # planted column drives the decision

    def test_importance_normalized(self):
        m = separable_matrix()
        model = LogisticModel(reg_lambda=1.0).fit(m.X, m.y.astype(float))
        imp = model.feature_importance()
        assert imp.sum() == pytest.approx(1.0)
        assert imp[0] > imp[1]

    def test_roundtrip(self):
        m = separable_matrix()
        model = LogisticModel(reg_lambda=0.5).fit(m.X, m.y.astype(float))
        clone = LogisticModel.from_dict(model.to_dict())
        np.testing.assert_array_equal(clone.predict_proba(m.X), model.predict_proba(m.X))


class TestTrain:
    def test_nan_imputed_with_training_median(self):
        X = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, math.nan], [4.0, 8.0]] * 3)
        y = np.array([0, 0, 1, 1] * 3)
        m = matrix_of(X, y, users=[f"u{i}" for i in range(12)])
        model = train(m, kind=MODEL_KIND_LOGISTIC, hyper=LOGISTIC)
        probe_nan = matrix_of([[2.5, math.nan]], [0])
        probe_median = matrix_of([[2.5, 6.0]], [0])  # median of finite column values
        assert model.predict_proba(probe_nan)[0] == model.predict_proba(probe_median)[0]

    def test_mask_restricts_features(self):
        m = separable_matrix()
        model = train(m, kind=MODEL_KIND_LOGISTIC, hyper=LOGISTIC, mask=np.array([True, False]))
        assert model.feature_names == ("f0",)
        assert model.medians.shape == (1,)

    def test_schema_mismatch_on_predict(self):
        m = separable_matrix()
        model = train(m, kind=MODEL_KIND_LOGISTIC, hyper=LOGISTIC)
        other = matrix_of(m.X, m.y, names=("g0", "g1"))
        with pytest.raises(SchemaMismatch):
            model.predict_proba(other)
        wider = matrix_of(np.column_stack([m.X, m.X[:, 0]]), m.y)
        with pytest.raises(SchemaMismatch):
            model.predict_proba(wider)

    def test_mask_width_checked(self):
        m = separable_matrix()
        with pytest.raises(SchemaMismatch):
            train(m, kind=MODEL_KIND_GBDT, hyper=SMALL_GBDT, mask=np.array([True]))

    def test_degenerate_labels(self):
        m = matrix_of(np.zeros((4, 1)), [1, 1, 1, 1])
        with pytest.raises(DegenerateLabels):
            train(m, kind=MODEL_KIND_GBDT, hyper=SMALL_GBDT)

    def test_too_few_samples(self):
        m = matrix_of(np.zeros((3, 1)), [1, 0, 0])
        with pytest.raises(TooFewSamples):
            train(m, kind=MODEL_KIND_GBDT, hyper=SMALL_GBDT)

    def test_gbdt_kind_trains(self):
        m = separable_matrix()
        model = train(m, kind=MODEL_KIND_GBDT, hyper=SMALL_GBDT)
        report = evaluate(model, m, split="test")
        assert report.accuracy == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            train(separable_matrix(), kind="forest", hyper=SMALL_GBDT)

    @pytest.mark.parametrize(
        "hyper",
        [
            {k: v for k, v in SMALL_GBDT.items() if k != "max_depth"},
            {**{k: v for k, v in SMALL_GBDT.items() if k != "n_rounds"}, "n_round": 10},
        ],
        ids=["missing-max-depth", "misspelt-n-rounds"],
    )
    def test_incomplete_or_misspelt_settings_raise(self, hyper):
        # A fallback would silently fit some other model than the one asked for.
        with pytest.raises(TypeError):
            train(separable_matrix(), kind=MODEL_KIND_GBDT, hyper=hyper)


class TestSelectFeatures:
    def test_drops_constant_keeps_planted(self):
        rng = np.random.default_rng(1)
        n = 120
        y = np.arange(n) % 2
        X = np.column_stack(
            [
                y * 4.0 + 0.1 * rng.standard_normal(n),  # planted
                np.full(n, 3.0),  # constant
                rng.standard_normal(n),  # noise
            ]
        )
        m = matrix_of(X, y, names=("planted", "constant", "noise"))
        mask = select_features(
            m, threshold=0.001, kind=MODEL_KIND_GBDT, hyper={**SMALL_GBDT, "n_rounds": 20}
        )
        assert mask.dtype == bool and mask.shape == (3,)
        assert mask[0]
        assert not mask[1]

    def test_all_constant_returns_empty_mask(self):
        m = matrix_of(np.ones((8, 2)), [0, 1] * 4)
        mask = select_features(m, threshold=0.001, kind=MODEL_KIND_GBDT, hyper=SMALL_GBDT)
        assert not mask.any()


class TestFolds:
    def test_class_balance_within_one(self):
        y = np.array([0] * 31 + [1] * 17)
        folds = stratified_folds(y, k=5, seed=3)
        for label in (0, 1):
            counts = np.bincount(folds[y == label], minlength=5)
            assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        y = np.arange(40) % 2
        np.testing.assert_array_equal(
            stratified_folds(y, k=4, seed=7), stratified_folds(y, k=4, seed=7)
        )

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            stratified_folds(np.array([0, 0, 0, 1]), k=2, seed=0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            stratified_folds(np.arange(10) % 2, k=1, seed=0)


class TestKfoldCv:
    def test_reports_and_mean(self):
        m = separable_matrix(n=80)
        folds = stratified_folds(m.y, k=4, seed=0)
        cv_folds = [
            kfold_cv(m, folds, fold, threshold=0.002, kind=MODEL_KIND_LOGISTIC, hyper=LOGISTIC)
            for fold in range(4)
        ]
        reports = [fold.report for fold in cv_folds]
        mean = cv_mean(reports)
        assert len(reports) == 4
        assert mean.f1 == pytest.approx(np.mean([r.f1 for r in reports]))
        assert mean.roc_auc == pytest.approx(np.mean([r.roc_auc for r in reports]))
        assert mean.n_pos == sum(r.n_pos for r in reports) == 40
        assert all(fold.features and set(fold.features) <= {"f0", "f1"} for fold in cv_folds)

    def test_each_fold_selects_without_its_rows(self):
        # Column f1 varies in one row only, so it is constant without that
        # row's fold: only that fold's selection drops it.
        m = separable_matrix(n=80)
        m.X[:, 1] = 0.0
        m.X[5, 1] = 1.0
        folds = stratified_folds(m.y, k=4, seed=0)
        cv_folds = [kfold_cv(m, folds, fold, threshold=0.0, kind=MODEL_KIND_GBDT,
                             hyper=SMALL_GBDT) for fold in range(4)]
        assert [fold.features for fold in cv_folds] == [
            ("f0",) if fold == folds[5] else ("f0", "f1") for fold in range(4)
        ]
        assert cv_folds[0].to_dict()["features"] == list(cv_folds[0].features)

    def test_selection_uses_at_most_select_rounds(self, monkeypatch):
        rounds = []
        fit = GbdtClassifier.fit
        monkeypatch.setattr(GbdtClassifier, "fit",
                            lambda self, X, y: rounds.append(self.n_rounds) or fit(self, X, y))
        m = separable_matrix(n=40)
        select_features(m, threshold=0.0, kind=MODEL_KIND_GBDT,
                        hyper={**SMALL_GBDT, "n_rounds": SELECT_ROUNDS + 5})
        select_features(m, threshold=0.0, kind=MODEL_KIND_GBDT, hyper=SMALL_GBDT)
        assert rounds == [SELECT_ROUNDS, SMALL_GBDT["n_rounds"]]


class TestModelPersistence:
    def test_saved_model_predicts_identically(self, tmp_path):
        m = separable_matrix()
        model = train(m, kind=MODEL_KIND_GBDT, hyper=SMALL_GBDT)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.predict_proba(m), model.predict_proba(m))
        assert loaded.feature_names == model.feature_names

    def test_gbdt_inner_keys(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, train(separable_matrix(), kind=MODEL_KIND_GBDT, hyper=SMALL_GBDT))
        inner = json.loads(path.read_text(encoding="utf-8"))["inner"]
        assert set(inner) == {"kind", "n_rounds", "learning_rate", "max_depth", "reg_lambda",
                              "base_score", "trees"}

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(SuspkitError):
            load_model(path)
