"""Feature matrices, feature selection, classifier training, and
evaluation for the suspended-vs-normal account task.

Matrices carry NaN sentinels for missing values; models store the
training medians used to impute them so inference matches training.
Two classifier kinds: in-repo boosted trees (default) and a ridge
logistic baseline fit by iteratively reweighted least squares.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import SchemaMismatch, SuspkitError
from .gbdt import GbdtClassifier, shap_inputs, sigmoid

FAMILY_ORDER = ("profile", "activity", "textual", "post_embedding", "graph_embedding")

MODEL_KIND_GBDT = "gbdt"
MODEL_KIND_LOGISTIC = "logistic"

SPLIT_VALIDATION = "validation"
SPLIT_TEST = "test"
SPLIT_SECOND_TEST = "second_test"

# Boosting rounds of the GBDT selection fit, at most: it is read only for
# its gain shares.  On the pipeline_2w corpus at seed 3, 25 rounds keep
# the same 8 columns as 150 in under a fifth of the time.
SELECT_ROUNDS = 25

# IRLS steps of the logistic fit, at most, and the largest coefficient
# step at which it stops.
_IRLS_MAX_ITER = 50
_IRLS_TOL = 1e-10


class DegenerateLabels(SuspkitError):
    pass


class TooFewSamples(SuspkitError):
    pass


@dataclass
class FeatureMatrix:
    feature_names: tuple[str, ...]
    user_ids: list[str]
    X: np.ndarray  # (n, d) float64, NaN = missing
    y: np.ndarray  # (n,) int64 labels in {0, 1}

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        n, d = self.X.shape
        if len(self.user_ids) != n or self.y.shape != (n,):
            raise ValueError("row count mismatch between ids, X, and y")
        if len(self.feature_names) != d:
            raise ValueError("feature name count does not match width")
        if len(set(self.feature_names)) != d:
            raise ValueError("feature names must be unique")
        if len(set(self.user_ids)) != n:
            raise ValueError("user ids must be unique")
        if not np.isin(self.y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")

    @property
    def width(self) -> int:
        return self.X.shape[1]

    def subset_rows(self, rows: Sequence[int]) -> "FeatureMatrix":
        rows = list(rows)
        return FeatureMatrix(
            feature_names=self.feature_names,
            user_ids=[self.user_ids[i] for i in rows],
            X=self.X[rows],
            y=self.y[rows],
        )

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user_id", *self.feature_names, "label"])
            for i, user in enumerate(self.user_ids):
                cells = ["" if math.isnan(v) else repr(float(v)) for v in self.X[i]]
                writer.writerow([user, *cells, int(self.y[i])])

    @classmethod
    def from_csv(cls, path: str | Path) -> "FeatureMatrix":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if not header or header[0] != "user_id" or header[-1] != "label":
                raise SchemaMismatch(f"{path}: expected user_id ... label header")
            names = tuple(header[1:-1])
            user_ids, rows, labels = [], [], []
            for record in reader:
                if len(record) != len(header):
                    raise SchemaMismatch(
                        f"{path}: line {reader.line_num} has {len(record)} cells,"
                        f" the header has {len(header)}"
                    )
                user_ids.append(record[0])
                rows.append([float(cell) if cell else math.nan for cell in record[1:-1]])
                labels.append(int(record[-1]))
        X = np.asarray(rows, dtype=np.float64).reshape(len(user_ids), len(names))
        return cls(feature_names=names, user_ids=user_ids, X=X, y=np.asarray(labels))


class LogisticModel:
    """Ridge-penalized logistic regression fit by IRLS on
    standardized features."""

    def __init__(self, *, reg_lambda: float):
        self.reg_lambda = reg_lambda
        self.mean: np.ndarray | None = None
        self.scale: np.ndarray | None = None
        self.coef: np.ndarray | None = None
        self.intercept = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticModel":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale = np.where(std == 0.0, 1.0, std)
        Z = (X - self.mean) / self.scale
        n, d = Z.shape
        A = np.concatenate([np.ones((n, 1)), Z], axis=1)
        beta = np.zeros(d + 1)
        ridge = np.full(d + 1, self.reg_lambda)
        ridge[0] = 0.0  # intercept unpenalized
        for _ in range(_IRLS_MAX_ITER):
            p = sigmoid(A @ beta)
            w = np.clip(p * (1.0 - p), 1e-10, None)
            grad = A.T @ (p - y) + ridge * beta
            H = (A.T * w) @ A + np.diag(ridge)
            step = np.linalg.solve(H, grad)
            beta -= step
            if np.max(np.abs(step)) < _IRLS_TOL:
                break
        self.intercept = float(beta[0])
        self.coef = beta[1:]
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        Z = (np.asarray(X, dtype=np.float64) - self.mean) / self.scale
        return Z @ self.coef + self.intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(X))

    def shap_values(self, X: np.ndarray, background: np.ndarray) -> np.ndarray:
        """Exact Shapley values of the margin against the mean over the
        background (linear SHAP): coef / scale * (x - background mean)."""
        X, background = shap_inputs(X, background)
        return self.coef / self.scale * (X - background.mean(axis=0))

    def feature_importance(self) -> np.ndarray:
        weights = np.abs(self.coef)
        total = weights.sum()
        return weights / total if total else weights

    def to_dict(self) -> dict:
        return {
            "kind": "logistic",
            "reg_lambda": self.reg_lambda,
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
            "coef": self.coef.tolist(),
            "intercept": self.intercept,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogisticModel":
        model = cls(reg_lambda=data["reg_lambda"])
        model.mean = np.asarray(data["mean"], dtype=np.float64)
        model.scale = np.asarray(data["scale"], dtype=np.float64)
        model.coef = np.asarray(data["coef"], dtype=np.float64)
        model.intercept = data["intercept"]
        return model


def _impute(X: np.ndarray, medians: np.ndarray) -> np.ndarray:
    out = np.array(X, dtype=np.float64, copy=True)
    missing = np.isnan(out)
    if missing.any():
        out[missing] = np.broadcast_to(medians, out.shape)[missing]
    return out


@dataclass
class TrainedModel:
    kind: str
    input_feature_names: tuple[str, ...]
    selection_mask: np.ndarray  # bool over input schema
    medians: np.ndarray  # per selected feature
    inner: GbdtClassifier | LogisticModel

    def __post_init__(self):
        self.selection_mask = np.asarray(self.selection_mask, dtype=bool)
        if self.selection_mask.shape != (len(self.input_feature_names),):
            raise ValueError("mask length does not match schema")
        if self.medians.shape != (int(self.selection_mask.sum()),):
            raise ValueError("medians do not match selected count")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(
            name for name, keep in zip(self.input_feature_names, self.selection_mask) if keep
        )

    def _prepare(self, matrix: FeatureMatrix) -> np.ndarray:
        if matrix.feature_names != self.input_feature_names:
            raise SchemaMismatch("feature schema differs from the model's")
        return _impute(matrix.X[:, self.selection_mask], self.medians)

    def predict_proba(self, matrix: FeatureMatrix) -> np.ndarray:
        return self.inner.predict_proba(self._prepare(matrix))

    def predict_proba_selected(self, X_selected: np.ndarray) -> np.ndarray:
        """Probability from already-selected columns (still imputed)."""
        X = np.asarray(X_selected, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.medians.shape[0]:
            raise SchemaMismatch("selected width differs from the model schema")
        return self.inner.predict_proba(_impute(X, self.medians))

    def to_dict(self) -> dict:
        return {
            "format": "suspension-model-v1",
            "kind": self.kind,
            "input_feature_names": list(self.input_feature_names),
            "selection_mask": self.selection_mask.astype(int).tolist(),
            "medians": self.medians.tolist(),
            "inner": self.inner.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainedModel":
        if data.get("format") != "suspension-model-v1":
            raise SchemaMismatch("unrecognized model format")
        inner_data = data["inner"]
        if data["kind"] == MODEL_KIND_GBDT:
            inner = GbdtClassifier.from_dict(inner_data)
        elif data["kind"] == MODEL_KIND_LOGISTIC:
            inner = LogisticModel.from_dict(inner_data)
        else:
            raise SchemaMismatch(f"unknown model kind {data['kind']!r}")
        return cls(
            kind=data["kind"],
            input_feature_names=tuple(data["input_feature_names"]),
            selection_mask=np.asarray(data["selection_mask"], dtype=bool),
            medians=np.asarray(data["medians"], dtype=np.float64),
            inner=inner,
        )


def save_model(path: str | Path, model: TrainedModel) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    # A field missing, or a value of another shape than `save_model`
    # writes, is a damaged input, not an internal error.
    try:
        return TrainedModel.from_dict(data)
    except (KeyError, TypeError, AttributeError, SchemaMismatch) as exc:
        raise SchemaMismatch(
            f"{path} is not a model.json the train stage writes: {exc!r}"
        ) from None


def _check_labels(y: np.ndarray) -> None:
    pos = int((y == 1).sum())
    neg = int((y == 0).sum())
    if pos == 0 or neg == 0:
        raise DegenerateLabels("both classes required for training")
    if pos < 2 or neg < 2:
        raise TooFewSamples("need at least 2 samples per class")


def _column_medians(X: np.ndarray) -> np.ndarray:
    medians = np.full(X.shape[1], 0.0)
    for j in range(X.shape[1]):
        col = X[:, j]
        finite = col[~np.isnan(col)]
        if finite.size:
            medians[j] = float(np.median(finite))
    return medians


def _make_inner(kind: str, hyper: dict) -> GbdtClassifier | LogisticModel:
    if kind == MODEL_KIND_GBDT:
        return GbdtClassifier(**hyper)
    if kind == MODEL_KIND_LOGISTIC:
        return LogisticModel(reg_lambda=hyper["reg_lambda"])
    raise ValueError(f"unknown model kind {kind!r}")


def train(
    matrix: FeatureMatrix,
    *,
    kind: str,
    hyper: dict,
    mask: np.ndarray | None = None,
) -> TrainedModel:
    """Fit a classifier of `kind` on the masked columns (all of them
    when mask is None).  `hyper` holds every setting of the model:
    `PipelineConfig.hyper()` is the one place they are written down."""
    _check_labels(matrix.y)
    if mask is None:
        mask = np.ones(matrix.width, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (matrix.width,):
        raise SchemaMismatch("selection mask width differs from the matrix")
    if not mask.any():
        raise ValueError("selection mask keeps no features")

    X = matrix.X[:, mask]
    medians = _column_medians(X)
    inner = _make_inner(kind, hyper)
    inner.fit(_impute(X, medians), matrix.y.astype(np.float64))
    return TrainedModel(
        kind=kind,
        input_feature_names=matrix.feature_names,
        selection_mask=mask,
        medians=medians,
        inner=inner,
    )


def select_features(
    matrix: FeatureMatrix,
    *,
    threshold: float,
    kind: str,
    hyper: dict,
) -> np.ndarray:
    """Keep non-constant features whose preliminary-model importance
    share is at least the threshold: a share of split gain for the
    boosted model, whose preliminary fit runs at most SELECT_ROUNDS
    rounds, and a share of |coef| over the standardized columns for the
    logistic model."""
    nan_aware_min = np.nanmin(np.where(np.isnan(matrix.X), np.inf, matrix.X), axis=0)
    nan_aware_max = np.nanmax(np.where(np.isnan(matrix.X), -np.inf, matrix.X), axis=0)
    non_constant = nan_aware_min < nan_aware_max

    if not non_constant.any():
        return non_constant
    if kind == MODEL_KIND_GBDT:
        hyper = {**hyper, "n_rounds": min(hyper["n_rounds"], SELECT_ROUNDS)}
    preliminary = train(matrix, kind=kind, hyper=hyper, mask=non_constant)
    importance = preliminary.inner.feature_importance()
    keep = importance >= threshold
    mask = np.zeros(matrix.width, dtype=bool)
    mask[np.flatnonzero(non_constant)[keep]] = True
    return mask


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    # Each run of tied values [start, end) shares the rank (start + 1 + end) / 2.
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], values.shape[0]]
    ranks = np.empty(values.shape[0])
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def roc_auc(y: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based area under the ROC curve; tied pairs count 0.5."""
    y = np.asarray(y)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("ROC-AUC needs both classes")
    ranks = _average_ranks(scores)
    pos_rank_sum = ranks[y == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f1_score(y: np.ndarray, pred: np.ndarray) -> float:
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2 * tp + fp + fn)


@dataclass
class EvalReport:
    split: str
    f1: float
    roc_auc: float
    accuracy: float
    n_pos: int
    n_neg: int
    roc_points: list[tuple[float, float, float]] = field(default_factory=list)
    pr_points: list[tuple[float, float, float]] = field(default_factory=list)

    def __post_init__(self):
        for name in ("f1", "roc_auc", "accuracy"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {value}")

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "f1": self.f1,
            "roc_auc": self.roc_auc,
            "accuracy": self.accuracy,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
        }


def _curves(
    y: np.ndarray, scores: np.ndarray
) -> tuple[list[tuple[float, float, float]], list[tuple[float, float, float]]]:
    """ROC (threshold, fpr, tpr) and PR (threshold, recall, precision)
    points at every distinct score, predicting 1 when score >= t."""
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    order = np.argsort(scores)[::-1]
    ranked = scores[order]
    # The counts at a distinct score are those through the last of its ties.
    last = np.ones(ranked.shape, dtype=bool)
    last[:-1] = ranked[1:] != ranked[:-1]
    tp = np.cumsum(y[order] == 1)[last]
    fp = np.cumsum(y[order] == 0)[last]
    tpr = tp / n_pos if n_pos else np.zeros(tp.shape)
    fpr = fp / n_neg if n_neg else np.zeros(fp.shape)
    precision = np.divide(tp, tp + fp, out=np.ones(tp.shape), where=tp + fp > 0)
    thresholds = ranked[last].tolist()
    tpr = tpr.tolist()
    roc_points = list(zip(thresholds, fpr.tolist(), tpr))
    pr_points = list(zip(thresholds, tpr, precision.tolist()))
    return roc_points, pr_points


def evaluate_scores(y: np.ndarray, scores: np.ndarray, split: str) -> EvalReport:
    y = np.asarray(y, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        # NaN compares false both ways: it would rank and threshold as no score does.
        raise ValueError(f"the {split} scores must be finite")
    pred = (scores >= 0.5).astype(np.int64)
    roc_points, pr_points = _curves(y, scores)
    return EvalReport(
        split=split,
        f1=f1_score(y, pred),
        roc_auc=roc_auc(y, scores),
        accuracy=float((pred == y).mean()),
        n_pos=int((y == 1).sum()),
        n_neg=int((y == 0).sum()),
        roc_points=roc_points,
        pr_points=pr_points,
    )


def evaluate(model: TrainedModel, matrix: FeatureMatrix, split: str) -> EvalReport:
    return evaluate_scores(matrix.y, model.predict_proba(matrix), split)


def stratified_folds(y: np.ndarray, *, k: int, seed: int) -> np.ndarray:
    """Fold index per row; each class dealt round-robin after a
    seeded shuffle, so fold class ratios differ by at most 1 sample."""
    if k < 2:
        raise ValueError("k must be >= 2")
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    folds = np.empty(y.shape[0], dtype=np.int64)
    for label in (0, 1):
        rows = np.flatnonzero(y == label)
        if rows.size < k:
            raise TooFewSamples(f"class {label} has {rows.size} samples for {k} folds")
        rng.shuffle(rows)
        folds[rows] = np.arange(rows.size) % k
    return folds


@dataclass
class CvFold:
    """One CV fold's score and the features selected without its rows."""

    features: tuple[str, ...]
    report: EvalReport

    def to_dict(self) -> dict:
        return {**self.report.to_dict(), "features": list(self.features)}


def kfold_cv(
    matrix: FeatureMatrix,
    folds: np.ndarray,
    fold: int,
    *,
    threshold: float,
    kind: str,
    hyper: dict,
) -> CvFold:
    """Select features on the rows outside `fold` (`select_features`),
    fit on those rows and columns, and score the rows in it; `folds`
    holds each row's fold (`stratified_folds`).  No row of the fold
    reaches the selection or the fit it is scored by."""
    rest = matrix.subset_rows(np.flatnonzero(folds != fold))
    mask = select_features(rest, threshold=threshold, kind=kind, hyper=hyper)
    model = train(rest, kind=kind, hyper=hyper, mask=mask)
    report = evaluate(model, matrix.subset_rows(np.flatnonzero(folds == fold)), SPLIT_VALIDATION)
    return CvFold(model.feature_names, report)


def cv_mean(reports: Sequence[EvalReport]) -> EvalReport:
    """The mean of per-fold reports (curves omitted)."""
    return EvalReport(
        split=SPLIT_VALIDATION,
        f1=float(np.mean([r.f1 for r in reports])),
        roc_auc=float(np.mean([r.roc_auc for r in reports])),
        accuracy=float(np.mean([r.accuracy for r in reports])),
        n_pos=sum(r.n_pos for r in reports),
        n_neg=sum(r.n_neg for r in reports),
    )


def write_curve_csv(path: str | Path, points: Sequence[tuple[float, float, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "x", "y"])
        for threshold, x, y in points:
            writer.writerow([repr(float(threshold)), repr(float(x)), repr(float(y))])
