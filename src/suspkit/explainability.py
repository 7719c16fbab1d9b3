"""Shapley-value attributions for trained classifiers.

`explain_matrix` explains the margin (log-odds) of a trained model in
closed form, exactly, at any feature count: interventional TreeSHAP for
boosted trees (`GbdtClassifier.shap_values`) and linear SHAP for the
logistic model (`LogisticModel.shap_values`).  Both play the game
v(S) = mean over background rows b of f(x on S, b elsewhere), so
sum(phi) + base_value = f(x), with base_value the background's mean
margin.

`shapley_exact` evaluates the same game by enumerating all coalitions of
any predictor (feature count capped at 15); it is the oracle the closed
forms are tested against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import SchemaMismatch, SuspkitError
from .suspension_model import FeatureMatrix, TrainedModel

MAX_EXACT_FEATURES = 15

Predictor = Callable[[np.ndarray], np.ndarray]


class TooManyFeatures(SuspkitError):
    pass


@dataclass
class Explanation:
    feature_names: tuple[str, ...]
    values: np.ndarray  # instance feature values as the model saw them
    phi: np.ndarray
    base_value: float
    output: float
    user_id: str = ""

    @property
    def efficiency_gap(self) -> float:
        return float(abs(self.phi.sum() + self.base_value - self.output))


def _as_2d(background: np.ndarray) -> np.ndarray:
    background = np.asarray(background, dtype=np.float64)
    if background.ndim != 2 or background.shape[0] == 0:
        raise ValueError("background must be a non-empty 2-D array")
    return background


def _coalition_values(
    predict: Predictor, x: np.ndarray, background: np.ndarray, bits: np.ndarray
) -> np.ndarray:
    """Mean output per coalition; predictions batched across
    coalitions to keep call counts low."""
    r, m = background.shape
    n_subsets = bits.shape[0]
    v = np.empty(n_subsets)
    chunk = max(1, 65536 // r)
    for start in range(0, n_subsets, chunk):
        block_bits = bits[start : start + chunk]
        b = block_bits.shape[0]
        stacked = np.broadcast_to(background, (b, r, m)).copy()
        mask = np.broadcast_to(block_bits[:, None, :], (b, r, m))
        stacked[mask] = np.broadcast_to(x, (b, r, m))[mask]
        preds = predict(stacked.reshape(b * r, m)).reshape(b, r)
        v[start : start + b] = preds.mean(axis=1)
    return v


def shapley_exact(
    predict: Predictor, x: np.ndarray, background: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Exact Shapley attribution by full coalition enumeration.

    Returns (phi, base_value, output) where base_value = v(empty set)
    and output = f(x).
    """
    x = np.asarray(x, dtype=np.float64)
    background = _as_2d(background)
    m = x.shape[0]
    if background.shape[1] != m:
        raise SchemaMismatch("background width differs from the instance")
    if m > MAX_EXACT_FEATURES:
        raise TooManyFeatures(f"{m} features exceeds the exact-mode cap of {MAX_EXACT_FEATURES}")

    masks = np.arange(2**m, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(bool)
    v = _coalition_values(predict, x, background, bits)
    sizes = bits.sum(axis=1)

    fact = [math.factorial(i) for i in range(m + 1)]
    weights = np.array([fact[s] * fact[m - s - 1] / fact[m] for s in range(m)])

    phi = np.empty(m)
    for i in range(m):
        without = np.flatnonzero(~bits[:, i])
        gains = v[without + (1 << i)] - v[without]
        phi[i] = float(np.sum(weights[sizes[without]] * gains))
    return phi, float(v[0]), float(v[-1])


def explain_matrix(
    model: TrainedModel,
    matrix: FeatureMatrix,
    background: FeatureMatrix,
    *,
    rows: Sequence[int],
    background_size: int,
    seed: int,
) -> list[Explanation]:
    """Exact margin-space explanations for selected rows of a matrix,
    against a seeded background sample drawn from the training matrix.
    Both matrices must have the model's input schema."""
    rng = np.random.default_rng(seed)
    bg = model._prepare(background)
    if bg.shape[0] > background_size:
        bg = bg[np.sort(rng.choice(bg.shape[0], size=background_size, replace=False))]

    rows = list(rows)
    X = model._prepare(matrix)[rows]
    phi = model.inner.shap_values(X, bg)
    output = model.inner.decision_function(X)
    base = float(model.inner.decision_function(bg).mean())
    return [
        Explanation(
            feature_names=model.feature_names,
            values=X[j],
            phi=phi[j],
            base_value=base,
            output=float(output[j]),
            user_id=matrix.user_ids[i],
        )
        for j, i in enumerate(rows)
    ]


@dataclass
class ImpactSummary:
    feature_names: tuple[str, ...]
    mean_abs_phi: np.ndarray
    ranking: list[str]  # names sorted by mean |phi| descending


def impact_summary(explanations: Sequence[Explanation]) -> ImpactSummary:
    if not explanations:
        raise ValueError("need at least one explanation")
    names = explanations[0].feature_names
    for exp in explanations[1:]:
        if exp.feature_names != names:
            raise SchemaMismatch("explanations disagree on feature schema")
    phis = np.stack([exp.phi for exp in explanations])
    mean_abs = np.abs(phis).mean(axis=0)
    order = sorted(range(len(names)), key=lambda i: (-mean_abs[i], i))
    return ImpactSummary(
        feature_names=names,
        mean_abs_phi=mean_abs,
        ranking=[names[i] for i in order],
    )


def write_explanations_csv(path: str | Path, explanations: Sequence[Explanation]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "feature", "value", "phi"])
        for exp in explanations:
            for i, name in enumerate(exp.feature_names):
                writer.writerow([exp.user_id, name, repr(float(exp.values[i])),
                                 repr(float(exp.phi[i]))])


def write_summary_csv(path: str | Path, summary: ImpactSummary) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "mean_abs_phi", "rank"])
        index = {name: i for i, name in enumerate(summary.feature_names)}
        for rank, name in enumerate(summary.ranking, start=1):
            writer.writerow([name, repr(float(summary.mean_abs_phi[index[name]])), rank])
