"""Shapley-value attributions for trained classifiers.

`explain_matrix` explains the margin (log-odds) of a trained model in
closed form, exactly, at any feature count: interventional TreeSHAP for
boosted trees (`GbdtClassifier.shap_values`) and linear SHAP for the
logistic model (`LogisticModel.shap_values`).  Both play the game
v(S) = mean over background rows b of f(x on S, b elsewhere), so each
row's phi sums to its margin minus the background's mean margin.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .suspension_model import FeatureMatrix, TrainedModel


@dataclass
class Explanations:
    feature_names: tuple[str, ...]
    user_ids: list[str]
    values: np.ndarray  # rows x features, as the model saw them
    phi: np.ndarray  # rows x features


def explain_matrix(
    model: TrainedModel,
    matrix: FeatureMatrix,
    background: FeatureMatrix,
    *,
    background_size: int,
    seed: int,
) -> Explanations:
    """Exact margin-space explanations for every row of a matrix,
    against a seeded background sample drawn from the training matrix.
    Both matrices must have the model's input schema."""
    rng = np.random.default_rng(seed)
    bg = model._prepare(background)
    if bg.shape[0] > background_size:
        bg = bg[np.sort(rng.choice(bg.shape[0], size=background_size, replace=False))]

    X = model._prepare(matrix)
    return Explanations(
        feature_names=model.feature_names,
        user_ids=list(matrix.user_ids),
        values=X,
        phi=model.inner.shap_values(X, bg),
    )


@dataclass
class ImpactSummary:
    feature_names: tuple[str, ...]
    mean_abs_phi: np.ndarray
    ranking: list[str]  # names sorted by mean |phi| descending


def impact_summary(explanations: Explanations) -> ImpactSummary:
    if not explanations.user_ids:
        raise ValueError("need at least one explanation")
    names = explanations.feature_names
    mean_abs = np.abs(explanations.phi).mean(axis=0)
    order = sorted(range(len(names)), key=lambda i: (-mean_abs[i], i))
    return ImpactSummary(
        feature_names=names,
        mean_abs_phi=mean_abs,
        ranking=[names[i] for i in order],
    )


def write_explanations_csv(path: str | Path, explanations: Explanations) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "feature", "value", "phi"])
        for user_id, values, phi in zip(
            explanations.user_ids, explanations.values, explanations.phi
        ):
            for name, value, p in zip(explanations.feature_names, values, phi):
                writer.writerow([user_id, name, repr(float(value)), repr(float(p))])


def write_summary_csv(path: str | Path, summary: ImpactSummary) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "mean_abs_phi", "rank"])
        index = {name: i for i, name in enumerate(summary.feature_names)}
        for rank, name in enumerate(summary.ranking, start=1):
            writer.writerow([name, repr(float(summary.mean_abs_phi[index[name]])), rank])
