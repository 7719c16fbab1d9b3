"""Activity-timing features: when a user acts, how fast they react to
other users' posts, and what mix of post kinds they produce.

All clock features are UTC.  Statistics blocks with no observations
emit NaN, the missing-value sentinel imputed at the model boundary.
"""

from __future__ import annotations

import numpy as np

from .corpus import (
    KIND_QUOTE,
    KIND_RETWEET,
    Tweet,
    DAY_SECONDS,
)

MISSING = float("nan")

# Unix day 0 was a Thursday; +3 gives Monday=0 .. Sunday=6.
_EPOCH_WEEKDAY_OFFSET = 3


def _hour_of_day(ts: int) -> int:
    return (ts % DAY_SECONDS) // 3600


def _weekday(ts: int) -> int:
    return (ts // DAY_SECONDS + _EPOCH_WEEKDAY_OFFSET) % 7


def hourly_distribution(timeline: list[Tweet]) -> np.ndarray:
    """Fraction of actions in each UTC hour; all zeros when empty."""
    counts = np.zeros(24)
    for t in timeline:
        counts[_hour_of_day(t.created_at)] += 1
    total = counts.sum()
    return counts / total if total else counts


def weekday_distribution(timeline: list[Tweet]) -> np.ndarray:
    """Fraction of actions per weekday (Monday=0); all zeros when empty."""
    counts = np.zeros(7)
    for t in timeline:
        counts[_weekday(t.created_at)] += 1
    total = counts.sum()
    return counts / total if total else counts


def _stats_block(values: list[float]) -> dict[str, float]:
    if not values:
        return {"min": MISSING, "max": MISSING, "mean": MISSING, "std": MISSING}
    arr = np.asarray(values, dtype=float)
    # Population std: defined for a single observation.
    return {
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
    }


def reaction_time_stats(timeline: list[Tweet]) -> tuple[dict[str, float], int]:
    """Per-kind reaction-delay statistics in seconds.

    The delay of a retweet or quote is the gap between the referenced
    post's creation and the reaction.  Negative gaps (clock skew in
    externally built timelines) are skipped and counted.  Returns the
    flat feature map and the skip count.
    """
    deltas: dict[str, list[float]] = {KIND_RETWEET: [], KIND_QUOTE: []}
    skipped = 0
    for t in timeline:
        if t.kind not in deltas or t.referenced_created_at is None:
            continue
        delta = t.created_at - t.referenced_created_at
        if delta < 0:
            skipped += 1
            continue
        deltas[t.kind].append(float(delta))
    feats = {}
    for kind in (KIND_RETWEET, KIND_QUOTE):
        block = _stats_block(deltas[kind])
        for stat, value in block.items():
            feats[f"{kind}_reaction_{stat}"] = value
    return feats, skipped


def action_mix(timeline: list[Tweet]) -> tuple[float, float, float]:
    """(tweet, retweet, quote) fractions; zeros for an empty timeline."""
    if not timeline:
        return 0.0, 0.0, 0.0
    n = len(timeline)
    retweets = sum(t.kind == KIND_RETWEET for t in timeline)
    quotes = sum(t.kind == KIND_QUOTE for t in timeline)
    return (n - retweets - quotes) / n, retweets / n, quotes / n


def features_from_timeline(timeline: list[Tweet]) -> dict[str, float]:
    """Full activity feature map from one in-window timeline pass."""
    hours = hourly_distribution(timeline)
    weekdays = weekday_distribution(timeline)
    reactions, _ = reaction_time_stats(timeline)
    tweet_frac, retweet_frac, quote_frac = action_mix(timeline)

    feats: dict[str, float] = {}
    for h in range(24):
        feats[f"hour_fraction_{h:02d}"] = float(hours[h])
    for d in range(7):
        feats[f"weekday_fraction_{d}"] = float(weekdays[d])
    feats["peak_hour"] = float(int(np.argmax(hours))) if timeline else MISSING
    feats.update(reactions)
    feats["tweet_fraction"] = tweet_frac
    feats["retweet_fraction"] = retweet_frac
    feats["quote_fraction"] = quote_frac
    feats["actions_total"] = float(len(timeline))
    if timeline:
        feats["activity_time_range"] = float(
            timeline[-1].created_at - timeline[0].created_at
        )
    else:
        feats["activity_time_range"] = MISSING
    return feats


ACTIVITY_FEATURE_NAMES: tuple[str, ...] = tuple(features_from_timeline([]))
