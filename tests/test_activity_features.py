import math
from datetime import datetime, timezone

import numpy as np
import pytest

from suspkit.activity_features import (
    ACTIVITY_FEATURE_NAMES,
    features_from_timeline,
    stats_rows,
)
from suspkit.corpus import DAY_SECONDS

from conftest import WINDOW_START, make_tweet, random_timelines

COLUMN = {name: i for i, name in enumerate(ACTIVITY_FEATURE_NAMES)}
HOURS = slice(COLUMN["hour_fraction_00"], COLUMN["hour_fraction_23"] + 1)
WEEKDAYS = slice(COLUMN["weekday_fraction_0"], COLUMN["weekday_fraction_6"] + 1)


def features(timeline):
    """One timeline's activity features by name."""
    (row,) = features_from_timeline([timeline])
    return dict(zip(ACTIVITY_FEATURE_NAMES, row.tolist()))


# -- the per-user activity code the family replaced, kept as its oracle --

def _oracle_stats(values):
    if not values:
        return {"min": math.nan, "max": math.nan, "mean": math.nan, "std": math.nan}
    arr = np.asarray(values, dtype=float)
    return {"min": float(arr.min()), "max": float(arr.max()),
            "mean": float(arr.mean()), "std": float(arr.std())}


def _oracle_distribution(timeline, slot, width):
    counts = np.zeros(width)
    for t in timeline:
        counts[slot(t.created_at)] += 1
    total = counts.sum()
    return counts / total if total else counts


def oracle_features(timeline):
    hours = _oracle_distribution(timeline, lambda ts: (ts % DAY_SECONDS) // 3600, 24)
    weekdays = _oracle_distribution(timeline, lambda ts: (ts // DAY_SECONDS + 3) % 7, 7)
    deltas = {"retweet": [], "quote": []}
    for t in timeline:
        if t.kind not in deltas or t.referenced_created_at is None:
            continue
        delta = t.created_at - t.referenced_created_at
        if delta >= 0:
            deltas[t.kind].append(float(delta))
    feats = {}
    for h in range(24):
        feats[f"hour_fraction_{h:02d}"] = float(hours[h])
    for d in range(7):
        feats[f"weekday_fraction_{d}"] = float(weekdays[d])
    feats["peak_hour"] = float(int(np.argmax(hours))) if timeline else math.nan
    for kind in ("retweet", "quote"):
        for stat, value in _oracle_stats(deltas[kind]).items():
            feats[f"{kind}_reaction_{stat}"] = value
    n = len(timeline)
    retweets = sum(t.kind == "retweet" for t in timeline)
    quotes = sum(t.kind == "quote" for t in timeline)
    feats["tweet_fraction"] = (n - retweets - quotes) / n if n else 0.0
    feats["retweet_fraction"] = retweets / n if n else 0.0
    feats["quote_fraction"] = quotes / n if n else 0.0
    feats["actions_total"] = float(n)
    feats["activity_time_range"] = (
        float(timeline[-1].created_at - timeline[0].created_at) if timeline else math.nan
    )
    return feats


class TestOracle:
    def test_block_is_the_per_user_code_bit_for_bit(self):
        timelines = random_timelines(np.random.default_rng(11), 48)
        expected = np.asarray(
            [[feats[name] for name in ACTIVITY_FEATURE_NAMES]
             for feats in map(oracle_features, timelines)]
        )
        block = features_from_timeline(timelines)
        assert block.shape == (48, len(ACTIVITY_FEATURE_NAMES))
        assert block.tobytes() == expected.tobytes()

    def test_no_timelines(self):
        assert features_from_timeline([]).shape == (0, len(ACTIVITY_FEATURE_NAMES))


class TestStatsRows:
    def test_rows_equal_the_one_dimensional_reductions(self):
        rng = np.random.default_rng(3)
        lengths = [*range(0, 300), 1_000, 4_099, 4_099]
        lists = [(rng.standard_normal(k) * 1e3).tolist() for k in lengths for _ in range(3)]
        expected = np.asarray(
            [[_oracle_stats(values)[s] for s in ("min", "max", "mean", "std")]
             for values in lists]
        )
        assert stats_rows(lists).tobytes() == expected.tobytes()


class TestClockDistributions:
    def test_hour_and_weekday_match_datetime(self):
        rng = np.random.default_rng(5)
        stamps = [int(ts) for ts in rng.integers(0, 2_000_000_000, size=50)]
        block = features_from_timeline([[make_tweet(created_at=ts)] for ts in stamps])
        for ts, row in zip(stamps, block):
            dt = datetime.fromtimestamp(ts, tz=timezone.utc)
            assert row[COLUMN[f"hour_fraction_{dt.hour:02d}"]] == 1.0
            assert row[COLUMN[f"weekday_fraction_{dt.weekday()}"]] == 1.0

    def test_distribution_sums_to_one(self):
        timeline = [make_tweet(tweet_id=str(i), created_at=WINDOW_START + i * 3600)
                    for i in range(30)]
        (row,) = features_from_timeline([timeline])
        assert row[HOURS].sum() == pytest.approx(1.0)
        assert row[WEEKDAYS].sum() == pytest.approx(1.0)

    def test_empty_timeline_gives_zeros(self):
        (row,) = features_from_timeline([[]])
        assert row[HOURS].sum() == 0.0
        assert row[WEEKDAYS].sum() == 0.0


class TestReactionTimes:
    def test_per_kind_stats(self):
        timeline = [
            make_tweet(tweet_id="a", kind="retweet", reaction_delay=10),
            make_tweet(tweet_id="b", kind="retweet", reaction_delay=20),
            make_tweet(tweet_id="c", kind="quote", reaction_delay=100),
            make_tweet(tweet_id="d", kind="original"),
        ]
        feats = features(timeline)
        assert feats["retweet_reaction_min"] == 10.0
        assert feats["retweet_reaction_max"] == 20.0
        assert feats["retweet_reaction_mean"] == 15.0
        assert feats["retweet_reaction_std"] == 5.0  # population std
        assert feats["quote_reaction_mean"] == 100.0
        assert feats["quote_reaction_std"] == 0.0

    def test_negative_delay_skipped(self):
        feats = features([make_tweet(kind="retweet", reaction_delay=-5)])
        assert math.isnan(feats["retweet_reaction_mean"])

    def test_no_reactions_gives_sentinels(self):
        feats = features([make_tweet(kind="original")])
        for kind in ("retweet", "quote"):
            for stat in ("min", "max", "mean", "std"):
                assert math.isnan(feats[f"{kind}_reaction_{stat}"])


class TestActionMix:
    def test_fractions(self):
        timeline = [
            make_tweet(tweet_id="1", kind="original"),
            make_tweet(tweet_id="2", kind="retweet"),
            make_tweet(tweet_id="3", kind="retweet"),
            make_tweet(tweet_id="4", kind="quote"),
        ]
        feats = features(timeline)
        mix = (feats["tweet_fraction"], feats["retweet_fraction"], feats["quote_fraction"])
        assert mix == (0.25, 0.5, 0.25)

    def test_empty_timeline(self):
        feats = features([])
        mix = (feats["tweet_fraction"], feats["retweet_fraction"], feats["quote_fraction"])
        assert mix == (0.0, 0.0, 0.0)


class TestFeatureMap:
    def test_schema_is_stable(self):
        block = features_from_timeline([[make_tweet(kind="retweet")]])
        assert block.shape == (1, len(ACTIVITY_FEATURE_NAMES))
        assert len(set(ACTIVITY_FEATURE_NAMES)) == len(ACTIVITY_FEATURE_NAMES)

    def test_empty_timeline_sentinels(self):
        feats = features([])
        assert feats["actions_total"] == 0.0
        assert feats["tweet_fraction"] == 0.0
        assert math.isnan(feats["peak_hour"])
        assert math.isnan(feats["activity_time_range"])
        assert math.isnan(feats["retweet_reaction_mean"])
        assert feats["hour_fraction_00"] == 0.0

    def test_populated_timeline(self):
        timeline = [
            make_tweet(tweet_id="1", created_at=WINDOW_START),
            make_tweet(tweet_id="2", created_at=WINDOW_START + 7200),
            make_tweet(tweet_id="3", created_at=WINDOW_START + 7300),
        ]
        feats = features(timeline)
        assert feats["actions_total"] == 3.0
        assert feats["activity_time_range"] == 7300.0
        assert feats["peak_hour"] == 2.0
        assert feats["hour_fraction_02"] == pytest.approx(2.0 / 3.0)
