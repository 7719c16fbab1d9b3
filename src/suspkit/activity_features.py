"""Activity-timing features: when a user acts, how fast they react to
other users' posts, and what mix of post kinds they produce.

All clock features are UTC.  Statistics blocks with no observations
emit NaN, the missing-value sentinel imputed at the model boundary.
"""

from __future__ import annotations

import numpy as np

from .corpus import DAY_SECONDS, KIND_QUOTE, KIND_RETWEET, Tweet

MISSING = float("nan")

# Unix day 0 was a Thursday; +3 gives Monday=0 .. Sunday=6.
_EPOCH_WEEKDAY_OFFSET = 3

STATS = ("min", "max", "mean", "std")

_REACTION_KINDS = (KIND_RETWEET, KIND_QUOTE)

ACTIVITY_FEATURE_NAMES: tuple[str, ...] = (
    *(f"hour_fraction_{h:02d}" for h in range(24)),
    *(f"weekday_fraction_{d}" for d in range(7)),
    "peak_hour",
    *(f"{kind}_reaction_{stat}" for kind in _REACTION_KINDS for stat in STATS),
    "tweet_fraction",
    "retweet_fraction",
    "quote_fraction",
    "actions_total",
    "activity_time_range",
)


def stats_rows(lists: list[list[float]]) -> np.ndarray:
    """len(lists) x 4 array of each list's min, max, mean and population
    std (defined for a single observation); an empty list gives NaN.

    Lists of one length are stacked as the rows of one array and reduced
    along the rows.  numpy sums a row in the order it sums a 1-D array,
    so each value is bit for bit that of the list's own np.min, np.max,
    np.mean and np.std.  Padding rows to one length, or summing with
    np.add.reduceat, would change that order and the bits.
    """
    out = np.full((len(lists), len(STATS)), MISSING)
    by_length: dict[int, list[int]] = {}
    for i, values in enumerate(lists):
        if values:
            by_length.setdefault(len(values), []).append(i)
    for members in by_length.values():
        rows = np.array([lists[i] for i in members], dtype=float)
        out[members] = np.column_stack(
            (rows.min(axis=1), rows.max(axis=1), rows.mean(axis=1), rows.std(axis=1))
        )
    return out


def features_from_timeline(timelines: list[list[Tweet]]) -> np.ndarray:
    """The activity block of each timeline, one pass per timeline:
    len(timelines) x len(ACTIVITY_FEATURE_NAMES), in that column order.

    The delay of a retweet or quote is the gap between the referenced
    post's creation and the reaction.  A reaction without the
    referenced time, or with a negative gap (clock skew in externally
    built timelines), is skipped.
    """
    n = len(timelines)
    created: list[int] = []
    delays: list[list[float]] = []
    mix: list[tuple[float, float, float, float, float]] = []
    for timeline in timelines:
        reactions: dict[str, list[float]] = {kind: [] for kind in _REACTION_KINDS}
        kind_posts = dict.fromkeys(_REACTION_KINDS, 0)
        for t in timeline:
            created.append(t.created_at)
            if t.kind not in kind_posts:
                continue
            kind_posts[t.kind] += 1
            if t.referenced_created_at is not None:
                delta = t.created_at - t.referenced_created_at
                if delta >= 0:
                    reactions[t.kind].append(float(delta))
        delays.extend(reactions.values())
        total = len(timeline)
        if total:
            retweets, quotes = kind_posts[KIND_RETWEET], kind_posts[KIND_QUOTE]
            span = float(timeline[-1].created_at - timeline[0].created_at)
            mix.append(((total - retweets - quotes) / total, retweets / total,
                        quotes / total, float(total), span))
        else:
            mix.append((0.0, 0.0, 0.0, 0.0, MISSING))

    # Each user's actions per clock slot over their count; a user
    # without actions has zero counts, divided by 1.
    totals = np.array([len(timeline) for timeline in timelines], dtype=np.int64)
    rows = np.repeat(np.arange(n), totals)
    ts = np.array(created, dtype=np.int64)
    per_user = np.maximum(totals, 1).astype(float)[:, None]
    hours = np.bincount(rows * 24 + (ts % DAY_SECONDS) // 3600, minlength=n * 24)
    hours = hours.reshape(n, 24) / per_user
    weekdays = np.bincount(rows * 7 + (ts // DAY_SECONDS + _EPOCH_WEEKDAY_OFFSET) % 7,
                           minlength=n * 7)
    weekdays = weekdays.reshape(n, 7) / per_user
    peak = np.where(totals > 0, np.argmax(hours, axis=1), MISSING)

    return np.hstack((
        hours,
        weekdays,
        peak.reshape(n, 1),
        stats_rows(delays).reshape(n, len(_REACTION_KINDS) * len(STATS)),
        np.array(mix, dtype=float).reshape(n, 5),
    ))
