"""Per-user profile features: age-normalized rates, growth ratios,
name similarity and profile flags.

The monitoring-period growth ratio is computed exactly as
(start + end) / start; a start value of zero maps to the neutral ratio
1.0 plus a degenerate flag so the classifier still sees that the
account started from nothing.
"""

from __future__ import annotations

import math

from .corpus import TimeWindow, UserSnapshot, DAY_SECONDS
from .errors import SuspkitError


class NoSnapshot(SuspkitError):
    """User has no profile snapshot inside the window; skip and count."""


# Fixed schema: every user gets exactly these features in this order.
PROFILE_FEATURE_NAMES: tuple[str, ...] = (
    "account_age_days",
    "followers",
    "friends",
    "statuses",
    "favourites",
    "listed",
    "followers_by_age",
    "friends_by_age",
    "statuses_by_age",
    "favourites_by_age",
    "listed_by_age",
    "followers_growth",
    "friends_growth",
    "statuses_growth",
    "followers_growth_degenerate",
    "friends_growth_degenerate",
    "statuses_growth_degenerate",
    "single_snapshot",
    "snapshot_count",
    "name_screen_name_similarity",
    "name_length",
    "screen_name_length",
    "name_digit_fraction",
    "screen_name_digit_fraction",
    "description_length",
    "has_description",
    "has_default_profile",
    "has_default_profile_image",
    "verified",
    "followers_friends_ratio",
)


def by_age(action_count: float, account_age_days: float) -> float:
    """Actions per day of account life; the denominator floors at one
    day so brand-new accounts do not divide by zero."""
    return action_count / max(account_age_days, 1.0)


def growth(a_start: float, a_end: float) -> tuple[float, bool]:
    """Monitoring-period growth ratio (start + end) / start.

    Returns (ratio, degenerate) where degenerate marks a zero start
    value, mapped to the neutral ratio 1.0.
    """
    if a_start == 0:
        return 1.0, True
    return (a_start + a_end) / a_start, False


def _levenshtein(a: str, b: str) -> int:
    # A common prefix or suffix adds nothing to the distance.
    start, shortest = 0, min(len(a), len(b))
    while start < shortest and a[start] == b[start]:
        start += 1
    end = 0
    while end < shortest - start and a[-1 - end] == b[-1 - end]:
        end += 1
    a, b = a[start : len(a) - end], b[start : len(b) - end]
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def name_similarity(name: str, screen_name: str) -> float:
    """1 minus normalized edit distance over case-folded inputs."""
    a = name.casefold()
    b = screen_name.casefold()
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - _levenshtein(a, b) / longest


def _digit_fraction(s: str) -> float:
    return sum(c.isdigit() for c in s) / len(s) if s else 0.0


def features_from_snapshots(
    snapshots: list[UserSnapshot], window: TimeWindow
) -> dict[str, float]:
    """Profile feature map from the in-window snapshots of one user.

    Growth fields use the earliest and latest snapshot; rates use the
    latest snapshot with account age measured at the window end.
    """
    if not snapshots:
        raise NoSnapshot("no snapshot in window")
    first, last = snapshots[0], snapshots[-1]
    age_days = max((window.end - last.account_created_at) / DAY_SECONDS, 1.0)

    followers_growth, followers_degen = growth(first.followers, last.followers)
    friends_growth, friends_degen = growth(first.friends, last.friends)
    statuses_growth, statuses_degen = growth(first.statuses, last.statuses)

    feats = {
        "account_age_days": age_days,
        "followers": float(last.followers),
        "friends": float(last.friends),
        "statuses": float(last.statuses),
        "favourites": float(last.favourites),
        "listed": float(last.listed),
        "followers_by_age": by_age(last.followers, age_days),
        "friends_by_age": by_age(last.friends, age_days),
        "statuses_by_age": by_age(last.statuses, age_days),
        "favourites_by_age": by_age(last.favourites, age_days),
        "listed_by_age": by_age(last.listed, age_days),
        "followers_growth": followers_growth,
        "friends_growth": friends_growth,
        "statuses_growth": statuses_growth,
        "followers_growth_degenerate": float(followers_degen),
        "friends_growth_degenerate": float(friends_degen),
        "statuses_growth_degenerate": float(statuses_degen),
        "single_snapshot": float(len(snapshots) == 1),
        "snapshot_count": float(len(snapshots)),
        "name_screen_name_similarity": name_similarity(last.name, last.screen_name),
        "name_length": float(len(last.name)),
        "screen_name_length": float(len(last.screen_name)),
        "name_digit_fraction": _digit_fraction(last.name),
        "screen_name_digit_fraction": _digit_fraction(last.screen_name),
        "description_length": float(len(last.description)),
        "has_description": float(bool(last.description)),
        "has_default_profile": float(last.default_profile),
        "has_default_profile_image": float(last.default_profile_image),
        "verified": float(last.verified),
        "followers_friends_ratio": last.followers / max(last.friends, 1),
    }
    assert tuple(feats) == PROFILE_FEATURE_NAMES
    for name in ("followers_by_age", "friends_by_age", "statuses_by_age",
                 "favourites_by_age", "listed_by_age"):
        assert feats[name] >= 0 and math.isfinite(feats[name])
    return feats
