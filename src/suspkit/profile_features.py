"""Per-user profile features: age-normalized rates, growth ratios,
name similarity and profile flags.

The monitoring-period growth ratio is computed exactly as
(start + end) / start; a start value of zero maps to the neutral ratio
1.0 plus a degenerate flag so the classifier still sees that the
account started from nothing.
"""

from __future__ import annotations

import numpy as np

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


def _profile_row(snapshots: list[UserSnapshot], window: TimeWindow) -> tuple[float, ...]:
    """One user's profile features, in PROFILE_FEATURE_NAMES order."""
    if not snapshots:
        raise NoSnapshot("no snapshot in window")
    first, last = snapshots[0], snapshots[-1]
    age_days = max((window.end - last.account_created_at) / DAY_SECONDS, 1.0)
    counts = (last.followers, last.friends, last.statuses, last.favourites, last.listed)
    growths = [growth(a, b) for a, b in ((first.followers, last.followers),
                                         (first.friends, last.friends),
                                         (first.statuses, last.statuses))]
    return (
        age_days,
        *map(float, counts),
        *(by_age(count, age_days) for count in counts),
        *(ratio for ratio, _ in growths),
        *(float(degenerate) for _, degenerate in growths),
        float(len(snapshots) == 1),
        float(len(snapshots)),
        name_similarity(last.name, last.screen_name),
        float(len(last.name)),
        float(len(last.screen_name)),
        _digit_fraction(last.name),
        _digit_fraction(last.screen_name),
        float(len(last.description)),
        float(bool(last.description)),
        float(last.default_profile),
        float(last.default_profile_image),
        float(last.verified),
        last.followers / max(last.friends, 1),
    )


def features_from_snapshots(
    snapshots: list[list[UserSnapshot]], window: TimeWindow
) -> np.ndarray:
    """The profile block of each user's in-window snapshots, in time
    order: len(snapshots) x len(PROFILE_FEATURE_NAMES), in that column
    order.

    Growth fields use the earliest and latest snapshot; rates use the
    latest snapshot with account age measured at the window end.  A user
    without a snapshot raises NoSnapshot.
    """
    rows = [_profile_row(user, window) for user in snapshots]
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(PROFILE_FEATURE_NAMES))
