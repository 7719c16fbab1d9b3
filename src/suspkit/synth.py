"""Synthetic labeled corpora with controllable bot-like behavior.

Suspended accounts are young, post at high lifetime rates, react
fast, and duplicate content; normal accounts are old and slow.  The
distributions overlap slightly on purpose so that no single feature
is a perfect separator and models must combine several.  With the
drift flag, window 2 swaps the content pools between classes while
profile behavior stays put, so content-based features degrade across
windows and profile features do not.

All output is written in the corpus module's file formats and is
deterministic for a fixed (config, seed) pair.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .corpus import DAY_SECONDS, STATUS_NORMAL, STATUS_SUSPENDED, TimeWindow, split_windows
from .wallets import base58check_encode

DEFAULT_CORPUS_START = 1_645_574_400  # 2022-02-23T00:00:00Z

_SHARED_WORDS = (
    "today", "really", "think", "people", "about", "never", "always", "going",
    "where", "great", "thing", "right", "still", "after", "world", "every",
    "found", "might", "place", "again", "watch", "start", "thank", "happy",
    "small", "night", "young", "house", "water", "music", "story", "light",
    "heart", "sound", "table", "green", "early", "paper", "learn", "share",
)

_POOL_A = (
    "giveaway", "crypto", "airdrop", "bonus", "claim", "wallet", "deposit",
    "profit", "signal", "invest", "double", "reward", "winner", "promo",
    "free", "token", "trading", "insider", "pump", "guaranteed", "limited",
    "offer", "cash", "instant", "register", "referral", "jackpot", "prize",
)

_POOL_B = (
    "coffee", "morning", "garden", "reading", "weather", "dinner", "weekend",
    "family", "friends", "walking", "recipe", "painting", "travel", "photo",
    "sunset", "kitchen", "holiday", "concert", "library", "museum", "soccer",
    "cycling", "baking", "puppy", "autumn", "harvest", "novel", "picnic",
)

_HUBS_SUSPENDED = 12
_HUBS_NORMAL = 24
_OWN_HUB_PROB = 0.8

# Mixing weights keep the text signal informative but weaker than the
# profile-side age and posting-rate separation.
_POOL_PROB = 0.18
_TAG_POOL_PROB = 0.35
_SHARED_TAGS = tuple(f"tag{i:02d}" for i in range(30))


@dataclass
class ClassBehavior:
    """Generative knobs for one account class."""

    age_offset_days: float
    age_mean_days: float
    age_cap_days: float | None
    statuses_rate_log_mean: float  # lifetime posts/day, log-normal
    statuses_rate_log_sigma: float
    posts_per_day: float  # in-window activity rate
    max_posts: int
    retweet_fraction: float
    quote_fraction: float
    reaction_log_mean: float  # reaction delay seconds, log-normal
    reaction_log_sigma: float
    duplicate_prob: float
    hashtag_pool: int
    mention_prob: float
    url_prob: float
    followers_per_day: float
    friends_per_day: float
    follower_growth: float
    favourites_per_day: float
    listed_per_day: float
    count_log_sigma: float
    verified_prob: float
    default_profile_prob: float
    default_profile_image_prob: float
    description_prob: float
    name_digit_prob: float
    hour_center: float | None  # None = uniform posting hours
    hour_sd: float = 4.5

    def validate(self) -> None:
        rates = (
            self.age_offset_days, self.age_mean_days, self.posts_per_day,
            self.followers_per_day, self.friends_per_day, self.follower_growth,
            self.favourites_per_day, self.listed_per_day, self.count_log_sigma,
        )
        if any(rate < 0 for rate in rates):
            raise ValueError("rates must be >= 0")
        probs = (
            self.retweet_fraction, self.quote_fraction, self.duplicate_prob,
            self.mention_prob, self.url_prob, self.verified_prob,
            self.default_profile_prob, self.default_profile_image_prob,
            self.description_prob, self.name_digit_prob,
        )
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ValueError("probabilities must be in [0, 1]")
        if self.retweet_fraction + self.quote_fraction > 1.0:
            raise ValueError("action mix exceeds 1")
        if self.max_posts < 1:
            raise ValueError("max_posts must be >= 1")
        if self.hashtag_pool < 1:
            raise ValueError("hashtag_pool must be >= 1")


def suspended_defaults() -> ClassBehavior:
    # Counts accrue at the same per-day rates as normal accounts so
    # that account age and the lifetime statuses rate stay the primary
    # class signals; flag and name knobs differ only mildly.
    return ClassBehavior(
        age_offset_days=1.0, age_mean_days=45.0, age_cap_days=300.0,
        statuses_rate_log_mean=math.log(8.0), statuses_rate_log_sigma=0.7,
        posts_per_day=1.1, max_posts=60,
        retweet_fraction=0.35, quote_fraction=0.08,
        reaction_log_mean=math.log(600.0), reaction_log_sigma=1.0,
        duplicate_prob=0.15, hashtag_pool=12, mention_prob=0.20, url_prob=0.25,
        followers_per_day=0.8, friends_per_day=1.0, follower_growth=1.15,
        favourites_per_day=2.5, listed_per_day=0.004, count_log_sigma=1.0,
        verified_prob=0.0,
        default_profile_prob=0.45, default_profile_image_prob=0.15,
        description_prob=0.55, name_digit_prob=0.55, hour_center=None,
    )


def normal_defaults() -> ClassBehavior:
    return ClassBehavior(
        age_offset_days=60.0, age_mean_days=700.0, age_cap_days=None,
        statuses_rate_log_mean=math.log(0.9), statuses_rate_log_sigma=0.8,
        posts_per_day=0.45, max_posts=30,
        retweet_fraction=0.35, quote_fraction=0.08,
        reaction_log_mean=math.log(3600.0), reaction_log_sigma=1.1,
        duplicate_prob=0.02, hashtag_pool=40, mention_prob=0.15, url_prob=0.15,
        followers_per_day=0.8, friends_per_day=1.0, follower_growth=1.05,
        favourites_per_day=2.5, listed_per_day=0.004, count_log_sigma=1.0,
        verified_prob=0.03,
        default_profile_prob=0.25, default_profile_image_prob=0.05,
        description_prob=0.75, name_digit_prob=0.30, hour_center=15.0,
    )


@dataclass
class GeneratorConfig:
    n_suspended: int = 400
    n_normal: int = 400
    corpus_start: int = DEFAULT_CORPUS_START
    window_days: int = 21
    n_windows: int = 1
    drift: bool = False
    suspended: ClassBehavior = field(default_factory=suspended_defaults)
    normal: ClassBehavior = field(default_factory=normal_defaults)

    def validate(self) -> None:
        if self.n_suspended < 0 or self.n_normal < 0:
            raise ValueError("user counts must be >= 0")
        if self.window_days < 1:
            raise ValueError("window_days must be >= 1")
        if self.n_windows not in (1, 2):
            raise ValueError("n_windows must be 1 or 2")
        self.suspended.validate()
        self.normal.validate()


def _demo_wallets() -> tuple[str, str]:
    btc = base58check_encode(b"\x00" + hashlib.sha256(b"corpus-demo-btc").digest()[:20])
    eth = "0x" + hashlib.sha256(b"corpus-demo-eth").hexdigest()[:40]
    return btc, eth


def _canonical_texts() -> tuple[str, str]:
    btc, eth = _demo_wallets()
    promo = (
        "Huge giveaway claim your free crypto bonus now send to "
        f"{btc} or {eth} limited offer"
    )
    benign = "Lovely morning for a long walk and a coffee with friends by the river"
    return promo, benign


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()


def _hub_weights(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1)
    return weights / weights.sum()


class _UserWriter:
    """Draws one user's profile and posts and renders them as records."""

    def __init__(self, rng: np.random.Generator, behavior: ClassBehavior,
                 window: TimeWindow, pool: tuple[str, ...], tags: list[str],
                 canonical: str, own_hubs: list[str], other_hubs: list[str]):
        self.rng = rng
        self.b = behavior
        self.window = window
        self.pool = pool
        self.tags = tags
        self.canonical = canonical
        self.own_hubs = own_hubs
        self.other_hubs = other_hubs
        self.own_weights = _hub_weights(len(own_hubs))
        self.other_weights = _hub_weights(len(other_hubs))

    def _age_days(self) -> float:
        age = self.b.age_offset_days + self.rng.exponential(self.b.age_mean_days)
        if self.b.age_cap_days is not None:
            age = min(age, self.b.age_cap_days)
        return age

    def _accrued(self, per_day: float, age_days: float) -> int:
        """Lifetime count at a noisy per-day accrual rate."""
        rate = per_day * self.rng.lognormal(0.0, self.b.count_log_sigma)
        return int(self.rng.poisson(rate * age_days))

    def _words(self, n: int) -> list[str]:
        out = []
        for _ in range(n):
            if self.rng.random() < _POOL_PROB:
                out.append(self.pool[self.rng.integers(len(self.pool))])
            else:
                out.append(_SHARED_WORDS[self.rng.integers(len(_SHARED_WORDS))])
        return out

    def _compose(self) -> tuple[str, list[str], list[str]]:
        words = self._words(int(self.rng.integers(6, 15)))
        n_tags = int(self.rng.choice(3, p=[0.35, 0.40, 0.25]))
        tags = []
        for _ in range(n_tags):
            if self.rng.random() < _TAG_POOL_PROB:
                tags.append(self.tags[self.rng.integers(len(self.tags))])
            else:
                tags.append(_SHARED_TAGS[self.rng.integers(len(_SHARED_TAGS))])
        urls = []
        if self.rng.random() < self.b.url_prob:
            urls.append(f"https://t.co/{self.rng.integers(36**6):x}")
        text = " ".join(words).capitalize()
        if tags:
            text += " " + " ".join("#" + t for t in tags)
        if urls:
            text += " " + urls[0]
        return text, tags, urls

    def _pick_hub(self) -> str:
        if self.rng.random() < _OWN_HUB_PROB or not self.other_hubs:
            return self.own_hubs[self.rng.choice(len(self.own_hubs), p=self.own_weights)]
        return self.other_hubs[self.rng.choice(len(self.other_hubs), p=self.other_weights)]

    def _timestamp(self, created_at: int) -> int:
        if created_at > self.window.start:
            span = self.window.end - created_at
            return created_at + int(self.rng.integers(max(span, 1)))
        day = int(self.rng.integers(self.window.days))
        if self.b.hour_center is None:
            hour = int(self.rng.integers(24))
        else:
            weights = np.exp(
                -0.5 * ((np.arange(24) - self.b.hour_center) / self.b.hour_sd) ** 2
            )
            hour = int(self.rng.choice(24, p=weights / weights.sum()))
        return self.window.start + day * DAY_SECONDS + hour * 3600 + int(self.rng.integers(3600))

    def snapshots(self, user_id: str) -> tuple[list[dict], int]:
        age_days = self._age_days()
        created_at = int(self.window.end - age_days * DAY_SECONDS)
        first_obs = max(self.window.start, created_at)
        last_obs = self.window.end - 1

        rate = self.rng.lognormal(self.b.statuses_rate_log_mean, self.b.statuses_rate_log_sigma)
        statuses_end = int(round(rate * age_days))
        first_age_days = age_days - (self.window.end - first_obs) / DAY_SECONDS
        statuses_start = max(0, int(round(rate * max(first_age_days, 0.0))))

        followers_end = self._accrued(self.b.followers_per_day, age_days)
        growth = self.b.follower_growth * self.rng.lognormal(0.0, 0.1)
        followers_start = max(0, int(round(followers_end / max(growth, 1e-9))))
        friends = self._accrued(self.b.friends_per_day, age_days)
        favourites = self._accrued(self.b.favourites_per_day, age_days)
        listed = self._accrued(self.b.listed_per_day, age_days)

        if self.rng.random() < self.b.name_digit_prob:
            number = int(self.rng.integers(10_000, 99_999_999))
            name = screen_name = f"user{number}"
        else:
            first = _SHARED_WORDS[self.rng.integers(len(_SHARED_WORDS))]
            second = _SHARED_WORDS[self.rng.integers(len(_SHARED_WORDS))]
            name = f"{first.capitalize()} {second.capitalize()}"
            screen_name = first + second
        description = ""
        if self.rng.random() < self.b.description_prob:
            description = " ".join(self._words(8)).capitalize()

        common = {
            "user_id": user_id,
            "account_created_at": created_at,
            "friends": friends,
            "favourites": favourites,
            "listed": listed,
            "verified": bool(self.rng.random() < self.b.verified_prob),
            "default_profile": bool(self.rng.random() < self.b.default_profile_prob),
            "default_profile_image": bool(self.rng.random() < self.b.default_profile_image_prob),
            "name": name,
            "screen_name": screen_name,
            "description": description,
        }
        snaps = [
            {**common, "observed_at": first_obs, "followers": followers_start,
             "statuses": statuses_start},
            {**common, "observed_at": last_obs, "followers": followers_end,
             "statuses": statuses_end},
        ]
        return snaps, created_at

    def posts(self, user_id: str, created_at: int, next_id) -> list[dict]:
        n_posts = int(self.rng.poisson(self.b.posts_per_day * self.window.days))
        n_posts = min(self.b.max_posts, max(1, n_posts))
        times = sorted(self._timestamp(created_at) for _ in range(n_posts))
        records = []
        for ts in times:
            record = {
                "id": f"t{next_id():08d}",
                "user_id": user_id,
                "created_at": ts,
                "lang": "en",
            }
            if self.rng.random() < self.b.duplicate_prob:
                record["text"] = self.canonical
                records.append(record)
                continue
            text, tags, urls = self._compose()
            mentions = []
            if self.rng.random() < self.b.mention_prob:
                hub = self._pick_hub()
                mentions.append(hub)
                text = f"@{hub} " + text
            roll = self.rng.random()
            if roll < self.b.retweet_fraction:
                hub = self._pick_hub()
                delay = max(1, int(self.rng.lognormal(self.b.reaction_log_mean,
                                                      self.b.reaction_log_sigma)))
                record["retweeted_status_id"] = f"x{hub}_{ts}"
                record["retweeted_user_id"] = hub
                record["retweeted_status_created_at"] = ts - delay
                text = f"RT @{hub}: {text}"
            elif roll < self.b.retweet_fraction + self.b.quote_fraction:
                hub = self._pick_hub()
                delay = max(1, int(self.rng.lognormal(self.b.reaction_log_mean,
                                                      self.b.reaction_log_sigma)))
                record["quoted_status_id"] = f"x{hub}_{ts}"
                record["quoted_user_id"] = hub
                record["quoted_status_created_at"] = ts - delay
            record["text"] = text
            if tags:
                record["hashtags"] = tags
            if urls:
                record["urls"] = urls
            if mentions:
                record["mentions"] = mentions
            records.append(record)
        return records


def generate(config: GeneratorConfig, seed: int, out_dir: str | Path) -> dict[str, Path]:
    """Write tweets.jsonl, snapshots.jsonl, and labels.csv."""
    config.validate()
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "tweets": out_dir / "tweets.jsonl",
        "snapshots": out_dir / "snapshots.jsonl",
        "labels": out_dir / "labels.csv",
    }

    first, second = split_windows(config.corpus_start, window_days=config.window_days)
    windows = [first] if config.n_windows == 1 else [first, second]
    hubs_s = [f"hub_s{i:02d}" for i in range(_HUBS_SUSPENDED)]
    hubs_n = [f"hub_n{i:02d}" for i in range(_HUBS_NORMAL)]
    promo, benign = _canonical_texts()

    counter = iter(range(1, 1 << 62))

    def next_id() -> int:
        return next(counter)

    with open(paths["tweets"], "w", encoding="utf-8") as tweets_fh, open(
        paths["snapshots"], "w", encoding="utf-8"
    ) as snaps_fh, open(paths["labels"], "w", encoding="utf-8", newline="") as labels_fh:
        labels_fh.write("user_id,status,status_date\n")
        for w_index, window in enumerate(windows, start=1):
            swapped = config.drift and w_index == 2
            pool_s, pool_n = (_POOL_B, _POOL_A) if swapped else (_POOL_A, _POOL_B)
            canon_s, canon_n = (benign, promo) if swapped else (promo, benign)
            tag_prefix_s, tag_prefix_n = ("life", "boost") if swapped else ("boost", "life")
            tags_s = [f"{tag_prefix_s}{i}" for i in range(config.suspended.hashtag_pool)]
            tags_n = [f"{tag_prefix_n}{i}" for i in range(config.normal.hashtag_pool)]

            plan = [
                ("s", config.n_suspended, config.suspended, pool_s, tags_s, canon_s,
                 hubs_s, hubs_n, STATUS_SUSPENDED),
                ("n", config.n_normal, config.normal, pool_n, tags_n, canon_n,
                 hubs_n, hubs_s, STATUS_NORMAL),
            ]
            for prefix, count, behavior, pool, tags, canon, own, other, status in plan:
                writer = _UserWriter(rng, behavior, window, pool, tags, canon, own, other)
                for u in range(count):
                    user_id = f"{prefix}{w_index}_{u:05d}"
                    snaps, created_at = writer.snapshots(user_id)
                    for snap in snaps:
                        snaps_fh.write(json.dumps(snap, sort_keys=True) + "\n")
                    for record in writer.posts(user_id, created_at, next_id):
                        tweets_fh.write(json.dumps(record, sort_keys=True) + "\n")
                    if status == STATUS_SUSPENDED:
                        when = window.start + int(rng.integers(window.end - window.start))
                        labels_fh.write(f"{user_id},{status},{_iso(when)}\n")
                    else:
                        labels_fh.write(f"{user_id},{status},\n")
    return paths
