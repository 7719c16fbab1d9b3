"""Corpus ingestion, storage, labeling, windowing and class balancing.

Raw inputs are JSON-Lines tweet and snapshot files plus a label CSV.
Everything downstream reads only through :class:`CorpusStore`, an
embedded single-file sqlite store indexed by user and timestamp.
Ingestion is idempotent: records are keyed by their natural ids and
re-ingesting a file changes nothing.

A window's tweets are decoded in one :meth:`CorpusStore.tweets_in_window`
pass; :func:`read_window` groups it per user, and that one table feeds
every feature family, the graph build and content clustering.
"""

from __future__ import annotations

import csv
import json
import logging
import sqlite3
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import SuspkitError

logger = logging.getLogger(__name__)

DAY_SECONDS = 86_400

KIND_ORIGINAL = "original"
KIND_RETWEET = "retweet"
KIND_QUOTE = "quote"
KINDS = (KIND_ORIGINAL, KIND_RETWEET, KIND_QUOTE)

STATUS_NORMAL = "normal"
STATUS_SUSPENDED = "suspended"
STATUS_DEACTIVATED = "deactivated"
STATUSES = (STATUS_NORMAL, STATUS_SUSPENDED, STATUS_DEACTIVATED)

# How many malformed records to log individually before going quiet.
_WARN_LIMIT = 5


class MalformedRecord(SuspkitError):
    """A record that cannot be parsed; skipped and counted, never fatal.

    `reason` names the kind of fault, for the per-reason skip counts:
    invalid_utf8, invalid_json, missing_field, inconsistent, or
    bad_value for a field of the wrong type or out of range.
    """

    def __init__(self, message: str, reason: str = "bad_value"):
        super().__init__(message)
        self.reason = reason


class EmptyClass(SuspkitError):
    """Balancing was asked for a class with zero members."""


@dataclass(frozen=True)
class Tweet:
    tweet_id: str
    user_id: str
    created_at: int  # UTC epoch seconds
    kind: str  # one of KINDS
    text: str
    referenced_tweet_id: str | None = None
    referenced_user_id: str | None = None
    referenced_created_at: int | None = None
    hashtags: tuple[str, ...] = ()
    urls: tuple[str, ...] = ()
    mentions: tuple[str, ...] = ()
    lang: str = "und"


@dataclass(frozen=True)
class UserSnapshot:
    user_id: str
    observed_at: int
    account_created_at: int
    followers: int
    friends: int
    statuses: int
    favourites: int
    listed: int
    verified: bool
    default_profile: bool
    default_profile_image: bool
    name: str
    screen_name: str
    description: str


@dataclass(frozen=True)
class AccountLabel:
    user_id: str
    status: str  # one of STATUSES
    status_date: int | None = None  # required for suspended/deactivated


@dataclass(frozen=True)
class TimeWindow:
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(f"empty window [{self.start}, {self.end})")

    def contains(self, ts: int) -> bool:
        return self.start <= ts < self.end

    @property
    def days(self) -> float:
        return (self.end - self.start) / DAY_SECONDS


@dataclass
class IngestStats:
    parsed: int = 0
    skipped: int = 0
    inserted: int = 0
    skipped_by_reason: dict[str, int] = field(default_factory=dict)

    def skip(self, exc: MalformedRecord) -> None:
        self.skipped += 1
        self.skipped_by_reason[exc.reason] = self.skipped_by_reason.get(exc.reason, 0) + 1
        if self.skipped <= _WARN_LIMIT:
            logger.warning("skipping malformed record: %s", exc)


def _require_utf8(text: str) -> None:
    """Input files are read with errors="surrogateescape", so a byte that
    is not UTF-8 arrives as a lone surrogate, which cannot be encoded."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedRecord("invalid UTF-8 byte", reason="invalid_utf8") from None


def _require(obj: dict, key: str):
    if key not in obj or obj[key] is None:
        raise MalformedRecord(f"missing required field {key!r}", reason="missing_field")
    return obj[key]


def _as_epoch(value, field: str) -> int:
    # JSON integers may arrive as floats; accept only integral values.
    if isinstance(value, bool):
        raise MalformedRecord(f"{field} is not an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise MalformedRecord(f"{field} is not an integer epoch: {value!r}")


def _as_str(value, field: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    raise MalformedRecord(f"{field} is not a string: {value!r}")


def _str_list(obj: dict, key: str) -> tuple[str, ...]:
    value = obj.get(key)
    if value is None:
        return ()
    if not isinstance(value, list):
        raise MalformedRecord(f"{key} is not an array")
    return tuple(_as_str(v, key) for v in value)


# Reference-field triplets for the two non-original post kinds.
_REF_FIELDS = {
    KIND_RETWEET: ("retweeted_status_id", "retweeted_user_id", "retweeted_status_created_at"),
    KIND_QUOTE: ("quoted_status_id", "quoted_user_id", "quoted_status_created_at"),
}


def parse_tweet_record(line: str) -> Tweet:
    """Parse one JSON-Lines tweet record.

    The post kind is derived from which reference fields are present:
    a retweet triplet wins over a quote triplet, no triplet means an
    original post.  Raises MalformedRecord for invalid JSON, missing
    required fields, partial reference triplets, or a reference
    timestamp later than the post itself.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"invalid JSON: {exc}", reason="invalid_json") from None
    if not isinstance(obj, dict):
        raise MalformedRecord("record is not a JSON object", reason="invalid_json")

    tweet_id = _as_str(_require(obj, "id"), "id")
    user_id = _as_str(_require(obj, "user_id"), "user_id")
    created_at = _as_epoch(_require(obj, "created_at"), "created_at")
    text = _require(obj, "text")
    if not isinstance(text, str):
        raise MalformedRecord("text is not a string")

    kind = KIND_ORIGINAL
    ref_id = ref_user = None
    ref_created: int | None = None
    for candidate, fields in _REF_FIELDS.items():
        present = [f for f in fields if obj.get(f) is not None]
        if not present:
            continue
        if len(present) != len(fields):
            raise MalformedRecord(f"partial {candidate} reference: only {present} set",
                                  reason="inconsistent")
        kind = candidate
        ref_id = _as_str(obj[fields[0]], fields[0])
        ref_user = _as_str(obj[fields[1]], fields[1])
        ref_created = _as_epoch(obj[fields[2]], fields[2])
        break

    if ref_created is not None and ref_created > created_at:
        raise MalformedRecord("referenced post is newer than the referencing post",
                              reason="inconsistent")

    hashtags = tuple(h.lstrip("#") for h in _str_list(obj, "hashtags"))
    lang = obj.get("lang") or "und"
    if not isinstance(lang, str):
        raise MalformedRecord("lang is not a string")

    return Tweet(
        tweet_id=tweet_id,
        user_id=user_id,
        created_at=created_at,
        kind=kind,
        text=text,
        referenced_tweet_id=ref_id,
        referenced_user_id=ref_user,
        referenced_created_at=ref_created,
        hashtags=hashtags,
        urls=_str_list(obj, "urls"),
        mentions=_str_list(obj, "mentions"),
        lang=lang,
    )


_SNAPSHOT_COUNTS = ("followers", "friends", "statuses", "favourites", "listed")
_SNAPSHOT_FLAGS = ("verified", "default_profile", "default_profile_image")


def parse_snapshot_record(line: str) -> UserSnapshot:
    """Parse one JSON-Lines profile snapshot record."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"invalid JSON: {exc}", reason="invalid_json") from None
    if not isinstance(obj, dict):
        raise MalformedRecord("record is not a JSON object", reason="invalid_json")

    user_id = _as_str(_require(obj, "user_id"), "user_id")
    observed_at = _as_epoch(_require(obj, "observed_at"), "observed_at")
    account_created_at = _as_epoch(_require(obj, "account_created_at"), "account_created_at")
    if account_created_at > observed_at:
        raise MalformedRecord("account created after it was observed", reason="inconsistent")

    counts = {}
    for field in _SNAPSHOT_COUNTS:
        value = _as_epoch(_require(obj, field), field)
        if value < 0:
            raise MalformedRecord(f"negative count for {field}")
        counts[field] = value

    flags = {}
    for field in _SNAPSHOT_FLAGS:
        value = obj.get(field, False)
        if not isinstance(value, bool):
            raise MalformedRecord(f"{field} is not a boolean")
        flags[field] = value

    return UserSnapshot(
        user_id=user_id,
        observed_at=observed_at,
        account_created_at=account_created_at,
        name=str(obj.get("name", "")),
        screen_name=str(obj.get("screen_name", "")),
        description=str(obj.get("description", "")),
        **counts,
        **flags,
    )


def parse_status_date(raw: str) -> int | None:
    """ISO-8601 date or datetime to epoch seconds; empty string to None."""
    raw = raw.strip()
    if not raw:
        return None
    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise MalformedRecord(f"bad ISO-8601 date: {raw!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def parse_label_row(row: dict[str, str]) -> AccountLabel:
    user_id = (row.get("user_id") or "").strip()
    status = (row.get("status") or "").strip()
    if not user_id:
        raise MalformedRecord("label row without user_id", reason="missing_field")
    if status not in STATUSES:
        raise MalformedRecord(f"unknown status {status!r}")
    status_date = parse_status_date(row.get("status_date") or "")
    if status in (STATUS_SUSPENDED, STATUS_DEACTIVATED) and status_date is None:
        raise MalformedRecord(f"{status} label without status_date", reason="missing_field")
    return AccountLabel(user_id=user_id, status=status, status_date=status_date)


def split_windows(corpus_start: int, *, window_days: int) -> tuple[TimeWindow, TimeWindow]:
    """Two back-to-back monitoring windows of exactly window_days each."""
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    span = window_days * DAY_SECONDS
    first = TimeWindow(corpus_start, corpus_start + span)
    second = TimeWindow(first.end, first.end + span)
    return first, second


_SCHEMA = """
CREATE TABLE IF NOT EXISTS tweets (
    tweet_id TEXT PRIMARY KEY,
    user_id TEXT NOT NULL,
    created_at INTEGER NOT NULL,
    kind TEXT NOT NULL,
    referenced_tweet_id TEXT,
    referenced_user_id TEXT,
    referenced_created_at INTEGER,
    text TEXT NOT NULL,
    hashtags TEXT NOT NULL,
    urls TEXT NOT NULL,
    mentions TEXT NOT NULL,
    lang TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_tweets_user_time ON tweets (user_id, created_at);
CREATE INDEX IF NOT EXISTS idx_tweets_time ON tweets (created_at);
CREATE TABLE IF NOT EXISTS snapshots (
    user_id TEXT NOT NULL,
    observed_at INTEGER NOT NULL,
    account_created_at INTEGER NOT NULL,
    followers INTEGER NOT NULL,
    friends INTEGER NOT NULL,
    statuses INTEGER NOT NULL,
    favourites INTEGER NOT NULL,
    listed INTEGER NOT NULL,
    verified INTEGER NOT NULL,
    default_profile INTEGER NOT NULL,
    default_profile_image INTEGER NOT NULL,
    name TEXT NOT NULL,
    screen_name TEXT NOT NULL,
    description TEXT NOT NULL,
    PRIMARY KEY (user_id, observed_at)
);
CREATE TABLE IF NOT EXISTS labels (
    user_id TEXT PRIMARY KEY,
    status TEXT NOT NULL,
    status_date INTEGER
);
"""

_INGEST_BATCH = 5000


def _decode_list(raw: str) -> tuple[str, ...]:
    """A stored JSON list as a tuple; most stored lists are empty."""
    return () if raw == "[]" else tuple(json.loads(raw))


class CorpusStore:
    """Embedded single-file tweet corpus.

    One writer during ingestion; afterwards the store is effectively
    immutable and any number of readers (or store instances opened on
    the same path) may query it concurrently.
    """

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ingestion ----------------------------------------------------

    def _ingest_lines(self, lines: Iterable[str], parse, insert) -> IngestStats:
        stats = IngestStats()
        batch = []
        for line in lines:
            if not line.strip():
                continue
            try:
                _require_utf8(line)
                batch.append(parse(line))
            except MalformedRecord as exc:
                stats.skip(exc)
                continue
            stats.parsed += 1
            if len(batch) >= _INGEST_BATCH:
                stats.inserted += insert(batch)
                batch.clear()
        if batch:
            stats.inserted += insert(batch)
        if stats.skipped > _WARN_LIMIT:
            logger.warning("%d malformed records skipped in total", stats.skipped)
        self._conn.commit()
        return stats

    def _insert_tweets(self, tweets: list[Tweet]) -> int:
        cur = self._conn.executemany(
            "INSERT OR IGNORE INTO tweets VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
            [
                (
                    t.tweet_id,
                    t.user_id,
                    t.created_at,
                    t.kind,
                    t.referenced_tweet_id,
                    t.referenced_user_id,
                    t.referenced_created_at,
                    t.text,
                    json.dumps(t.hashtags),
                    json.dumps(t.urls),
                    json.dumps(t.mentions),
                    t.lang,
                )
                for t in tweets
            ],
        )
        return cur.rowcount

    def _insert_snapshots(self, snaps: list[UserSnapshot]) -> int:
        cur = self._conn.executemany(
            "INSERT OR IGNORE INTO snapshots VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            [
                (
                    s.user_id,
                    s.observed_at,
                    s.account_created_at,
                    s.followers,
                    s.friends,
                    s.statuses,
                    s.favourites,
                    s.listed,
                    int(s.verified),
                    int(s.default_profile),
                    int(s.default_profile_image),
                    s.name,
                    s.screen_name,
                    s.description,
                )
                for s in snaps
            ],
        )
        return cur.rowcount

    def ingest_tweets(self, source: str | Path | Iterable[str]) -> IngestStats:
        """Ingest a JSON-Lines tweet file (or an iterable of lines)."""
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8", errors="surrogateescape") as fh:
                return self._ingest_lines(fh, parse_tweet_record, self._insert_tweets)
        return self._ingest_lines(source, parse_tweet_record, self._insert_tweets)

    def ingest_snapshots(self, source: str | Path | Iterable[str]) -> IngestStats:
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8", errors="surrogateescape") as fh:
                return self._ingest_lines(fh, parse_snapshot_record, self._insert_snapshots)
        return self._ingest_lines(source, parse_snapshot_record, self._insert_snapshots)

    def ingest_labels(self, source: str | Path) -> IngestStats:
        stats = IngestStats()
        with open(source, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            reader = csv.DictReader(fh)
            batch = []
            for row in reader:
                try:
                    for value in row.values():
                        if isinstance(value, str):
                            _require_utf8(value)
                    batch.append(parse_label_row(row))
                except MalformedRecord as exc:
                    stats.skip(exc)
                    continue
                stats.parsed += 1
            cur = self._conn.executemany(
                "INSERT OR IGNORE INTO labels VALUES (?,?,?)",
                [(l.user_id, l.status, l.status_date) for l in batch],
            )
            stats.inserted = cur.rowcount
        self._conn.commit()
        return stats

    # -- queries ------------------------------------------------------

    @staticmethod
    def _row_to_tweet(row) -> Tweet:
        return Tweet(
            tweet_id=row[0],
            user_id=row[1],
            created_at=row[2],
            kind=row[3],
            referenced_tweet_id=row[4],
            referenced_user_id=row[5],
            referenced_created_at=row[6],
            text=row[7],
            hashtags=_decode_list(row[8]),
            urls=_decode_list(row[9]),
            mentions=_decode_list(row[10]),
            lang=row[11],
        )

    def user_timeline(self, user_id: str, window: TimeWindow) -> list[Tweet]:
        """All in-window tweets of a user, ascending by time then id.

        Unknown users simply get an empty timeline.
        """
        rows = self._conn.execute(
            "SELECT * FROM tweets WHERE user_id = ? AND created_at >= ? AND created_at < ?"
            " ORDER BY created_at, tweet_id",
            (user_id, window.start, window.end),
        )
        return [self._row_to_tweet(r) for r in rows]

    def tweets_in_window(self, window: TimeWindow) -> Iterator[Tweet]:
        rows = self._conn.execute(
            "SELECT * FROM tweets WHERE created_at >= ? AND created_at < ?"
            " ORDER BY created_at, tweet_id",
            (window.start, window.end),
        )
        for row in rows:
            yield self._row_to_tweet(row)

    def active_users(self, window: TimeWindow) -> list[str]:
        rows = self._conn.execute(
            "SELECT DISTINCT user_id FROM tweets WHERE created_at >= ? AND created_at < ?"
            " ORDER BY user_id",
            (window.start, window.end),
        )
        return [r[0] for r in rows]

    def snapshots(self, user_id: str, window: TimeWindow) -> list[UserSnapshot]:
        rows = self._conn.execute(
            "SELECT * FROM snapshots WHERE user_id = ? AND observed_at >= ? AND observed_at < ?"
            " ORDER BY observed_at",
            (user_id, window.start, window.end),
        )
        return [
            UserSnapshot(
                user_id=r[0],
                observed_at=r[1],
                account_created_at=r[2],
                followers=r[3],
                friends=r[4],
                statuses=r[5],
                favourites=r[6],
                listed=r[7],
                verified=bool(r[8]),
                default_profile=bool(r[9]),
                default_profile_image=bool(r[10]),
                name=r[11],
                screen_name=r[12],
                description=r[13],
            )
            for r in rows
        ]

    def labels(self) -> dict[str, AccountLabel]:
        return {
            r[0]: AccountLabel(user_id=r[0], status=r[1], status_date=r[2])
            for r in self._conn.execute("SELECT user_id, status, status_date FROM labels")
        }


def read_window(store: CorpusStore, window: TimeWindow) -> dict[str, list[Tweet]]:
    """The window's tweets grouped per user, in one pass.  Each list is in
    `user_timeline` order; users without an in-window tweet have no entry."""
    table: dict[str, list[Tweet]] = {}
    for tweet in store.tweets_in_window(window):
        table.setdefault(tweet.user_id, []).append(tweet)
    return table


def select_window_users(
    window: TimeWindow,
    labels: dict[str, AccountLabel],
    active_users: Iterable[str],
) -> dict[str, int]:
    """Labeled user set for one window: 1 = suspended, 0 = normal.

    Positives are accounts whose suspension date falls inside the window.
    Negatives are accounts active inside the window that were never
    observed suspended or deactivated over the whole collection; the
    deactivated class is excluded from both sides.
    """
    selected: dict[str, int] = {}
    for user_id, label in labels.items():
        if label.status == STATUS_SUSPENDED and window.contains(label.status_date):
            selected[user_id] = 1
    for user_id in active_users:
        label = labels.get(user_id)
        if label is None or label.status == STATUS_NORMAL:
            selected[user_id] = 0
    return selected


def undersample_balance(users: dict[str, int], seed: int) -> dict[str, int]:
    """Uniform random under-sampling to equal class counts.

    Sampling is without replacement over the sorted member lists, so a
    given (input, seed) pair always yields the same subset.
    """
    suspended = sorted(u for u, y in users.items() if y == 1)
    normal = sorted(u for u, y in users.items() if y == 0)
    if not suspended or not normal:
        raise EmptyClass(
            f"cannot balance: {len(suspended)} suspended vs {len(normal)} normal users"
        )
    n = min(len(suspended), len(normal))
    rng = np.random.default_rng(seed)
    keep_s = rng.choice(len(suspended), size=n, replace=False)
    keep_n = rng.choice(len(normal), size=n, replace=False)
    balanced = {suspended[i]: 1 for i in sorted(keep_s)}
    balanced.update({normal[i]: 0 for i in sorted(keep_n)})
    return balanced
