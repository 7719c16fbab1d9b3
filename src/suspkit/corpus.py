"""Corpus ingestion, storage, labeling, windowing and class balancing.

Raw inputs are JSON-Lines tweet and snapshot files plus a label CSV.
Everything downstream reads only through :class:`CorpusStore`, an
embedded single-file sqlite store indexed by user and timestamp.
Ingestion is idempotent: records are keyed by their natural ids and
re-ingesting a file changes nothing.

Each table holds one record type, and its columns are that type's
fields: inserts and selects name them in field order, and one loop
parses, counts, inserts and commits all three files.

Each read takes only what its consumer uses.  The tweets of a set of
users in a window are decoded in one :meth:`CorpusStore.tweets_in_window`
pass; the feature families read a split's users a chunk at a time.
The fits of the textual and post-embedding families read narrower
columns of the same users: their hashtags
(:meth:`CorpusStore.post_hashtags`), their post count and their post
texts (:meth:`CorpusStore.post_count`, :meth:`CorpusStore.post_texts`).
The graph build reads four columns of the window's posts that can give
an edge (:meth:`CorpusStore.interactions`), and content clustering the
id, user and text columns (:meth:`CorpusStore.window_posts`).
"""

from __future__ import annotations

import csv
import json
import logging
import sqlite3
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import starmap
from operator import attrgetter
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


# Each table's columns are its record type's fields, in field order.
_COLUMNS = {
    table: tuple(f.name for f in fields(record))
    for table, record in (("tweets", Tweet), ("snapshots", UserSnapshot), ("labels", AccountLabel))
}


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


def _json_object(line: str) -> dict:
    """The JSON object one JSON-Lines record holds."""
    _require_utf8(line)
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"invalid JSON: {exc}", reason="invalid_json") from None
    if not isinstance(obj, dict):
        raise MalformedRecord("record is not a JSON object", reason="invalid_json")
    return obj


def _require(obj: dict, key: str):
    if key not in obj or obj[key] is None:
        raise MalformedRecord(f"missing required field {key!r}", reason="missing_field")
    return obj[key]


def _as_epoch(value, field: str) -> int:
    # JSON integers may arrive as floats; accept only integral values
    # that fit SQLite's signed 64-bit INTEGER.
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or not -2**63 <= value < 2**63:
        raise MalformedRecord(f"{field} is not a 64-bit integer: {value!r}")
    return value


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
    obj = _json_object(line)

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
    lang = obj.get("lang")
    if lang is not None and not isinstance(lang, str):
        raise MalformedRecord(f"lang is not a string: {lang!r}")

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
        lang=lang or "und",
    )


# Snapshot fields 3-7 are the counts and 8-10 the flags.
_SNAPSHOT_COUNTS = _COLUMNS["snapshots"][3:8]
_SNAPSHOT_FLAGS = _COLUMNS["snapshots"][8:11]


def _profile_text(obj: dict, key: str) -> str:
    # Twitter's user object may carry a null here; it reads as a missing key.
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise MalformedRecord(f"{key} is not a string: {value!r}")
    return value or ""


def parse_snapshot_record(line: str) -> UserSnapshot:
    """Parse one JSON-Lines profile snapshot record."""
    obj = _json_object(line)

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
        name=_profile_text(obj, "name"),
        screen_name=_profile_text(obj, "screen_name"),
        description=_profile_text(obj, "description"),
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
    for value in row.values():
        if isinstance(value, str):
            _require_utf8(value)
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

_INSERT = {
    table: f"INSERT OR IGNORE INTO {table} ({', '.join(columns)})"
           f" VALUES ({', '.join('?' * len(columns))})"
    for table, columns in _COLUMNS.items()
}
_SELECT = {table: f"SELECT {', '.join(columns)} FROM {table}" for table, columns in _COLUMNS.items()}
# The in-window tweets of the users of a JSON array, which sqlite joins
# on through the (user_id, created_at) index: no parameter per user, so
# the list has no length limit, and no row of another user is read.
_USERS_IN_WINDOW = (" WHERE user_id IN (SELECT value FROM json_each(?))"
                    " AND created_at >= ? AND created_at < ?")
_TIMELINE_ORDER = " ORDER BY user_id, created_at, tweet_id"


def _encode_list(values: tuple[str, ...]) -> str:
    """A list as the JSON text it is stored as; most lists are empty."""
    return json.dumps(values) if values else "[]"


def _encode_lists(row: tuple) -> tuple:
    """A tweet's field values with hashtags, urls and mentions (fields
    8-10) as the JSON lists they are stored as."""
    return (*row[:8], *map(_encode_list, row[8:11]), row[11])


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

    def _ingest(self, records: Iterable, parse, table: str, to_row) -> IngestStats:
        """Parse each record, skip and count the malformed ones, and stream
        the rest into `table`; `to_row` maps a record's field values to its
        row.  Rows go to sqlite one at a time, so memory stays flat."""
        stats = IngestStats()
        values = attrgetter(*_COLUMNS[table])

        def rows():
            for record in records:
                try:
                    row = to_row(values(parse(record)))
                except MalformedRecord as exc:
                    stats.skip(exc)
                    continue
                stats.parsed += 1
                yield row

        stats.inserted = self._conn.executemany(_INSERT[table], rows()).rowcount
        if stats.skipped > _WARN_LIMIT:
            logger.warning("%d malformed records skipped in total", stats.skipped)
        self._conn.commit()
        return stats

    def _ingest_lines(self, source: str | Path | Iterable[str], parse, table: str,
                      to_row) -> IngestStats:
        """Ingest a JSON-Lines file (or an iterable of lines); blank lines
        are no records."""
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8", errors="surrogateescape") as fh:
                return self._ingest_lines(fh, parse, table, to_row)
        return self._ingest((line for line in source if line.strip()), parse, table, to_row)

    def ingest_tweets(self, source: str | Path | Iterable[str]) -> IngestStats:
        """Ingest a JSON-Lines tweet file (or an iterable of lines)."""
        return self._ingest_lines(source, parse_tweet_record, "tweets", _encode_lists)

    def ingest_snapshots(self, source: str | Path | Iterable[str]) -> IngestStats:
        # sqlite stores the bool flags as the integers 0 and 1.
        return self._ingest_lines(source, parse_snapshot_record, "snapshots", tuple)

    def ingest_labels(self, source: str | Path) -> IngestStats:
        with open(source, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            return self._ingest(csv.DictReader(fh), parse_label_row, "labels", tuple)

    # -- queries ------------------------------------------------------

    @staticmethod
    def _row_to_tweet(row) -> Tweet:
        return Tweet(*row[:8], *map(_decode_list, row[8:11]), row[11])

    def user_timeline(self, user_id: str, window: TimeWindow) -> list[Tweet]:
        """All in-window tweets of a user, ascending by time then id.

        Unknown users simply get an empty timeline.
        """
        rows = self._conn.execute(
            _SELECT["tweets"] + " WHERE user_id = ? AND created_at >= ? AND created_at < ?"
            " ORDER BY created_at, tweet_id",
            (user_id, window.start, window.end),
        )
        return [self._row_to_tweet(r) for r in rows]

    def _users_in_window(
        self, query: str, window: TimeWindow, users: Iterable[str]
    ) -> sqlite3.Cursor:
        """The rows of `query`, whose condition is _USERS_IN_WINDOW, for
        `users` and `window`."""
        return self._conn.execute(query, (json.dumps(list(users)), window.start, window.end))

    def tweets_in_window(self, window: TimeWindow, users: Iterable[str]) -> Iterator[Tweet]:
        """The in-window tweets of `users`, by user and per user in
        `user_timeline` order."""
        query = _SELECT["tweets"] + _USERS_IN_WINDOW + _TIMELINE_ORDER
        for row in self._users_in_window(query, window, users):
            yield self._row_to_tweet(row)

    def post_count(self, window: TimeWindow, users: Iterable[str]) -> int:
        """The number of in-window tweets of `users`."""
        query = "SELECT COUNT(*) FROM tweets" + _USERS_IN_WINDOW
        return self._users_in_window(query, window, users).fetchone()[0]

    def post_texts(self, window: TimeWindow, users: Iterable[str]) -> Iterator[tuple[str, str]]:
        """(tweet_id, text) of the in-window tweets of `users`, in the
        order of `tweets_in_window`."""
        query = "SELECT tweet_id, text FROM tweets" + _USERS_IN_WINDOW + _TIMELINE_ORDER
        return self._users_in_window(query, window, users)

    def post_hashtags(
        self, window: TimeWindow, users: Iterable[str]
    ) -> Iterator[tuple[str, tuple[str, ...]]]:
        """(user_id, hashtags) of the in-window tweets of `users` that
        have a hashtag, by user."""
        query = ("SELECT user_id, hashtags FROM tweets" + _USERS_IN_WINDOW
                 + " AND hashtags != '[]' ORDER BY user_id")
        for user, hashtags in self._users_in_window(query, window, users):
            yield user, _decode_list(hashtags)

    def interactions(
        self, window: TimeWindow
    ) -> Iterator[tuple[str, str, str | None, tuple[str, ...]]]:
        """(user_id, kind, referenced_user_id, mentions) of each in-window
        tweet that can give a graph edge: a retweet or a quote, or a post
        that mentions someone.  Rows come in no particular order."""
        rows = self._conn.execute(
            "SELECT user_id, kind, referenced_user_id, mentions FROM tweets"
            " WHERE created_at >= ? AND created_at < ?"
            " AND (kind IN (?, ?) OR mentions != '[]')",
            (window.start, window.end, KIND_RETWEET, KIND_QUOTE),
        )
        for user, kind, referenced_user, mentions in rows:
            yield user, kind, referenced_user, _decode_list(mentions)

    def window_posts(self, window: TimeWindow) -> Iterator[tuple[str, str, str]]:
        """The window's (tweet_id, user_id, text) rows by user, and per user
        in `user_timeline` order.  sqlite compares text as UTF-8 bytes,
        which orders user ids as `sorted` does."""
        return self._conn.execute(
            "SELECT tweet_id, user_id, text FROM tweets WHERE created_at >= ? AND created_at < ?"
            " ORDER BY user_id, created_at, tweet_id",
            (window.start, window.end),
        )

    def active_users(self, window: TimeWindow) -> list[str]:
        """The ids of the users with a tweet in the window, sorted.  The
        (user_id, created_at) index covers the query and is already in
        user order, so sqlite needs no table lookup and no sort."""
        rows = self._conn.execute(
            "SELECT DISTINCT user_id FROM tweets INDEXED BY idx_tweets_user_time"
            " WHERE created_at >= ? AND created_at < ? ORDER BY user_id",
            (window.start, window.end),
        )
        return [r[0] for r in rows]

    def snapshots(self, users: list[str], window: TimeWindow) -> dict[str, list[UserSnapshot]]:
        """The in-window snapshots of each of `users`, by `observed_at`,
        from one query; a user without one gets an empty list.  The key
        (user_id, observed_at) leaves no tie in that order."""
        table: dict[str, list[UserSnapshot]] = {user: [] for user in users}
        rows = self._conn.execute(
            _SELECT["snapshots"] + " WHERE observed_at >= ? AND observed_at < ?"
            " ORDER BY user_id, observed_at",
            (window.start, window.end),
        )
        for r in rows:
            snaps = table.get(r[0])
            if snaps is not None:
                snaps.append(UserSnapshot(*r[:8], *map(bool, r[8:11]), *r[11:]))
        return table

    def labels(self) -> dict[str, AccountLabel]:
        labels = starmap(AccountLabel, self._conn.execute(_SELECT["labels"]))
        return {label.user_id: label for label in labels}


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
