"""Content-metadata features: entity-count statistics per post kind,
hashtag TF-IDF statistics, and vocabulary size.

The document unit for inverse document frequency is the user: a
hashtag's df is the number of distinct users who used it, so a tag
shared by everyone scores exactly zero and a one-off tag scores
ln(total users).
"""

from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .activity_features import STATS, stats_rows
from .corpus import KIND_ORIGINAL, KINDS, Tweet

ENTITIES = ("hashtags", "urls", "mentions")

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")


@dataclass
class HashtagIdfTable:
    """Per-hashtag document frequency over users."""

    df: dict[str, int] = field(default_factory=dict)
    total_users: int = 0

    def idf(self, hashtag: str) -> float:
        # Unseen tags get df floored at 1 so query-time novelty scores high.
        if self.total_users == 0:
            return 0.0
        return math.log(self.total_users / max(self.df.get(_fold_tag(hashtag), 0), 1))


def _fold_tag(hashtag: str) -> str:
    return hashtag.casefold()


def user_hashtag_counts(hashtags: Iterable[tuple[str, ...]]) -> dict[str, int]:
    """The case-folded hashtag counts of one user, from the hashtags of
    each of their posts."""
    counts: dict[str, int] = {}
    for tags in hashtags:
        for tag in tags:
            folded = _fold_tag(tag)
            counts[folded] = counts.get(folded, 0) + 1
    return counts


def build_idf(user_hashtags: dict[str, dict[str, int]]) -> HashtagIdfTable:
    """Document-frequency table from each window user's hashtag counts.

    df(h) counts distinct users who used h at least once; total_users is
    the number of users passed in, whether or not they used hashtags.
    """
    table = HashtagIdfTable(total_users=len(user_hashtags))
    for counts in user_hashtags.values():
        for tag in counts:
            table.df[tag] = table.df.get(tag, 0) + 1
    return table


def _tokens(text: str) -> list[str]:
    cleaned = _MENTION_RE.sub(" ", _URL_RE.sub(" ", text))
    out = []
    for raw in cleaned.split():
        # No character that isalnum() accepts is punctuation, so a token
        # with such characters at both ends has nothing to trim.
        if not (raw[0].isalnum() and raw[-1].isalnum()):
            raw = _trim_punctuation(raw)
        token = raw.casefold()
        if token:
            out.append(token)
    return out


def _trim_punctuation(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def features_from_timeline(timelines: list[list[Tweet]], idf: HashtagIdfTable) -> np.ndarray:
    """The textual block of each timeline, one pass per timeline:
    len(timelines) x len(TEXTUAL_FEATURE_NAMES), in that column order.

    Per post kind, the statistics of each entity's per-post counts; the
    statistics of tf(h, user) * idf(h) over the user's distinct hashtags
    in first-use order; and the number of distinct case-folded tokens
    across the user's original posts, URLs and mentions stripped.
    """
    weights: dict[str, float] = {}
    lists: list[list[float]] = []
    vocabulary: list[float] = []
    for timeline in timelines:
        entity_counts = {kind: ([], [], []) for kind in KINDS}
        tags: dict[str, int] = {}
        vocab: set[str] = set()
        for t in timeline:
            hashtags, urls, mentions = entity_counts[t.kind]
            hashtags.append(float(len(t.hashtags)))
            urls.append(float(len(t.urls)))
            mentions.append(float(len(t.mentions)))
            for tag in t.hashtags:
                folded = _fold_tag(tag)
                tags[folded] = tags.get(folded, 0) + 1
            if t.kind == KIND_ORIGINAL:
                vocab.update(_tokens(t.text))
        for counts in entity_counts.values():
            lists.extend(counts)
        for tag in tags.keys() - weights.keys():
            weights[tag] = idf.idf(tag)
        lists.append([count * weights[tag] for tag, count in tags.items()])
        vocabulary.append(float(len(vocab)))
    n = len(timelines)
    stats = stats_rows(lists).reshape(n, (len(KINDS) * len(ENTITIES) + 1) * len(STATS))
    return np.hstack((stats, np.array(vocabulary, dtype=float).reshape(n, 1)))


TEXTUAL_FEATURE_NAMES: tuple[str, ...] = (
    *(f"{kind}_{entity}_{stat}" for kind in KINDS for entity in ENTITIES for stat in STATS),
    *(f"hashtag_tfidf_{stat}" for stat in STATS),
    "vocabulary_size",
)
