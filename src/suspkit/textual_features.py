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

from .activity_features import _stats_block
from .corpus import (
    KIND_ORIGINAL,
    KINDS,
    Tweet,
)

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


def entity_stats(timeline: list[Tweet], kind: str, entity: str) -> dict[str, float]:
    """Min/max/mean/std of per-post entity counts for posts of one kind."""
    if entity not in ENTITIES:
        raise ValueError(f"unknown entity {entity!r}")
    counts = [float(len(getattr(t, entity))) for t in timeline if t.kind == kind]
    return _stats_block(counts)


def user_hashtag_counts(timeline: list[Tweet]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for t in timeline:
        for tag in t.hashtags:
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


def hashtag_tfidf_stats(
    hashtag_counts: dict[str, int], idf: HashtagIdfTable
) -> dict[str, float]:
    """Stats over tf(h, user) * idf(h) for the user's distinct hashtags."""
    scores = [count * idf.idf(tag) for tag, count in hashtag_counts.items()]
    return _stats_block(scores)


def _tokens(text: str) -> list[str]:
    cleaned = _MENTION_RE.sub(" ", _URL_RE.sub(" ", text))
    out = []
    for raw in cleaned.split():
        token = _trim_punctuation(raw).casefold()
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


def vocabulary_size(timeline: list[Tweet]) -> int:
    """Distinct case-folded tokens across the user's original posts,
    URLs and mentions stripped."""
    vocab: set[str] = set()
    for t in timeline:
        if t.kind == KIND_ORIGINAL:
            vocab.update(_tokens(t.text))
    return len(vocab)


def features_from_timeline(
    timeline: list[Tweet], idf: HashtagIdfTable
) -> dict[str, float]:
    feats: dict[str, float] = {}
    for kind in KINDS:
        for entity in ENTITIES:
            block = entity_stats(timeline, kind, entity)
            for stat, value in block.items():
                feats[f"{kind}_{entity}_{stat}"] = value
    tfidf = hashtag_tfidf_stats(user_hashtag_counts(timeline), idf)
    for stat, value in tfidf.items():
        feats[f"hashtag_tfidf_{stat}"] = value
    feats["vocabulary_size"] = float(vocabulary_size(timeline))
    return feats


TEXTUAL_FEATURE_NAMES: tuple[str, ...] = tuple(
    features_from_timeline([], HashtagIdfTable())
)
