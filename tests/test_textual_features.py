import math
import re
import sys
import unicodedata

import numpy as np
import pytest

from suspkit.textual_features import (
    TEXTUAL_FEATURE_NAMES,
    HashtagIdfTable,
    _tokens,
    build_idf,
    features_from_timeline,
    user_hashtag_counts,
)

from conftest import make_tweet, random_timelines

def features(timeline, idf):
    """One timeline's textual features by name."""
    (row,) = features_from_timeline([timeline], idf)
    return dict(zip(TEXTUAL_FEATURE_NAMES, row.tolist()))


def tfidf_stats(hashtag_counts, idf):
    """The hashtag TF-IDF statistics of one post carrying each tag `count` times."""
    tags = tuple(tag for tag, count in hashtag_counts.items() for _ in range(count))
    feats = features([make_tweet(hashtags=tags)], idf)
    return {stat: feats[f"hashtag_tfidf_{stat}"] for stat in ("min", "max", "mean", "std")}


def entity_stats(timeline, kind, entity):
    feats = features(timeline, HashtagIdfTable())
    return {stat: feats[f"{kind}_{entity}_{stat}"] for stat in ("min", "max", "mean", "std")}


def vocabulary_size(timeline):
    return features(timeline, HashtagIdfTable())["vocabulary_size"]


# -- the per-user textual code the family replaced, kept as its oracle --

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")


def _oracle_stats(values):
    if not values:
        return {"min": math.nan, "max": math.nan, "mean": math.nan, "std": math.nan}
    arr = np.asarray(values, dtype=float)
    return {"min": float(arr.min()), "max": float(arr.max()),
            "mean": float(arr.mean()), "std": float(arr.std())}


def _oracle_trim(token):
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def _oracle_tokens(text):
    cleaned = _MENTION_RE.sub(" ", _URL_RE.sub(" ", text))
    return [tok for tok in (_oracle_trim(raw).casefold() for raw in cleaned.split()) if tok]


def oracle_features(timeline, idf):
    feats = {}
    for kind in ("original", "retweet", "quote"):
        for entity in ("hashtags", "urls", "mentions"):
            counts = [float(len(getattr(t, entity))) for t in timeline if t.kind == kind]
            for stat, value in _oracle_stats(counts).items():
                feats[f"{kind}_{entity}_{stat}"] = value
    tags = {}
    for t in timeline:
        for tag in t.hashtags:
            tags[tag.casefold()] = tags.get(tag.casefold(), 0) + 1
    scores = [count * idf.idf(tag) for tag, count in tags.items()]
    for stat, value in _oracle_stats(scores).items():
        feats[f"hashtag_tfidf_{stat}"] = value
    vocab = set()
    for t in timeline:
        if t.kind == "original":
            vocab.update(_oracle_tokens(t.text))
    feats["vocabulary_size"] = float(len(vocab))
    return feats


class TestOracle:
    @pytest.mark.parametrize("idf_users", [None, 0, 20])
    def test_block_is_the_per_user_code_bit_for_bit(self, idf_users):
        timelines = random_timelines(np.random.default_rng(17), 48)
        # IDF from the first `idf_users` users, so the others' tags are unseen.
        idf = HashtagIdfTable() if idf_users is None else build_idf(
            {i: user_hashtag_counts(t.hashtags for t in tl)
             for i, tl in enumerate(timelines[:idf_users])})
        expected = np.asarray(
            [[feats[name] for name in TEXTUAL_FEATURE_NAMES]
             for feats in (oracle_features(tl, idf) for tl in timelines)]
        )
        block = features_from_timeline(timelines, idf)
        assert block.shape == (48, len(TEXTUAL_FEATURE_NAMES))
        assert block.tobytes() == expected.tobytes()

    def test_no_timelines(self):
        block = features_from_timeline([], HashtagIdfTable())
        assert block.shape == (0, len(TEXTUAL_FEATURE_NAMES))


class TestTokens:
    def test_no_alphanumeric_character_is_punctuation(self):
        # The tokenizer skips trimming a token whose first and last
        # characters are alphanumeric; that is exact only while this holds.
        punctuation = [
            cp for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
        ]
        assert punctuation == []

    def test_tokens_match_trimming_every_token(self):
        texts = ["Straße STRASSE «Ja» ¿qué? x² ٣٤ a.b e.g. ... — (really?)",
                 '"Wait..." it\'s café! www.Example.com/a @friend _under_ --', ""]
        for text in texts:
            assert _tokens(text) == _oracle_tokens(text)


class TestIdf:
    def test_df_counts_distinct_users(self):
        table = build_idf(
            {
                "u1": {"crypto": 3, "news": 1},
                "u2": {"crypto": 1},
                "u3": {},
            }
        )
        assert table.total_users == 3
        assert table.df == {"crypto": 2, "news": 1}
        assert table.idf("crypto") == pytest.approx(math.log(3 / 2))
        assert table.idf("news") == pytest.approx(math.log(3))

    def test_universal_tag_scores_zero(self):
        table = build_idf({"u1": {"a": 1}, "u2": {"a": 5}})
        assert table.idf("a") == 0.0

    def test_unseen_tag_floors_df_at_one(self):
        table = build_idf({"u1": {"a": 1}, "u2": {"a": 1}, "u3": {"a": 1}})
        assert table.idf("never_seen") == pytest.approx(math.log(3))

    def test_case_folding(self):
        counts = user_hashtag_counts([("NFT",), ("nft",)])
        assert counts == {"nft": 2}
        table = build_idf({"u1": {"nft": 1}, "u2": {"nft": 1}})
        assert table.idf("NFT") == table.idf("nft") == 0.0

    def test_empty_table(self):
        assert HashtagIdfTable().idf("anything") == 0.0


class TestTfidfStats:
    def test_hand_computed(self):
        table = build_idf({"u1": {"rare": 1}, "u2": {"common": 1}, "u3": {"common": 1},
                           "u4": {"common": 1}})
        scores = tfidf_stats({"rare": 2, "common": 1}, table)
        rare = 2 * math.log(4 / 1)
        common = 1 * math.log(4 / 3)
        assert scores["max"] == pytest.approx(rare)
        assert scores["min"] == pytest.approx(common)
        assert scores["mean"] == pytest.approx((rare + common) / 2)

    def test_no_hashtags_gives_sentinels(self):
        scores = tfidf_stats({}, HashtagIdfTable(total_users=5))
        assert all(math.isnan(v) for v in scores.values())


class TestEntityStats:
    def test_counts_filtered_by_kind(self):
        timeline = [
            make_tweet(tweet_id="1", kind="original", hashtags=("a", "b")),
            make_tweet(tweet_id="2", kind="original", hashtags=("c",)),
            make_tweet(tweet_id="3", kind="retweet", hashtags=("d", "e", "f")),
        ]
        stats = entity_stats(timeline, "original", "hashtags")
        assert stats == {"min": 1.0, "max": 2.0, "mean": 1.5, "std": 0.5}
        assert entity_stats(timeline, "retweet", "hashtags")["mean"] == 3.0

    def test_absent_kind_gives_sentinels(self):
        stats = entity_stats([make_tweet(kind="original")], "quote", "urls")
        assert math.isnan(stats["mean"])


class TestVocabulary:
    def test_counts_distinct_folded_tokens(self):
        timeline = [
            make_tweet(tweet_id="1", text="Hello World hello"),
            make_tweet(tweet_id="2", text="world again!"),
        ]
        assert vocabulary_size(timeline) == 3  # hello, world, again

    def test_urls_and_mentions_stripped(self):
        timeline = [make_tweet(text="go https://t.co/abc now @friend ok")]
        assert vocabulary_size(timeline) == 3  # go, now, ok

    def test_only_original_posts_counted(self):
        timeline = [make_tweet(kind="retweet", text="unique words here")]
        assert vocabulary_size(timeline) == 0

    def test_punctuation_trimmed(self):
        assert vocabulary_size([make_tweet(text='"Wait..." (really?)')]) == 2


class TestFeatureMap:
    def test_schema_width(self):
        # 3 kinds x 3 entities x 4 stats, 4 tfidf stats, vocabulary
        assert len(TEXTUAL_FEATURE_NAMES) == 3 * 3 * 4 + 4 + 1

    def test_schema_is_stable(self):
        block = features_from_timeline([[make_tweet(hashtags=("x",))]], HashtagIdfTable())
        assert block.shape == (1, len(TEXTUAL_FEATURE_NAMES))
        assert len(set(TEXTUAL_FEATURE_NAMES)) == len(TEXTUAL_FEATURE_NAMES)

    def test_populated_values(self):
        idf = build_idf({"u1": {"x": 1}, "u2": {}})
        feats = features(
            [make_tweet(hashtags=("x",), urls=("https://a",), text="one two")], idf
        )
        assert feats["original_hashtags_mean"] == 1.0
        assert feats["original_urls_max"] == 1.0
        assert feats["hashtag_tfidf_max"] == pytest.approx(math.log(2))
        assert feats["vocabulary_size"] == 2.0
