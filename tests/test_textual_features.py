import math

import pytest

from suspkit.textual_features import (
    TEXTUAL_FEATURE_NAMES,
    HashtagIdfTable,
    build_idf,
    entity_stats,
    features_from_timeline,
    hashtag_tfidf_stats,
    user_hashtag_counts,
    vocabulary_size,
)

from conftest import make_tweet


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
        counts = user_hashtag_counts(
            [make_tweet(hashtags=("NFT",)), make_tweet(tweet_id="t2", hashtags=("nft",))]
        )
        assert counts == {"nft": 2}
        table = build_idf({"u1": {"nft": 1}, "u2": {"nft": 1}})
        assert table.idf("NFT") == table.idf("nft") == 0.0

    def test_empty_table(self):
        assert HashtagIdfTable().idf("anything") == 0.0


class TestTfidfStats:
    def test_hand_computed(self):
        table = build_idf({"u1": {"rare": 1}, "u2": {"common": 1}, "u3": {"common": 1},
                           "u4": {"common": 1}})
        scores = hashtag_tfidf_stats({"rare": 2, "common": 1}, table)
        rare = 2 * math.log(4 / 1)
        common = 1 * math.log(4 / 3)
        assert scores["max"] == pytest.approx(rare)
        assert scores["min"] == pytest.approx(common)
        assert scores["mean"] == pytest.approx((rare + common) / 2)

    def test_no_hashtags_gives_sentinels(self):
        scores = hashtag_tfidf_stats({}, HashtagIdfTable(total_users=5))
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

    def test_unknown_entity_rejected(self):
        with pytest.raises(ValueError):
            entity_stats([], "original", "stickers")

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
        feats = features_from_timeline([make_tweet(hashtags=("x",))], HashtagIdfTable())
        assert tuple(feats) == TEXTUAL_FEATURE_NAMES

    def test_populated_values(self):
        idf = build_idf({"u1": {"x": 1}, "u2": {}})
        feats = features_from_timeline(
            [make_tweet(hashtags=("x",), urls=("https://a",), text="one two")], idf
        )
        assert feats["original_hashtags_mean"] == 1.0
        assert feats["original_urls_max"] == 1.0
        assert feats["hashtag_tfidf_max"] == pytest.approx(math.log(2))
        assert feats["vocabulary_size"] == 2.0
