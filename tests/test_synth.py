import hashlib

import numpy as np
import pytest

from suspkit.corpus import DAY_SECONDS, CorpusStore, TimeWindow, split_windows
from suspkit.synth import DEFAULT_CORPUS_START, GeneratorConfig, generate
from suspkit.wallets import extract_wallets

from oracles import oracle_base58check


def small_config(**overrides):
    defaults = dict(n_suspended=20, n_normal=20)
    defaults.update(overrides)
    return GeneratorConfig(**defaults)


def ingest_all(paths):
    store = CorpusStore()
    stats = {
        "tweets": store.ingest_tweets(paths["tweets"]),
        "snapshots": store.ingest_snapshots(paths["snapshots"]),
        "labels": store.ingest_labels(paths["labels"]),
    }
    return store, stats


class TestRoundTrip:
    def test_every_generated_record_parses(self, tmp_path):
        paths = generate(small_config(), seed=0, out_dir=tmp_path)
        _, stats = ingest_all(paths)
        for name, stat in stats.items():
            assert stat.skipped == 0, f"{name} produced unparseable rows"
            assert stat.parsed > 0

    def test_label_rows_cover_all_users(self, tmp_path):
        paths = generate(small_config(), seed=0, out_dir=tmp_path)
        store, _ = ingest_all(paths)
        labels = store.labels()
        assert len(labels) == 40
        assert sum(1 for l in labels.values() if l.status == "suspended") == 20

    def test_every_user_has_snapshots_and_posts(self, tmp_path):
        paths = generate(small_config(), seed=1, out_dir=tmp_path)
        store, _ = ingest_all(paths)
        window = TimeWindow(DEFAULT_CORPUS_START, DEFAULT_CORPUS_START + 21 * DAY_SECONDS)
        snapshots = store.snapshots(list(store.labels()), window)
        for user_id in store.labels():
            assert snapshots[user_id], user_id
            assert store.user_timeline(user_id, window), user_id


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        a = generate(small_config(), seed=5, out_dir=tmp_path / "a")
        b = generate(small_config(), seed=5, out_dir=tmp_path / "b")
        for key in ("tweets", "snapshots", "labels"):
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate(small_config(), seed=5, out_dir=tmp_path / "a")
        b = generate(small_config(), seed=6, out_dir=tmp_path / "b")
        assert a["tweets"].read_bytes() != b["tweets"].read_bytes()


class TestClassSeparation:
    def test_suspended_accounts_are_younger_and_post_faster(self, tmp_path):
        paths = generate(small_config(n_suspended=40, n_normal=40), seed=2,
                         out_dir=tmp_path)
        store, _ = ingest_all(paths)
        window = TimeWindow(DEFAULT_CORPUS_START, DEFAULT_CORPUS_START + 21 * DAY_SECONDS)
        ages = {"suspended": [], "normal": []}
        rates = {"suspended": [], "normal": []}
        labels = store.labels()
        snapshots = store.snapshots(list(labels), window)
        for user_id, label in labels.items():
            snap = snapshots[user_id][0]
            age_days = max((snap.observed_at - snap.account_created_at) / DAY_SECONDS, 1.0)
            ages[label.status].append(age_days)
            rates[label.status].append(snap.statuses / age_days)
        assert np.mean(ages["suspended"]) < np.mean(ages["normal"]) / 3
        assert np.mean(rates["suspended"]) > 2 * np.mean(rates["normal"])

    def test_promo_text_carries_extractable_wallets(self, tmp_path):
        paths = generate(small_config(n_suspended=40, n_normal=10), seed=3,
                         out_dir=tmp_path)
        store, _ = ingest_all(paths)
        window = TimeWindow(DEFAULT_CORPUS_START, DEFAULT_CORPUS_START + 21 * DAY_SECONDS)
        posts = list(store.window_posts(window))
        hits = extract_wallets(posts)
        assert hits, "no wallet addresses found in generated posts"
        expected_btc = oracle_base58check(
            b"\x00" + hashlib.sha256(b"corpus-demo-btc").digest()[:20]
        )
        addresses = {hit.address for hit in hits}
        assert expected_btc in addresses
        assert any(a.startswith("0x") for a in addresses)
        suspended = {u for u, l in store.labels().items() if l.status == "suspended"}
        assert all(hit.user_id in suspended for hit in hits)


class TestTwoWindows:
    def test_second_window_population(self, tmp_path):
        config = small_config(n_windows=2, drift=True)
        paths = generate(config, seed=4, out_dir=tmp_path)
        store, _ = ingest_all(paths)
        first, second = split_windows(DEFAULT_CORPUS_START, window_days=21)
        labels = store.labels()
        w2_users = [u for u in labels if u.startswith(("s2_", "n2_"))]
        assert len(w2_users) == 40
        for user_id, label in labels.items():
            if label.status != "suspended":
                assert label.status_date is None
                continue
            window = first if user_id.startswith("s1_") else second
            assert window.contains(label.status_date)

    def test_drift_swaps_content_pools(self, tmp_path):
        config = small_config(n_windows=2, drift=True)
        paths = generate(config, seed=7, out_dir=tmp_path)
        store, _ = ingest_all(paths)
        first, second = split_windows(DEFAULT_CORPUS_START, window_days=21)

        def tags_of(prefix, window):
            tags = set()
            for user_id in store.labels():
                if user_id.startswith(prefix):
                    for tweet in store.user_timeline(user_id, window):
                        tags.update(tweet.hashtags)
            return tags

        w1_tags = tags_of("s1_", first)
        w2_tags = tags_of("s2_", second)
        assert any(t.startswith("boost") for t in w1_tags)
        assert not any(t.startswith("life") for t in w1_tags)
        assert any(t.startswith("life") for t in w2_tags)
        assert not any(t.startswith("boost") for t in w2_tags)

    def test_without_drift_pools_stay_put(self, tmp_path):
        config = small_config(n_windows=2, drift=False)
        paths = generate(config, seed=8, out_dir=tmp_path)
        store, _ = ingest_all(paths)
        _, second = split_windows(DEFAULT_CORPUS_START, window_days=21)
        tags = set()
        for user_id in store.labels():
            if user_id.startswith("s2_"):
                for tweet in store.user_timeline(user_id, second):
                    tags.update(tweet.hashtags)
        assert any(t.startswith("boost") for t in tags)


class TestConfigValidation:
    def test_window_count(self):
        with pytest.raises(ValueError):
            generate(small_config(n_windows=3), seed=0, out_dir="/tmp/unused")

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            small_config(n_suspended=-1).validate()

    def test_window_days(self):
        with pytest.raises(ValueError):
            small_config(window_days=0).validate()
