import hashlib

import numpy as np
import pytest

from suspkit.corpus import DAY_SECONDS, CorpusStore, TimeWindow, split_windows
from suspkit.synth import DEFAULT_CORPUS_START, GeneratorConfig, _cdf, _Draws, generate
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


# Recorded from the `Generator`-call implementation these draws
# replaced: any change to the stream or the rendering shows here.
PINNED_DIGESTS = {
    "one_window": (dict(n_suspended=12, n_normal=9), 4, {
        "tweets": "955743f01652f791151c25533b6262a50aa391489035e42b07deda9bfaed00d7",
        "snapshots": "420d4132ccc93467799c48814de37024b66a4c0ccf3889ce59bdf5c9eefe167d",
        "labels": "d76b3f7352ad2c711df9c96a0c72bf572abcca6a7e9e833ac9dfb67f68841b2d",
    }),
    "two_windows": (dict(n_suspended=10, n_normal=14, n_windows=2), 8, {
        "tweets": "714044e4ff2f52c48178d43a990998ecfce9f47e994ef22c174c134f8e3cf6f5",
        "snapshots": "7a77d1855b42046a93214c73286596416f2acdc4c8bbaeafc4a3f6d90ba0b3e6",
        "labels": "2929778acd541a0a1983225c6fe30e1fbf1a0b549daa06f514c5d27aa7ec4346",
    }),
    "two_windows_drift": (dict(n_suspended=11, n_normal=10, n_windows=2, drift=True), 9, {
        "tweets": "706448eb358186e9b1004379929a7e6e947f9735db2240e3db456bb05ce02557",
        "snapshots": "dfb4e943620cc0dbcada2178bfd1e8f5bc66e62fcb33a23574b264e37b9d2c8e",
        "labels": "2f59561e7e3d2ca81aa87e6b309bc75c9622afc538afcbcad27a46d1dd66f727",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_pinned_corpus_digests(tmp_path, name):
    overrides, seed, digests = PINNED_DIGESTS[name]
    paths = generate(GeneratorConfig(**overrides), seed=seed, out_dir=tmp_path)
    for key, digest in digests.items():
        assert hashlib.sha256(paths[key].read_bytes()).hexdigest() == digest, key


class TestDraws:
    # 1 draws nothing; 2**31 + 1 rejects about half its first draws;
    # 2**32 takes a half word as is; above 2**32 reads whole words.
    BOUNDS = (1, 2, 9, 24, 40, 3600, 1_814_400, 36**6, 2**31 + 1,
              2**32 - 1, 2**32, 2**32 + 5)
    PS = ([0.35, 0.40, 0.25], [0.5, 0.25, 1 / 6, 1 / 12], [1.0], [0.0, 0.3, 0.7])
    CALLS = 120_000

    def test_equal_to_generator_values_and_state(self):
        ours, theirs = np.random.default_rng(2024), np.random.default_rng(2024)
        draws = _Draws(ours)
        plan = np.random.default_rng(0)
        kinds = plan.integers(7, size=self.CALLS)
        args = plan.integers(len(self.BOUNDS), size=self.CALLS)
        cdfs = [_cdf(p) for p in self.PS]
        for kind, arg in zip(kinds.tolist(), args.tolist()):
            if kind == 0:
                assert draws.random() == theirs.random()
            elif kind == 1:
                n = self.BOUNDS[arg]
                assert draws.below(n) == theirs.integers(n), n
            elif kind == 2:  # the two-bound form draws the width's value
                n = self.BOUNDS[arg]
                assert 10_000 + draws.below(n) == theirs.integers(10_000, 10_000 + n), n
            elif kind == 3:
                k = arg % len(self.PS)
                p = self.PS[k]
                assert draws.pick(cdfs[k]) == theirs.choice(len(p), p=p), p
            elif kind == 4:
                assert ours.lognormal(0.5, 1.0) == theirs.lognormal(0.5, 1.0)
            elif kind == 5:
                assert ours.poisson(3.5) == theirs.poisson(3.5)
            else:
                assert ours.exponential(2.0) == theirs.exponential(2.0)
        state = theirs.bit_generator.state
        assert ours.bit_generator.state["state"] == state["state"]
        assert draws._half == (state["uinteger"] if state["has_uint32"] else None)


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
