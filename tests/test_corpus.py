import json
import logging
from dataclasses import fields

import numpy as np
import pytest

from suspkit.corpus import (
    AccountLabel,
    CorpusStore,
    EmptyClass,
    MalformedRecord,
    TimeWindow,
    parse_label_row,
    parse_snapshot_record,
    parse_status_date,
    parse_tweet_record,
    read_window,
    select_window_users,
    split_windows,
    undersample_balance,
    DAY_SECONDS,
    Tweet,
    UserSnapshot,
    _WARN_LIMIT,
    _decode_list,
)

from suspkit.profile_features import PROFILE_FEATURE_NAMES, features_from_snapshots

from conftest import WINDOW_START, snapshot_line, tweet_line


class TestParseTweet:
    def test_original_post(self):
        t = parse_tweet_record(tweet_line(text="just text"))
        assert t.kind == "original"
        assert t.referenced_tweet_id is None
        assert t.lang == "und"

    def test_retweet_from_reference_triplet(self):
        t = parse_tweet_record(
            tweet_line(
                retweeted_status_id="r1",
                retweeted_user_id="u2",
                retweeted_status_created_at=WINDOW_START - 60,
            )
        )
        assert t.kind == "retweet"
        assert t.referenced_tweet_id == "r1"
        assert t.referenced_user_id == "u2"
        assert t.referenced_created_at == WINDOW_START - 60

    def test_quote_from_reference_triplet(self):
        t = parse_tweet_record(
            tweet_line(
                quoted_status_id="q1",
                quoted_user_id="u3",
                quoted_status_created_at=WINDOW_START - 5,
            )
        )
        assert t.kind == "quote"
        assert t.referenced_user_id == "u3"

    def test_partial_reference_triplet_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_tweet_record(tweet_line(retweeted_status_id="r1"))

    def test_reference_newer_than_post_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_tweet_record(
                tweet_line(
                    quoted_status_id="q1",
                    quoted_user_id="u3",
                    quoted_status_created_at=WINDOW_START + 60,
                )
            )

    @pytest.mark.parametrize("missing", ["id", "user_id", "created_at", "text"])
    def test_missing_required_field_rejected(self, missing):
        with pytest.raises(MalformedRecord):
            parse_tweet_record(tweet_line(**{missing: None}))

    def test_invalid_json_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_tweet_record("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_tweet_record(json.dumps([1, 2]))

    def test_hashtag_hash_prefix_stripped(self):
        t = parse_tweet_record(tweet_line(hashtags=["#crypto", "news"]))
        assert t.hashtags == ("crypto", "news")

    def test_numeric_ids_accepted_as_strings(self):
        t = parse_tweet_record(tweet_line(id=42, user_id=7))
        assert (t.tweet_id, t.user_id) == ("42", "7")

    def test_float_epoch_must_be_integral(self):
        assert parse_tweet_record(tweet_line(created_at=1.0)).created_at == 1
        with pytest.raises(MalformedRecord):
            parse_tweet_record(tweet_line(created_at=1.5))

    @pytest.mark.parametrize("created_at", [1e23, 2**63, -2**63 - 1])
    def test_epoch_outside_64_bits_rejected(self, created_at):
        with pytest.raises(MalformedRecord) as err:
            parse_tweet_record(tweet_line(created_at=created_at))
        assert err.value.reason == "bad_value"

    def test_epoch_at_the_64_bit_bounds_accepted(self):
        for created_at in (2**63 - 1, -2**63):
            assert parse_tweet_record(tweet_line(created_at=created_at)).created_at == created_at


class TestParseSnapshot:
    def test_basic_fields(self):
        s = parse_snapshot_record(snapshot_line())
        assert s.followers == 10
        assert s.name == "Alice"
        assert not s.verified

    def test_negative_count_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_snapshot_record(snapshot_line(followers=-1))

    def test_created_after_observed_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_snapshot_record(
                snapshot_line(account_created_at=WINDOW_START + 10 * DAY_SECONDS)
            )

    def test_count_outside_64_bits_rejected(self):
        with pytest.raises(MalformedRecord) as err:
            parse_snapshot_record(snapshot_line(followers=2**64))
        assert err.value.reason == "bad_value"

    @pytest.mark.parametrize("field", ["name", "screen_name", "description"])
    def test_null_profile_text_reads_as_empty(self, field):
        record = json.loads(snapshot_line())
        record[field] = None
        assert getattr(parse_snapshot_record(json.dumps(record)), field) == ""
        del record[field]
        assert getattr(parse_snapshot_record(json.dumps(record)), field) == ""

    @pytest.mark.parametrize("value", [7, 1.5, True, ["a"], {"a": 1}])
    def test_non_string_profile_text_rejected(self, value):
        with pytest.raises(MalformedRecord) as err:
            parse_snapshot_record(snapshot_line(description=value))
        assert err.value.reason == "bad_value"

    def test_non_boolean_flag_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_snapshot_record(snapshot_line(verified="yes"))

    def test_flags_default_false(self):
        s = parse_snapshot_record(snapshot_line())
        assert (s.verified, s.default_profile, s.default_profile_image) == (
            False,
            False,
            False,
        )


class TestLabels:
    def test_status_date_parsing(self):
        assert parse_status_date("2022-02-23") == WINDOW_START
        assert parse_status_date("2022-02-23T00:00:00Z") == WINDOW_START
        assert parse_status_date("2022-02-23T01:00:00+01:00") == WINDOW_START
        assert parse_status_date("") is None
        with pytest.raises(MalformedRecord):
            parse_status_date("not a date")

    def test_suspended_requires_date(self):
        row = {"user_id": "u1", "status": "suspended", "status_date": ""}
        with pytest.raises(MalformedRecord):
            parse_label_row(row)

    def test_normal_allows_empty_date(self):
        label = parse_label_row({"user_id": "u1", "status": "normal", "status_date": ""})
        assert label.status_date is None

    def test_unknown_status_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_label_row({"user_id": "u1", "status": "banned", "status_date": ""})


class TestTimeWindow:
    def test_half_open_contains(self, window):
        assert window.contains(window.start)
        assert not window.contains(window.end)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            TimeWindow(10, 10)

    def test_split_windows_back_to_back(self):
        first, second = split_windows(WINDOW_START, window_days=21)
        assert first.days == 21
        assert second.start == first.end
        assert second.end - second.start == 21 * DAY_SECONDS


class TestCorpusStore:
    @pytest.mark.parametrize(
        "raw", ["[]", "[ ]", '["a"]', '["#x", "y z"]', '["[]"]', '["caf\\u00e9"]']
    )
    def test_decode_list_matches_json(self, raw):
        assert _decode_list(raw) == tuple(json.loads(raw))

    def test_ingest_counts_and_skips(self, window):
        store = CorpusStore()
        lines = [tweet_line(id=f"t{i}") for i in range(3)] + ["{broken", ""]
        stats = store.ingest_tweets(lines)
        assert (stats.parsed, stats.skipped, stats.inserted) == (3, 1, 3)
        assert len(list(store.tweets_in_window(window, ["u1"]))) == 3

    def test_skips_are_counted_by_reason(self):
        store = CorpusStore()
        lines = [
            tweet_line(id="ok"),
            "{broken",
            "[1, 2]",
            json.dumps({"id": "t1", "user_id": "u1", "text": "x"}),
            tweet_line(id="t2", created_at="soon"),
            "\udcff" + tweet_line(id="t3"),
        ]
        stats = store.ingest_tweets(lines)
        assert (stats.parsed, stats.skipped) == (1, 5)
        assert stats.skipped_by_reason == {
            "invalid_json": 2, "missing_field": 1, "bad_value": 1, "invalid_utf8": 1,
        }

    def test_invalid_utf8_skips_only_its_record(self, tmp_path):
        tweets = tmp_path / "tweets.jsonl"
        text = "caf\u00e9 \u2615".encode()
        good = [tweet_line(id=f"t{i}", text="XX").encode().replace(b"XX", text) for i in range(3)]
        bad = tweet_line(id="bad", text="XX").encode().replace(b"XX", b"X\xffX")
        tweets.write_bytes(b"\n".join([good[0], bad, *good[1:]]))
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"user_id,status,status_date\n"
                           b"u1,normal,\n"
                           b"u\xfe2,normal,\n"
                           b"u3,suspended,2022-03-01\n")
        store = CorpusStore()
        tweet_stats = store.ingest_tweets(tweets)
        label_stats = store.ingest_labels(labels)
        assert (tweet_stats.parsed, tweet_stats.skipped) == (3, 1)
        assert tweet_stats.skipped_by_reason == {"invalid_utf8": 1}
        assert (label_stats.parsed, label_stats.skipped) == (2, 1)
        assert label_stats.skipped_by_reason == {"invalid_utf8": 1}
        stored = list(store.tweets_in_window(TimeWindow(WINDOW_START, WINDOW_START + 1), ["u1"]))
        assert len(stored) == 3
        assert {t.text for t in stored} == {"caf\u00e9 \u2615"}
        assert sorted(store.labels()) == ["u1", "u3"]

    def test_reingest_is_idempotent(self, window):
        store = CorpusStore()
        lines = [tweet_line(id=f"t{i}") for i in range(4)]
        store.ingest_tweets(lines)
        stats = store.ingest_tweets(lines)
        assert stats.inserted == 0
        assert len(list(store.tweets_in_window(window, ["u1"]))) == 4

    def test_timeline_sorted_by_time_then_id(self, window):
        store = CorpusStore()
        store.ingest_tweets(
            [
                tweet_line(id="b", created_at=WINDOW_START + 10),
                tweet_line(id="a", created_at=WINDOW_START + 10),
                tweet_line(id="c", created_at=WINDOW_START + 5),
            ]
        )
        timeline = store.user_timeline("u1", window)
        assert [t.tweet_id for t in timeline] == ["c", "a", "b"]

    def test_timeline_respects_window_bounds(self, window):
        store = CorpusStore()
        store.ingest_tweets(
            [
                tweet_line(id="in", created_at=window.start),
                tweet_line(id="out_low", created_at=window.start - 1),
                tweet_line(id="out_high", created_at=window.end),
            ]
        )
        assert [t.tweet_id for t in store.user_timeline("u1", window)] == ["in"]

    def test_unknown_user_gets_empty_timeline(self, window):
        assert CorpusStore().user_timeline("ghost", window) == []

    def test_read_window_groups_user_timelines(self, window):
        store = CorpusStore()
        store.ingest_tweets(
            [
                tweet_line(id="b", user_id="u1", created_at=WINDOW_START + 10),
                tweet_line(id="a", user_id="u1", created_at=WINDOW_START + 10),
                tweet_line(id="c", user_id="u1", created_at=WINDOW_START + 5),
                tweet_line(id="d", user_id="u2", created_at=window.start),
                tweet_line(id="e", user_id="u2", created_at=window.end),
                tweet_line(id="f", user_id="u3", created_at=window.start - 1),
            ]
        )
        table = read_window(store, window, ["u1", "u2", "u3"])
        assert sorted(table) == store.active_users(window) == ["u1", "u2"]
        for user in ("u1", "u2", "u3"):
            assert table.get(user, []) == store.user_timeline(user, window)
        # Equal timestamps are ordered by id.
        assert [t.tweet_id for t in table["u1"]] == ["c", "a", "b"]
        assert [t.tweet_id for t in table["u2"]] == ["d"]
        assert store.user_timeline("u3", window) == []

    def test_user_read_equals_each_timeline(self, window):
        # More users than SQLite's old limit of 999 host parameters, ids
        # outside ASCII, users without an in-window tweet, equal
        # timestamps, and asked users who are unknown or asked twice.
        users = [f"u{i:04d}" for i in range(1200)] + ["été", "Ａx", "\U0001f600", "Zed"]
        lines = []
        for i, user in enumerate(users):
            lines += [tweet_line(id=f"{tag}{i}", user_id=user, created_at=window.start + i % 7)
                      for tag in "ba"[:i % 3]]
            lines.append(tweet_line(id=f"out{i}", user_id=user, created_at=window.end))
        store = CorpusStore()
        store.ingest_tweets(lines)
        asked = users[::-1] + ["ghost", "été", "u0004"]
        expected = [t for user in sorted(set(asked)) for t in store.user_timeline(user, window)]
        assert list(store.tweets_in_window(window, asked)) == expected
        assert len(expected) == sum(i % 3 for i in range(len(users)))
        table = read_window(store, window, asked)
        assert list(table) == sorted(table)
        for user in asked:
            assert table.get(user, []) == store.user_timeline(user, window)
        assert read_window(store, window, []) == {}

    def test_active_users_distinct_sorted(self, window):
        store = CorpusStore()
        store.ingest_tweets(
            [
                tweet_line(id="1", user_id="zed"),
                tweet_line(id="2", user_id="amy"),
                tweet_line(id="3", user_id="amy"),
            ]
        )
        assert store.active_users(window) == ["amy", "zed"]

    def test_active_users_at_the_window_bounds(self, window):
        second = TimeWindow(window.end, window.end + (window.end - window.start))
        stamps = [
            bound + offset
            for bound in (window.start, window.end, second.end)
            for offset in (-1, 0, 1)
        ]
        users = ["amy", "Zed", "émile", "bo", "amy2", "u10", "u9"]
        records = [
            {"id": f"t{i}", "user_id": users[i % len(users)], "created_at": ts}
            for i, ts in enumerate(stamps * 2)
        ]
        # Users who post only outside both windows.
        records += [
            {"id": "early", "user_id": "early_only", "created_at": window.start - 86400},
            {"id": "late", "user_id": "late_only", "created_at": second.end + 86400},
        ]
        store = CorpusStore()
        store.ingest_tweets([tweet_line(**r) for r in records])
        for w in (window, second):
            expected = sorted({r["user_id"] for r in records if w.contains(r["created_at"])})
            assert expected and store.active_users(w) == expected

    def test_snapshot_roundtrip(self, window):
        store = CorpusStore()
        store.ingest_snapshots([snapshot_line(observed_at=WINDOW_START + 2)])
        snaps = store.snapshots(["u1"], window)["u1"]
        assert len(snaps) == 1
        assert snaps[0].statuses == 30

    def test_null_description_is_stored_empty(self, window):
        record = json.loads(snapshot_line(observed_at=WINDOW_START + 2))
        record["description"] = None
        store = CorpusStore()
        store.ingest_snapshots([json.dumps(record)])
        snaps = store.snapshots(["u1"], window)["u1"]
        (row,) = features_from_snapshots([snaps], window)
        assert snaps[0].description == ""
        at = PROFILE_FEATURE_NAMES.index
        assert row[at("description_length")] == row[at("has_description")] == 0

    def test_snapshots_grouped_per_user_in_time_order(self, window):
        store = CorpusStore()
        store.ingest_snapshots([
            snapshot_line(user_id="zed", observed_at=WINDOW_START + 5, followers=2),
            snapshot_line(user_id="amy", observed_at=WINDOW_START + 9, followers=3),
            snapshot_line(user_id="zed", observed_at=WINDOW_START + 1, followers=1),
            snapshot_line(user_id="amy", observed_at=WINDOW_START - 1, followers=0),
            snapshot_line(user_id="amy", observed_at=window.end, followers=4),
            snapshot_line(user_id="bob", observed_at=WINDOW_START + 3, followers=5),
        ])
        snaps = store.snapshots(["zed", "amy", "cat"], window)
        assert list(snaps) == ["zed", "amy", "cat"]
        assert [s.followers for s in snaps["zed"]] == [1, 2]
        assert [s.followers for s in snaps["amy"]] == [3]
        assert snaps["cat"] == []

    @pytest.mark.parametrize(
        "table, record", [("tweets", Tweet), ("snapshots", UserSnapshot), ("labels", AccountLabel)]
    )
    def test_columns_are_the_record_fields(self, table, record):
        store = CorpusStore()
        columns = {row[1] for row in store._conn.execute(f"PRAGMA table_info({table})")}
        assert columns == {f.name for f in fields(record)}

    def test_every_field_round_trips(self, window):
        lists = {"hashtags": ["#scam", "btc"], "urls": ["https://x.test/a"],
                 "mentions": ["u7", "u8"], "lang": "en"}
        tweets = [
            tweet_line(id="rt", created_at=WINDOW_START + 10, text="RT hi",
                       retweeted_status_id="r1", retweeted_user_id="u2",
                       retweeted_status_created_at=WINDOW_START - 60, **lists),
            tweet_line(id="qt", created_at=WINDOW_START + 20, text="look",
                       quoted_status_id="q1", quoted_user_id="u3",
                       quoted_status_created_at=WINDOW_START - 5, **lists),
        ]
        snapshot = snapshot_line(verified=True, default_profile=True, default_profile_image=True)
        store = CorpusStore()
        store.ingest_tweets(tweets)
        store.ingest_snapshots([snapshot])
        stored = list(store.tweets_in_window(window, ["u1"]))
        assert stored == [parse_tweet_record(line) for line in tweets]
        assert [t.kind for t in stored] == ["retweet", "quote"]
        (stored_snapshot,) = store.snapshots(["u1"], window)["u1"]
        assert stored_snapshot == parse_snapshot_record(snapshot)
        flags = (stored_snapshot.verified, stored_snapshot.default_profile,
                 stored_snapshot.default_profile_image)
        assert all(flag is True for flag in flags)

    def test_many_bad_label_rows_warn_in_total(self, tmp_path, caplog):
        bad = _WARN_LIMIT + 2
        labels_csv = tmp_path / "labels.csv"
        labels_csv.write_text(
            "user_id,status,status_date\nu0,normal,\n"
            + "".join(f"b{i},banned,\n" for i in range(bad))
        )
        with caplog.at_level(logging.WARNING, logger="suspkit.corpus"):
            stats = CorpusStore().ingest_labels(labels_csv)
        assert (stats.parsed, stats.skipped, stats.inserted) == (1, bad, 1)
        messages = [r.getMessage() for r in caplog.records]
        assert sum(m.startswith("skipping malformed record") for m in messages) == _WARN_LIMIT
        assert f"{bad} malformed records skipped in total" in messages

    def test_label_ingest(self, tmp_path, window):
        labels_csv = tmp_path / "labels.csv"
        labels_csv.write_text(
            "user_id,status,status_date\n"
            "u1,suspended,2022-03-01\n"
            "u2,normal,\n"
            "u3,banned,\n"
        )
        store = CorpusStore()
        stats = store.ingest_labels(labels_csv)
        assert (stats.parsed, stats.skipped) == (2, 1)
        labels = store.labels()
        assert labels["u1"].status == "suspended"
        assert labels["u1"].status_date == parse_status_date("2022-03-01")
        assert labels["u2"].status_date is None


class TestUserSelection:
    def _labels(self, window):
        inside = window.start + DAY_SECONDS
        outside = window.end + DAY_SECONDS
        return {
            "s_in": AccountLabel("s_in", "suspended", inside),
            "s_out": AccountLabel("s_out", "suspended", outside),
            "d1": AccountLabel("d1", "deactivated", inside),
            "n1": AccountLabel("n1", "normal"),
        }

    def test_positive_negative_assignment(self, window):
        labels = self._labels(window)
        active = ["n1", "unlabeled", "s_out", "d1"]
        users = select_window_users(window, labels, active)
        assert users == {"s_in": 1, "n1": 0, "unlabeled": 0}

    def test_suspended_active_user_stays_positive(self, window):
        labels = self._labels(window)
        users = select_window_users(window, labels, ["s_in"])
        assert users["s_in"] == 1

    def test_balance_equalizes_and_is_deterministic(self):
        users = {f"s{i}": 1 for i in range(3)}
        users.update({f"n{i}": 0 for i in range(9)})
        first = undersample_balance(users, seed=11)
        second = undersample_balance(users, seed=11)
        assert first == second
        values = np.asarray(sorted(first.values()))
        assert (values == 1).sum() == 3
        assert (values == 0).sum() == 3
        assert set(first) <= set(users)

    def test_balance_requires_both_classes(self):
        with pytest.raises(EmptyClass):
            undersample_balance({"a": 0, "b": 0}, seed=0)
