import numpy as np
import pytest

from suspkit.corpus import UserSnapshot, DAY_SECONDS
from suspkit.profile_features import (
    PROFILE_FEATURE_NAMES,
    NoSnapshot,
    _digit_fraction,
    _levenshtein,
    by_age,
    features_from_snapshots,
    growth,
    name_similarity,
)


def snap(observed_at, created_at, followers=10, friends=5, statuses=100,
         favourites=7, listed=2, name="Alice Smith", screen_name="alice_smith",
         description="hi", verified=False, default_profile=False,
         default_profile_image=False):
    return UserSnapshot(
        user_id="u1",
        observed_at=observed_at,
        account_created_at=created_at,
        followers=followers,
        friends=friends,
        statuses=statuses,
        favourites=favourites,
        listed=listed,
        verified=verified,
        default_profile=default_profile,
        default_profile_image=default_profile_image,
        name=name,
        screen_name=screen_name,
        description=description,
    )


class TestRatesAndGrowth:
    def test_by_age_divides_by_days(self):
        assert by_age(10.0, 5.0) == 2.0

    def test_by_age_floors_denominator_at_one_day(self):
        assert by_age(10.0, 0.25) == 10.0
        assert by_age(0.0, 0.0) == 0.0

    def test_growth_ratio_uses_start_plus_end_over_start(self):
        ratio, degenerate = growth(2.0, 4.0)
        assert ratio == 3.0
        assert not degenerate

    def test_growth_zero_start_maps_to_neutral_with_flag(self):
        assert growth(0.0, 7.0) == (1.0, True)

    def test_growth_flat_counts(self):
        assert growth(5.0, 5.0) == (2.0, False)


class TestNameSimilarity:
    def test_identical_names(self):
        assert name_similarity("alice", "alice") == 1.0

    def test_case_folded(self):
        assert name_similarity("Alice", "ALICE") == 1.0

    def test_known_edit_distance(self):
        # one substitution over length 3
        assert name_similarity("abc", "abd") == pytest.approx(2.0 / 3.0)

    def test_both_empty(self):
        assert name_similarity("", "") == 1.0

    def test_disjoint_strings(self):
        assert name_similarity("abc", "xyz") == 0.0

    def test_trimmed_distance_is_the_full_dynamic_program(self):
        # Small alphabets give long common prefixes and suffixes; ß casefolds to ss.
        rng = np.random.default_rng(8)
        pairs = [("", ""), ("", "ab"), ("ß", ""), ("today right", "todayright"),
                 ("Straße", "STRASSE"), ("aaa", "aa"), ("abcab", "ab")]
        for alphabet in ("ab", "abß S", "abcdefgh"):
            for _ in range(1500):
                a, b = ("".join(rng.choice(list(alphabet), size=rng.integers(0, 10)))
                        for _ in range(2))
                pairs.append((a, b))
        for a, b in pairs:
            assert _levenshtein(a, b) == _full_levenshtein(a, b), (a, b)
            folded = _full_levenshtein(a.casefold(), b.casefold())
            longest = max(len(a.casefold()), len(b.casefold()))
            assert name_similarity(a, b) == (1.0 - folded / longest if longest else 1.0)


def _full_levenshtein(a, b):
    """The edit distance by the dynamic program over the whole strings."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def features_from_user(snapshots, window):
    """One user's profile features by name."""
    (row,) = features_from_snapshots([snapshots], window)
    return dict(zip(PROFILE_FEATURE_NAMES, row.tolist()))


# -- the per-user profile code the family replaced, kept as its oracle --

def oracle_features(snapshots, window):
    first, last = snapshots[0], snapshots[-1]
    age_days = max((window.end - last.account_created_at) / DAY_SECONDS, 1.0)
    followers_growth, followers_degen = growth(first.followers, last.followers)
    friends_growth, friends_degen = growth(first.friends, last.friends)
    statuses_growth, statuses_degen = growth(first.statuses, last.statuses)
    return {
        "account_age_days": age_days,
        "followers": float(last.followers),
        "friends": float(last.friends),
        "statuses": float(last.statuses),
        "favourites": float(last.favourites),
        "listed": float(last.listed),
        "followers_by_age": by_age(last.followers, age_days),
        "friends_by_age": by_age(last.friends, age_days),
        "statuses_by_age": by_age(last.statuses, age_days),
        "favourites_by_age": by_age(last.favourites, age_days),
        "listed_by_age": by_age(last.listed, age_days),
        "followers_growth": followers_growth,
        "friends_growth": friends_growth,
        "statuses_growth": statuses_growth,
        "followers_growth_degenerate": float(followers_degen),
        "friends_growth_degenerate": float(friends_degen),
        "statuses_growth_degenerate": float(statuses_degen),
        "single_snapshot": float(len(snapshots) == 1),
        "snapshot_count": float(len(snapshots)),
        "name_screen_name_similarity": name_similarity(last.name, last.screen_name),
        "name_length": float(len(last.name)),
        "screen_name_length": float(len(last.screen_name)),
        "name_digit_fraction": _digit_fraction(last.name),
        "screen_name_digit_fraction": _digit_fraction(last.screen_name),
        "description_length": float(len(last.description)),
        "has_description": float(bool(last.description)),
        "has_default_profile": float(last.default_profile),
        "has_default_profile_image": float(last.default_profile_image),
        "verified": float(last.verified),
        "followers_friends_ratio": last.followers / max(last.friends, 1),
    }


def random_users(rng, window, n_users):
    """Snapshot lists of 1-5 snapshots in time order: zero and large
    counts, accounts created long before, just before or after the
    window end, names with digits, ß or nothing."""
    names = ["", "Alice Smith", "alice_smith", "user1234", "Straße", "STRASSE", "9", "ß ß"]
    users = []
    for u in range(n_users):
        created = window.end - int(rng.choice([0, 1, 3600, 2 * DAY_SECONDS, 900 * DAY_SECONDS,
                                                -DAY_SECONDS]))
        times = np.sort(rng.integers(window.start, window.end, size=rng.integers(1, 6)))
        users.append([
            snap(int(ts), created,
                 **{field: int(rng.choice([0, 1, rng.integers(2, 10**7)]))
                    for field in ("followers", "friends", "statuses", "favourites", "listed")},
                 name=str(rng.choice(names)), screen_name=str(rng.choice(names)),
                 description=str(rng.choice(["", "hi", "crypto 🚀"])),
                 verified=bool(rng.random() < 0.3), default_profile=bool(rng.random() < 0.5),
                 default_profile_image=bool(rng.random() < 0.5))
            for ts in times
        ])
    return users


class TestOracle:
    def test_block_is_the_per_user_code_bit_for_bit(self, window):
        users = random_users(np.random.default_rng(4), window, 200)
        expected = np.asarray(
            [[feats[name] for name in PROFILE_FEATURE_NAMES]
             for feats in (oracle_features(snaps, window) for snaps in users)]
        )
        block = features_from_snapshots(users, window)
        assert block.shape == (200, len(PROFILE_FEATURE_NAMES))
        assert block.tobytes() == expected.tobytes()

    def test_no_users(self, window):
        assert features_from_snapshots([], window).shape == (0, len(PROFILE_FEATURE_NAMES))


class TestFeaturesFromSnapshots:
    def test_no_snapshot_raises(self, window):
        created = window.start - DAY_SECONDS
        with pytest.raises(NoSnapshot):
            features_from_snapshots([[snap(window.start, created)], []], window)

    def test_hand_computed_values(self, window):
        created = window.end - 10 * DAY_SECONDS
        first = snap(window.start, created, followers=4, statuses=50)
        last = snap(window.start + DAY_SECONDS, created, followers=6, statuses=80)
        feats = features_from_user([first, last], window)

        assert feats["account_age_days"] == 10.0
        assert feats["followers"] == 6.0
        assert feats["statuses_by_age"] == 8.0
        assert feats["followers_by_age"] == 0.6
        assert feats["followers_growth"] == (4 + 6) / 4
        assert feats["statuses_growth"] == (50 + 80) / 50
        assert feats["followers_growth_degenerate"] == 0.0
        assert feats["single_snapshot"] == 0.0
        assert feats["snapshot_count"] == 2.0

    def test_brand_new_account_age_floored(self, window):
        created = window.end - 3600  # one hour old at window end
        feats = features_from_user([snap(window.end - 10, created)], window)
        assert feats["account_age_days"] == 1.0

    def test_zero_start_sets_degenerate_flag(self, window):
        created = window.start - DAY_SECONDS
        first = snap(window.start, created, followers=0)
        last = snap(window.start + 1, created, followers=9)
        feats = features_from_user([first, last], window)
        assert feats["followers_growth"] == 1.0
        assert feats["followers_growth_degenerate"] == 1.0

    def test_single_snapshot_flagged(self, window):
        created = window.start - DAY_SECONDS
        feats = features_from_user([snap(window.start, created)], window)
        assert feats["single_snapshot"] == 1.0
        assert feats["snapshot_count"] == 1.0
        # one snapshot means flat growth
        assert feats["followers_growth"] == 2.0

    def test_name_and_flag_features(self, window):
        created = window.start - DAY_SECONDS
        s = snap(
            window.start,
            created,
            name="user1234",
            screen_name="user1234",
            description="",
            verified=True,
            default_profile=True,
        )
        feats = features_from_user([s], window)
        assert feats["name_digit_fraction"] == 0.5
        assert feats["name_screen_name_similarity"] == 1.0
        assert feats["has_description"] == 0.0
        assert feats["description_length"] == 0.0
        assert feats["verified"] == 1.0
        assert feats["has_default_profile"] == 1.0

    def test_followers_friends_ratio_guards_zero(self, window):
        created = window.start - DAY_SECONDS
        feats = features_from_user(
            [snap(window.start, created, followers=8, friends=0)], window
        )
        assert feats["followers_friends_ratio"] == 8.0

    def test_schema_order_and_finiteness(self, window):
        created = window.start - 400 * DAY_SECONDS
        block = features_from_snapshots([[snap(window.start, created)]] * 2, window)
        assert block.shape == (2, len(PROFILE_FEATURE_NAMES))
        assert len(set(PROFILE_FEATURE_NAMES)) == len(PROFILE_FEATURE_NAMES)
        assert np.isfinite(block).all()
