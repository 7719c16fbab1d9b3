"""Shared fixtures and record builders for the test suite."""

import json

import numpy as np
import pytest

from suspkit.corpus import DAY_SECONDS, TimeWindow, Tweet
from suspkit.graph_embedding import split_edges, train_embeddings
from suspkit.manifest import stage_seed
from suspkit.pipeline import GRAPH_HOLDOUT_FRACTION, GRAPH_LR, GRAPH_NEGATIVES

WINDOW_START = 1_645_574_400  # 2022-02-23T00:00:00Z
WINDOW_DAYS = 21


@pytest.fixture
def window() -> TimeWindow:
    return TimeWindow(WINDOW_START, WINDOW_START + WINDOW_DAYS * DAY_SECONDS)


def make_tweet(
    tweet_id: str = "t1",
    user_id: str = "u1",
    created_at: int = WINDOW_START,
    kind: str = "original",
    text: str = "hello world",
    referenced_user_id: str = "other",
    reaction_delay: int = 60,
    hashtags: tuple[str, ...] = (),
    urls: tuple[str, ...] = (),
    mentions: tuple[str, ...] = (),
) -> Tweet:
    ref_id = ref_user = None
    ref_created = None
    if kind in ("retweet", "quote"):
        ref_id = f"ref_{tweet_id}"
        ref_user = referenced_user_id
        ref_created = created_at - reaction_delay
    return Tweet(
        tweet_id=tweet_id,
        user_id=user_id,
        created_at=created_at,
        kind=kind,
        text=text,
        referenced_tweet_id=ref_id,
        referenced_user_id=ref_user,
        referenced_created_at=ref_created,
        hashtags=tuple(hashtags),
        urls=tuple(urls),
        mentions=tuple(mentions),
    )


def tweet_edges(tweets, relations):
    """The (source, relation, destination) edges of whole Tweets: the
    oracle for `build_graph` over the narrow `CorpusStore.interactions`
    rows."""
    for tweet in tweets:
        for kind in ("retweet", "quote"):
            if tweet.kind == kind and kind in relations and tweet.referenced_user_id:
                yield tweet.user_id, kind, tweet.referenced_user_id
        if "mention" in relations:
            for mentioned in tweet.mentions:
                yield tweet.user_id, "mention", mentioned


# Words with punctuation at either end, URLs, mentions, case-folding
# expansions (ß) and letters and digits outside ASCII.
_WORDS = (
    "hello", "World", "Straße", "STRASSE", "ǅemal", "x²", "naïve", "¿qué?", "(really?)",
    '"Wait..."', "...", "—", "it's", "a.b", "#tag", "@friend", "https://t.co/x",
    "www.Example.com/a", "café!", "Ωmega", "123", "٣٤", "_under_", "--", "e.g.", "«Ja»",
)
_TAG_POOLS = (1, 6, 60, 400)
# Per-kind post counts: none, 1-7, 8-127 and 128 or more, the lengths
# where numpy's pairwise sum changes its course.
_KIND_COUNTS = ((0, 0), (1, 7), (8, 127), (128, 300))


def _mixed_case(rng: np.random.Generator, word: str) -> str:
    return "".join(c.upper() if rng.random() < 0.5 else c for c in word)


def random_timelines(rng: np.random.Generator, n_users: int) -> list[list[Tweet]]:
    """Random timelines in `user_timeline` order, every 16th one empty.

    Each post kind's count is drawn from `_KIND_COUNTS`.  Reactions
    carry a referenced time before the post, none, or one after it;
    hashtags come in mixed case from a per-user pool of 1 to 400 tags.
    """
    timelines = []
    for u in range(n_users):
        if u % 16 == 0:
            timelines.append([])
            continue
        kinds = []
        for kind in ("original", "retweet", "quote"):
            low, high = _KIND_COUNTS[rng.integers(len(_KIND_COUNTS))]
            kinds += [kind] * int(rng.integers(low, high + 1))
        rng.shuffle(kinds)
        times = np.sort(rng.integers(WINDOW_START, WINDOW_START + WINDOW_DAYS * DAY_SECONDS,
                                     size=len(kinds)))
        pool = _TAG_POOLS[rng.integers(len(_TAG_POOLS))]
        timeline = []
        for i, (kind, ts) in enumerate(zip(kinds, times.tolist())):
            ref_id = ref_user = ref_created = None
            if kind != "original":
                ref_id, ref_user = f"r{u}_{i}", f"v{rng.integers(50)}"
                draw = rng.random()
                if draw < 0.8:
                    ref_created = ts - int(rng.integers(0, 10**6))
                elif draw < 0.9:
                    ref_created = ts + int(rng.integers(1, 1000))
            tags = ("Straße", "STRASSE") if rng.random() < 0.05 else ()
            tags += tuple(_mixed_case(rng, f"tag{rng.integers(pool)}")
                          for _ in range(rng.integers(0, 4)))
            timeline.append(Tweet(
                tweet_id=f"t{u}_{i}",
                user_id=f"u{u}",
                created_at=ts,
                kind=kind,
                text=" ".join(_WORDS[w] for w in rng.integers(len(_WORDS), size=rng.integers(13))),
                referenced_tweet_id=ref_id,
                referenced_user_id=ref_user,
                referenced_created_at=ref_created,
                hashtags=tags,
                urls=tuple(f"https://x.test/{k}" for k in range(rng.integers(0, 3))),
                mentions=tuple(f"m{k}" for k in range(rng.integers(0, 5))),
            ))
        timelines.append(timeline)
    return timelines


def tweet_line(**fields) -> str:
    record = {
        "id": "t1",
        "user_id": "u1",
        "created_at": WINDOW_START,
        "text": "hello world",
    }
    record.update(fields)
    return json.dumps({k: v for k, v in record.items() if v is not None})


def snapshot_line(**fields) -> str:
    record = {
        "user_id": "u1",
        "observed_at": WINDOW_START + DAY_SECONDS,
        "account_created_at": WINDOW_START - 100 * DAY_SECONDS,
        "followers": 10,
        "friends": 20,
        "statuses": 30,
        "favourites": 40,
        "listed": 1,
        "name": "Alice",
        "screen_name": "alice",
        "description": "hi there",
    }
    record.update(fields)
    return json.dumps({k: v for k, v in record.items() if v is not None})


def graph_split_fit(graph, config):
    """The run's graph fit, rebuilt apart from the pipeline: embeddings
    trained on the graph minus its held-out edges, and those edges."""
    train_graph, held_out = split_edges(
        graph,
        fraction=GRAPH_HOLDOUT_FRACTION,
        seed=stage_seed(config.seed, "graph-split"),
    )
    emb = train_embeddings(
        train_graph,
        dim=config.graph_dim,
        epochs=config.graph_epochs,
        lr=GRAPH_LR,
        negatives_per_edge=GRAPH_NEGATIVES,
        batch_size=config.graph_batch,
        seed=stage_seed(config.seed, "graph"),
    )
    return emb, held_out
