"""Shared fixtures and record builders for the test suite."""

import json

import pytest

from suspkit.corpus import DAY_SECONDS, TimeWindow, Tweet
from suspkit.graph_embedding import split_edges, train_embeddings
from suspkit.manifest import stage_seed

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
        fraction=config.graph_holdout_fraction,
        seed=stage_seed(config.seed, "graph-split"),
    )
    emb = train_embeddings(
        train_graph,
        dim=config.graph_dim,
        epochs=config.graph_epochs,
        lr=config.graph_lr,
        negatives_per_edge=config.graph_negatives,
        batch_size=config.graph_batch,
        seed=stage_seed(config.seed, "graph"),
    )
    return emb, held_out
