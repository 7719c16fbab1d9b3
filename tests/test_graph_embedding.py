from itertools import combinations

import numpy as np
import pytest

from suspkit.corpus import CorpusStore, TimeWindow, parse_tweet_record
from suspkit import graph_embedding
from suspkit.errors import SuspkitError
from suspkit.graph_embedding import (
    RELATIONS,
    DivergedFit,
    EmptyGraph,
    RankingEval,
    RelationGraph,
    build_graph,
    evaluate,
    load_embeddings,
    ranking_metrics,
    read_graph_csv,
    save_embeddings,
    split_edges,
    train_embeddings,
    write_graph_csv,
)

from suspkit.pipeline import PipelineConfig
from suspkit.synth import GeneratorConfig, generate

from conftest import WINDOW_START, graph_split_fit, tweet_edges, tweet_line

# Step size, width and batching for the small unit fits; each test
# sets its own epoch count.
SMALL_FIT = dict(dim=4, lr=0.1, negatives_per_edge=5, batch_size=1024)


def small_graph():
    edges = [
        ("a", "retweet", "b"),
        ("a", "retweet", "b"),
        ("b", "mention", "c"),
        ("c", "quote", "a"),
    ]
    return RelationGraph.from_edges(edges)


class TestRelationGraph:
    def test_parallel_edges_fold_into_weights(self):
        g = small_graph()
        assert g.n_nodes == 3
        assert g.n_edges == 3
        assert g.total_weight == 4
        assert g.edges[("a", "retweet", "b")] == 2

    def test_relations_sorted(self):
        assert small_graph().relations == ["mention", "quote", "retweet"]

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            RelationGraph(nodes=["a"], edges={("a", "retweet", "ghost"): 1})

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            RelationGraph(nodes=["a", "b"], edges={("a", "retweet", "b"): 0})


class TestBuildGraph:
    def _store(self):
        store = CorpusStore()
        store.ingest_tweets(
            [
                tweet_line(
                    id="t1",
                    user_id="u1",
                    retweeted_status_id="x",
                    retweeted_user_id="u2",
                    retweeted_status_created_at=WINDOW_START - 5,
                ),
                tweet_line(
                    id="t2",
                    user_id="u1",
                    quoted_status_id="y",
                    quoted_user_id="u3",
                    quoted_status_created_at=WINDOW_START - 5,
                ),
                tweet_line(id="t3", user_id="u2", mentions=["u1", "u3"]),
                tweet_line(id="t4", user_id="u9", created_at=WINDOW_START - 999),
            ]
        )
        return store

    def test_edges_per_interaction(self, window):
        g = build_graph(self._store().interactions(window), relations=RELATIONS)
        assert g.edges == {
            ("u1", "retweet", "u2"): 1,
            ("u1", "quote", "u3"): 1,
            ("u2", "mention", "u1"): 1,
            ("u2", "mention", "u3"): 1,
        }

    def test_relation_subset(self, window):
        g = build_graph(self._store().interactions(window), relations=("mention",))
        assert g.relations == ["mention"]
        assert g.n_edges == 2

    def test_unknown_relation_rejected(self, window):
        with pytest.raises(ValueError):
            build_graph(self._store().interactions(window), relations=("follows",))

    def test_out_of_window_tweets_ignored(self):
        late = TimeWindow(WINDOW_START - 2000, WINDOW_START - 1)
        g = build_graph(self._store().interactions(late), relations=RELATIONS)
        assert g.n_edges == 0


# Retweets and quotes of an empty user id, an original post with mentions
# only, posts that give no edge, repeated edges, a retweet that also
# mentions, and posts either side of the window.
ORACLE_LINES = [
    tweet_line(id="rt", user_id="u1", mentions=["u4"], retweeted_status_id="x",
               retweeted_user_id="u2", retweeted_status_created_at=WINDOW_START - 5),
    tweet_line(id="rt-again", user_id="u1", created_at=WINDOW_START + 9,
               retweeted_status_id="x", retweeted_user_id="u2",
               retweeted_status_created_at=WINDOW_START - 5),
    tweet_line(id="rt-nobody", user_id="u3", retweeted_status_id="y", retweeted_user_id="",
               retweeted_status_created_at=WINDOW_START - 5),
    tweet_line(id="qt", user_id="u2", quoted_status_id="z", quoted_user_id="été",
               quoted_status_created_at=WINDOW_START - 5),
    tweet_line(id="qt-nobody", user_id="u2", mentions=["u1"], quoted_status_id="w",
               quoted_user_id="", quoted_status_created_at=WINDOW_START - 5),
    tweet_line(id="mentions", user_id="été", mentions=["u1", "u3", "u1"]),
    tweet_line(id="plain", user_id="u5"),
    tweet_line(id="early", user_id="u6", created_at=WINDOW_START - 1, mentions=["u1"]),
    tweet_line(id="late", user_id="u7", created_at=WINDOW_START + 21 * 86_400,
               retweeted_status_id="v", retweeted_user_id="u1",
               retweeted_status_created_at=WINDOW_START),
]


class TestInteractionRead:
    """`build_graph` over the narrow `CorpusStore.interactions` rows gives
    the graph of the edges of every Tweet of the window."""

    @staticmethod
    def oracle(lines, window, relations):
        tweets = [t for t in map(parse_tweet_record, lines) if window.contains(t.created_at)]
        return RelationGraph.from_edges(tweet_edges(tweets, relations))

    @pytest.mark.parametrize(
        "relations",
        [subset for n in range(len(RELATIONS) + 1) for subset in combinations(RELATIONS, n)],
        ids=lambda subset: "+".join(subset) or "none",
    )
    def test_each_relation_subset(self, window, relations):
        store = CorpusStore()
        store.ingest_tweets(ORACLE_LINES)
        graph = build_graph(store.interactions(window), relations=relations)
        expected = self.oracle(ORACLE_LINES, window, relations)
        assert (graph.nodes, graph.edges) == (expected.nodes, expected.edges)

    def test_synthetic_corpus(self, tmp_path):
        paths = generate(GeneratorConfig(n_suspended=30, n_normal=30, n_windows=2), 3, tmp_path)
        store = CorpusStore()
        store.ingest_tweets(paths["tweets"])
        lines = paths["tweets"].read_text(encoding="utf-8").splitlines()
        for window in PipelineConfig().windows():
            graph = build_graph(store.interactions(window), relations=RELATIONS)
            expected = self.oracle(lines, window, RELATIONS)
            assert graph.n_edges > 100
            assert (graph.nodes, graph.edges) == (expected.nodes, expected.edges)


class TestSplitEdges:
    def test_holdout_fraction_per_relation(self):
        edges = [(f"s{i}", rel, f"d{i}") for i in range(20)
                 for rel in ("retweet", "mention")]
        g = RelationGraph.from_edges(edges)
        train_g, held = split_edges(g, fraction=0.1, seed=0)
        by_rel = {"retweet": 0, "mention": 0}
        for _, rel, _ in held:
            by_rel[rel] += 1
        assert by_rel == {"retweet": 2, "mention": 2}
        assert train_g.n_edges == g.n_edges - 4
        # full node set kept for the trainer
        assert train_g.nodes == g.nodes
        assert not set(held) & set(train_g.edges)

    def test_deterministic(self):
        g = RelationGraph.from_edges([(f"s{i}", "retweet", f"d{i}") for i in range(30)])
        _, held1 = split_edges(g, fraction=0.2, seed=5)
        _, held2 = split_edges(g, fraction=0.2, seed=5)
        assert held1 == held2

    def test_matches_per_edge_set_comprehension(self):
        def reference(graph, fraction, seed):
            # The split as first written, with the held-out set rebuilt
            # for every edge.
            rng = np.random.default_rng(seed)
            held_out = []
            for rel in graph.relations:
                keys = sorted(key for key in graph.edges if key[1] == rel)
                k = min(len(keys), max(1, round(fraction * len(keys))))
                chosen = rng.choice(len(keys), size=k, replace=False)
                held_out.extend(keys[i] for i in np.sort(chosen))
            return {k: w for k, w in graph.edges.items() if k not in set(held_out)}, held_out

        rng = np.random.default_rng(8)
        edges = [(f"u{rng.integers(40)}", ("retweet", "mention", "reply")[rng.integers(3)],
                  f"u{rng.integers(40)}") for _ in range(600)]
        g = RelationGraph.from_edges(edges)
        for fraction, seed in ((0.05, 0), (0.3, 7), (0.9, 2)):
            train_g, held = split_edges(g, fraction=fraction, seed=seed)
            ref_edges, ref_held = reference(g, fraction, seed)
            assert held == ref_held
            assert list(train_g.edges.items()) == list(ref_edges.items())
            assert train_g.nodes == g.nodes

    def test_fraction_validation(self):
        g = small_graph()
        with pytest.raises(ValueError):
            split_edges(g, fraction=0.0, seed=0)
        with pytest.raises(ValueError):
            split_edges(g, fraction=1.0, seed=0)


class TestRankingMetrics:
    def test_hand_computed_ranks(self):
        # ranks 1, 2 and 4 against five negatives each
        pos = np.array([10.0, 8.0, 5.0])
        neg = np.array(
            [
                [1.0, 2.0, 3.0, 4.0, 5.0],
                [9.0, 2.0, 3.0, 4.0, 5.0],
                [9.0, 8.0, 7.0, 3.0, 2.0],
            ]
        )
        mrr, auc = ranking_metrics(pos, neg)
        assert mrr == pytest.approx((1.0 + 1 / 2 + 1 / 4) / 3, abs=1e-12)
        assert auc == pytest.approx((5 + 4 + 2) / 15, abs=1e-12)

    def test_all_tied_scores(self):
        pos = np.zeros(4)
        neg = np.zeros((4, 7))
        mrr, auc = ranking_metrics(pos, neg)
        assert auc == 0.5
        assert mrr == pytest.approx(1.0 / (1.0 + 3.5))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        pos = rng.standard_normal(20)
        neg = rng.standard_normal((20, 30))
        _, auc = ranking_metrics(pos, neg)
        _, auc_t = ranking_metrics(pos**3 + 1, neg**3 + 1)
        assert auc_t == auc

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ranking_metrics(np.zeros(3), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            ranking_metrics(np.zeros((3, 1)), np.zeros((3, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_rows_rejected(self, bad):
        # NaN compares false both ways: it would rank every positive first.
        pos, neg = np.zeros(3), np.ones((3, 4))
        neg[1] = bad
        with pytest.raises(ValueError, match="finite"):
            ranking_metrics(pos, neg)
        with pytest.raises(ValueError, match="finite"):
            ranking_metrics(np.full(3, bad), np.ones((3, 4)))


class TestTraining:
    def test_loss_decreases_on_learnable_graph(self):
        edges = [(f"n{i}", "retweet", f"n{j}") for i in range(6) for j in range(6) if i != j]
        g = RelationGraph.from_edges(edges)
        emb = train_embeddings(
            g, dim=8, epochs=40, lr=0.5, negatives_per_edge=5, batch_size=16, seed=0
        )
        assert emb.train_loss[-1] < emb.train_loss[0]

    def test_deterministic_for_fixed_seed(self):
        g = small_graph()
        a = train_embeddings(g, **SMALL_FIT, epochs=5, seed=9)
        b = train_embeddings(g, **SMALL_FIT, epochs=5, seed=9)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        np.testing.assert_array_equal(a.relation_vectors, b.relation_vectors)

    def test_row_order_matches_graph_nodes(self):
        g = small_graph()
        emb = train_embeddings(g, **SMALL_FIT, epochs=1, seed=0)
        assert emb.node_ids == g.nodes
        assert emb.relation_ids == g.relations
        assert emb.vectors.shape == (3, 4)

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            train_embeddings(RelationGraph(nodes=["a"], edges={}), **SMALL_FIT, epochs=1, seed=0)

    def test_evaluate_returns_bounded_metrics(self):
        edges = [(f"n{i}", "retweet", f"n{(i + 1) % 8}") for i in range(8)]
        g = RelationGraph.from_edges(edges)
        emb = train_embeddings(g, **SMALL_FIT, epochs=10, seed=0)
        result = evaluate(emb, list(g.edges), negatives_per_positive=20, seed=0)
        assert isinstance(result, RankingEval)
        assert 0.0 <= result.auc <= 1.0
        assert 0.0 < result.mrr <= 1.0

    def test_evaluate_requires_edges(self):
        emb = train_embeddings(small_graph(), **SMALL_FIT, epochs=1, seed=0)
        with pytest.raises(ValueError):
            evaluate(emb, [], negatives_per_positive=20, seed=0)


def reference_batch_update(E, W, src, rel, dst, neg, lr):
    """The batch step as four row-wise 2-D ``np.add.at`` scatters."""
    S, Wr, D = E[src], W[rel], E[dst]
    Dn = E[neg]
    left = S * Wr
    pos_scores = np.sum(left * D, axis=1)
    neg_scores = np.einsum("bd,bkd->bk", left, Dn)
    logits = np.concatenate([pos_scores[:, None], neg_scores], axis=1)
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    loss = float(np.mean(-np.log(probs[:, 0] + 1e-300)))
    g0 = probs[:, 0] - 1.0
    pn = probs[:, 1:]
    M = g0[:, None] * D + np.einsum("bk,bkd->bd", pn, Dn)
    scale = lr / src.shape[0]
    np.add.at(E, src, -scale * (Wr * M))
    np.add.at(W, rel, -scale * (S * M))
    np.add.at(E, dst, -scale * (g0[:, None] * left))
    np.add.at(E, neg.ravel(), -scale * (pn[:, :, None] * left[:, None, :]).reshape(-1, E.shape[1]))
    return loss


def reference_train(graph, dim, epochs, lr, negatives_per_edge, batch_size, seed):
    node_index = {node: i for i, node in enumerate(graph.nodes)}
    rel_index = {rel: i for i, rel in enumerate(graph.relations)}
    src, rel, dst = graph_embedding._edge_arrays(graph, node_index, rel_index)
    rng = np.random.default_rng(seed)
    E = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(graph.n_nodes, dim))
    W = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(len(rel_index), dim))
    n = src.shape[0]
    losses = []
    for _ in range(epochs):
        order = rng.permutation(n)
        neg = rng.integers(0, graph.n_nodes, size=(n, negatives_per_edge))
        batch_losses = []
        for b in range(0, n, batch_size):
            idx = order[b : b + batch_size]
            batch_losses.append(
                reference_batch_update(E, W, src[idx], rel[idx], dst[idx], neg[idx], lr)
            )
        losses.append(float(np.mean(batch_losses)))
    return E, W, losses


class TestDivergence:
    def test_a_diverged_fit_raises_instead_of_ranking(self, tmp_path):
        # At lr 2.0 the small window-1 graph of this corpus overflows at
        # epoch 66 of 100; its NaN vectors used to rank every held-out
        # edge first (MRR 1.0).
        paths = generate(GeneratorConfig(n_suspended=30, n_normal=30), 3, tmp_path)
        store = CorpusStore()
        store.ingest_tweets(paths["tweets"])
        config = PipelineConfig(seed=3, graph_epochs=100)
        graph = build_graph(store.interactions(config.windows()[0]), relations=RELATIONS)
        assert graph.n_nodes == 96
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedFit, match="at epoch 66 of 100"):
                graph_split_fit(graph, config)
        assert issubclass(DivergedFit, SuspkitError)  # exits 3


class TestFlatScatterOracle:
    def check(self, graph, **kw):
        E, W, losses = reference_train(graph, **kw)
        emb = train_embeddings(graph, **kw)
        assert emb.vectors.tobytes() == E.tobytes()
        assert emb.relation_vectors.tobytes() == W.tobytes()
        assert emb.train_loss == losses

    def test_dense_graph_with_repeats_and_ragged_batches(self):
        # Five nodes, every ordered pair under two relations, some edges
        # weighted: each node is a source, destination and negative many
        # times within one batch.
        edges = [
            (f"n{i}", rel, f"n{j}")
            for i in range(5)
            for j in range(5)
            if i != j
            for rel in ("mention", "retweet")
        ]
        edges += [("n0", "retweet", "n1")] * 3 + [("n2", "mention", "n0")] * 2
        g = RelationGraph.from_edges(edges)
        assert g.total_weight % 7 != 0
        self.check(g, dim=6, epochs=4, lr=0.5, negatives_per_edge=5, batch_size=7, seed=11)

    def test_single_batch_and_one_relation(self):
        g = small_graph()
        self.check(g, dim=3, epochs=3, lr=0.1, negatives_per_edge=4, batch_size=1024, seed=2)
        edges = [(f"n{i}", "retweet", f"n{(i * 3) % 13}") for i in range(1, 13)]
        self.check(
            RelationGraph.from_edges(edges),
            dim=5, epochs=3, lr=0.3, negatives_per_edge=2, batch_size=5, seed=4,
        )


class TestPersistence:
    def test_graph_csv_roundtrip(self, tmp_path):
        g = small_graph()
        path = tmp_path / "graph.csv"
        write_graph_csv(path, g)
        loaded = read_graph_csv(path)
        assert loaded.edges == g.edges
        assert loaded.nodes == g.nodes

    def test_embeddings_roundtrip(self, tmp_path):
        emb = train_embeddings(small_graph(), **SMALL_FIT, epochs=2, seed=3)
        path = tmp_path / "emb.emb1"
        save_embeddings(path, emb)
        loaded = load_embeddings(path)
        assert loaded.node_ids == emb.node_ids
        assert loaded.relation_ids == emb.relation_ids
        np.testing.assert_allclose(loaded.vectors, emb.vectors, atol=1e-6)
        np.testing.assert_allclose(loaded.relation_vectors, emb.relation_vectors, atol=1e-6)
