import json
import pickle
import tracemalloc
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest

from suspkit import pipeline, suspension_model, text_embedding
from suspkit.content_clustering import write_cluster_report
from suspkit.corpus import CorpusStore, MalformedRecord, TimeWindow, read_window
from suspkit.errors import MissingArtifact, StaleArtifact
from suspkit.graph_embedding import (
    RELATIONS,
    EmptyGraph,
    NodeEmbeddings,
    RelationGraph,
    build_graph,
    load_embeddings,
    save_embeddings,
    split_edges,
    train_embeddings,
    write_graph_csv,
)
from suspkit.manifest import stage_seed
from suspkit.profile_features import PROFILE_FEATURE_NAMES
from suspkit.pipeline import (
    GRAPH_HOLDOUT_FRACTION,
    PipelineConfig,
    balanced_users,
    extract_split_features,
    extract_window_features,
    run_clustering,
    run_graph_stage,
    split_users,
    train_with_cv,
)
from suspkit.suspension_model import (
    FAMILY_ORDER,
    SPLIT_TEST,
    FeatureMatrix,
    evaluate as evaluate_model,
    save_model,
)
from suspkit.synth import GeneratorConfig, generate
from suspkit.text_embedding import HashedNgramEncoder, PrecomputedEmbeddings
from suspkit.vectors import EmbeddingMatrix

from conftest import snapshot_line, tweet_edges, tweet_line


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth-corpus")
    paths = generate(GeneratorConfig(n_suspended=30, n_normal=30), seed=0, out_dir=out)
    store = CorpusStore()
    store.ingest_tweets(paths["tweets"])
    store.ingest_snapshots(paths["snapshots"])
    store.ingest_labels(paths["labels"])
    return store


@pytest.fixture(scope="module")
def two_window_store(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth-two-windows")
    paths = generate(GeneratorConfig(n_suspended=20, n_normal=20, n_windows=2),
                     seed=0, out_dir=out)
    store = CorpusStore()
    store.ingest_tweets(paths["tweets"])
    store.ingest_snapshots(paths["snapshots"])
    store.ingest_labels(paths["labels"])
    return store


@pytest.fixture(scope="module")
def lopsided_store(tmp_path_factory):
    """Two windows with three suspended users to each normal one, so
    balancing keeps only part of each window's users."""
    out = tmp_path_factory.mktemp("synth-lopsided")
    paths = generate(GeneratorConfig(n_suspended=30, n_normal=10, n_windows=2),
                     seed=0, out_dir=out)
    store = CorpusStore()
    store.ingest_tweets(paths["tweets"])
    store.ingest_snapshots(paths["snapshots"])
    store.ingest_labels(paths["labels"])
    return store


def fast_config(**overrides):
    defaults = dict(
        encoder_dim=64,
        pca_components=8,
        graph_dim=8,
        graph_epochs=30,
        graph_batch=64,
        n_rounds=30,
        max_depth=3,
        k_folds=3,
        seed=0,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestPipelineConfig:
    def test_dict_roundtrip(self):
        config = fast_config(tau=0.85, families=("profile", "activity"))
        assert PipelineConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"mystery_knob": 1})

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(families=("profile", "weather"))

    def test_value_types(self):
        config = PipelineConfig(tau=1, families=["profile"], embeddings_file="e.emb1")
        assert config.tau == 1 and config.families == ("profile",)
        for bad in ({"seed": True}, {"tau": "0.9"}, {"families": ("profile", 1)},
                    {"workdir": None}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                PipelineConfig(**bad)

    def test_windows_are_back_to_back(self):
        first, second = fast_config().windows()
        assert second.start == first.end
        assert first.days == second.days == 21

    def test_bad_window_start(self):
        with pytest.raises(MalformedRecord):
            fast_config(window_start="soon").windows()

    def test_hyper_keys(self):
        assert set(fast_config().hyper()) == {
            "n_rounds", "learning_rate", "max_depth", "reg_lambda",
        }


class TestUserSelection:
    def test_balanced_classes(self, store):
        config = fast_config()
        users = balanced_users(store, config, config.windows()[0])
        counts = {0: 0, 1: 0}
        for label in users.values():
            counts[label] += 1
        assert counts[0] == counts[1] > 0

    def test_split_users_stratified_and_disjoint(self):
        users = {f"s{i}": 1 for i in range(20)}
        users.update({f"n{i}": 0 for i in range(20)})
        train_part, test_part = split_users(users, fraction=0.25, seed=1)
        assert set(train_part) | set(test_part) == set(users)
        assert not set(train_part) & set(test_part)
        assert sum(test_part.values()) == 5  # 25% of each class
        assert len(test_part) == 10

    def test_split_deterministic(self):
        users = {f"u{i}": i % 2 for i in range(30)}
        assert split_users(users, 0.3, seed=4) == split_users(users, 0.3, seed=4)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            split_users({"a": 1}, fraction=1.0, seed=0)


class TestExtraction:
    def test_all_families_present_and_aligned(self, store):
        config = fast_config()
        window, _ = config.windows()
        users = balanced_users(store, config, window)
        tweets = read_window(store, window, users)
        features = extract_window_features(store, window, tweets, users, config)
        assert set(features.families) == set(FAMILY_ORDER)
        total = sum(len(names) for names in features.families.values())
        assert features.combined.width == total
        assert features.combined.user_ids == sorted(users)
        assert features.dropped_users == []

    def test_columns_follow_family_order(self, store):
        config = fast_config(families=tuple(reversed(FAMILY_ORDER)))
        window, _ = config.windows()
        users = balanced_users(store, config, window)
        tweets = read_window(store, window, users)
        features = extract_window_features(store, window, tweets, users, config)
        assert tuple(features.families) == FAMILY_ORDER
        names = features.combined.feature_names
        assert names == tuple(chain.from_iterable(features.families.values()))
        assert names[:len(PROFILE_FEATURE_NAMES)] == PROFILE_FEATURE_NAMES

    def test_family_subset(self, store):
        config = fast_config(families=("profile", "activity"))
        window, _ = config.windows()
        users = balanced_users(store, config, window)
        tweets = read_window(store, window, users)
        features = extract_window_features(store, window, tweets, users, config)
        assert set(features.families) == {"profile", "activity"}

    def test_context_reuse_is_bit_identical(self, store):
        config = fast_config(families=("textual", "post_embedding"))
        window, _ = config.windows()
        users = balanced_users(store, config, window)
        tweets = read_window(store, window, users)
        first = extract_window_features(store, window, tweets, users, config)
        again = extract_window_features(
            store, window, read_window(store, window, users), users, config, context=first.context
        )
        assert np.array_equal(first.combined.X, again.combined.X, equal_nan=True)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown families"):
            fast_config(families=("weather",))

    def test_empty_family_list_rejected(self):
        with pytest.raises(ValueError, match="no families"):
            fast_config(families=())


class TestWindowReads:
    def test_split_features_decode_each_tweet_once(self, lopsided_store, monkeypatch):
        store = lopsided_store
        config = fast_config()
        first, second = config.windows()
        decode = CorpusStore._row_to_tweet
        decoded = []

        def counted(row):
            decoded.append(row[0])
            return decode(row)

        monkeypatch.setattr(CorpusStore, "_row_to_tweet", staticmethod(counted))
        split = extract_split_features(store, config)
        monkeypatch.undo()
        assert split.test is not None and split.second_test is not None
        # Only the split users' tweets are decoded, each once.
        reads = ((first, {**split.train_users, **split.test_users}), (second, split.second_users))
        expected = sorted(
            t.tweet_id for window, users in reads
            for user in users for t in store.user_timeline(user, window)
        )
        assert sorted(decoded) == expected
        span = TimeWindow(first.start, second.end)
        assert len(expected) < len(list(store.window_posts(span)))
        # Train, test and second test share the graph fitted on window 1.
        assert split.train.context.graph is split.test.context.graph
        assert split.second_test.context.graph is split.train.context.graph

    def test_split_features_equal_the_all_users_read(self, lopsided_store):
        # The oracle extracts each split from the Tweets of every user of
        # its window, and its graph is the edges of all of them.
        store = lopsided_store
        config = fast_config()
        first, second = config.windows()
        split = extract_split_features(store, config)

        def every_user(window):
            return {user: store.user_timeline(user, window) for user in store.active_users(window)}

        table = every_user(first)
        train = extract_window_features(store, first, table, split.train_users, config)
        oracle = [
            train,
            extract_window_features(store, first, table, split.test_users, config,
                                    context=train.context),
            extract_window_features(store, second, every_user(second), split.second_users,
                                    config, context=train.context),
        ]
        assert len(split.train_users) + len(split.test_users) < len(table)
        for got, want in zip((split.train, split.test, split.second_test), oracle):
            assert got.combined.feature_names == want.combined.feature_names
            assert got.combined.user_ids == want.combined.user_ids
            assert got.combined.X.tobytes() == want.combined.X.tobytes()
            assert got.combined.y.tobytes() == want.combined.y.tobytes()
        graph = split.train.context.graph
        expected = RelationGraph.from_edges(
            tweet_edges(chain.from_iterable(table.values()), RELATIONS)
        )
        assert (graph.nodes, graph.edges) == (expected.nodes, expected.edges)


class TestGraphReuse:
    """Window 2 is scored in the coordinates of the window-1 graph fit."""

    @pytest.fixture(scope="class")
    def bridged_split(self, tmp_path_factory):
        # A window-1 user mentions a window-2 user, so that user is a
        # node of both windows' graphs.
        out = tmp_path_factory.mktemp("synth-bridged")
        paths = generate(GeneratorConfig(n_suspended=20, n_normal=20, n_windows=2),
                         seed=0, out_dir=out)
        store = CorpusStore()
        store.ingest_tweets(paths["tweets"])
        store.ingest_snapshots(paths["snapshots"])
        store.ingest_labels(paths["labels"])
        config = fast_config()
        first, second = config.windows()
        store.ingest_tweets([tweet_line(id="bridge", user_id="n1_00000",
                                        created_at=first.start + 3600, mentions=["n2_00000"])])
        second_graph = build_graph(store.interactions(second), relations=RELATIONS)
        return extract_split_features(store, config), second_graph

    @staticmethod
    def graph_rows(features):
        matrix = features.combined
        columns = [matrix.feature_names.index(n) for n in features.families["graph_embedding"]]
        return dict(zip(matrix.user_ids, matrix.X[:, columns]))

    def test_shared_user_keeps_its_window1_vector(self, bridged_split):
        split, second_graph = bridged_split
        emb = split.train.context.node_embeddings
        assert "n2_00000" in emb.node_ids and "n2_00000" in second_graph.nodes
        row = self.graph_rows(split.second_test)["n2_00000"]
        assert row.tobytes() == emb.vectors[emb.node_index()["n2_00000"]].tobytes()

    def test_user_outside_window1_graph_gets_nan(self, bridged_split):
        split, second_graph = bridged_split
        window1_nodes = set(split.train.context.graph.nodes)
        rows = self.graph_rows(split.second_test)
        outside = [u for u in rows if u not in window1_nodes]
        assert outside and all(u in second_graph.nodes for u in outside)
        for user in outside:
            assert np.isnan(rows[user]).all()
        assert np.isfinite(rows["n2_00000"]).all()

    def test_one_graph_fit_per_split_extraction(self, two_window_store, monkeypatch):
        fits = []

        def counted(graph, **kwargs):
            fits.append(graph.n_nodes)
            return train_embeddings(graph, **kwargs)

        monkeypatch.setattr(pipeline, "train_embeddings", counted)
        split = extract_split_features(two_window_store, fast_config())
        assert split.second_test is not None
        assert len(fits) == 1


@pytest.fixture(scope="module")
def artifacts(store):
    """The CLI's calls: split features, train with CV, evaluate the test split."""
    config = fast_config()
    split = extract_split_features(store, config)
    model, cv_folds, cv_mean = train_with_cv(split.train.combined, config)
    return SimpleNamespace(
        config=config,
        split=split,
        model=model,
        cv_folds=cv_folds,
        cv_mean=cv_mean,
        test_report=evaluate_model(model, split.test.combined, SPLIT_TEST),
    )


class TestTraining:
    def test_fold_reports(self, artifacts):
        assert len(artifacts.cv_folds) == 3
        assert artifacts.cv_mean.f1 == pytest.approx(
            np.mean([fold.report.f1 for fold in artifacts.cv_folds])
        )
        names = artifacts.split.train.combined.feature_names
        for fold in artifacts.cv_folds:
            assert fold.features and set(fold.features) <= set(names)

    def test_learns_the_synthetic_classes(self, artifacts):
        assert artifacts.cv_mean.f1 > 0.8
        assert artifacts.test_report.f1 > 0.8
        assert artifacts.test_report.split == "test"

    def test_selection_mask_matches_model(self, artifacts):
        mask = artifacts.model.selection_mask
        assert mask.dtype == bool
        assert mask.shape == (artifacts.split.train.combined.width,)
        assert len(artifacts.model.feature_names) == int(mask.sum())

    def test_train_with_cv_applies_mask(self, store):
        config = fast_config(families=("profile",))
        window, _ = config.windows()
        users = balanced_users(store, config, window)
        tweets = read_window(store, window, users)
        features = extract_window_features(store, window, tweets, users, config)
        model, _, _ = train_with_cv(features.combined, config)
        assert model.medians.shape == (int(model.selection_mask.sum()),)


class TestTrainWorkers:
    """`train_with_cv` runs on every CPU it may use; no byte may depend on
    how many that is."""

    @pytest.mark.parametrize("kind", ["gbdt", "logistic"])
    def test_same_bytes_at_any_process_count(self, artifacts, kind, tmp_path, monkeypatch):
        config = fast_config(model_kind=kind)
        outputs = []
        for processes in (1, 2, 3):
            monkeypatch.setattr(pipeline, "cpu_count", lambda: processes)
            model, cv_folds, cv_mean = train_with_cv(artifacts.split.train.combined, config)
            save_model(tmp_path / "model.json", model)
            outputs.append((
                (tmp_path / "model.json").read_bytes(),
                [(f.to_dict(), f.report.roc_points, f.report.pr_points) for f in cv_folds],
                cv_mean.to_dict(),
            ))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestTrainPool:
    def test_workers_inherit_the_matrix_unpickled(self, artifacts, tmp_path, monkeypatch):
        matrix, config = artifacts.split.train.combined, artifacts.config

        def run(processes):
            monkeypatch.setattr(pipeline, "cpu_count", lambda: processes)
            model, cv_folds, cv_mean = train_with_cv(matrix, config)
            assert pipeline._TRAIN_DATA is None
            save_model(tmp_path / "model.json", model)
            return ((tmp_path / "model.json").read_bytes(),
                    [(f.to_dict(), f.report.roc_points, f.report.pr_points) for f in cv_folds],
                    cv_mean.to_dict())

        def unpicklable(self, protocol):
            raise TypeError("a FeatureMatrix was pickled")

        expected = run(1)
        monkeypatch.setattr(FeatureMatrix, "__reduce_ex__", unpicklable)
        with pytest.raises(TypeError, match="was pickled"):
            pickle.dumps(matrix)
        assert run(2) == expected


class TestLeakFreeCv:
    def test_no_fold_row_reaches_the_selection_it_is_scored_after(self, artifacts, monkeypatch):
        """Each selection and each fold score, with the users it sees, in
        the order they run (every task in this process)."""
        events = []
        select, score = suspension_model.select_features, suspension_model.evaluate

        def recorded_select(matrix, **kwargs):
            events.append(("select", set(matrix.user_ids)))
            return select(matrix, **kwargs)

        def recorded_score(model, matrix, split):
            events.append(("score", set(matrix.user_ids)))
            return score(model, matrix, split)

        monkeypatch.setattr(pipeline, "cpu_count", lambda: 1)
        monkeypatch.setattr(pipeline, "select_features", recorded_select)
        monkeypatch.setattr(suspension_model, "select_features", recorded_select)
        monkeypatch.setattr(suspension_model, "evaluate", recorded_score)
        matrix, config = artifacts.split.train.combined, artifacts.config
        model, _, _ = train_with_cv(matrix, config)

        everyone = set(matrix.user_ids)
        assert [kind for kind, _ in events] == ["select"] + ["select", "score"] * config.k_folds
        assert events[0][1] == everyone  # the final model's selection
        scored = [users for kind, users in events if kind == "score"]
        assert set().union(*scored) == everyone
        for (_, selected), (_, fold) in zip(events[1::2], events[2::2]):
            assert fold and not selected & fold
            assert selected | fold == everyone
        assert model.selection_mask.tobytes() == artifacts.model.selection_mask.tobytes()


class TestSplitContext:
    def test_reextracting_train_users_reproduces_train_matrix(self, store, artifacts):
        # The fitted context (IDF table, PCA basis, graph embeddings) is
        # reused as it is, so the train users extracted again from their
        # own window under it give the train matrix bit for bit.
        split, config = artifacts.split, artifacts.config
        window, users = config.windows()[0], split.train_users
        again = extract_window_features(
            store, window, read_window(store, window, users), users, config,
            context=split.train.context,
        )
        expected = split.train.combined
        assert again.combined.feature_names == expected.feature_names
        assert again.combined.user_ids == expected.user_ids
        assert again.combined.y.tobytes() == expected.y.tobytes()
        assert again.combined.X.tobytes() == expected.X.tobytes()


class TestClustering:
    def test_artifacts(self, store, tmp_path):
        config = fast_config()
        artifacts = run_clustering(store, config)
        assignment = artifacts.assignment
        assert assignment.n_clusters >= 1
        assert len(artifacts.texts) == len(assignment.item_ids) > 0
        # Leader clustering depends on post order: suspended users in id
        # order, each user's posts in timeline order.
        window, _ = config.windows()
        suspended = sorted(
            u for u, lab in store.labels().items()
            if lab.status == "suspended" and window.contains(lab.status_date)
        )
        assert assignment.item_ids == [
            t.tweet_id for u in suspended for t in store.user_timeline(u, window)
        ]
        jsonl = tmp_path / "clusters.jsonl"
        write_cluster_report(assignment, artifacts.texts, jsonl, tmp_path / "digest.txt",
                             sample_n=10)
        sizes = [json.loads(line)["size"] for line in jsonl.read_text().splitlines()]
        assert len(sizes) == assignment.n_clusters
        assert sizes == sorted(sizes, reverse=True)
        # the planted promo text repeats, so wallets must surface
        assert artifacts.wallet_hits
        assert any(hit["matches"]["crypto"] > 0 for hit in artifacts.keyword_hits)

    def test_posts_equal_the_read_window_selection(self, monkeypatch, tmp_path):
        # Ids whose UTF-16 order differs from their code-point order
        # (U+1F600 sorts after U+FF21 only by code point), a suspended
        # user whose status date lies past the window, and tweets either
        # side of the window.
        config = fast_config()
        window, _ = config.windows()
        start, day = window.start, 86_400
        users = ["Zed", "ab", "été", "Ａx", "\U0001f600", "late", "normal"]
        lines = []
        for i, user in enumerate(users):
            for j, offset in enumerate([-day, 5 * day, 2 * day, 2 * day, window.end - start]):
                lines.append(tweet_line(id=f"t{(7 * i + 3 * j) % 11}-{i}-{j}", user_id=user,
                                        created_at=start + offset + i, text=f"post {j} by {user}"))
        store = CorpusStore()
        store.ingest_tweets(lines)
        labels = tmp_path / "labels.csv"
        rows = [f"{u},suspended,2022-03-01" for u in users[:5]]
        rows += ["late,suspended,2022-04-20", "normal,normal,"]
        labels.write_text("user_id,status,status_date\n" + "\n".join(rows) + "\n",
                          encoding="utf-8")
        store.ingest_labels(labels)

        suspended = sorted(
            u for u, lab in store.labels().items()
            if lab.status == "suspended" and window.contains(lab.status_date)
        )
        tweets = read_window(store, window, suspended)
        expected = [(t.tweet_id, t.user_id, t.text) for u in suspended for t in tweets.get(u, ())]
        assert len(expected) == 5 * 3

        seen = []
        monkeypatch.setattr(pipeline, "extract_wallets", lambda posts: seen.extend(posts) or [])
        artifacts = run_clustering(store, config)
        assert seen == expected
        assert artifacts.assignment.item_ids == [tweet_id for tweet_id, _, _ in expected]
        assert artifacts.texts == [text for _, _, text in expected]


def dup_heavy_posts(rng, n, distinct):
    """n post ids and texts drawn from `distinct` texts, every text used."""
    pool = [f"post {k} " + " ".join(f"w{j}" for j in rng.integers(50, size=k % 9)) for k in
            range(distinct)]
    pick = np.concatenate([np.arange(distinct), rng.integers(distinct, size=n - distinct)])
    return [f"t{i}" for i in range(n)], [pool[k] for k in rng.permutation(pick)]


def reference_reduce(X, k):
    """Out-of-place PCA fit and projection: the mean, components and
    variance of the rows, and (X - mean) @ components.T."""
    mean = X.mean(axis=0)
    centered = X - mean
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / (len(X) - 1))
    order = np.argsort(eigvals)[::-1][:k]
    components = text_embedding._sign_convention(eigvecs[:, order].T)
    return mean, components, np.clip(eigvals[order], 0.0, None), (X - mean) @ components.T


def assert_same_bits(model, reduced, reference):
    mean, components, variance, projected = reference
    for got, want in ((model.mean, mean), (model.components, components),
                      (model.explained_variance, variance), (reduced, projected)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestReducePosts:
    """`_reduce_posts` encodes one run of posts at a time: a fit streams
    the runs into the PCA, then projects them again as a transform does.
    A one-run fit and every transform give the bits of an out-of-place
    fit and projection over every text's own row; a fit over several
    runs matches the out-of-place fit to rounding."""

    @pytest.fixture(params=["hashed", "precomputed"])
    def posts(self, request, monkeypatch):
        rng = np.random.default_rng(5)
        ids, texts = dup_heavy_posts(rng, 900, 250)
        if request.param == "hashed":
            # Blocks of 64 rows, so repeats are copied across many blocks.
            monkeypatch.setattr(text_embedding, "_BLOCK_TEXTS", 64)
            provider = HashedNgramEncoder(dim=32)
            # Each text hashed alone, repeats included.
            X = np.concatenate([provider.embed(["0"], [t]) for t in texts])
        else:
            stored = rng.standard_normal((900, 32)).astype(np.float32)
            order = rng.permutation(900)
            provider = PrecomputedEmbeddings(EmbeddingMatrix([ids[i] for i in order], stored))
            X = stored[np.argsort(order)].astype(np.float64)
        return provider, ids, texts, X

    def test_fit_and_transform_match_the_out_of_place_reference(self, posts):
        provider, ids, texts, X = posts
        config = PipelineConfig(pca_components=6)
        reduced, pca = pipeline._reduce_posts(provider, ids, texts, None, config)
        reference = reference_reduce(X, 6)
        assert_same_bits(pca, reduced, reference)
        again, same = pipeline._reduce_posts(provider, ids[:300], texts[:300], pca, config)
        assert same is pca
        assert again.tobytes() == reference[3][:300].tobytes()

    def test_blocked_default_dims_match_the_out_of_place_reference(self):
        # The default encoder and PCA widths over 3 runs of unequal
        # length.  Every run's product keeps the bits of one product over
        # all the rows; the fit merges the runs' scatter matrices, so it
        # matches the dense fit to rounding.
        n = 3 * text_embedding._BLOCK_ROWS + 2
        blocks = list(text_embedding.row_blocks(n))
        assert len(blocks) == 3 and len({b.stop - b.start for b in blocks}) == 2
        ids, texts = dup_heavy_posts(np.random.default_rng(8), n, n // 2)
        config = PipelineConfig()
        provider = HashedNgramEncoder(dim=config.encoder_dim)
        X = provider.embed(ids, texts)
        reduced, pca = pipeline._reduce_posts(provider, ids, texts, None, config)
        # (a) The rows are the out-of-place projection on the fitted basis.
        assert reduced.tobytes() == ((X - pca.mean) @ pca.components.T).tobytes()
        # (b) The basis is the dense fit's.
        mean, components, variance, _ = reference_reduce(X, config.pca_components)
        np.testing.assert_allclose(pca.mean, mean, rtol=0, atol=1e-14)
        np.testing.assert_allclose(pca.explained_variance, variance, rtol=1e-12)
        cosines = np.abs(np.einsum("ij,ij->i", pca.components, components))
        assert cosines.min() >= 1 - 1e-12
        # (c) A transform of the same posts gives the fit's rows.
        again, _ = pipeline._reduce_posts(provider, ids, texts, pca, config)
        assert again.tobytes() == reduced.tobytes()

    @pytest.mark.parametrize("fit", [True, False], ids=["fit", "transform-only"])
    def test_peak_memory_is_one_post_buffer(self, fit):
        # A transform holds one run of post vectors, the n x k output and
        # the encoder's own scratch (a few hash blocks of bucket rows),
        # however many runs there are; a fit holds the PCA's two d x d
        # matrices besides.
        rng = np.random.default_rng(6)
        ids, texts = dup_heavy_posts(rng, 20_000, 15_000)
        provider = HashedNgramEncoder(dim=256)
        config = PipelineConfig()
        pca = None if fit else pipeline._reduce_posts(
            provider, ids[:500], texts[:500], None, config)[1]
        tracemalloc.start()
        try:
            pipeline._reduce_posts(provider, ids, texts, pca, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = list(text_embedding.row_blocks(len(texts)))
        assert len(blocks) >= 3
        block = max(b.stop - b.start for b in blocks) * 256 * 8
        output = len(texts) * config.pca_components * 8
        scratch = 3 * text_embedding._BLOCK_TEXTS * 256 * 8
        pca_state = 2 * 256 * 256 * 8 if fit else 0
        assert peak < block + output + scratch + pca_state, (
            f"peak {peak / 1e6:.1f} MB, block {block / 1e6:.1f} MB, "
            f"output {output / 1e6:.1f} MB")


class TestGraphStage:
    @pytest.fixture(scope="class")
    def fitted(self, store, tmp_path_factory):
        """graph.csv and graph_embeddings.emb1 as the features stage writes them."""
        config = fast_config(families=("graph_embedding",))
        context = extract_split_features(store, config).train.context
        out = tmp_path_factory.mktemp("graph-stage")
        write_graph_csv(out / "graph.csv", context.graph)
        save_embeddings(out / "graph_embeddings.emb1", context.node_embeddings)
        return config, out / "graph.csv", out / "graph_embeddings.emb1"

    def test_artifacts(self, fitted):
        config, graph_path, emb_path = fitted
        artifacts = run_graph_stage(graph_path, emb_path, config)
        g = artifacts.graph
        train_graph, held_out = split_edges(
            g,
            fraction=GRAPH_HOLDOUT_FRACTION,
            seed=stage_seed(config.seed, "graph-split"),
        )
        assert artifacts.held_out == held_out
        assert train_graph.n_edges == g.n_edges - len(artifacts.held_out)
        assert artifacts.held_out
        assert load_embeddings(emb_path).vectors.shape[1] == 8
        assert 0.0 <= artifacts.ranking.auc <= 1.0
        assert 0.0 < artifacts.ranking.mrr <= 1.0

    @pytest.mark.parametrize("change", ["nodes", "relations", "dim"])
    def test_mismatched_embeddings_are_stale(self, fitted, tmp_path, change):
        config, graph_path, emb_path = fitted
        emb = load_embeddings(emb_path)
        if change == "nodes":
            emb = NodeEmbeddings(emb.node_ids[1:], emb.vectors[1:],
                                 emb.relation_ids, emb.relation_vectors)
        elif change == "relations":
            emb.relation_ids = [rel + "s" for rel in emb.relation_ids]
        else:
            config = fast_config(families=("graph_embedding",), graph_dim=4)
        stale = tmp_path / "graph_embeddings.emb1"
        save_embeddings(stale, emb)
        with pytest.raises(StaleArtifact):
            run_graph_stage(graph_path, stale, config)

    def test_missing_embeddings(self, fitted, tmp_path):
        config, graph_path, _ = fitted
        with pytest.raises(MissingArtifact, match="run features"):
            run_graph_stage(graph_path, tmp_path / "graph_embeddings.emb1", config)

    def test_held_out_relation_without_training_edges(self, tmp_path):
        # The only quote edge is held out, so no quote vector is trained.
        graph_path = tmp_path / "graph.csv"
        rows = [f"u{i},mention,u{i + 1},1" for i in range(4)] + ["u0,quote,u3,2"]
        graph_path.write_text("source,relation,destination,weight\n" + "\n".join(rows) + "\n")
        with pytest.raises(EmptyGraph, match="quote"):
            run_graph_stage(graph_path, tmp_path / "graph_embeddings.emb1", fast_config())

    def test_window_without_training_edges(self, window, tmp_path):
        # split_edges holds out at least one edge per relation, so a
        # one-edge window leaves nothing to train on.
        store = CorpusStore()
        store.ingest_tweets([tweet_line(id="t1", user_id="u1", mentions=["u2"])])
        store.ingest_snapshots([snapshot_line(user_id="u1"), snapshot_line(user_id="u2")])
        config = fast_config(families=("graph_embedding",))
        features = extract_window_features(
            store, window, read_window(store, window, ["u1", "u2"]), {"u1": 1, "u2": 0}, config
        )
        assert features.context.graph.n_edges == 1
        assert features.context.node_embeddings is None
        assert np.isnan(features.combined.X).all()
        graph_path = tmp_path / "graph.csv"
        write_graph_csv(graph_path, features.context.graph)
        with pytest.raises(EmptyGraph):
            run_graph_stage(graph_path, tmp_path / "graph_embeddings.emb1", config)
