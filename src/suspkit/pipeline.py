"""End-to-end orchestration: user selection, the window-1 train/test
split, per-family feature extraction for it and for window 2, training
with cross-validation, clustering and graph ranking.  The CLI stages
are thin wrappers over these calls.

A window's kept users are read a chunk at a time, and each feature
family is one call that returns the block of a chunk, one row per user
in one order.  Post vectors are plain rows: the posts are the users'
timelines one after the other, so a user's rows are one slice, found
by position rather than by post id.

All state fitted on training data (IDF table, PCA basis, graph and its
embeddings) is carried in an ExtractionContext and reused verbatim
for evaluation windows, so evaluating on the training window itself
reproduces the training features bit for bit.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, groupby, islice
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .activity_features import ACTIVITY_FEATURE_NAMES
from .activity_features import features_from_timeline as activity_features
from .content_clustering import ClusterAssignment, cluster_cosine, keyword_search
from .corpus import (
    CorpusStore,
    EmptyClass,
    TimeWindow,
    Tweet,
    parse_status_date,
    select_window_users,
    split_windows,
    undersample_balance,
)
from .errors import MissingArtifact, StaleArtifact, SuspkitError
from .graph_embedding import (
    RELATIONS,
    EmptyGraph,
    NodeEmbeddings,
    RankingEval,
    RelationGraph,
    build_graph,
    evaluate as evaluate_ranking,
    export_node_features,
    graph_feature_names,
    load_embeddings,
    read_graph_csv,
    split_edges,
    train_embeddings,
)
from .manifest import stage_seed
from .profile_features import PROFILE_FEATURE_NAMES, features_from_snapshots
from .suspension_model import (
    FAMILY_ORDER,
    MODEL_KIND_GBDT,
    CvFold,
    EvalReport,
    FeatureMatrix,
    TrainedModel,
    cv_mean,
    kfold_cv,
    select_features,
    stratified_folds,
    train,
)
from .textual_features import (
    TEXTUAL_FEATURE_NAMES,
    HashtagIdfTable,
    build_idf,
    features_from_timeline as textual_features,
    user_hashtag_counts,
)
from .text_embedding import (
    EmbeddingProvider,
    HashedNgramEncoder,
    PcaModel,
    PrecomputedEmbeddings,
    features_from_posts,
    pca_fit,
    pca_transform,
    post_embedding_feature_names,
    row_blocks,
)
from .wallets import WalletHit, extract_wallets

DEFAULT_WINDOW_START = "2022-02-23T00:00:00+00:00"

# The value types a config field takes, by the type of its default;
# a list of strings stands for a tuple, as in a JSON config.
_ACCEPTED = {
    int: (int,),
    float: (int, float),
    str: (str,),
    type(None): (str, type(None)),
    tuple: (list, tuple),
}


# `PipelineConfig.hyper` fixes these beside its fields.
LEARNING_RATE = 0.1
REG_LAMBDA = 1.0


@dataclass
class PipelineConfig:
    tweets: str = ""
    snapshots: str = ""
    labels: str = ""
    workdir: str = "work"
    embeddings_file: str | None = None
    toxicity_scores: str | None = None
    window_start: str = DEFAULT_WINDOW_START
    window_days: int = 21
    families: tuple[str, ...] = FAMILY_ORDER
    encoder_dim: int = 256
    pca_components: int = 20
    tau: float = 0.9
    graph_dim: int = 16
    graph_epochs: int = 20
    graph_batch: int = 256
    model_kind: str = MODEL_KIND_GBDT
    n_rounds: int = 150
    max_depth: int = 5
    k_folds: int = 5
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            accepted = _ACCEPTED[type(f.default)]
            if isinstance(value, bool) or not isinstance(value, accepted) or (
                isinstance(value, (list, tuple)) and not all(isinstance(v, str) for v in value)
            ):
                names = " or ".join(t.__name__ for t in accepted)
                raise ValueError(f"config {f.name} must be {names}, not {value!r}")
        self.families = tuple(self.families)
        unknown = set(self.families) - set(FAMILY_ORDER)
        if unknown:
            raise ValueError(f"unknown families: {sorted(unknown)}")
        if not self.families:
            raise ValueError("no families given")

    def window_start_epoch(self) -> int:
        epoch = parse_status_date(self.window_start)
        if epoch is None:
            raise ValueError("window_start must be a date")
        return epoch

    def windows(self) -> tuple[TimeWindow, TimeWindow]:
        return split_windows(self.window_start_epoch(), window_days=self.window_days)

    def hyper(self) -> dict:
        return {
            "n_rounds": self.n_rounds,
            "learning_rate": LEARNING_RATE,
            "max_depth": self.max_depth,
            "reg_lambda": REG_LAMBDA,
        }

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, not {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def make_provider(config: PipelineConfig) -> EmbeddingProvider:
    if config.embeddings_file:
        return PrecomputedEmbeddings.from_file(config.embeddings_file)
    return HashedNgramEncoder(dim=config.encoder_dim)


@dataclass
class ExtractionContext:
    """State fitted on the training window and reused elsewhere.

    `graph` is the full training-window graph; `node_embeddings` are
    fitted on it minus its held-out edges, and stay None when no
    training edge is left.
    """

    provider: EmbeddingProvider | None = None
    idf: HashtagIdfTable | None = None
    pca: PcaModel | None = None
    graph: RelationGraph | None = None
    node_embeddings: NodeEmbeddings | None = None


@dataclass
class WindowFeatures:
    """One window's feature matrix: the columns of every family in
    FAMILY_ORDER, one row per kept user.  `families` names the columns
    of each family."""

    families: dict[str, tuple[str, ...]]
    combined: FeatureMatrix
    dropped_users: list[str]
    context: ExtractionContext


def _embed(provider: EmbeddingProvider, posts: Iterable[tuple[str, str]]) -> np.ndarray:
    """The vectors of the (id, text) `posts`."""
    ids, texts = [], []
    for post_id, text in posts:
        ids.append(post_id)
        texts.append(text)
    return provider.embed(ids, texts)


def _post_vectors(
    provider: EmbeddingProvider, posts: Iterator[tuple[str, str]], runs: list[slice]
) -> Iterator[np.ndarray]:
    """The vectors of the (id, text) `posts`, one run of `runs` at a
    time; nothing of a run is held here while its vectors are used."""
    for rows in runs:
        yield _embed(provider, islice(posts, rows.stop - rows.start))


def _reduced_runs(
    provider: EmbeddingProvider,
    read_posts: Callable[[], Iterator[tuple[str, str]]],
    n: int,
    pca: PcaModel | None,
    k: int,
) -> tuple[PcaModel, Iterator[np.ndarray]]:
    """(PCA, the reduced rows of n posts, one `row_blocks(n)` run at a
    time).  Each call of `read_posts` reads the same (id, text) posts in
    the same order.  With `pca` None, a PCA of k components is fitted
    first: it reads every run once, and the transform encodes each run
    again.  A one-run fit encodes its posts once: `pca_fit` centered the
    run in place on what is the PCA mean, which is the transform's own
    subtraction, so only the projection is left."""
    runs = list(row_blocks(n))
    if pca is None:
        vectors = _post_vectors(provider, read_posts(), runs)
        if len(runs) == 1:
            (X,) = vectors
            pca = pca_fit([X], k)
            return pca, iter([X @ pca.components.T])
        pca = pca_fit(vectors, k)
    return pca, map(partial(pca_transform, pca), _post_vectors(provider, read_posts(), runs))


def _reduce_posts(
    provider: EmbeddingProvider,
    ids: list[str],
    texts: list[str],
    pca: PcaModel | None,
    config: PipelineConfig,
) -> tuple[np.ndarray, PcaModel]:
    """Post vectors reduced by `pca`, or by a PCA fitted on them when
    `pca` is None: (reduced rows in post order, PCA).  No more than one
    run's vectors and the n x k output are held (`_reduced_runs`)."""
    k = min(config.pca_components, provider.dim, len(ids))
    pca, runs = _reduced_runs(provider, lambda: zip(ids, texts), len(ids), pca, k)
    reduced = np.empty((len(ids), pca.k))
    start = 0
    for run in runs:
        reduced[start : start + len(run)] = run
        start += len(run)
    return reduced, pca


class _Rows:
    """The rows of a stream of blocks, taken in order a count at a time;
    between takes it holds only the blocks the last take read into."""

    def __init__(self, blocks: Iterator[np.ndarray], width: int):
        self._blocks = blocks
        self._rest = np.empty((0, width))

    def take(self, m: int) -> np.ndarray:
        parts = [self._rest]
        held = len(self._rest)
        while held < m:
            parts.append(next(self._blocks))
            held += len(parts[-1])
        rows = np.concatenate(parts) if len(parts) > 1 else parts[0]
        self._rest = rows[m:]
        return rows[:m]


def _timelines(store: CorpusStore, window: TimeWindow, users: list[str]) -> list[list[Tweet]]:
    """The in-window timeline of each of `users`, from one read; a user
    without an in-window tweet gets an empty one."""
    tweets = store.tweets_in_window(window, users)
    own = {user: list(timeline) for user, timeline in groupby(tweets, attrgetter("user_id"))}
    return [own.get(user, []) for user in users]


GRAPH_LR = 2.0  # the step size of the graph fit
GRAPH_NEGATIVES = 5  # corrupted destinations per training edge

# A split's users are read, and their rows computed, this many at a
# time, so no more than one chunk's tweets are held as objects.
CHUNK_USERS = 128


def extract_window_features(
    store: CorpusStore,
    window: TimeWindow,
    users: dict[str, int],
    config: PipelineConfig,
    context: ExtractionContext | None = None,
) -> WindowFeatures:
    """The feature matrix of `config.families` for one window's labeled users.

    Users without any in-window profile snapshot are dropped.  Without a
    context, the IDF table, PCA basis, graph and node embeddings are
    fitted here; pass the training window's context when extracting an
    evaluation window and they are read from it as they are, whatever
    the window.  The fits read only the columns they use: the kept
    users' hashtags, and their post texts in `row_blocks` runs over all
    their posts.  Then the kept users are read CHUNK_USERS at a time,
    and every family computes the chunk's rows; the post vectors are
    the same runs, encoded again unless the fit had one run, and a run
    may span chunks.  The graph holds the interactions of every user of
    the window (`CorpusStore.interactions`), not only of `users`.  The
    node embeddings are the run's one graph fit: on the window graph
    minus the edges the graph stage holds out for ranking.  A user
    outside the context's graph, or every user when no training edge is
    left, gets an all-NaN graph row, which the model imputes with its
    training medians.
    """
    families = config.families
    fit = context is None
    if fit:
        context = ExtractionContext()

    snaps_map = store.snapshots(sorted(users), window)
    kept = [user for user, snaps in snaps_map.items() if snaps]
    dropped = [user for user, snaps in snaps_map.items() if not snaps]

    # The column names of each family, visited in FAMILY_ORDER.
    names: dict[str, tuple[str, ...]] = {}
    if "profile" in families:
        names["profile"] = PROFILE_FEATURE_NAMES
    if "activity" in families:
        names["activity"] = ACTIVITY_FEATURE_NAMES
    if "textual" in families:
        if fit:
            counts = {user: {} for user in kept}
            for user, rows in groupby(store.post_hashtags(window, kept), itemgetter(0)):
                counts[user] = user_hashtag_counts(hashtags for _, hashtags in rows)
            context.idf = build_idf(counts)
        names["textual"] = TEXTUAL_FEATURE_NAMES

    if "post_embedding" in families:
        n = store.post_count(window, kept)
        if fit:
            if n < 2:
                raise SuspkitError("too few posts to fit the embedding reduction")
            context.provider = make_provider(config)
        context.pca, runs = _reduced_runs(
            context.provider, partial(store.post_texts, window, kept), n, context.pca,
            min(config.pca_components, context.provider.dim, n),
        )
        post_rows = _Rows(runs, context.pca.k)
        names["post_embedding"] = post_embedding_feature_names(context.pca.k)

    if "graph_embedding" in families:
        if fit:
            context.graph = build_graph(store.interactions(window), relations=RELATIONS)
            train_graph = _graph_split(context.graph, config)[0]
            if train_graph.n_edges:
                context.node_embeddings = train_embeddings(
                    train_graph,
                    dim=config.graph_dim,
                    epochs=config.graph_epochs,
                    lr=GRAPH_LR,
                    negatives_per_edge=GRAPH_NEGATIVES,
                    batch_size=config.graph_batch,
                    seed=stage_seed(config.seed, "graph"),
                )
        if context.node_embeddings is not None:
            graph_rows = export_node_features(context.node_embeddings, kept)
        else:
            graph_rows = np.full((len(kept), config.graph_dim), np.nan)
        names["graph_embedding"] = graph_feature_names(config.graph_dim)

    X = np.empty((len(kept), sum(map(len, names.values()))))
    for start in range(0, len(kept), CHUNK_USERS):
        chunk = kept[start : start + CHUNK_USERS]
        timelines = _timelines(store, window, chunk)
        blocks = []
        if "profile" in names:
            blocks.append(features_from_snapshots([snaps_map[u] for u in chunk], window))
        if "activity" in names:
            blocks.append(activity_features(timelines))
        if "textual" in names:
            blocks.append(textual_features(timelines, context.idf))
        if "post_embedding" in names:
            reduced = post_rows.take(sum(map(len, timelines)))
            blocks.append(features_from_posts(reduced, timelines))
        if "graph_embedding" in names:
            blocks.append(graph_rows[start : start + len(chunk)])
        X[start : start + len(chunk)] = np.hstack(blocks)

    return WindowFeatures(
        families=names,
        combined=FeatureMatrix(
            feature_names=tuple(chain.from_iterable(names.values())),
            user_ids=kept,
            X=X,
            y=np.asarray([users[u] for u in kept], dtype=np.int64),
        ),
        dropped_users=dropped,
        context=context,
    )


def balanced_users(
    store: CorpusStore, config: PipelineConfig, window: TimeWindow
) -> dict[str, int]:
    """The window's labeled active users, undersampled to balanced classes."""
    users = select_window_users(window, store.labels(), store.active_users(window))
    seed = stage_seed(config.seed, f"balance:{window.start}:{window.end}")
    return undersample_balance(users, seed)


def split_users(
    users: dict[str, int], fraction: float, seed: int
) -> tuple[dict[str, int], dict[str, int]]:
    """Stratified user-level train/test split."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    test: dict[str, int] = {}
    train_part: dict[str, int] = {}
    for label in (0, 1):
        members = sorted(u for u, v in users.items() if v == label)
        rng.shuffle(members)
        n_test = int(round(fraction * len(members)))
        for u in members[:n_test]:
            test[u] = label
        for u in members[n_test:]:
            train_part[u] = label
    return train_part, test


@dataclass
class SplitFeatures:
    """Users and features of the three evaluation splits: window-1
    train and test, and the window-2 second test."""

    train_users: dict[str, int]
    test_users: dict[str, int]
    second_users: dict[str, int]
    train: WindowFeatures
    test: WindowFeatures | None
    second_test: WindowFeatures | None


TEST_FRACTION = 0.25  # of each class of balanced window-1 users


def extract_split_features(store: CorpusStore, config: PipelineConfig) -> SplitFeatures:
    """Balance and split the window-1 users, then extract train, test
    and (when window 2 has users of both classes) second-test features,
    the last two under the context fitted on the train split.  Each
    extraction reads the tweets of its own users only; the graph has
    its own read of the window-1 interactions of every user."""
    windows = config.windows()
    users = balanced_users(store, config, windows[0])
    train_users, test_users = split_users(
        users, TEST_FRACTION, stage_seed(config.seed, "split")
    )
    train = extract_window_features(store, windows[0], train_users, config)
    test = None
    if test_users:
        test = extract_window_features(
            store, windows[0], test_users, config, context=train.context
        )
    try:
        second_users = balanced_users(store, config, windows[1])
    except EmptyClass:
        second_users = {}
    second_test = None
    if second_users:
        second_test = extract_window_features(
            store, windows[1], second_users, config, context=train.context
        )
    return SplitFeatures(
        train_users=train_users,
        test_users=test_users,
        second_users=second_users,
        train=train,
        test=test,
        second_test=second_test,
    )


def cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


# (matrix, folds, config) of the running `train_with_cv`: set before its
# pool forks, so that every worker inherits it and no matrix is pickled.
_TRAIN_DATA: tuple[FeatureMatrix, np.ndarray, PipelineConfig] | None = None


def train_with_cv(
    matrix: FeatureMatrix, config: PipelineConfig
) -> tuple[TrainedModel, list[CvFold], EvalReport]:
    """The final model and K-fold cross-validation: (model, folds, CV mean).

    K + 1 independent tasks (`_train_task`) run on one forked process
    per CPU, at most one per task, or in this process on one CPU.  No
    result depends on the number of processes."""
    global _TRAIN_DATA
    folds = stratified_folds(matrix.y, k=config.k_folds, seed=stage_seed(config.seed, "folds"))
    tasks = range(config.k_folds + 1)
    processes = min(cpu_count(), len(tasks))
    _TRAIN_DATA = (matrix, folds, config)
    try:
        if processes == 1:
            model, *cv_folds = map(_train_task, tasks)
        else:
            # Imported here: only `train` forks, and the import costs every
            # other stage process about 12 ms and 1 MB of peak RSS.
            import multiprocessing

            # Workers ignore Ctrl-C, which reaches the whole process group:
            # this process handles it, and leaving the block terminates them.
            with multiprocessing.get_context("fork").Pool(
                processes, signal.signal, (signal.SIGINT, signal.SIG_IGN)
            ) as pool:
                model, *cv_folds = pool.map(_train_task, tasks, chunksize=1)
    finally:
        _TRAIN_DATA = None
    return model, cv_folds, cv_mean([fold.report for fold in cv_folds])


SELECT_THRESHOLD = 0.002  # the least importance share of a selected column


def _train_task(task: int) -> TrainedModel | CvFold:
    """Task 0 selects features on every row and fits the final model on
    them; task i scores fold i - 1 (`kfold_cv`)."""
    matrix, folds, config = _TRAIN_DATA
    settings = {"kind": config.model_kind, "hyper": config.hyper()}
    if task == 0:
        mask = select_features(matrix, threshold=SELECT_THRESHOLD, **settings)
        return train(matrix, mask=mask, **settings)
    return kfold_cv(matrix, folds, task - 1, threshold=SELECT_THRESHOLD, **settings)


@dataclass
class ClusterArtifacts:
    assignment: ClusterAssignment
    keyword_hits: list[dict]
    wallet_hits: list[WalletHit]
    texts: list[str]


KEYWORDS = ("crypto", "nft", "donation")  # searched for in every cluster's texts


def run_clustering(store: CorpusStore, config: PipelineConfig) -> ClusterArtifacts:
    """Cluster the window-1 suspended-account posts and scan them for
    keywords and wallet addresses."""
    window, _ = config.windows()
    # With no active users, the window's selection is its positives alone.
    suspended = select_window_users(window, store.labels(), ())
    # (tweet_id, user_id, text) by user id, then by time within a user.
    posts = [post for post in store.window_posts(window) if post[1] in suspended]

    post_ids = [post[0] for post in posts]
    texts = [post[2] for post in posts]
    if len(posts) >= 2:
        reduced, _ = _reduce_posts(make_provider(config), post_ids, texts, None, config)
    else:
        reduced = np.zeros((len(posts), 1))
    assignment = cluster_cosine(reduced, config.tau, item_ids=post_ids)
    hits = keyword_search(assignment, texts, KEYWORDS)
    wallets = extract_wallets(posts)
    return ClusterArtifacts(
        assignment=assignment,
        keyword_hits=hits,
        wallet_hits=wallets,
        texts=texts,
    )


@dataclass
class GraphArtifacts:
    graph: RelationGraph
    held_out: list[tuple[str, str, str]]
    ranking: RankingEval


GRAPH_HOLDOUT_FRACTION = 0.05  # of the window-1 graph's edges, held out for ranking


def _graph_split(
    graph: RelationGraph, config: PipelineConfig
) -> tuple[RelationGraph, list[tuple[str, str, str]]]:
    """The training graph and held-out edges of the one graph fit."""
    return split_edges(
        graph,
        fraction=GRAPH_HOLDOUT_FRACTION,
        seed=stage_seed(config.seed, "graph-split"),
    )


def run_graph_stage(
    graph_path: str | Path, embeddings_path: str | Path, config: PipelineConfig
) -> GraphArtifacts:
    """Rank the held-out edges of the window-1 graph with its embeddings.

    Both files come from the features stage: the full graph and the
    embeddings it fitted on that graph minus the held-out edges, which
    are recomputed here with the same split.  Embeddings that do not
    match the graph (other nodes or relations, or another dimension
    than `config.graph_dim`) are a stale artifact.
    """
    graph = read_graph_csv(graph_path)
    train_graph, held_out = _graph_split(graph, config)
    if not train_graph.n_edges:
        raise EmptyGraph("the window-1 graph has no edges left after the hold-out split")
    untrained = sorted({rel for _, rel, _ in held_out} - set(train_graph.relations))
    if untrained:
        raise EmptyGraph(f"held-out relations without a training edge: {untrained}")
    if not Path(embeddings_path).exists():
        raise MissingArtifact(f"{embeddings_path} not found; run features first")
    emb = load_embeddings(embeddings_path)
    for what, found, expected in (
        ("node ids", emb.node_ids, graph.nodes),
        ("relation ids", emb.relation_ids, train_graph.relations),
        ("dimension", emb.dim, config.graph_dim),
    ):
        if found != expected:
            raise StaleArtifact(
                f"{embeddings_path} does not match {graph_path} and the config"
                f" ({what}); rerun features"
            )
    ranking = evaluate_ranking(
        emb, held_out, negatives_per_positive=100, seed=stage_seed(config.seed, "graph-neg")
    )
    return GraphArtifacts(graph=graph, held_out=held_out, ranking=ranking)
