"""User interaction graphs and trainable node embeddings.

Edges come from retweets, quotes, and mentions inside a time window.
Embeddings are trained with a diagonal bilinear scoring function
(score = sum_i s_i * w_ri * d_i) against uniformly corrupted
destinations under a sampled softmax cross-entropy loss.  Training is
bit-deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import KIND_QUOTE, KIND_RETWEET
from .errors import SchemaMismatch, SuspkitError
from .vectors import EmbeddingMatrix, read_emb1, write_emb1

REL_RETWEET = "retweet"
REL_MENTION = "mention"
REL_QUOTE = "quote"
RELATIONS = (REL_RETWEET, REL_MENTION, REL_QUOTE)

_REL_ID_PREFIX = "rel:"


class EmptyGraph(SuspkitError):
    pass


class DivergedFit(SuspkitError):
    """The graph fit's loss stopped being finite."""


@dataclass
class RelationGraph:
    """Directed multigraph; parallel edges are folded into weights."""

    nodes: list[str]
    edges: dict[tuple[str, str, str], int]

    def __post_init__(self):
        node_set = set(self.nodes)
        for (src, _rel, dst), weight in self.edges.items():
            if src not in node_set or dst not in node_set:
                raise ValueError(f"edge endpoint not in nodes: {(src, dst)}")
            if weight < 1:
                raise ValueError("edge weights must be >= 1")

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str, str]]) -> "RelationGraph":
        weights: dict[tuple[str, str, str], int] = {}
        nodes: set[str] = set()
        for src, rel, dst in edges:
            weights[(src, rel, dst)] = weights.get((src, rel, dst), 0) + 1
            nodes.add(src)
            nodes.add(dst)
        return cls(nodes=sorted(nodes), edges=weights)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(self.edges.values())

    @property
    def relations(self) -> list[str]:
        return sorted({rel for _, rel, _ in self.edges})


def build_graph(
    interactions: Iterable[tuple[str, str, str | None, tuple[str, ...]]],
    *,
    relations: Sequence[str],
) -> RelationGraph:
    """One edge occurrence per interaction in the (user_id, kind,
    referenced_user_id, mentions) rows of `CorpusStore.interactions`:
    a retweet or quote of a known user, and each mention."""
    selected = set(relations)
    unknown = selected - set(RELATIONS)
    if unknown:
        raise ValueError(f"unknown relations: {sorted(unknown)}")

    def edge_stream():
        for user, kind, referenced_user, mentions in interactions:
            if kind == KIND_RETWEET and REL_RETWEET in selected and referenced_user:
                yield user, REL_RETWEET, referenced_user
            if kind == KIND_QUOTE and REL_QUOTE in selected and referenced_user:
                yield user, REL_QUOTE, referenced_user
            if REL_MENTION in selected:
                for mentioned in mentions:
                    yield user, REL_MENTION, mentioned

    return RelationGraph.from_edges(edge_stream())


def split_edges(
    graph: RelationGraph, *, fraction: float, seed: int
) -> tuple[RelationGraph, list[tuple[str, str, str]]]:
    """Hold out a uniform fraction of distinct edges per relation.

    Held-out edges are removed from training entirely (all weight);
    the training graph keeps the full node set so held-out endpoints
    stay embeddable.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    held_out: list[tuple[str, str, str]] = []
    for rel in graph.relations:
        keys = sorted(key for key in graph.edges if key[1] == rel)
        k = min(len(keys), max(1, round(fraction * len(keys))))
        chosen = rng.choice(len(keys), size=k, replace=False)
        held_out.extend(keys[i] for i in np.sort(chosen))
    held = set(held_out)
    train_edges = {k: w for k, w in graph.edges.items() if k not in held}
    return RelationGraph(nodes=list(graph.nodes), edges=train_edges), held_out


@dataclass
class NodeEmbeddings:
    node_ids: list[str]
    vectors: np.ndarray  # (n_nodes, dim)
    relation_ids: list[str]
    relation_vectors: np.ndarray  # (n_relations, dim)
    train_loss: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def node_index(self) -> dict[str, int]:
        return {node: i for i, node in enumerate(self.node_ids)}

    def relation_index(self) -> dict[str, int]:
        return {rel: i for i, rel in enumerate(self.relation_ids)}


def _edge_arrays(
    graph: RelationGraph, node_index: dict[str, int], rel_index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    src, rel, dst = [], [], []
    for (s, r, d), weight in sorted(graph.edges.items()):
        src.extend([node_index[s]] * weight)
        rel.extend([rel_index[r]] * weight)
        dst.extend([node_index[d]] * weight)
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(rel, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
    )


def _flat_index(rows: np.ndarray, dim: int) -> np.ndarray:
    return (rows[:, None] * dim + np.arange(dim)).ravel()


def _batch_update(
    E: np.ndarray,
    W: np.ndarray,
    src: np.ndarray,
    rel: np.ndarray,
    dst: np.ndarray,
    neg: np.ndarray,
    lr: float,
) -> float:
    """One SGD step on a batch; returns the mean batch loss."""
    dim = E.shape[1]
    S, Wr, D = E[src], W[rel], E[dst]
    Dn = E[neg]  # (B, K, dim)
    left = S * Wr
    pos_scores = np.sum(left * D, axis=1)
    neg_scores = np.einsum("bd,bkd->bk", left, Dn)

    logits = np.concatenate([pos_scores[:, None], neg_scores], axis=1)
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    loss = float(np.mean(-np.log(probs[:, 0] + 1e-300)))

    g0 = probs[:, 0] - 1.0  # (B,)
    pn = probs[:, 1:]  # (B, K)
    # Shared inner term: gradient of the scores wrt the left factor.
    # Mean-gradient step: rows hit many times per batch accumulate
    # their contributions, so a per-example step would blow up on
    # dense graphs.
    M = g0[:, None] * D + np.einsum("bk,bkd->bd", pn, Dn)
    scale = lr / src.shape[0]
    # One scatter per table on its flat view (the tables are contiguous,
    # so reshape(-1) is a view): numpy's indexed fast loop handles 1-D
    # ufunc.at only.  Each lane still receives its additions in row
    # order src, dst, neg, one at a time onto the table's own value.
    rows = np.concatenate([src, dst, neg.ravel()])
    upd = np.concatenate(
        [Wr * M, g0[:, None] * left, (pn[:, :, None] * left[:, None, :]).reshape(-1, dim)]
    )
    np.add.at(E.reshape(-1), _flat_index(rows, dim), (-scale * upd).ravel())
    np.add.at(W.reshape(-1), _flat_index(rel, dim), (-scale * (S * M)).ravel())
    return loss


def train_embeddings(
    graph: RelationGraph,
    *,
    dim: int,
    epochs: int,
    lr: float,
    negatives_per_edge: int,
    batch_size: int,
    seed: int,
) -> NodeEmbeddings:
    """Minibatch SGD fit of node and relation vectors.  The schedule
    has no defaults here: the pipeline's lives in `PipelineConfig`.
    Raises DivergedFit at the first epoch whose mean loss is not finite."""
    if graph.n_edges == 0:
        raise EmptyGraph("cannot train on a graph with no edges")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    node_index = {node: i for i, node in enumerate(graph.nodes)}
    relations = graph.relations
    rel_index = {rel: i for i, rel in enumerate(relations)}
    src, rel, dst = _edge_arrays(graph, node_index, rel_index)

    rng = np.random.default_rng(seed)
    E = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(graph.n_nodes, dim))
    W = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(len(relations), dim))

    n = src.shape[0]
    losses: list[float] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        neg = rng.integers(0, graph.n_nodes, size=(n, negatives_per_edge))[order]
        s, r, d = src[order], rel[order], dst[order]
        epoch_loss = [
            _batch_update(
                E, W, s[b : b + batch_size], r[b : b + batch_size],
                d[b : b + batch_size], neg[b : b + batch_size], lr,
            )
            for b in range(0, n, batch_size)
        ]
        losses.append(float(np.mean(epoch_loss)))
        if not np.isfinite(losses[-1]):
            raise DivergedFit(
                f"graph embedding loss is {losses[-1]} at epoch {epoch} of {epochs};"
                " the fit diverged (lower lr or epochs)"
            )

    return NodeEmbeddings(
        node_ids=list(graph.nodes),
        vectors=E,
        relation_ids=list(relations),
        relation_vectors=W,
        train_loss=losses,
    )


def ranking_metrics(pos_scores: np.ndarray, neg_scores: np.ndarray) -> tuple[float, float]:
    """MRR and AUC from per-positive score rows.

    Rank 1 is best; ties take the mean rank.  AUC counts tied pairs
    as half a win.
    """
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if pos_scores.ndim != 1 or neg_scores.ndim != 2:
        raise ValueError("expected pos (B,) and neg (B, N)")
    if pos_scores.shape[0] != neg_scores.shape[0]:
        raise ValueError("pos and neg row counts differ")
    if not (np.isfinite(pos_scores).all() and np.isfinite(neg_scores).all()):
        # NaN compares false both ways, so it would rank every positive first.
        raise ValueError("ranking scores must be finite")
    above = (neg_scores > pos_scores[:, None]).sum(axis=1)
    tied = (neg_scores == pos_scores[:, None]).sum(axis=1)
    ranks = 1.0 + above + tied / 2.0
    mrr = float(np.mean(1.0 / ranks))
    wins = (pos_scores[:, None] > neg_scores).sum() + 0.5 * tied.sum()
    auc = float(wins / neg_scores.size)
    return mrr, auc


@dataclass
class RankingEval:
    mrr: float
    auc: float
    negatives_per_positive: int

    def __post_init__(self):
        if not 0.0 < self.mrr <= 1.0:
            raise ValueError(f"mrr out of (0, 1]: {self.mrr}")
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc out of [0, 1]: {self.auc}")


def evaluate(
    emb: NodeEmbeddings,
    held_out_edges: Sequence[tuple[str, str, str]],
    *,
    negatives_per_positive: int,
    seed: int,
) -> RankingEval:
    """Rank each held-out edge against uniformly corrupted destinations."""
    if not held_out_edges:
        raise ValueError("no held-out edges to evaluate")
    node_index = emb.node_index()
    rel_index = emb.relation_index()
    rng = np.random.default_rng(seed)
    src = np.asarray([node_index[s] for s, _, _ in held_out_edges])
    rel = np.asarray([rel_index[r] for _, r, _ in held_out_edges])
    dst = np.asarray([node_index[d] for _, _, d in held_out_edges])
    neg = rng.integers(0, len(emb.node_ids), size=(len(held_out_edges), negatives_per_positive))

    left = emb.vectors[src] * emb.relation_vectors[rel]
    pos_scores = np.sum(left * emb.vectors[dst], axis=1)
    neg_scores = np.einsum("bd,bkd->bk", left, emb.vectors[neg])
    mrr, auc = ranking_metrics(pos_scores, neg_scores)
    return RankingEval(mrr=mrr, auc=auc, negatives_per_positive=negatives_per_positive)


def export_node_features(emb: NodeEmbeddings, users: Sequence[str]) -> np.ndarray:
    """One row per requested user; absent users get an all-NaN row."""
    index = emb.node_index()
    out = np.full((len(users), emb.dim), np.nan)
    for i, user in enumerate(users):
        row = index.get(user)
        if row is not None:
            out[i] = emb.vectors[row]
    return out


def graph_feature_names(dim: int) -> tuple[str, ...]:
    return tuple(f"graph_vec_{i:03d}" for i in range(dim))


def write_graph_csv(path: str | Path, graph: RelationGraph) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "relation", "destination", "weight"])
        for (src, rel, dst), weight in sorted(graph.edges.items()):
            writer.writerow([src, rel, dst, weight])


def read_graph_csv(path: str | Path) -> RelationGraph:
    edges: dict[tuple[str, str, str], int] = {}
    nodes: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        # A missing column, or a row too short for the header, is a
        # damaged input, not an internal error.
        try:
            for row in csv.DictReader(fh):
                key = (row["source"], row["relation"], row["destination"])
                edges[key] = edges.get(key, 0) + int(row["weight"])
                nodes.update((key[0], key[2]))
        except (KeyError, TypeError) as exc:
            raise SchemaMismatch(
                f"{path} is not a graph.csv the features stage writes: {exc!r}"
            ) from None
    return RelationGraph(nodes=sorted(nodes), edges=edges)


def save_embeddings(path: str | Path, emb: NodeEmbeddings) -> None:
    """Nodes then relations in one EMB1 file; relation rows carry a
    reserved id prefix."""
    ids = list(emb.node_ids) + [_REL_ID_PREFIX + rel for rel in emb.relation_ids]
    vectors = np.concatenate([emb.vectors, emb.relation_vectors], axis=0)
    write_emb1(path, EmbeddingMatrix(item_ids=ids, vectors=vectors))


def load_embeddings(path: str | Path) -> NodeEmbeddings:
    matrix = read_emb1(path)
    node_ids, rel_ids, node_rows, rel_rows = [], [], [], []
    for i, item in enumerate(matrix.item_ids):
        if item.startswith(_REL_ID_PREFIX):
            rel_ids.append(item[len(_REL_ID_PREFIX) :])
            rel_rows.append(i)
        else:
            node_ids.append(item)
            node_rows.append(i)
    return NodeEmbeddings(
        node_ids=node_ids,
        vectors=matrix.vectors[node_rows].astype(np.float64),
        relation_ids=rel_ids,
        relation_vectors=matrix.vectors[rel_rows].astype(np.float64),
    )
