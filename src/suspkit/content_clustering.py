"""Greedy cosine clustering of post vectors plus cluster reporting.

Single pass in input order: each item joins the existing leader of
maximal cosine similarity when that similarity clears the threshold
(ties broken by earliest leader), otherwise it founds a new cluster.
Items are screened in blocks, in float32: one GEMM per block and tile
of the leaders that exist when the block starts, and the block's own
Gram matrix for the leaders it founds.  Only an item whose best screened
similarity lies within the float32 rounding margin of the threshold or
of a rival is recomputed with the exact float64 per-item product
against every leader, so labels and leaders are identical to a naive
pairwise loop.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import MalformedRecord


@dataclass
class ClusterAssignment:
    item_ids: list[str]
    labels: np.ndarray  # (n,) cluster index per item
    leader_rows: list[int]  # item row founding each cluster

    def __post_init__(self):
        if len(self.item_ids) != self.labels.shape[0]:
            raise ValueError("labels and item_ids differ in length")

    @property
    def n_clusters(self) -> int:
        return len(self.leader_rows)

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_clusters).astype(np.int64)


def _normalized_rows(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return X / safe


# Items per block and leaders per GEMM tile: a tile of similarities is
# _BLOCK x _TILE float32s, 512 KB, and stays in cache while it is reduced.
_BLOCK = 128
_TILE = 1024
# The screen multiplies float32 copies of the unit rows; float32 rounds
# to within a relative _U32.  Rounding the two inputs moves each product
# a_i*b_i by at most about 2*_U32*|a_i*b_i|, and a dot product of length
# d adds at most d*_U32*sum|a_i*b_i| in any order of summation, with or
# without FMA (Higham, Accuracy and Stability of Numerical Algorithms,
# sec. 3.1); gradual underflow adds at most 2**-149 per term.  For unit
# rows sum|a_i*b_i| <= 1, so a screened similarity is within (d+2)*_U32
# of the exact one, and the float64 GEMV that defines the result is
# within d*2**-53 of it.  A screened similarity and the GEMV's thus
# differ by at most about (d+2)*_U32, and a gap between two screened
# similarities and the GEMV's gap by twice that.  eps = 8*(d+2)*_U32 is
# 4x the latter: 1.05e-5 for d = 20.  A decision whose margin to tau and
# to every rival exceeds eps is therefore the GEMV's; the rest are
# recomputed with the GEMV.  Screened similarities are widened to
# float64, exactly, before any comparison with a threshold.
_U32 = 2.0 ** -24


def _best_leaders(block: np.ndarray, leaders: np.ndarray,
                  floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per block row: the highest GEMM similarity to any leader, that
    leader's index (earliest on ties) and the second highest, for rows
    whose highest reaches floor; -inf, -1, -inf for the others."""
    b = block.shape[0]
    top = np.full(b, -np.inf)
    top_at = np.full(b, -1, dtype=np.int64)
    runner_up = np.full(b, -np.inf)
    for start in range(0, leaders.shape[0], _TILE):
        sims = block @ leaders[start:start + _TILE].T
        row_max = sims.max(axis=1).astype(np.float64)
        rows = np.flatnonzero(row_max >= floor)
        if not rows.size:
            continue
        hit = sims[rows]
        at = hit.argmax(axis=1)
        best = row_max[rows]
        hit[np.arange(rows.size), at] = -np.inf
        second = hit.max(axis=1)
        prev_top = top[rows]
        wins = best > prev_top
        runner_up[rows] = np.where(wins, np.maximum(prev_top, second),
                                   np.maximum(runner_up[rows], best))
        top[rows] = np.where(wins, best, prev_top)
        top_at[rows] = np.where(wins, at + start, top_at[rows])
    return top, top_at, runner_up


def _gemv_best(leaders: np.ndarray, row: np.ndarray) -> tuple[int, float]:
    """The first leader of highest similarity to row, and that
    similarity, from one float64 matrix-vector product: the per-item
    scan that defines the result."""
    sims = leaders @ row
    best = int(np.argmax(sims))
    return best, float(sims[best])


def cluster_cosine(X: np.ndarray, tau: float,
                   item_ids: Sequence[str] | None = None) -> ClusterAssignment:
    """Leader clustering of the rows of X at cosine threshold tau; row i
    is named item_ids[i], or str(i) when no ids are given."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    n, d = X.shape
    if item_ids is None:
        item_ids = [str(i) for i in range(n)]
    if len(item_ids) != n:
        raise ValueError("item_ids and rows differ in length")

    unit = _normalized_rows(X)
    unit32 = unit.astype(np.float32)
    eps = 8 * (d + 2) * _U32
    floor, sure = tau - eps, tau + eps
    labels = np.empty(n, dtype=np.int64)
    leader_rows: list[int] = []
    # The screen's float32 leader rows.  There are at most n leaders, and
    # np.empty commits pages only as rows are written; the recompute
    # gathers its float64 leaders from unit by row.
    leader32 = np.empty((n, d), dtype=np.float32)
    for start in range(0, n, _BLOCK):
        block32 = unit32[start:start + _BLOCK]
        k0 = len(leader_rows)
        top, top_at, runner_up = _best_leaders(block32, leader32[:k0], floor)
        gram = (block32 @ block32.T).astype(np.float64)
        # reach[r, j]: an earlier row j of the block is a candidate for r
        # if j founds a cluster.
        reach = np.tril(gram >= floor, -1)
        founds = (top < floor) & ~reach.any(axis=1)
        for r in np.flatnonzero(~founds):
            best, best_label, rival = top[r], top_at[r], runner_up[r]
            mates = np.flatnonzero(reach[r, :r] & founds[:r])
            if mates.size:
                sims = gram[r, mates]
                j = int(np.argmax(sims))
                mate_best = sims[j]
                if mate_best > best:
                    sims[j] = -np.inf
                    best, rival = mate_best, max(best, sims.max())
                    best_label = k0 + int(np.count_nonzero(founds[:mates[j]]))
                else:
                    rival = max(rival, mate_best)
            if best < floor:
                founds[r] = True
            elif best < sure or best - rival <= eps:
                rows = leader_rows + (start + np.flatnonzero(founds[:r])).tolist()
                exact, sim = _gemv_best(unit[rows], unit[start + r])
                if sim >= tau:
                    labels[start + r] = exact
                else:
                    founds[r] = True
            else:
                labels[start + r] = best_label
        new = np.flatnonzero(founds)
        leader32[k0:k0 + new.size] = block32[new]
        labels[start + new] = k0 + np.arange(new.size)
        leader_rows.extend((start + new).tolist())

    return ClusterAssignment(item_ids=list(item_ids), labels=labels, leader_rows=leader_rows)


def cluster_report(assignment: ClusterAssignment, texts: Sequence[str], *,
                   sample_n: int) -> Iterator[dict]:
    """Cluster summaries, yielded by size descending, ties by cluster id.

    Samples are the first sample_n member texts in item order.  Members
    are grouped by one stable sort of the labels, so each cluster's are
    one slice, in item order; a singleton's one member is its leader.
    """
    if len(texts) != len(assignment.item_ids):
        raise ValueError("texts and assignment differ in length")
    ids = assignment.item_ids
    sizes = assignment.sizes
    # Arrays, not lists of ints: 8 bytes an entry rather than up to 36.
    by_cluster = np.argsort(assignment.labels, kind="stable")
    ends = np.cumsum(sizes)
    for cid in map(int, np.argsort(-sizes, kind="stable")):
        size = int(sizes[cid])
        start = int(ends[cid]) - size
        leader = assignment.leader_rows[cid]
        members = by_cluster[start : start + min(size, sample_n)].tolist()
        yield {
            "cluster_id": cid,
            "size": size,
            "leader_item_id": ids[leader],
            "leader_text": texts[leader],
            "sample_item_ids": [ids[m] for m in members],
            "samples": [texts[m] for m in members],
        }


def write_cluster_report(assignment: ClusterAssignment, texts: Sequence[str],
                         jsonl_path: str | Path, digest_path: str | Path, *,
                         sample_n: int) -> None:
    """Write the `cluster_report` entries as one JSON line per cluster
    and as a text digest.

    The digest is a header line, then per cluster a blank line, its id
    and size, its leader text and one line per sample.  Each entry is
    written to both files as it is made, so no list of entries is held."""
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    with (open(jsonl_path, "w", encoding="utf-8") as jsonl,
          open(digest_path, "w", encoding="utf-8") as digest):
        digest.write(f"{assignment.n_clusters} clusters over {len(texts)} items\n")
        for entry in cluster_report(assignment, texts, sample_n=sample_n):
            jsonl.write(encode(entry) + "\n")
            digest.write(f"\ncluster {entry['cluster_id']} size={entry['size']}\n")
            digest.write(f"  leader: {entry['leader_text']}\n")
            digest.writelines(f"  - {text}\n" for text in entry["samples"])


def keyword_search(assignment: ClusterAssignment, texts: Sequence[str],
                   keywords: Sequence[str]) -> list[dict]:
    """Clusters with at least one case-insensitive keyword occurrence.

    Hits carry per-keyword occurrence counts and are sorted by total
    matches descending, ties by cluster id.  Each distinct text is
    counted once, and the counts are summed per cluster.
    """
    if len(texts) != len(assignment.item_ids):
        raise ValueError("texts and assignment differ in length")
    folded = [kw.casefold() for kw in keywords]
    first: dict[str, int] = {}
    inverse = np.fromiter(
        (first.setdefault(text, len(first)) for text in texts), dtype=np.int64, count=len(texts)
    )
    per_item = np.array(
        [[text.casefold().count(kw) for kw in folded] for text in first], dtype=np.int64
    ).reshape(len(first), len(keywords))[inverse]
    counts = np.zeros((assignment.n_clusters, len(keywords)), dtype=np.int64)
    for j in range(len(keywords)):
        # Counts are small integers, which float64 weights sum exactly.
        counts[:, j] = np.bincount(
            assignment.labels, weights=per_item[:, j], minlength=assignment.n_clusters
        )
    totals = counts.sum(axis=1)
    hit = np.flatnonzero(totals)
    hit = hit[np.argsort(-totals[hit], kind="stable")]
    return [
        {"cluster_id": cid, "matches": dict(zip(keywords, row)), "total": total}
        for cid, row, total in zip(hit.tolist(), counts[hit].tolist(), totals[hit].tolist())
    ]


@dataclass
class ToxicitySummary:
    scored: int
    toxic: int
    skipped_unknown: int
    threshold: float

    @property
    def fraction(self) -> float:
        return self.toxic / self.scored if self.scored else 0.0


def toxicity_summary(path: str | Path, *, known_ids: set[str],
                     threshold: float) -> ToxicitySummary:
    """Fraction of scored posts above the threshold.

    Rows whose tweet id is not in known_ids are skipped and counted.
    """
    scored = toxic = skipped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            try:
                tweet_id, score = row["tweet_id"], float(row["score"])
            except (KeyError, TypeError, ValueError):
                raise MalformedRecord(f"bad toxicity row: {row!r}") from None
            if not 0.0 <= score <= 1.0:
                raise MalformedRecord(f"score out of range: {score}")
            if tweet_id not in known_ids:
                skipped += 1
                continue
            scored += 1
            if score > threshold:
                toxic += 1
    return ToxicitySummary(scored=scored, toxic=toxic, skipped_unknown=skipped,
                           threshold=threshold)
