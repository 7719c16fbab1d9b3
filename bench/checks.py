"""Output checks for one pipeline workdir.

Each check recomputes a result apart from the program, from the raw
corpus files, or tests a property the method must have.  None compares
against a stored copy of earlier output.  Only the AUC check uses the
program, to load the model and score the test rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path

# The pipeline's default observation window: 21 days from 2022-02-23 UTC.
WINDOW_START = int(datetime(2022, 2, 23, tzinfo=timezone.utc).timestamp())
WINDOW_END = WINDOW_START + 21 * 86_400

AUC_FLOOR = 0.9  # the synthetic classes are nearly separable
MRR_FLOOR = 0.25  # random ranking against 100 negatives gives about 0.05
BASE_TOLERANCE = 1e-9

_B58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


def _base58check(payload: bytes) -> str:
    data = payload + hashlib.sha256(hashlib.sha256(payload).digest()).digest()[:4]
    n = int.from_bytes(data, "big")
    digits = ""
    while n:
        n, r = divmod(n, 58)
        digits = _B58[r] + digits
    return "1" * (len(data) - len(data.lstrip(b"\0"))) + digits


def planted_wallets() -> tuple[str, str]:
    """The two demo addresses the synthetic generator plants in promo posts."""
    btc = _base58check(b"\x00" + hashlib.sha256(b"corpus-demo-btc").digest()[:20])
    eth = "0x" + hashlib.sha256(b"corpus-demo-eth").hexdigest()[:40]
    return btc, eth


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _data_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _in_window(ts: int) -> bool:
    return WINDOW_START <= ts < WINDOW_END


def _raw_tweets(corpus: Path) -> list[dict]:
    with open(corpus / "tweets.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _suspended_in_window(corpus: Path) -> set[str]:
    out = set()
    with open(corpus / "labels.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["status"] == "suspended" and row["status_date"]:
                when = datetime.fromisoformat(row["status_date"].replace("Z", "+00:00"))
                if _in_window(int(when.timestamp())):
                    out.add(row["user_id"])
    return out


def rank_auc(labels: list[int], scores: list[float]) -> float:
    """Mann-Whitney AUC from average ranks; tied pairs count one half."""
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            j += 1
        for k in range(i, j):
            ranks[order[k]] = (i + 1 + j) / 2.0
        i = j
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    pos_rank_sum = sum(r for r, y in zip(ranks, labels) if y == 1)
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def check_ingest(workdir: Path, corpus: Path) -> list[str]:
    stats = _read_json(workdir / "ingest_stats.json")
    expected = {
        "tweets": _data_lines(corpus / "tweets.jsonl"),
        "snapshots": _data_lines(corpus / "snapshots.jsonl"),
        "labels": _data_lines(corpus / "labels.csv") - 1,
    }
    return [
        f"ingest: {name} parsed {stats[name]['parsed']} of {count} lines"
        for name, count in expected.items()
        if stats[name]["parsed"] != count
    ]


def check_users(workdir: Path) -> list[str]:
    users = _read_json(workdir / "users.json")
    train, test = users["train"], users["test"]
    problems = []
    if set(train) & set(test):
        problems.append(f"users: {len(set(train) & set(test))} users in both train and test")
    for name, part in (("train", train), ("test", test)):
        positives = sum(1 for label in part.values() if label == 1)
        if not part or 2 * positives != len(part):
            problems.append(f"users: {name} has {positives} suspended of {len(part)}")
    return problems


def _scored_split(workdir: Path, split: str):
    from suspkit.suspension_model import FeatureMatrix, load_model

    model = load_model(workdir / "model.json")
    matrix = FeatureMatrix.from_csv(workdir / f"features_{split}.csv")
    return matrix, [float(p) for p in model.predict_proba(matrix)]


def check_auc(workdir: Path, splits: tuple[str, ...]) -> list[str]:
    problems = []
    for split in splits:
        matrix, scores = _scored_split(workdir, split)
        auc = rank_auc([int(y) for y in matrix.y], scores)
        reported = _read_json(workdir / f"report_{split}.json")["roc_auc"]
        if abs(auc - reported) > 1e-12:
            problems.append(f"auc[{split}]: recomputed {auc!r}, report says {reported!r}")
        if split == "test" and auc < AUC_FLOOR:
            problems.append(f"auc[test]: {auc:.4f} below the floor {AUC_FLOOR}")
    return problems


def _unused_features(model: dict) -> set[int]:
    """Selected-feature indices the fitted model never reads."""
    inner = model["inner"]
    n = sum(model["selection_mask"])
    if inner["kind"] == "gbdt":
        used = {f for tree in inner["trees"] for f in tree["feature"] if f >= 0}
    else:
        used = {j for j, c in enumerate(inner["coef"]) if c != 0.0}
    return set(range(n)) - used


def check_explanations(workdir: Path, splits: tuple[str, ...]) -> list[str]:
    phis: dict[str, list[float]] = defaultdict(list)
    features: dict[str, list[str]] = defaultdict(list)
    with open(workdir / "explanations.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            phis[row["user_id"]].append(float(row["phi"]))
            features[row["user_id"]].append(row["feature"])
    if not phis:
        return ["explain: explanations.csv is empty"]
    model = _read_json(workdir / "model.json")
    selected = [n for n, k in zip(model["input_feature_names"], model["selection_mask"]) if k]
    problems = [f"explain: {u} explains {f} instead of the selected features"
                for u, f in features.items() if f != selected]

    matrix, scores = _scored_split(workdir, "test" if "test" in splits else "train")
    proba = dict(zip(matrix.user_ids, scores))
    spaces = {
        "probability": lambda p: p,
        "log-odds": lambda p: math.log(p / (1.0 - p)),
    }
    spreads = {}
    for space, f in spaces.items():
        bases = [f(proba[u]) - math.fsum(phi) for u, phi in phis.items()]
        spreads[space] = max(bases) - min(bases)
    if min(spreads.values()) > BASE_TOLERANCE:
        problems.append(f"explain: f(x) - sum(phi) is not one base value: spread {spreads}")

    for j in sorted(_unused_features(model)):
        nonzero = sum(1 for phi in phis.values() if phi[j] != 0.0)
        if nonzero:
            problems.append(f"explain: unused feature {selected[j]} has phi != 0 in {nonzero} rows")
    return problems


def check_content(workdir: Path, corpus: Path) -> list[str]:
    suspended = _suspended_in_window(corpus)
    tweets = _raw_tweets(corpus)
    posts = {t["id"]: t["text"] for t in tweets
             if t["user_id"] in suspended and _in_window(t["created_at"])}
    problems = []

    with open(workdir / "clusters.jsonl", encoding="utf-8") as fh:
        clustered = sum(json.loads(line)["size"] for line in fh)
    if clustered != len(posts):
        problems.append(f"cluster: sizes sum to {clustered}, expected {len(posts)} posts")

    expected = {(a, tid) for tid, text in posts.items() for a in planted_wallets() if a in text}
    with open(workdir / "wallets.csv", encoding="utf-8", newline="") as fh:
        rows = [(r["address"], r["tweet_id"]) for r in csv.DictReader(fh)]
    if len(rows) != len(set(rows)) or set(rows) != expected:
        problems.append(
            f"wallets: {len(rows)} rows, {len(set(rows) - expected)} unexpected, "
            f"{len(expected - set(rows))} missing of {len(expected)}"
        )

    edges = set()
    for t in tweets:
        if not _in_window(t["created_at"]):
            continue
        if t.get("retweeted_user_id"):
            edges.add((t["user_id"], "retweet", t["retweeted_user_id"]))
        elif t.get("quoted_user_id"):
            edges.add((t["user_id"], "quote", t["quoted_user_id"]))
        edges.update((t["user_id"], "mention", m) for m in t.get("mentions", ()))
    nodes = {s for s, _, _ in edges} | {d for _, _, d in edges}
    ranking = _read_json(workdir / "graph_ranking.json")
    if (ranking["nodes"], ranking["edges"]) != (len(nodes), len(edges)):
        problems.append(
            f"graph: {ranking['nodes']} nodes / {ranking['edges']} edges, "
            f"expected {len(nodes)} / {len(edges)}"
        )
    if ranking["mrr"] < MRR_FLOOR:
        problems.append(f"graph: held-out mrr {ranking['mrr']:.4f} below {MRR_FLOOR}")
    return problems


def graph_mrr(workdir: Path) -> float:
    return float(_read_json(workdir / "graph_ranking.json")["mrr"])


def check_workdir(workdir: Path, corpus: Path, splits: tuple[str, ...]) -> list[str]:
    return (
        check_ingest(workdir, corpus)
        + check_users(workdir)
        + check_auc(workdir, splits)
        + check_explanations(workdir, splits)
        + check_content(workdir, corpus)
    )
