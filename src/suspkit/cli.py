"""Command-line entry point.

One root seed and one JSON config drive every stage; flags override
config values.  Each stage writes versioned artifacts plus a manifest
(config hash, seed, output hashes) into the workdir, and a separate
timing sidecar, so reruns with the same config and seed produce
byte-identical manifests.  `main` runs every stage the same way: it
makes the workdir, removes the stage's stale artifacts (`remove_stale`),
times the command, and writes the manifest from the inputs and outputs
the command returns.  The `features`, `train` and `evaluate` stages make
the library's calls, `pipeline.extract_split_features`,
`pipeline.train_with_cv` and `suspension_model.evaluate`, so the CLI and
the library produce the same splits, model and reports.

Exit codes: 0 success, 2 usage error, 3 data or dependency error,
4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sqlite3
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from .content_clustering import toxicity_summary, write_cluster_report
from .corpus import CorpusStore
from .errors import MissingArtifact, SchemaMismatch, SuspkitError
from .explainability import (
    explain_matrix,
    impact_summary,
    write_explanations_csv,
    write_summary_csv,
)
from .graph_embedding import save_embeddings, write_graph_csv
from .manifest import (
    atomic_path,
    canonical_json,
    config_hash,
    remove_stale,
    stage_seed,
    write_stage_manifest,
    write_timing,
)
from .pipeline import (
    PipelineConfig,
    extract_split_features,
    run_clustering,
    run_graph_stage,
    train_with_cv,
)
from .suspension_model import (
    SPLIT_SECOND_TEST,
    SPLIT_TEST,
    FeatureMatrix,
    load_model,
    save_model,
    evaluate as evaluate_model,
    write_curve_csv,
)
from .synth import GeneratorConfig, generate
from .wallets import read_wallet_csv, write_wallet_csv


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    data = {}
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    config = PipelineConfig.from_dict(data)
    overrides = {
        name: getattr(args, name, None)
        for name in ("workdir", "seed", "tweets", "snapshots", "labels", "tau", "toxicity_scores")
    }
    if getattr(args, "families", None):
        overrides["families"] = tuple(args.families.split(","))
    return dataclasses.replace(
        config, **{name: value for name, value in overrides.items() if value is not None}
    )


def _store_path(config: PipelineConfig) -> Path:
    return Path(config.workdir) / "corpus.sqlite"


def _open_store(config: PipelineConfig) -> CorpusStore:
    path = _store_path(config)
    if not path.exists():
        raise MissingArtifact(f"no ingested corpus at {path}; run ingest first")
    return CorpusStore(path)


def _json(path: Path, payload) -> None:
    path.write_text(canonical_json(payload) + "\n", encoding="utf-8")


def _write(path: Path, write, payload) -> Path:
    """`write(tmp, payload)` to a temp file that replaces `path` on success."""
    with atomic_path(path) as tmp:
        write(tmp, payload)
    return path


def _require_artifact(workdir: Path, name: str, hint: str) -> Path:
    path = workdir / name
    if not path.exists():
        raise MissingArtifact(f"{path} not found; run {hint} first")
    return path


# What a command returns to `main` for its stage manifest: the inputs
# by role and the paths of the artifacts it wrote.
_Lineage = tuple[dict[str, str | Path], list[Path]]


def cmd_synth(config: PipelineConfig, args: argparse.Namespace, workdir: Path) -> _Lineage:
    out_dir = Path(args.out) if args.out else workdir / "synth"
    gen = GeneratorConfig(
        n_suspended=args.suspended,
        n_normal=args.normal,
        corpus_start=config.window_start_epoch(),
        window_days=config.window_days,
        n_windows=args.windows,
        drift=args.drift,
    )
    paths = generate(gen, seed=stage_seed(config.seed, "synth"), out_dir=out_dir)
    outputs = [paths["tweets"], paths["snapshots"], paths["labels"]]
    print(f"synth: wrote {len(outputs)} files to {out_dir}")
    return {}, outputs


def cmd_ingest(config: PipelineConfig, args: argparse.Namespace, workdir: Path) -> _Lineage:
    for name in ("tweets", "snapshots", "labels"):
        value = getattr(config, name)
        if not value:
            raise MissingArtifact(f"ingest needs a {name} path (config or flag)")
        if not Path(value).exists():
            raise MissingArtifact(f"{name} file not found: {value}")
    db = _store_path(config)
    # The store is built beside the old one and replaces it only once
    # every file has been ingested; a stale temp store (and its journal)
    # from a killed run is removed first.
    with atomic_path(db) as tmp:
        for stale in (tmp, tmp.with_name(tmp.name + "-journal")):
            stale.unlink(missing_ok=True)
        with CorpusStore(tmp) as store:
            stats = {
                "tweets": store.ingest_tweets(config.tweets),
                "snapshots": store.ingest_snapshots(config.snapshots),
                "labels": store.ingest_labels(config.labels),
            }
    payload = {name: dataclasses.asdict(s) for name, s in stats.items()}
    stats_path = _write(workdir / "ingest_stats.json", _json, payload)
    for name, s in stats.items():
        print(f"ingest: {name} parsed={s.parsed} skipped={s.skipped}")
    inputs = {name: getattr(config, name) for name in ("tweets", "snapshots", "labels")}
    return inputs, [db, stats_path]


def cmd_features(config: PipelineConfig, args: argparse.Namespace, workdir: Path) -> _Lineage:
    with _open_store(config) as store:
        split = extract_split_features(store, config)
    outputs: list[Path] = []
    for name, feats in (
        ("train", split.train),
        ("test", split.test),
        ("second_test", split.second_test),
    ):
        if feats is not None:
            path = workdir / f"features_{name}.csv"
            outputs.append(_write(path, lambda tmp, matrix: matrix.to_csv(tmp), feats.combined))
    outputs.append(_write(workdir / "families.json", _json, split.train.families))
    users = {
        "train": split.train_users,
        "test": split.test_users,
        "second_test": split.second_users,
        "dropped": [user for feats in (split.train, split.test, split.second_test) if feats
                    for user in feats.dropped_users],
    }
    outputs.append(_write(workdir / "users.json", _json, users))
    context = split.train.context
    for name, artifact, write in (
        ("graph.csv", context.graph, write_graph_csv),
        ("graph_embeddings.emb1", context.node_embeddings, save_embeddings),
    ):
        if artifact is not None:
            outputs.append(_write(workdir / name, write, artifact))
    print(
        f"features: train={len(split.train.combined.user_ids)}"
        f" test={len(split.test.combined.user_ids) if split.test else 0}"
        f" second_test={len(split.second_test.combined.user_ids) if split.second_test else 0}"
        f" columns={len(split.train.combined.feature_names)}"
    )
    return {"corpus": _store_path(config)}, outputs


def cmd_train(config: PipelineConfig, args: argparse.Namespace, workdir: Path) -> _Lineage:
    train_path = _require_artifact(workdir, "features_train.csv", "features")
    matrix = FeatureMatrix.from_csv(train_path)
    model, cv_folds, cv_mean = train_with_cv(matrix, config)
    model_path = _write(workdir / "model.json", save_model, model)
    cv_path = _write(
        workdir / "cv_report.json",
        _json,
        {"folds": [fold.to_dict() for fold in cv_folds], "mean": cv_mean.to_dict()},
    )
    print(
        f"train: kind={config.model_kind} selected={len(model.feature_names)}"
        f"/{len(matrix.feature_names)} cv_f1={cv_mean.f1:.4f}"
    )
    return {"features": train_path}, [model_path, cv_path]


def cmd_evaluate(config: PipelineConfig, args: argparse.Namespace, workdir: Path) -> _Lineage:
    split = args.split
    model_path = _require_artifact(workdir, "model.json", "train")
    matrix_path = _require_artifact(workdir, f"features_{split}.csv", "features")
    model = load_model(model_path)
    report = evaluate_model(model, FeatureMatrix.from_csv(matrix_path), split)
    outputs = [
        _write(workdir / f"report_{split}.json", _json, report.to_dict()),
        _write(workdir / f"roc_{split}.csv", write_curve_csv, report.roc_points),
        _write(workdir / f"pr_{split}.csv", write_curve_csv, report.pr_points),
    ]
    print(
        f"evaluate[{split}]: f1={report.f1:.4f} auc={report.roc_auc:.4f}"
        f" acc={report.accuracy:.4f} n={report.n_pos + report.n_neg}"
    )
    return {"model": model_path, "features": matrix_path}, outputs


BACKGROUND_SIZE = 64  # training rows sampled as the explainer's background


def cmd_explain(config: PipelineConfig, args: argparse.Namespace, workdir: Path) -> _Lineage:
    model_path = _require_artifact(workdir, "model.json", "train")
    train_path = _require_artifact(workdir, "features_train.csv", "features")
    test_path = workdir / "features_test.csv"
    matrix_path = test_path if test_path.exists() else train_path
    model = load_model(model_path)
    matrix = FeatureMatrix.from_csv(matrix_path)
    background = FeatureMatrix.from_csv(train_path)
    explanations = explain_matrix(
        model,
        matrix,
        background,
        background_size=BACKGROUND_SIZE,
        seed=stage_seed(config.seed, "explain"),
    )
    summary = impact_summary(explanations)
    outputs = [
        _write(workdir / "explanations.csv", write_explanations_csv, explanations),
        _write(workdir / "impact_summary.csv", write_summary_csv, summary),
    ]
    top = ", ".join(summary.ranking[:5])
    print(f"explain: {len(explanations.user_ids)} rows; top features: {top}")
    return {"model": model_path, "features": matrix_path, "background": train_path}, outputs


CLUSTER_SAMPLE_N = 10  # member texts shown per cluster
TOXICITY_THRESHOLD = 0.5  # a post is toxic above this score


def cmd_cluster(config: PipelineConfig, args: argparse.Namespace, workdir: Path) -> _Lineage:
    with _open_store(config) as store:
        artifacts = run_clustering(store, config)
    clusters_path = workdir / "clusters.jsonl"
    digest_path = workdir / "clusters_digest.txt"
    with atomic_path(clusters_path) as tmp_jsonl, atomic_path(digest_path) as tmp_digest:
        write_cluster_report(artifacts.assignment, artifacts.texts, tmp_jsonl, tmp_digest,
                             sample_n=CLUSTER_SAMPLE_N)
    outputs = [
        clusters_path,
        digest_path,
        _write(workdir / "wallets.csv", write_wallet_csv, artifacts.wallet_hits),
        _write(workdir / "keywords.json", _json, artifacts.keyword_hits),
    ]
    inputs = {"corpus": _store_path(config)}
    if config.toxicity_scores:
        known = set(artifacts.assignment.item_ids)
        tox = toxicity_summary(
            config.toxicity_scores, known_ids=known, threshold=TOXICITY_THRESHOLD
        )
        payload = dataclasses.asdict(tox) | {"fraction": tox.fraction}
        outputs.append(_write(workdir / "toxicity.json", _json, payload))
        inputs["toxicity_scores"] = config.toxicity_scores
    print(
        f"cluster: {artifacts.assignment.n_clusters} clusters over"
        f" {len(artifacts.texts)} posts; {len(artifacts.wallet_hits)} wallet hits"
    )
    return inputs, outputs


def cmd_graph(config: PipelineConfig, args: argparse.Namespace, workdir: Path) -> _Lineage:
    graph_path = _require_artifact(workdir, "graph.csv", "features")
    emb_path = workdir / "graph_embeddings.emb1"
    artifacts = run_graph_stage(graph_path, emb_path, config)
    ranking = {
        "mrr": artifacts.ranking.mrr,
        "auc": artifacts.ranking.auc,
        "negatives_per_positive": artifacts.ranking.negatives_per_positive,
        "held_out_edges": len(artifacts.held_out),
        "nodes": artifacts.graph.n_nodes,
        "edges": artifacts.graph.n_edges,
    }
    ranking_path = _write(workdir / "graph_ranking.json", _json, ranking)
    print(
        f"graph: {artifacts.graph.n_nodes} nodes {artifacts.graph.n_edges} edges;"
        f" held-out mrr={artifacts.ranking.mrr:.4f} auc={artifacts.ranking.auc:.4f}"
    )
    return {"graph": graph_path, "embeddings": emb_path}, [ranking_path]


def _json_section(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _cv_section(path: Path) -> dict:
    cv = _json_section(path)
    # cv_report.json keeps each fold's selected names; the summary counts them.
    for fold in cv["folds"]:
        fold["n_features"] = len(fold.pop("features"))
    return cv


def _clusters_section(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        sizes = [json.loads(line)["size"] for line in fh]
    return {"n_clusters": len(sizes), "n_items": sum(sizes), "largest": sizes[:10]}


def _wallets_section(path: Path) -> dict:
    hits = read_wallet_csv(path)
    return {"total": len(hits), "by_chain": Counter(hit.chain for hit in hits)}


def _top_features_section(path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row["feature"] for row in csv.DictReader(fh)][:10]


# (report key, stage output, its summary), in report order.
_REPORT_SECTIONS = (
    ("cv", "cv_report.json", _cv_section),
    ("test", "report_test.json", _json_section),
    ("second_test", "report_second_test.json", _json_section),
    ("graph", "graph_ranking.json", _json_section),
    ("toxicity", "toxicity.json", _json_section),
    ("clusters", "clusters.jsonl", _clusters_section),
    ("wallets", "wallets.csv", _wallets_section),
    ("top_features", "impact_summary.csv", _top_features_section),
)


def cmd_report(config: PipelineConfig, args: argparse.Namespace, workdir: Path) -> _Lineage:
    sections, inputs = {}, {}
    for key, name, summarize in _REPORT_SECTIONS:
        path = workdir / name
        if not path.exists():
            continue
        # A field missing, or a value of another shape than the stage
        # writes, is a damaged input, not an internal error.
        try:
            sections[key] = summarize(path)
        except (KeyError, TypeError, AttributeError) as exc:
            raise SchemaMismatch(f"{path} is not a {name} the stages write: {exc!r}") from None
        inputs[key] = path
    if not sections:
        raise MissingArtifact("no stage outputs found in workdir; run stages first")
    report_path = _write(workdir / "report.json", _json, sections)
    print(f"report: {', '.join(sorted(sections))} -> {report_path}")
    return inputs, [report_path]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suspkit",
        description="Account-suspension analysis pipeline over tweet corpora.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--workdir", help="artifact directory (overrides config)")
    parser.add_argument("--seed", type=int, help="root seed (overrides config)")
    sub = parser.add_subparsers(dest="stage", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", help="output directory (default workdir/synth)")
    p.add_argument("--suspended", type=int, default=400)
    p.add_argument("--normal", type=int, default=400)
    p.add_argument("--windows", type=int, choices=(1, 2), default=1)
    p.add_argument("--drift", action="store_true")

    p = sub.add_parser("ingest", help="load corpus files into the store")
    p.add_argument("--tweets")
    p.add_argument("--snapshots")
    p.add_argument("--labels")

    p = sub.add_parser("features", help="extract per-family feature matrices")
    p.add_argument("--families", help="comma-separated family subset")

    sub.add_parser("train", help="fit the suspension classifier")

    p = sub.add_parser("evaluate", help="score a split with the trained model")
    p.add_argument("--split", choices=(SPLIT_TEST, SPLIT_SECOND_TEST), default=SPLIT_TEST)

    sub.add_parser("explain", help="attribute predictions to features")

    p = sub.add_parser("cluster", help="cluster suspended-account posts")
    p.add_argument("--tau", type=float)
    p.add_argument("--toxicity-scores", dest="toxicity_scores")

    sub.add_parser("graph", help="rank held-out edges with the graph embeddings")
    sub.add_parser("report", help="aggregate stage outputs into one digest")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "features": cmd_features,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "explain": cmd_explain,
    "cluster": cmd_cluster,
    "graph": cmd_graph,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stage = f"evaluate_{args.split}" if args.stage == "evaluate" else args.stage
    try:
        config = _load_config(args)
        started = time.monotonic()
        workdir = Path(config.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        remove_stale(workdir, stage)
        inputs, outputs = _COMMANDS[args.stage](config, args, workdir)
        write_stage_manifest(
            workdir,
            stage,
            config_digest=config_hash(config.to_dict()),
            root_seed=config.seed,
            inputs=inputs,
            outputs=outputs,
        )
        write_timing(workdir, stage, time.monotonic() - started)
    # A corrupt or truncated corpus.sqlite surfaces as sqlite3.DatabaseError
    # on the first query that touches the damaged pages.
    except (SuspkitError, FileNotFoundError, ValueError, sqlite3.DatabaseError) as exc:
        line = {"error": type(exc).__name__, "message": str(exc), "stage": args.stage}
        print(json.dumps(line, sort_keys=True), file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        line = {"error": "InternalError", "type": type(exc).__name__,
                "message": str(exc), "stage": args.stage,
                "traceback": traceback.format_exc()}
        print(json.dumps(line, sort_keys=True), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
