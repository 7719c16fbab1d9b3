"""Traced pass: every stage in one process, with layer spans from outside.

Usage: python3 bench/layer_trace.py PLAN.json

PLAN.json holds {"stages": [[name, argv], ...], "out": path}.  Each
stage runs through `suspkit.cli.main(argv)`.  Before the first one,
the public functions of each layer are wrapped wherever they are
looked up (the defining module and every suspkit module that imported
them by name).  A wrapper records a span (name, start, end, parent)
and its counts; spans stay in memory and are written to `out` at the
end, with the self time of each layer (its spans minus their children).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path


def _count(name: str, fn=lambda a, k, r: 1):
    """Counter adding fn(args, kwargs, result) to the count `name`."""
    return lambda a, k, r: {name: fn(a, k, r)}


# (layer span name, [(module, qualified name, counter or None)]).
# A counter maps (args, kwargs, result) to {count name: increment}; for a
# generator it runs once per yielded item, with the item as result.
LAYERS = [
    ("corpus.ingest_s", [
        ("suspkit.corpus", f"CorpusStore.ingest_{kind}",
         _count("corpus.records_ingested", lambda a, k, r: r.inserted))
        for kind in ("tweets", "snapshots", "labels")
    ]),
    ("corpus.read_s", [
        ("suspkit.corpus", "CorpusStore.user_timeline",
         _count("corpus.tweets_read", lambda a, k, r: len(r))),
        ("suspkit.corpus", "CorpusStore.tweets_in_window", _count("corpus.tweets_read")),
        ("suspkit.corpus", "CorpusStore.snapshots", None),
        ("suspkit.corpus", "CorpusStore.active_users", None),
        ("suspkit.corpus", "CorpusStore.labels", None),
    ]),
    ("profile_features.extract_s", [
        ("suspkit.profile_features", "features_from_snapshots", None),
    ]),
    ("activity_features.extract_s", [
        ("suspkit.activity_features", "features_from_timeline", None),
    ]),
    ("textual_features.extract_s", [
        ("suspkit.textual_features", "features_from_timeline", None),
        ("suspkit.textual_features", "build_idf", None),
        ("suspkit.textual_features", "user_hashtag_counts", None),
    ]),
    ("text_embedding.encode_s", [
        ("suspkit.text_embedding", "HashedNgramEncoder.embed",
         _count("text_embedding.texts_encoded", lambda a, k, r: len(a[2]))),
    ]),
    ("text_embedding.pca_s", [
        ("suspkit.text_embedding", "pca_fit", None),
        ("suspkit.text_embedding", "pca_transform", None),
    ]),
    ("graph_embedding.build_s", [
        ("suspkit.graph_embedding", "build_graph", None),
        ("suspkit.graph_embedding", "split_edges", None),
    ]),
    ("graph_embedding.train_s", [
        ("suspkit.graph_embedding", "train_embeddings",
         lambda a, k, r: {"graph_embedding.fits": 1,
                          "graph_embedding.edge_epochs": a[0].total_weight * k["epochs"]}),
    ]),
    ("graph_embedding.rank_s", [
        ("suspkit.graph_embedding", "evaluate", None),
    ]),
    ("gbdt.fit_s", [
        ("suspkit.gbdt", "GbdtClassifier.fit", _count("gbdt.fits")),
    ]),
    ("gbdt.predict_s", [
        ("suspkit.gbdt", "GbdtClassifier.decision_function",
         _count("gbdt.rows_predicted", lambda a, k, r: len(r))),
    ]),
    ("suspension_model.select_s", [
        ("suspkit.suspension_model", "select_features",
         _count("suspension_model.features_selected", lambda a, k, r: int(r.sum()))),
    ]),
    ("suspension_model.cv_s", [
        ("suspkit.suspension_model", "kfold_cv", None),
    ]),
    ("suspension_model.csv_s", [
        ("suspkit.suspension_model", "FeatureMatrix.to_csv", None),
        ("suspkit.suspension_model", "FeatureMatrix.from_csv", None),
    ]),
    ("explainability.explain_s", [
        ("suspkit.explainability", "explain_matrix", None),
    ]),
    ("explainability.predict_s", [
        ("suspkit.suspension_model", "TrainedModel.predict_proba_selected",
         _count("explainability.coalition_rows", lambda a, k, r: len(r))),
    ]),
    ("content_clustering.cluster_s", [
        ("suspkit.content_clustering", "cluster_cosine",
         lambda a, k, r: {"content_clustering.items": len(r.item_ids),
                          "content_clustering.clusters": r.n_clusters}),
    ]),
    ("content_clustering.report_s", [
        ("suspkit.content_clustering", "cluster_report", None),
        ("suspkit.content_clustering", "write_cluster_report", None),
        ("suspkit.content_clustering", "keyword_search", None),
    ]),
    ("wallets.extract_s", [
        ("suspkit.wallets", "extract_wallets", _count("wallets.hits", lambda a, k, r: len(r))),
    ]),
    ("manifest.write_s", [
        ("suspkit.manifest", "write_stage_manifest", None),
    ]),
    ("manifest.hash_s", [
        ("suspkit.manifest", "file_sha256",
         _count("manifest.bytes_hashed", lambda a, k, r: Path(a[0]).stat().st_size)),
    ]),
]

# Self time of the hashing and of the explainer's model calls is folded
# into the layer that owns them.
FOLD = {"manifest.hash_s": "manifest.write_s", "explainability.predict_s": "explainability.explain_s"}

LAYER_NAMES = [name for name, _ in LAYERS if name not in FOLD]
COUNTER_NAMES = [
    "corpus.records_ingested", "corpus.tweets_read", "text_embedding.texts_encoded",
    "graph_embedding.fits", "graph_embedding.edge_epochs", "gbdt.fits",
    "gbdt.rows_predicted", "suspension_model.features_selected",
    "explainability.coalition_rows", "content_clustering.items",
    "content_clustering.clusters", "wallets.hits", "manifest.bytes_hashed",
]


class Tracer:
    """Spans as [name, start, end, parent index]; counts by name."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def count(self, increments: dict) -> None:
        for name, value in increments.items():
            self.counts[name] += value

    def wrap(self, name: str, func, counter):
        tracer = self
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                # One span per resumption, so the consumer's own work
                # between items is not charged to this layer.
                it = func(*args, **kwargs)
                while True:
                    index = tracer.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(index)
                    if counter is not None:
                        tracer.count(counter(args, kwargs, item))
                    yield item
            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                tracer.count(counter(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        import suspkit.cli  # noqa: F401  imports every module the stages use

        modules = [m for n, m in sys.modules.items() if n.startswith("suspkit") and m]
        for name, targets in LAYERS:
            for module_name, qualname, counter in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(name, raw.__func__, counter))
                    else:
                        wrapped = self.wrap(name, raw, counter)
                    setattr(cls, attr, wrapped)
                    continue
                original = getattr(module, qualname)
                wrapped = self.wrap(name, original, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def self_seconds(self) -> dict[str, float]:
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_s):
            key = FOLD.get(name, name)
            out[key] = out.get(key, 0.0) + (end - start) - children
        return out


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    tracer = Tracer()
    tracer.install()
    from suspkit.cli import main as cli_main

    stage_s = {}
    for name, argv in plan["stages"]:
        index = tracer.open(f"stage.{name}")
        code = cli_main(argv)
        tracer.close(index)
        stage_s[name] = tracer.spans[index][2] - tracer.spans[index][1]
        if code != 0:
            print(f"stage {name} exited {code}", file=sys.stderr)
            return 1
    Path(plan["out"]).write_text(json.dumps({
        "stages_s": sum(stage_s.values()),
        "stage_s": stage_s,
        "self_s": tracer.self_seconds(),
        "counts": tracer.counts,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
