"""The bench runs the program as its users do: the traced pass wraps
suspkit functions by name, so a name it lists must exist, or
`layer_trace.Tracer.install()` fails at bench time; and every round's
outputs must pass `checks.check_workdir`."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from suspkit import cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    """A module of bench/, imported with the process environment kept:
    `run` sets the BLAS thread counts of its stage processes on import."""
    environ = dict(os.environ)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH_DIR))
        os.environ.clear()
        os.environ.update(environ)


def test_every_traced_name_resolves():
    missing = []
    for _, targets in _bench_module("layer_trace").LAYERS:
        for module_name, qualname, _ in targets:
            module = importlib.import_module(module_name)
            if "." in qualname:
                # install() patches the class's own attribute.
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and attr in vars(cls)
            else:
                found = callable(getattr(module, qualname, None))
            if not found:
                missing.append(f"{module_name}.{qualname}")
    assert missing == []


def test_traced_pass_counts_one_graph_fit(tmp_path):
    """Run the traced pass as the benchmark does: one process, stages
    through `suspkit.cli.main`, layers wrapped by name."""
    from suspkit.graph_embedding import read_graph_csv, split_edges
    from suspkit.manifest import stage_seed
    from suspkit.pipeline import GRAPH_HOLDOUT_FRACTION, PipelineConfig

    config = {"graph_dim": 8, "graph_epochs": 30, "graph_batch": 64, "encoder_dim": 64,
              "pca_components": 8}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    wd, synth = tmp_path / "work", tmp_path / "synth"
    base = ["--config", str(config_path), "--workdir", str(wd), "--seed", "3"]
    stages = [
        ["synth", base + ["synth", "--out", str(synth), "--suspended", "12", "--normal", "12"]],
        ["ingest", base + ["ingest", "--tweets", str(synth / "tweets.jsonl"),
                           "--snapshots", str(synth / "snapshots.jsonl"),
                           "--labels", str(synth / "labels.csv")]],
        ["features", base + ["features"]],
        ["graph", base + ["graph"]],
        # Pinned to one CPU, `train` runs every task in the traced process.
        ["train", base + ["train"]],
    ]
    plan = tmp_path / "plan.json"
    out = tmp_path / "trace.json"
    plan.write_text(json.dumps({"stages": stages, "out": str(out)}), encoding="utf-8")
    src = str(BENCH_DIR.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cpu = min(os.sched_getaffinity(0))
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "layer_trace.py"), str(plan)],
        cwd=BENCH_DIR.parent, env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(out.read_text())["counts"]
    assert counts["graph_embedding.fits"] == 1
    # The one fit trains on the window graph minus its held-out edges.
    train_graph, _ = split_edges(
        read_graph_csv(wd / "graph.csv"), fraction=GRAPH_HOLDOUT_FRACTION,
        seed=stage_seed(3, "graph-split"),
    )
    assert counts["graph_embedding.edge_epochs"] == train_graph.total_weight * config["graph_epochs"]
    # One selection and one fit per task: the final model's and each fold's.
    mask = json.loads((wd / "model.json").read_text())["selection_mask"]
    folds = json.loads((wd / "cv_report.json").read_text())["folds"]
    assert sum(mask) > 0 and all(fold["features"] for fold in folds)
    assert counts["suspension_model.features_selected"] == sum(mask) + sum(
        len(fold["features"]) for fold in folds
    )
    assert len(folds) == PipelineConfig().k_folds
    assert counts["gbdt.fits"] == 2 * (len(folds) + 1)


def test_pipeline_2w_pass_passes_the_bench_checks(tmp_path):
    """One pass of every stage, in process, over the bench's own
    pipeline_2w corpus: the output checks of each bench round find no
    problem.  A smaller corpus would hide the graph's MRR floor."""
    run, checks = _bench_module("run"), _bench_module("checks")
    workload = run.WORKLOADS["pipeline_2w"]
    wd, synth = tmp_path / "work", tmp_path / "synth"
    base = run.global_args(wd, None)
    assert cli.main([*base, "synth", "--out", str(synth), *workload.synth_args]) == 0
    for name, args in run.stage_commands(workload, synth):
        assert cli.main([*base, *args]) == 0, name
    assert checks.check_workdir(wd, synth, workload.splits) == []
