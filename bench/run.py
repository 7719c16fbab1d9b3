#!/usr/bin/env python3
"""End-to-end benchmark of the suspkit pipeline.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload pipeline_2w --seed 3 --seconds 45 --trace 0

Set-up generates the workload's corpus with `suspkit synth` several
times and reports the median as `setup_s`.  Each measured round then
runs every stage from `ingest` to `report` as its own `suspkit` CLI
process, one at a time, in a fresh workdir, and checks the outputs
(bench/checks.py).  Rounds repeat while another one fits in
`--seconds`; every metric is the median over rounds.  With `--trace 1`
one more pass runs all stages in a single traced process
(bench/layer_trace.py) and the per-layer metrics are printed instead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Everything else a run
leaves behind goes to .bench_out/<workload>-seed<seed>/.
"""

from __future__ import annotations

import os

# Every stage process inherits these.  On a small machine the default
# BLAS/OpenMP pools slow the stages down and make timings noisy, and
# they change the bits of the PCA-reduced feature columns.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layer_trace

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# Both workloads run at root seed 3, whatever --seed is.  The cost of a
# corpus depends on how many features the model keeps, and that moves
# with the seed: on pipeline_2w the GBDT kept 6-9 features and exact
# Shapley costs 2^m, so `explain` took 3.6-23.5 s on seeds 1, 2, 4, 5; on
# content_logistic 111-128 features (sampled Shapley, linear in m) and
# the graph size gave explain 4.2-7.8 s and graph 5.9-9.9 s on seeds
# 11-20.  A seed-dependent corpus would leave no bound able to hold.
ROOT_SEED = 3


@dataclass(frozen=True)
class Workload:
    synth_args: tuple[str, ...]
    config: dict = field(default_factory=dict)
    windows: int = 1

    @property
    def splits(self) -> tuple[str, ...]:
        return ("test", "second_test") if self.windows == 2 else ("test",)


# pipeline_2w is the ROADMAP north-star: GBDT fitting and exact Shapley
# over GBDT predictions dominate.  content_logistic is a scam burst of
# ~37k suspended-account posts with the logistic model: clustering, the
# n-gram encoder, the wallet scan and graph training dominate and no
# GBDT code runs, so it is the no-change case for GBDT/TreeSHAP work.
WORKLOADS = {
    "pipeline_2w": Workload(
        synth_args=("--suspended", "400", "--normal", "400", "--windows", "2"),
        windows=2,
    ),
    "content_logistic": Workload(
        synth_args=("--suspended", "1600", "--normal", "200", "--windows", "1"),
        config={"model_kind": "logistic"},
    ),
}

MODEL_STAGES = ("train", "evaluate", "explain")
CONTENT_STAGES = ("cluster", "graph")


def stage_commands(workload: Workload, synth_dir: Path) -> list[tuple[str, list[str]]]:
    """(timing name, CLI arguments after the global options) per stage."""
    stages = [
        ("ingest", ["ingest",
                    "--tweets", str(synth_dir / "tweets.jsonl"),
                    "--snapshots", str(synth_dir / "snapshots.jsonl"),
                    "--labels", str(synth_dir / "labels.csv")]),
        ("features", ["features"]),
        ("train", ["train"]),
    ]
    stages += [(f"evaluate_{s}", ["evaluate", "--split", s]) for s in workload.splits]
    stages += [("explain", ["explain"]), ("cluster", ["cluster"]),
               ("graph", ["graph"]), ("report", ["report"])]
    return stages


def global_args(workdir: Path, config_path: Path | None) -> list[str]:
    args = ["--workdir", str(workdir), "--seed", str(ROOT_SEED)]
    if config_path is not None:
        args += ["--config", str(config_path)]
    return args


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], log: Path, env: dict[str, str]) -> tuple[int, float, float]:
    """Run one process to its end; (exit code, wall seconds, peak RSS MB)."""
    with open(log, "wb") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def reference_kernel_ms() -> float:
    """Time of a fixed pure-Python loop: machine context, not a metric."""
    started = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return (time.perf_counter() - started) * 1000.0


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def setup(workload: Workload, out: Path, env: dict[str, str],
          repeats: int) -> tuple[Path, float]:
    """Generate the corpus `repeats` times; (corpus dir, median seconds)."""
    seconds, digests = [], set()
    corpus = None
    for k in range(repeats):
        workdir = out / f"setup{k}"
        corpus = workdir / "synth"
        argv = [sys.executable, "-m", "suspkit.cli",
                *global_args(workdir, None),
                "synth", "--out", str(corpus), *workload.synth_args]
        code, wall, _ = run_process(argv, out / f"setup{k}.log", env)
        if code != 0:
            raise SystemExit(f"synth exited {code}; see {out / f'setup{k}.log'}")
        seconds.append(wall)
        digests.add(tree_digest(corpus))
        if k:
            shutil.rmtree(out / f"setup{k - 1}")
    if len(digests) != 1:
        raise SystemExit("synth gave different corpora for the same seed")
    return corpus, statistics.median(seconds)


@dataclass
class Round:
    stage_s: dict[str, float] = field(default_factory=dict)
    sidecar_s: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    graph_mrr: float | None = None
    summaries: dict[str, str] = field(default_factory=dict)
    kernel_ms: list[float] = field(default_factory=list)


def run_round(workload: Workload, corpus: Path, workdir: Path,
              config_path: Path | None, env: dict[str, str]) -> Round:
    workdir.mkdir(parents=True)
    stages = stage_commands(workload, corpus)
    result = Round()
    for i, (name, args) in enumerate(stages):
        argv = [sys.executable, "-m", "suspkit.cli",
                *global_args(workdir, config_path), *args]
        code, wall, rss = run_process(argv, workdir / f"{name}.log", env)
        result.kernel_ms.append(reference_kernel_ms())
        result.stage_s[name] = wall
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        if code != 0:
            result.failed = len(stages) - i
            result.problems.append(f"stage {name} exited {code}; see {workdir / (name + '.log')}")
            return result
        timing = json.loads((workdir / f"{name}.timing.json").read_text())
        result.sidecar_s[name] = timing["seconds"]
        result.summaries[name] = (workdir / f"{name}.log").read_text().strip()[-300:]
    result.problems = checks.check_workdir(workdir, corpus, workload.splits)
    result.graph_mrr = checks.graph_mrr(workdir)
    return result


def end_to_end(rounds: list[Round], setup_s: float) -> dict[str, float]:
    def med(fn) -> float:
        return statistics.median(fn(r) for r in rounds)

    def stages_s(r: Round, prefixes) -> float:
        return sum(s for n, s in r.stage_s.items() if n.startswith(prefixes))

    return {
        "pipeline_s": med(lambda r: sum(r.stage_s.values())),
        "features_s": med(lambda r: r.stage_s["features"]),
        "model_s": med(lambda r: stages_s(r, MODEL_STAGES)),
        "content_s": med(lambda r: stages_s(r, CONTENT_STAGES)),
        "setup_s": setup_s,
        "peak_rss_mb": med(lambda r: r.peak_rss_mb),
        "graph_mrr": med(lambda r: r.graph_mrr),
    }


UNITS = {
    "pipeline_s": "s", "features_s": "s", "model_s": "s", "content_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "graph_mrr": "ratio",
}


def traced_pass(workload: Workload, corpus: Path, out: Path,
                config_path: Path | None, env: dict[str, str]) -> tuple[dict | None, list[str]]:
    """All stages in one traced process; (trace summary or None, problems)."""
    workdir = out / "traced"
    workdir.mkdir(parents=True)
    plan = {
        "stages": [[name, [*global_args(workdir, config_path), *args]]
                   for name, args in stage_commands(workload, corpus)],
        "out": str(out / "trace.json"),
    }
    plan_path = out / "trace_plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    code, _, _ = run_process(
        [sys.executable, str(BENCH_DIR / "layer_trace.py"), str(plan_path)],
        out / "trace.log", env,
    )
    if code != 0:
        return None, [f"traced run exited {code}; see {out / 'trace.log'}"]
    summary = json.loads((out / "trace.json").read_text())
    return summary, checks.check_workdir(workdir, corpus, workload.splits)


def per_layer(summary: dict, untraced: list[Round]) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for name in layer_trace.LAYER_NAMES:
        metrics[name] = (summary["self_s"].get(name, 0.0), "s")
    for name in layer_trace.COUNTER_NAMES:
        metrics[name] = (summary["counts"].get(name, 0), "count")
    metrics["cli.overhead_s"] = (
        statistics.median(sum(r.stage_s.values()) - sum(r.sidecar_s.values()) for r in untraced),
        "s",
    )
    # In-stage time on both sides, so the traced pass's saved interpreter
    # starts do not hide the cost of the wrappers.
    metrics["trace.overhead_s"] = (
        summary["stages_s"] - statistics.median(sum(r.sidecar_s.values()) for r in untraced),
        "s",
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded in the output; the inputs stay at ROOT_SEED")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so run_process kills the running stage.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "suspkit" / "cli.py").is_file():
        print("bench/run.py: run from the root of a suspkit checkout (src/suspkit missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # checks.py loads the model through suspkit

    workload = WORKLOADS[args.workload]
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env(root)

    config_path = None
    if workload.config:
        config_path = out / "config.json"
        config_path.write_text(json.dumps(workload.config, sort_keys=True) + "\n")
    # setup_s is an end-to-end metric only; a traced run generates once.
    corpus, setup_s = setup(workload, out, env, 1 if args.trace else SETUP_REPEATS)

    rounds: list[Round] = []
    measure_started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        workdir = out / f"round{len(rounds)}"
        rounds.append(run_round(workload, corpus, workdir, config_path, env))
        if not rounds[-1].failed:
            shutil.rmtree(workdir)
        elapsed = time.perf_counter() - measure_started
        if elapsed + (time.perf_counter() - round_started) > args.seconds:
            break

    n_stages = len(stage_commands(workload, corpus))
    attempted = n_stages * len(rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    completed = [r for r in rounds if not r.failed]

    if args.trace:
        summary, traced_problems = traced_pass(workload, corpus, out, config_path, env)
        attempted += n_stages
        failed += 0 if summary else n_stages
        problems += traced_problems
        metrics = per_layer(summary, completed) if summary and completed else {}
    else:
        metrics = {name: (value, UNITS[name])
                   for name, value in end_to_end(completed, setup_s).items()} if completed else {}

    kernel_ms = [k for r in rounds for k in r.kernel_ms]
    record = {
        "workload": args.workload, "seed": args.seed, "root_seed": ROOT_SEED, "trace": args.trace,
        "rounds": [r.__dict__ for r in rounds], "setup_s": setup_s,
        "machine_context": {"reference_kernel_ms": kernel_ms, "nproc": os.cpu_count()},
    }
    (out / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"machine context (not a metric): 1M-iteration reference loop after each stage, "
          f"median {statistics.median(kernel_ms):.1f} ms (min {min(kernel_ms):.1f}, "
          f"max {max(kernel_ms):.1f}, n={len(kernel_ms)}); {len(rounds)} round(s)")
    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
