"""Metamorphic checks of the whole pipeline: a transformed input must
give the same artifacts, with no reference implementation to compare
against.

Line order: the corpus files are sets of records, so shuffling the lines
of `tweets.jsonl`, of `snapshots.jsonl` and of `labels.csv` below its
header leaves every artifact of a full CLI pass unchanged.  Three kinds of
file are left out of the comparison: `corpus.sqlite`, whose rows follow
the input order; the manifests, whose config hash and input paths name
the other workdir and files; and the timing sidecars.
"""

from pathlib import Path

import numpy as np

from suspkit import cli
from suspkit.synth import GeneratorConfig, generate

# Unequal classes, so that balancing draws a subset of the suspended users.
CORPUS = GeneratorConfig(n_suspended=30, n_normal=20, n_windows=2)


def _shuffle_lines(source: Path, dest: Path, rng: np.random.Generator, header: bool) -> None:
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    head, body = (lines[:1], lines[1:]) if header else ([], lines)
    order = rng.permutation(len(body))
    shuffled = [body[i] for i in order]
    assert shuffled != body
    dest.write_text("".join(head + shuffled), encoding="utf-8")


def _run_all(corpus: dict[str, Path], workdir: Path) -> dict[str, bytes]:
    """A full CLI pass over a corpus: the compared artifacts by name."""
    base = ["--workdir", str(workdir), "--seed", "3"]
    sequence = [
        ["ingest", "--tweets", str(corpus["tweets"]), "--snapshots", str(corpus["snapshots"]),
         "--labels", str(corpus["labels"])],
        ["features"],
        ["train"],
        ["evaluate", "--split", "test"],
        ["evaluate", "--split", "second_test"],
        ["explain"],
        ["cluster"],
        ["graph"],
        ["report"],
    ]
    for argv in sequence:
        assert cli.main(base + argv) == 0, argv
    return {
        path.name: path.read_bytes()
        for path in sorted(workdir.iterdir())
        if path.name != "corpus.sqlite"
        and not path.name.endswith((".manifest.json", ".timing.json"))
    }


def test_line_order_leaves_every_artifact_unchanged(tmp_path):
    original = generate(CORPUS, seed=3, out_dir=tmp_path / "original")
    rng = np.random.default_rng(3)
    (tmp_path / "shuffled").mkdir()
    shuffled = {}
    for name, path in original.items():
        shuffled[name] = tmp_path / "shuffled" / path.name
        _shuffle_lines(path, shuffled[name], rng, header=name == "labels")
    expected = _run_all(original, tmp_path / "work-original")
    got = _run_all(shuffled, tmp_path / "work-shuffled")
    assert sorted(got) == sorted(expected)
    # Every stage's artifacts are compared, the second test split's too.
    assert {"explanations.csv", "clusters.jsonl", "graph_ranking.json",
            "features_second_test.csv", "report.json"} <= set(expected)
    assert [name for name in expected if got[name] != expected[name]] == []
