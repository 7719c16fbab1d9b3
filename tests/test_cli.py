import csv
import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from suspkit import cli, pipeline
from suspkit.corpus import CorpusStore
from suspkit.errors import SuspkitError
from suspkit.graph_embedding import (
    RELATIONS,
    build_graph,
    evaluate as evaluate_ranking,
    export_node_features,
    load_embeddings,
    read_graph_csv,
    save_embeddings,
    split_edges,
    train_embeddings,
    write_graph_csv,
)
from suspkit.manifest import canonical_json, config_hash, file_sha256, stage_seed
from suspkit.pipeline import (
    GRAPH_HOLDOUT_FRACTION,
    SELECT_THRESHOLD,
    PipelineConfig,
    extract_split_features,
    train_with_cv,
)
from suspkit.suspension_model import (
    SPLIT_SECOND_TEST,
    SPLIT_TEST,
    FeatureMatrix,
    evaluate as evaluate_model,
    save_model,
    select_features,
)

from conftest import graph_split_fit


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One full stage sequence over a tiny generated corpus."""
    wd = tmp_path_factory.mktemp("cli-run")
    synth_dir = wd / "synth"
    base = ["--workdir", str(wd), "--seed", "3"]
    codes = {}
    codes["synth"] = cli.main(
        base + ["synth", "--out", str(synth_dir), "--suspended", "12", "--normal", "12"]
    )
    codes["ingest"] = cli.main(
        base
        + [
            "ingest",
            "--tweets", str(synth_dir / "tweets.jsonl"),
            "--snapshots", str(synth_dir / "snapshots.jsonl"),
            "--labels", str(synth_dir / "labels.csv"),
        ]
    )
    codes["features"] = cli.main(base + ["features"])
    codes["train"] = cli.main(base + ["train"])
    codes["evaluate"] = cli.main(base + ["evaluate", "--split", "test"])
    codes["explain"] = cli.main(base + ["explain"])
    codes["cluster"] = cli.main(base + ["cluster"])
    codes["graph"] = cli.main(base + ["graph"])
    codes["report"] = cli.main(base + ["report"])
    return wd, codes


class TestUsageErrors:
    def test_missing_stage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_stage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compress"])
        assert exc.value.code == 2

    def test_bad_split_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--split", "bogus"])
        assert exc.value.code == 2


class TestStageSequence:
    def test_all_stages_exit_zero(self, workdir):
        _, codes = workdir
        assert codes == {name: 0 for name in codes}

    def test_expected_artifacts_exist(self, workdir):
        wd, _ = workdir
        expected = [
            "corpus.sqlite",
            "ingest_stats.json",
            "features_train.csv",
            "features_test.csv",
            "families.json",
            "users.json",
            "model.json",
            "cv_report.json",
            "report_test.json",
            "roc_test.csv",
            "pr_test.csv",
            "explanations.csv",
            "impact_summary.csv",
            "clusters.jsonl",
            "clusters_digest.txt",
            "wallets.csv",
            "keywords.json",
            "graph.csv",
            "graph_embeddings.emb1",
            "graph_ranking.json",
            "report.json",
        ]
        missing = [name for name in expected if not (wd / name).exists()]
        assert missing == []

    def test_manifests_per_stage(self, workdir):
        wd, _ = workdir
        stages = [
            "synth", "ingest", "features", "train", "evaluate_test",
            "explain", "cluster", "graph", "report",
        ]
        for stage in stages:
            manifest = json.loads((wd / f"{stage}.manifest.json").read_text())
            assert manifest["format"] == "run-manifest-v1"
            assert manifest["stage"] == stage
            assert manifest["root_seed"] == 3  # --seed flag propagates
            assert manifest["outputs"]
            assert (wd / f"{stage}.timing.json").exists()

    def test_explain_manifest_names_its_background(self, workdir):
        # The test split is explained against training rows: both files are inputs.
        wd, _ = workdir
        inputs = json.loads((wd / "explain.manifest.json").read_text())["inputs"]
        assert inputs == {
            "model": "model.json",
            "features": "features_test.csv",
            "background": "features_train.csv",
        }

    def test_ingest_stats_record_clean_parse(self, workdir):
        wd, _ = workdir
        stats = json.loads((wd / "ingest_stats.json").read_text())
        assert set(stats) == {"tweets", "snapshots", "labels"}
        for block in stats.values():
            assert block["skipped"] == 0

    def test_report_aggregates_sections(self, workdir):
        wd, _ = workdir
        report = json.loads((wd / "report.json").read_text())
        for key in ("cv", "test", "graph", "clusters", "wallets", "top_features"):
            assert key in report, key
        assert report["test"]["split"] == "test"
        assert report["wallets"]["total"] >= 1

    def test_report_counts_each_folds_features(self, workdir):
        wd, _ = workdir
        cv = json.loads((wd / "cv_report.json").read_text())
        summary = json.loads((wd / "report.json").read_text())["cv"]
        assert [fold["n_features"] for fold in summary["folds"]] == [
            len(fold["features"]) for fold in cv["folds"]]
        assert all("features" not in fold for fold in summary["folds"])
        assert summary["mean"] == cv["mean"]

    def test_families_subset_flag(self, workdir, tmp_path):
        wd, _ = workdir
        other = tmp_path / "subset"
        other.mkdir()
        # reuse the ingested corpus by copying the store file
        (other / "corpus.sqlite").write_bytes((wd / "corpus.sqlite").read_bytes())
        code = cli.main(
            ["--workdir", str(other), "--seed", "3",
             "features", "--families", "profile,activity"]
        )
        assert code == 0
        families = json.loads((other / "families.json").read_text())
        assert set(families) == {"profile", "activity"}

    def test_toxicity_scores_flag(self, workdir, tmp_path):
        wd, _ = workdir
        _copy(["corpus.sqlite"], wd, tmp_path)
        with open(wd / "clusters.jsonl", encoding="utf-8") as fh:
            known = [json.loads(line)["leader_item_id"] for line in fh][:4]
        scores = tmp_path / "toxicity.csv"
        rows = zip(known + ["t-unknown-1", "t-unknown-2"], ["0.9", "0.2", "0.5", "0.7", "1", "0"])
        scores.write_text("tweet_id,score\n" + "".join(f"{i},{v}\n" for i, v in rows),
                          encoding="utf-8")
        base = ["--workdir", str(tmp_path), "--seed", "3"]
        assert cli.main(base + ["cluster", "--toxicity-scores", str(scores)]) == 0
        assert cli.main(base + ["report"]) == 0
        # 0.5 is not above the threshold.
        expected = {"scored": 4, "toxic": 2, "fraction": 0.5, "skipped_unknown": 2,
                    "threshold": 0.5}
        toxicity = tmp_path / "toxicity.json"
        assert toxicity.read_text(encoding="utf-8") == canonical_json(expected) + "\n"
        manifest = json.loads((tmp_path / "cluster.manifest.json").read_text())
        assert manifest["inputs"]["toxicity_scores"] == "toxicity.csv"
        digest = hashlib.sha256(toxicity.read_bytes()).hexdigest()
        assert manifest["outputs"]["toxicity.json"] == digest
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["toxicity"] == expected


    def test_stage_flags_enter_the_config_hash(self, workdir, tmp_path):
        wd, _ = workdir
        _copy(["corpus.sqlite"], wd, tmp_path)
        base = ["--workdir", str(tmp_path), "--seed", "3"]
        hashes = []
        for tau in (["--tau", "0.8"], []):
            assert cli.main(base + ["cluster", *tau]) == 0
            manifest = json.loads((tmp_path / "cluster.manifest.json").read_text())
            hashes.append(manifest["config_hash"])
        config = PipelineConfig(workdir=str(tmp_path), seed=3, tau=0.8)
        assert hashes[0] == config_hash(config.to_dict())
        assert hashes[0] != hashes[1]

    def test_explain_covers_the_test_split(self, workdir):
        wd, _ = workdir
        test = FeatureMatrix.from_csv(wd / "features_test.csv")
        with open(wd / "explanations.csv", newline="", encoding="utf-8") as fh:
            explained = list(dict.fromkeys(row["user_id"] for row in csv.DictReader(fh)))
        assert explained == test.user_ids
        # So the explained users' label mix is the split's: both classes.
        assert sorted(set(test.y.tolist())) == [0, 1]

    def test_explain_takes_no_rows_flag(self, workdir, capsys):
        wd, _ = workdir
        with pytest.raises(SystemExit) as exc:
            cli.main(["--workdir", str(wd), "explain", "--rows", "4"])
        assert exc.value.code == 2
        assert "--rows" in capsys.readouterr().err


def _assert_one_bad_value_skipped(workdir, tmp_path, name, old, new):
    """Ingest the workdir's corpus with the first `old` in the `name`
    file replaced by `new`; that one record is skipped as bad_value."""
    wd, _ = workdir
    paths = {n: wd / "synth" / f"{n}.jsonl" for n in ("tweets", "snapshots")}
    damaged = paths[name].read_bytes()
    assert old in damaged
    paths[name] = tmp_path / f"{name}.jsonl"
    paths[name].write_bytes(damaged.replace(old, new, 1))
    code = cli.main(
        ["--workdir", str(tmp_path), "--seed", "3", "ingest",
         "--tweets", str(paths["tweets"]), "--snapshots", str(paths["snapshots"]),
         "--labels", str(wd / "synth" / "labels.csv")]
    )
    assert code == 0
    stats = json.loads((tmp_path / "ingest_stats.json").read_text())
    clean = json.loads((wd / "ingest_stats.json").read_text())
    assert stats[name]["skipped_by_reason"] == {"bad_value": 1}
    assert stats[name]["parsed"] == clean[name]["parsed"] - 1


class TestFailureModes:
    def test_evaluate_before_train_exits_3(self, tmp_path, capsys):
        code = cli.main(["--workdir", str(tmp_path), "evaluate", "--split", "test"])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "MissingArtifact"
        assert err["stage"] == "evaluate"

    def test_ingest_missing_file_exits_3(self, tmp_path, capsys):
        code = cli.main(
            ["--workdir", str(tmp_path), "ingest",
             "--tweets", str(tmp_path / "none.jsonl"),
             "--snapshots", str(tmp_path / "none.jsonl"),
             "--labels", str(tmp_path / "none.csv")]
        )
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "MissingArtifact"

    def test_unknown_config_key_exits_3(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"mystery_knob": 5}')
        code = cli.main(["--config", str(config), "--workdir", str(tmp_path), "report"])
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ValueError"

    @pytest.mark.parametrize("content", ["[]", "null", '"x"'], ids=["list", "null", "string"])
    def test_config_that_is_not_an_object_exits_3(self, tmp_path, capsys, content):
        config = tmp_path / "config.json"
        config.write_text(content)
        code = cli.main(["--config", str(config), "--workdir", str(tmp_path), "report"])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "JSON object" in err["message"]

    @pytest.mark.parametrize(
        "content", ['{"window_days": "21"}', '{"n_rounds": "30"}', '{"tau": true}',
                    '{"families": "profile"}', '{"embeddings_file": 3}',
                    '{"explain_instances": 64}'],
        ids=["int", "int-rounds", "float", "tuple", "optional-str", "retired-key"],
    )
    def test_mistyped_config_value_exits_3(self, tmp_path, capsys, content):
        config = tmp_path / "config.json"
        config.write_text(content)
        code = cli.main(["--config", str(config), "--workdir", str(tmp_path), "synth",
                         "--suspended", "2", "--normal", "2"])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert next(iter(json.loads(content))) in err["message"]
        assert not (tmp_path / "synth").exists()

    def test_unexpected_exception_exits_4(self, tmp_path, capsys, monkeypatch):
        def boom(config, args, workdir):
            raise RuntimeError("wires crossed")

        monkeypatch.setitem(cli._COMMANDS, "report", boom)
        code = cli.main(["--workdir", str(tmp_path), "report"])
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InternalError"
        assert err["type"] == "RuntimeError"

    def test_failed_ingest_keeps_the_previous_store(self, workdir, tmp_path, capsys, monkeypatch):
        wd, _ = workdir
        (tmp_path / "corpus.sqlite").write_bytes((wd / "corpus.sqlite").read_bytes())
        before = (tmp_path / "corpus.sqlite").read_bytes()
        bad_labels = tmp_path / "labels.csv"
        bad_labels.write_bytes((wd / "synth" / "labels.csv").read_bytes())
        ingest_snapshots = CorpusStore.ingest_snapshots

        def then_lose_the_labels(store, source):
            # The labels file vanishes after tweets and snapshots are in
            # the new store: reading it fails midway with FileNotFoundError.
            stats = ingest_snapshots(store, source)
            bad_labels.unlink()
            return stats

        monkeypatch.setattr(CorpusStore, "ingest_snapshots", then_lose_the_labels)
        code = cli.main(
            ["--workdir", str(tmp_path), "--seed", "3", "ingest",
             "--tweets", str(wd / "synth" / "tweets.jsonl"),
             "--snapshots", str(wd / "synth" / "snapshots.jsonl"),
             "--labels", str(bad_labels)]
        )
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip())["stage"] == "ingest"
        assert (tmp_path / "corpus.sqlite").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir() if ".tmp" in p.name] == []

    def test_invalid_utf8_records_are_skipped_and_counted(self, workdir, tmp_path):
        wd, _ = workdir
        tweets = (wd / "synth" / "tweets.jsonl").read_bytes()
        labels = (wd / "synth" / "labels.csv").read_bytes()
        (tmp_path / "tweets.jsonl").write_bytes(tweets.replace(b'"text": "', b'"text": "\xff', 1))
        (tmp_path / "labels.csv").write_bytes(labels.replace(b"\n", b"\n\xff", 1))
        code = cli.main(
            ["--workdir", str(tmp_path), "--seed", "3", "ingest",
             "--tweets", str(tmp_path / "tweets.jsonl"),
             "--snapshots", str(wd / "synth" / "snapshots.jsonl"),
             "--labels", str(tmp_path / "labels.csv")]
        )
        assert code == 0
        stats = json.loads((tmp_path / "ingest_stats.json").read_text())
        clean = json.loads((wd / "ingest_stats.json").read_text())
        for name in ("tweets", "labels"):
            assert stats[name]["skipped"] == 1
            assert stats[name]["skipped_by_reason"] == {"invalid_utf8": 1}
            assert stats[name]["parsed"] == clean[name]["parsed"] - 1
        assert stats["snapshots"] == clean["snapshots"]

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("tweets", b'"created_at": ', b'"created_at": 1e23, "x": '),
            ("snapshots", b'"followers": ', b'"followers": 18446744073709551616, "x": '),
        ],
        ids=["tweet_created_at_1e23", "snapshot_followers_2_64"],
    )
    def test_integers_outside_64_bits_are_skipped_as_bad_values(
        self, workdir, tmp_path, name, old, new
    ):
        # SQLite stores signed 64-bit integers; a larger one is a bad
        # value of its record, not a failure of the stage.  The field's
        # old value stays in the record under an unread key.
        _assert_one_bad_value_skipped(workdir, tmp_path, name, old, new)

    def test_non_string_lang_is_skipped_as_bad_value(self, workdir, tmp_path):
        _assert_one_bad_value_skipped(
            workdir, tmp_path, "tweets", b'"lang": ', b'"lang": false, "x": '
        )

    @pytest.mark.parametrize(
        "content, line",
        [
            ("", None),
            ("user_id,a,b,label\nu1,1.0,2.0,1\nu2,3.0,0\n", 3),
        ],
        ids=["empty", "ragged"],
    )
    def test_malformed_feature_csv_exits_3(self, tmp_path, capsys, content, line):
        (tmp_path / "features_train.csv").write_text(content, encoding="utf-8")
        code = cli.main(["--workdir", str(tmp_path), "train"])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaMismatch"
        if line is not None:
            assert f"line {line} " in err["message"]

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_corrupt_store_exits_3(self, workdir, tmp_path, capsys, damage):
        wd, _ = workdir
        good = (wd / "corpus.sqlite").read_bytes()
        bad = b"not a database " * 64 if damage == "garbage" else good[: len(good) // 3]
        (tmp_path / "corpus.sqlite").write_bytes(bad)
        code = cli.main(["--workdir", str(tmp_path), "features"])
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "DatabaseError"

    @pytest.mark.parametrize(
        "name, content",
        [
            ("wallets.csv", "address,chain\n1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa,bitcoin\n"),
            ("clusters.jsonl", '{"cluster_id": 0, "size": 2}\n{"cluster_id": 1}\n'),
            ("impact_summary.csv", "name,mean_abs_shap\naccount_age_days,0.5\n"),
            ("cv_report.json", '{"mean": {"f1": 1.0}}'),
            ("cv_report.json", '{"folds": [{"fold": 0, "f1": 1.0}]}'),
            ("cv_report.json", '{"folds": ["fold 0"]}'),
        ],
        ids=["wallets-without-ids", "cluster-without-size", "summary-without-feature",
             "cv-without-folds", "fold-without-features", "fold-not-an-object"],
    )
    def test_damaged_report_input_exits_3(self, tmp_path, capsys, name, content):
        (tmp_path / name).write_text(content, encoding="utf-8")
        code = cli.main(["--workdir", str(tmp_path), "report"])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaMismatch"
        assert err["stage"] == "report"
        assert name in err["message"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "content",
        ["{", "[]", "{}", '{"inputs": [], "outputs": {}}',
         '{"inputs": {"a": []}, "outputs": {}}'],
        ids=["not-json", "list", "empty-object", "inputs-a-list", "unhashable-input"],
    )
    def test_damaged_manifest_exits_3(self, tmp_path, capsys, content):
        # A rerun reads each manifest in the workdir, and removes nothing
        # when one is damaged.
        (tmp_path / "cv_report.json").write_text('{"folds": [], "mean": {}}', encoding="utf-8")
        argv = ["--workdir", str(tmp_path), "report"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        report = (tmp_path / "report.json").read_bytes()
        (tmp_path / "graph.manifest.json").write_text(content, encoding="utf-8")
        assert cli.main(argv) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaMismatch" and "graph.manifest.json" in err["message"]
        assert (tmp_path / "report.json").read_bytes() == report

    @pytest.mark.parametrize(
        "content",
        ["source,relation,weight\nu1,mention,1\n",
         "source,relation,destination,weight\nu1,mention\n"],
        ids=["header-without-destination", "short-row"],
    )
    def test_damaged_graph_csv_exits_3(self, tmp_path, capsys, content):
        (tmp_path / "graph.csv").write_text(content, encoding="utf-8")
        assert cli.main(["--workdir", str(tmp_path), "graph"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaMismatch" and "graph.csv" in err["message"]
        assert not (tmp_path / "graph_ranking.json").exists()

    @pytest.mark.parametrize(
        "damage",
        [lambda model: model.pop("inner"), lambda model: model.update(inner=[]),
         lambda model: model.pop("kind"), lambda model: model.update(kind="forest"),
         lambda model: model.pop("format"), lambda model: model.update(format="v0"),
         lambda model: model.clear()],
        ids=["without-inner", "inner-not-an-object", "without-kind", "unknown-kind",
             "without-format", "unknown-format", "empty-object"],
    )
    def test_damaged_model_json_exits_3(self, workdir, tmp_path, capsys, damage):
        wd, _ = workdir
        model = json.loads((wd / "model.json").read_text(encoding="utf-8"))
        damage(model)
        (tmp_path / "model.json").write_text(json.dumps(model), encoding="utf-8")
        _copy(["features_test.csv"], wd, tmp_path)
        assert cli.main(["--workdir", str(tmp_path), "evaluate", "--split", "test"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SchemaMismatch" and "model.json" in err["message"]
        assert not (tmp_path / "report_test.json").exists()


FAST_CONFIG = {
    "encoder_dim": 64,
    "pca_components": 8,
    "graph_dim": 8,
    "graph_epochs": 30,
    "graph_batch": 64,
    "n_rounds": 30,
    "max_depth": 3,
    "k_folds": 3,
}


@pytest.fixture(scope="module")
def two_window_run(tmp_path_factory):
    """CLI features, train and both evaluations on a two-window corpus."""
    wd = tmp_path_factory.mktemp("cli-two-windows")
    config_path = wd / "config.json"
    config_path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    synth_dir = wd / "synth"
    base = ["--config", str(config_path), "--workdir", str(wd), "--seed", "3"]
    sequence = [
        ["synth", "--out", str(synth_dir), "--suspended", "30", "--normal", "30",
         "--windows", "2"],
        ["ingest",
         "--tweets", str(synth_dir / "tweets.jsonl"),
         "--snapshots", str(synth_dir / "snapshots.jsonl"),
         "--labels", str(synth_dir / "labels.csv")],
        ["features"],
        ["train"],
        ["evaluate", "--split", "test"],
        ["evaluate", "--split", "second_test"],
    ]
    for args in sequence:
        assert cli.main(base + args) == 0, args
    return wd


class TestCliMatchesPipeline:
    def test_artifacts_equal_pipeline_calls(self, two_window_run, tmp_path):
        wd = two_window_run
        config = PipelineConfig.from_dict(dict(FAST_CONFIG, seed=3))
        with CorpusStore(wd / "corpus.sqlite") as store:
            split = extract_split_features(store, config)
        assert split.second_test is not None
        model, cv_folds, cv_mean = train_with_cv(split.train.combined, config)

        expected = {
            "cv_report.json": canonical_json({
                "folds": [fold.to_dict() for fold in cv_folds],
                "mean": cv_mean.to_dict(),
            }) + "\n",
            "report_test.json": canonical_json(
                evaluate_model(model, split.test.combined, SPLIT_TEST).to_dict()
            ) + "\n",
            "report_second_test.json": canonical_json(
                evaluate_model(model, split.second_test.combined, SPLIT_SECOND_TEST).to_dict()
            ) + "\n",
        }
        for name, text in expected.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        save_model(tmp_path / "model.json", model)
        for name, feats in (
            ("train", split.train),
            ("test", split.test),
            ("second_test", split.second_test),
        ):
            feats.combined.to_csv(tmp_path / f"features_{name}.csv")

        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 7
        for name in names:
            assert (wd / name).read_bytes() == (tmp_path / name).read_bytes(), name


class TestStaleSplits:
    def test_features_without_a_second_test_removes_its_artifacts(
        self, two_window_run, workdir, tmp_path, capsys
    ):
        # A two-window run scored second_test; then a one-window corpus
        # is ingested into the same workdir and featurized.
        split_files = ["features_second_test.csv", "report_second_test.json",
                       "roc_second_test.csv", "pr_second_test.csv"]
        _copy(["config.json", "features_test.csv", *split_files, "features.manifest.json",
               "evaluate_second_test.manifest.json"], two_window_run, tmp_path)
        synth_dir = workdir[0] / "synth"
        base = ["--config", str(tmp_path / "config.json"), "--workdir", str(tmp_path),
                "--seed", "3"]
        assert cli.main(base + ["ingest",
                                "--tweets", str(synth_dir / "tweets.jsonl"),
                                "--snapshots", str(synth_dir / "snapshots.jsonl"),
                                "--labels", str(synth_dir / "labels.csv")]) == 0
        assert cli.main(base + ["features"]) == 0
        assert [name for name in split_files if (tmp_path / name).exists()] == []
        assert cli.main(base + ["train"]) == 0
        capsys.readouterr()
        assert cli.main(base + ["evaluate", "--split", "second_test"]) == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "MissingArtifact"
        assert cli.main(base + ["report"]) == 0
        assert "second_test" not in json.loads((tmp_path / "report.json").read_text())


    def test_features_without_a_second_test_removes_its_evaluate_manifest(
        self, two_window_run, workdir, tmp_path
    ):
        # The evaluate manifest of a split that is gone would name outputs
        # that no longer exist.
        stale = ["features_second_test.csv", "report_second_test.json",
                 "evaluate_second_test.manifest.json", "evaluate_second_test.timing.json"]
        _copy(["config.json", *stale, "features.manifest.json"], two_window_run, tmp_path)
        _copy(["corpus.sqlite"], workdir[0], tmp_path)
        argv = ["--config", str(tmp_path / "config.json"), "--workdir", str(tmp_path),
                "--seed", "3", "features"]
        assert cli.main(argv) == 0
        assert [name for name in stale if (tmp_path / name).exists()] == []


def _tree_bytes(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestRerunLineage:
    """A rerun removes what the stage's previous run wrote and everything
    whose manifest names one of those files as an input."""

    def test_manifests_close_over_the_workdir(self, workdir):
        wd, _ = workdir
        manifests = {p.name: json.loads(p.read_text()) for p in wd.glob("*.manifest.json")}
        written = Counter(name for m in manifests.values() for name in m["outputs"])
        inside = [name for m in manifests.values() for name in m["inputs"].values()
                  if (wd / name).resolve().is_relative_to(wd.resolve())]
        # The corpus files (synth -> ingest) and every file `report` read count.
        assert {"synth/tweets.jsonl", "corpus.sqlite", "cv_report.json",
                "impact_summary.csv"} <= set(inside)
        assert {name: written[name] for name in inside} == {name: 1 for name in inside}
        for m in manifests.values():
            for name, digest in m["outputs"].items():
                assert file_sha256(wd / name) == digest, name

    def test_a_moved_workdir_reruns_on_its_own_files(self, workdir, tmp_path):
        wd, _ = workdir
        before = _tree_bytes(wd)
        moved = tmp_path / "moved"
        shutil.copytree(wd, moved)
        assert cli.main(["--workdir", str(moved), "--seed", "3", "train"]) == 0
        for gone in ("report_test.json", "roc_test.csv", "evaluate_test.manifest.json",
                     "explanations.csv", "explain.manifest.json", "report.json",
                     "report.manifest.json", "report.timing.json"):
            assert not (moved / gone).exists(), gone
        for kept in ("features_test.csv", "clusters.jsonl", "graph_ranking.json",
                     "graph.manifest.json", "synth/tweets.jsonl", "corpus.sqlite"):
            assert (moved / kept).read_bytes() == (wd / kept).read_bytes(), kept
        assert _tree_bytes(wd) == before

    def test_synth_leaves_an_outside_corpus_in_place(self, tmp_path):
        wd, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
        base = ["--workdir", str(wd), "--seed", "3", "synth", "--suspended", "2", "--normal", "2"]
        assert cli.main(base + ["--out", str(elsewhere)]) == 0
        corpus = _tree_bytes(elsewhere)
        assert len(corpus) == 3
        assert cli.main(base) == 0
        assert _tree_bytes(elsewhere) == corpus
        assert sorted(_tree_bytes(wd / "synth")) == sorted(corpus)

    def test_retrain_removes_the_old_models_scores(self, two_window_run, tmp_path):
        wd = tmp_path / "run"
        shutil.copytree(two_window_run, wd)

        def run(config, *argv):
            return cli.main(["--config", str(config), "--workdir", str(wd), "--seed", "3", *argv])

        assert run(wd / "config.json", "explain") == 0
        assert run(wd / "config.json", "report") == 0
        old = json.loads((wd / "report.json").read_text())
        assert {"cv", "test", "second_test", "top_features"} <= set(old)
        logistic = tmp_path / "logistic.json"
        logistic.write_text(json.dumps(dict(FAST_CONFIG, model_kind="logistic")))
        assert run(logistic, "train") == 0
        for stage in ("evaluate_test", "evaluate_second_test", "explain", "report"):
            for gone in (f"{stage}.manifest.json", f"{stage}.timing.json"):
                assert not (wd / gone).exists(), gone
        for gone in ("report_test.json", "report_second_test.json", "roc_test.csv",
                     "roc_second_test.csv", "pr_test.csv", "pr_second_test.csv",
                     "explanations.csv", "impact_summary.csv", "report.json"):
            assert not (wd / gone).exists(), gone
        assert run(logistic, "report") == 0
        report = json.loads((wd / "report.json").read_text())
        assert set(report) == {"cv"}
        assert report["cv"] != old["cv"]

    def test_cluster_without_scores_drops_the_old_toxicity(self, workdir, tmp_path):
        wd = tmp_path / "run"
        shutil.copytree(workdir[0], wd)
        with open(wd / "clusters.jsonl", encoding="utf-8") as fh:
            known = [json.loads(line)["leader_item_id"] for line in fh][:2]
        scores = tmp_path / "toxicity.csv"
        scores.write_text(f"tweet_id,score\n{known[0]},0.9\n{known[1]},0.1\n", encoding="utf-8")
        base = ["--workdir", str(wd), "--seed", "3"]
        assert cli.main(base + ["cluster", "--toxicity-scores", str(scores)]) == 0
        assert cli.main(base + ["report"]) == 0
        assert "toxicity" in json.loads((wd / "report.json").read_text())
        assert cli.main(base + ["cluster"]) == 0
        assert not (wd / "toxicity.json").exists()
        assert not (wd / "report.json").exists()
        assert cli.main(base + ["report"]) == 0
        report = json.loads((wd / "report.json").read_text())
        assert "toxicity" not in report and "clusters" in report

    def test_train_failing_midway_leaves_no_model_to_score(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        wd = tmp_path / "run"
        shutil.copytree(workdir[0], wd)

        def failing(matrix, config):
            raise SuspkitError("fit failed")

        monkeypatch.setattr(cli, "train_with_cv", failing)
        base = ["--workdir", str(wd), "--seed", "3"]
        assert cli.main(base + ["train"]) == 3
        assert not (wd / "model.json").exists()
        assert not (wd / "cv_report.json").exists()
        capsys.readouterr()
        assert cli.main(base + ["evaluate", "--split", "test"]) == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "MissingArtifact"


class TestDroppedUsers:
    def test_users_json_names_a_dropped_second_test_user(self, two_window_run, tmp_path):
        # The two-window corpus again, but one second-test user has no
        # window-2 snapshot: features drops them, and users.json says so.
        synth_dir = two_window_run / "synth"
        lost = json.loads((two_window_run / "users.json").read_text())["second_test"]
        lost = sorted(lost)[0]
        snapshots = tmp_path / "snapshots.jsonl"
        with open(synth_dir / "snapshots.jsonl", encoding="utf-8") as src, \
                open(snapshots, "w", encoding="utf-8") as dest:
            dest.writelines(line for line in src if json.loads(line)["user_id"] != lost)
        _copy(["config.json"], two_window_run, tmp_path)
        base = ["--config", str(tmp_path / "config.json"), "--workdir", str(tmp_path),
                "--seed", "3"]
        assert cli.main(base + ["ingest",
                                "--tweets", str(synth_dir / "tweets.jsonl"),
                                "--snapshots", str(snapshots),
                                "--labels", str(synth_dir / "labels.csv")]) == 0
        assert cli.main(base + ["features"]) == 0
        users = json.loads((tmp_path / "users.json").read_text())
        assert lost in users["second_test"]
        assert lost not in FeatureMatrix.from_csv(tmp_path / "features_second_test.csv").user_ids
        assert users["dropped"] == [lost]


def _assert_no_child_processes():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTrainWorkers:
    """`train` forks one worker per CPU; these runs force three."""

    @pytest.fixture
    def train_dir(self, two_window_run, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 3)
        _copy(["config.json", "features_train.csv"], two_window_run, tmp_path)
        return tmp_path

    @staticmethod
    def _argv(wd):
        return ["--config", str(wd / "config.json"), "--workdir", str(wd), "--seed", "3", "train"]

    def test_train_leaves_no_worker_behind(self, two_window_run, train_dir):
        assert cli.main(self._argv(train_dir)) == 0
        _assert_no_child_processes()
        for name in ("model.json", "cv_report.json"):
            assert (train_dir / name).read_bytes() == (two_window_run / name).read_bytes()

    @pytest.mark.parametrize("error, code, reported", [
        (SuspkitError, 3, {"error": "SuspkitError"}),
        (RuntimeError, 4, {"error": "InternalError", "type": "RuntimeError"}),
    ])
    def test_fold_fit_failing_in_a_worker(
        self, train_dir, capsys, monkeypatch, error, code, reported
    ):
        parent = os.getpid()
        kfold_cv = pipeline.kfold_cv

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                raise error("fold fit failed")
            return kfold_cv(*args, **kwargs)

        monkeypatch.setattr(pipeline, "kfold_cv", failing)
        assert cli.main(self._argv(train_dir)) == code
        err = json.loads(capsys.readouterr().err.strip())
        assert {key: err[key] for key in reported} == reported
        assert err["message"] == "fold fit failed"
        if code == 4:
            # The worker's own frames come with the error.
            assert 'raise error("fold fit failed")' in err["traceback"]
            assert "in _train_task" in err["traceback"]
        else:
            assert "traceback" not in err
        _assert_no_child_processes()
        assert pipeline._TRAIN_DATA is None
        assert not (train_dir / "model.json").exists()

    def test_an_empty_fold_selection_exits_3(self, train_dir, capsys):
        # Column `rare` varies in one user only: the selection without that
        # user's fold keeps no column, the one on every user keeps it.
        matrix = FeatureMatrix.from_csv(train_dir / "features_train.csv")
        rare = np.zeros((len(matrix.user_ids), 1))
        rare[0] = 1.0
        matrix = FeatureMatrix(feature_names=("rare",), user_ids=matrix.user_ids, X=rare,
                               y=matrix.y)
        matrix.to_csv(train_dir / "features_train.csv")
        config = PipelineConfig.from_dict(json.loads((train_dir / "config.json").read_text()))
        assert select_features(matrix, threshold=SELECT_THRESHOLD,
                               kind=config.model_kind, hyper=config.hyper()).all()
        assert cli.main(self._argv(train_dir)) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "selection mask keeps no features",
                       "stage": "train"}
        _assert_no_child_processes()
        assert not (train_dir / "model.json").exists()

    def test_forking_beside_running_blas_threads(self, two_window_run, train_dir):
        # No BLAS pinning: OpenBLAS runs its thread pool when train forks.
        env = {key: value for key, value in os.environ.items()
               if not key.endswith("_NUM_THREADS")}
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import sys; import numpy as np; np.ones((400, 400)) @ np.ones((400, 400));"
            "from suspkit import cli, pipeline; pipeline.cpu_count = lambda: 2;"
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        done = subprocess.run([sys.executable, "-c", script, *self._argv(train_dir)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert (train_dir / "model.json").read_bytes() == (two_window_run / "model.json").read_bytes()


@pytest.fixture(scope="module")
def graph_run(workdir, tmp_path_factory):
    """CLI `features` then `graph` on the small corpus, each graph fit
    recorded with the stage that made it."""
    source, _ = workdir
    wd = tmp_path_factory.mktemp("cli-graph-fit")
    (wd / "corpus.sqlite").write_bytes((source / "corpus.sqlite").read_bytes())
    config_path = wd / "config.json"
    config_path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    fits, stage = [], []

    def counted(graph, **kwargs):
        fits.append(stage[-1])
        return train_embeddings(graph, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "train_embeddings", counted)
        for name in ("features", "graph"):
            stage.append(name)
            argv = ["--config", str(config_path), "--workdir", str(wd), "--seed", "3", name]
            assert cli.main(argv) == 0, name
    return wd, PipelineConfig.from_dict(dict(FAST_CONFIG, seed=3)), fits


def _copy(names, source, dest):
    for name in names:
        (dest / name).write_bytes((source / name).read_bytes())


class TestOneGraphFit:
    def test_one_fit_in_features(self, graph_run):
        _, _, fits = graph_run
        assert fits == ["features"]

    def test_features_writes_the_split_fit(self, graph_run, tmp_path):
        wd, config, _ = graph_run
        with CorpusStore(wd / "corpus.sqlite") as store:
            graph = build_graph(store.interactions(config.windows()[0]),
                                relations=RELATIONS)
        emb, _ = graph_split_fit(graph, config)
        write_graph_csv(tmp_path / "graph.csv", graph)
        save_embeddings(tmp_path / "graph_embeddings.emb1", emb)
        outputs = json.loads((wd / "features.manifest.json").read_text())["outputs"]
        for name in ("graph.csv", "graph_embeddings.emb1"):
            assert (wd / name).read_bytes() == (tmp_path / name).read_bytes(), name
            assert name in outputs
        for split in ("train", "test"):
            matrix = FeatureMatrix.from_csv(wd / f"features_{split}.csv")
            columns = [i for i, n in enumerate(matrix.feature_names) if n.startswith("graph_vec_")]
            expected = export_node_features(emb, matrix.user_ids)
            assert matrix.X[:, columns].tobytes() == expected.tobytes(), split

    def test_graph_ranks_the_stored_embeddings(self, graph_run, tmp_path):
        wd, config, _ = graph_run
        _, held_out = split_edges(
            read_graph_csv(wd / "graph.csv"), fraction=GRAPH_HOLDOUT_FRACTION,
            seed=stage_seed(3, "graph-split"),
        )

        def check(run_dir):
            ranking = json.loads((run_dir / "graph_ranking.json").read_text())
            expected = evaluate_ranking(
                load_embeddings(run_dir / "graph_embeddings.emb1"), held_out,
                negatives_per_positive=100, seed=stage_seed(3, "graph-neg"),
            )
            assert (ranking["mrr"], ranking["auc"]) == (expected.mrr, expected.auc)
            assert ranking["held_out_edges"] == len(held_out)
            return ranking["mrr"]

        mrr = check(wd)
        # The stage ranks whatever embeddings it finds and needs no store:
        # with the relation vectors negated, the ranking follows the file.
        _copy(["graph.csv", "config.json"], wd, tmp_path)
        emb = load_embeddings(wd / "graph_embeddings.emb1")
        emb.relation_vectors = -emb.relation_vectors
        save_embeddings(tmp_path / "graph_embeddings.emb1", emb)
        argv = ["--config", str(tmp_path / "config.json"), "--workdir", str(tmp_path),
                "--seed", "3", "graph"]
        assert cli.main(argv) == 0
        assert check(tmp_path) != mrr
        inputs = json.loads((tmp_path / "graph.manifest.json").read_text())["inputs"]
        assert inputs == {"graph": "graph.csv", "embeddings": "graph_embeddings.emb1"}

    def test_stale_embeddings_exit_3(self, graph_run, tmp_path, capsys):
        wd, _, _ = graph_run
        _copy(["graph.csv", "graph_embeddings.emb1"], wd, tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(dict(FAST_CONFIG, graph_dim=4)), encoding="utf-8")
        code = cli.main(["--config", str(config_path), "--workdir", str(tmp_path), "graph"])
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "StaleArtifact"

    def test_features_without_graph_removes_graph_artifacts(self, graph_run, tmp_path, capsys):
        wd, _, _ = graph_run
        _copy(["corpus.sqlite", "graph.csv", "graph_embeddings.emb1", "features.manifest.json"],
              wd, tmp_path)
        base = ["--workdir", str(tmp_path), "--seed", "3"]
        assert cli.main(base + ["features", "--families", "profile,activity"]) == 0
        assert not (tmp_path / "graph.csv").exists()
        assert not (tmp_path / "graph_embeddings.emb1").exists()
        capsys.readouterr()
        assert cli.main(base + ["graph"]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "MissingArtifact" and "run features" in err["message"]

    def test_features_without_graph_drops_the_old_ranking_from_the_report(
        self, graph_run, tmp_path
    ):
        wd, _, _ = graph_run
        _copy(["corpus.sqlite", "graph.csv", "graph_embeddings.emb1", "config.json",
               "features.manifest.json"], wd, tmp_path)
        base = ["--config", str(tmp_path / "config.json"), "--workdir", str(tmp_path),
                "--seed", "3"]
        assert cli.main(base + ["graph"]) == 0
        assert (tmp_path / "graph_ranking.json").exists()
        assert cli.main(base + ["features", "--families", "profile,activity"]) == 0
        # No graph manifest or timing is left to name the removed ranking.
        for gone in ("graph_ranking.json", "graph.manifest.json", "graph.timing.json"):
            assert not (tmp_path / gone).exists()
        assert cli.main(base + ["train"]) == 0
        assert cli.main(base + ["report"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "cv" in report and "graph" not in report

    def test_graph_without_training_edges_exits_3(self, tmp_path, capsys):
        (tmp_path / "graph.csv").write_text("source,relation,destination,weight\nu1,mention,u2,1\n")
        assert cli.main(["--workdir", str(tmp_path), "graph"]) == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "EmptyGraph"
