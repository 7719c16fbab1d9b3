import json

import pytest

from suspkit import cli
from suspkit.corpus import CorpusStore
from suspkit.manifest import canonical_json, read_manifest
from suspkit.pipeline import PipelineConfig, run_training
from suspkit.suspension_model import save_model


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
    codes["explain"] = cli.main(base + ["explain", "--rows", "4"])
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
            manifest = read_manifest(wd / f"{stage}.manifest.json")
            assert manifest["format"] == "run-manifest-v1"
            assert manifest["stage"] == stage
            assert manifest["root_seed"] == 3  # --seed flag propagates
            assert manifest["outputs"]
            assert (wd / f"{stage}.timing.json").exists()

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

    def test_unexpected_exception_exits_4(self, tmp_path, capsys, monkeypatch):
        def boom(config, args):
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
    def test_artifacts_equal_run_training(self, two_window_run, tmp_path):
        wd = two_window_run
        config = PipelineConfig.from_dict(dict(FAST_CONFIG, seed=3))
        with CorpusStore(wd / "corpus.sqlite") as store:
            artifacts = run_training(store, config)
        assert artifacts.features_second is not None

        expected = {
            "cv_report.json": canonical_json({
                "folds": [r.to_dict() for r in artifacts.fold_reports],
                "mean": artifacts.cv_mean.to_dict(),
            }) + "\n",
            "report_test.json": canonical_json(artifacts.test_report.to_dict()) + "\n",
            "report_second_test.json":
                canonical_json(artifacts.second_report.to_dict()) + "\n",
        }
        for name, text in expected.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        save_model(tmp_path / "model.json", artifacts.model)
        for split, feats in (
            ("train", artifacts.features_train),
            ("test", artifacts.features_test),
            ("second_test", artifacts.features_second),
        ):
            feats.combined.to_csv(tmp_path / f"features_{split}.csv")

        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 7
        for name in names:
            assert (wd / name).read_bytes() == (tmp_path / name).read_bytes(), name
