import hashlib
import json

import pytest

from suspkit.manifest import (
    MANIFEST_FORMAT,
    atomic_path,
    canonical_json,
    config_hash,
    file_sha256,
    stage_seed,
    write_stage_manifest,
    write_timing,
)


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, {"y": 0, "x": None}]}) == (
            '{"a":[2,{"x":null,"y":0}],"b":1}'
        )

    def test_non_ascii_escaped(self):
        assert canonical_json({"k": "café"}) == '{"k":"caf\\u00e9"}'


class TestConfigHash:
    def test_dict_order_does_not_matter(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_value_changes_do_matter(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestStageSeed:
    def test_deterministic(self):
        assert stage_seed(3, "train") == stage_seed(3, "train")

    def test_distinct_per_stage_and_root(self):
        seeds = {stage_seed(r, s) for r in (0, 1, 2) for s in ("train", "split", "pca")}
        assert len(seeds) == 9

    def test_non_negative_and_rng_compatible(self):
        import numpy as np

        seed = stage_seed(12345, "graph")
        assert seed >= 0
        np.random.default_rng(seed)  # must be accepted as a seed


class TestFileSha256:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = b"abc" * 100_000
        path.write_bytes(payload)
        assert file_sha256(path) == hashlib.sha256(payload).hexdigest()


class TestAtomicPath:
    def test_success_renames(self, tmp_path):
        final = tmp_path / "out.txt"
        with atomic_path(final) as tmp:
            tmp.write_text("done")
        assert final.read_text() == "done"
        assert not final.with_name("out.txt.tmp").exists()

    def test_failure_leaves_no_file(self, tmp_path):
        final = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_path(final) as tmp:
                tmp.write_text("partial")
                raise RuntimeError("boom")
        assert not final.exists()
        assert list(tmp_path.iterdir()) == []

    def test_overwrites_previous_version(self, tmp_path):
        final = tmp_path / "out.txt"
        final.write_text("old")
        with atomic_path(final) as tmp:
            tmp.write_text("new")
        assert final.read_text() == "new"


class TestStageManifest:
    def _write(self, workdir):
        features = workdir / "features.csv"
        features.write_text("x\n0\n")
        artifact = workdir / "artifact.csv"
        artifact.write_text("x\n1\n")
        return write_stage_manifest(
            workdir,
            stage="train",
            config_digest="c" * 64,
            root_seed=7,
            inputs={"features": features},
            outputs=[artifact],
        )

    def test_structure(self, tmp_path):
        path = self._write(tmp_path)
        assert path.name == "train.manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["stage"] == "train"
        assert manifest["root_seed"] == 7
        assert manifest["stage_seed"] == stage_seed(7, "train")
        # inputs and outputs named by their path relative to the workdir
        assert manifest["outputs"] == {"artifact.csv": file_sha256(tmp_path / "artifact.csv")}
        assert manifest["inputs"] == {"features": "features.csv"}

    def test_rewrite_is_byte_identical(self, tmp_path):
        first = self._write(tmp_path).read_bytes()
        second = self._write(tmp_path).read_bytes()
        assert first == second

    def test_serialized_form_is_canonical(self, tmp_path):
        path = self._write(tmp_path)
        text = path.read_text()
        assert text == canonical_json(json.loads(text)) + "\n"


class TestTiming:
    def test_sidecar_separate_from_manifest(self, tmp_path):
        path = write_timing(tmp_path, "train", 1.25)
        assert path.name == "train.timing.json"
        assert json.loads(path.read_text()) == {"stage": "train", "seconds": 1.25}
