"""Run manifest: digests, config hashing, and byte-stable persistence."""

from __future__ import annotations

import hashlib
import json

import pytest

from kgreason.errors import DataError
from kgreason.manifest import (
    MANIFEST_VERSION,
    RunManifest,
    TOOL_VERSION,
    config_hash,
    file_digest,
)


class TestDigests:
    def test_file_digest_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = b"abc" * 1000
        path.write_bytes(payload)
        expected = hashlib.sha256(payload).hexdigest()
        assert file_digest(path) == f"sha256:{expected}"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        assert file_digest(path) == f"sha256:{hashlib.sha256(b'').hexdigest()}"

    def test_config_hash_reference_value(self):
        # sha256("a=1\nb=2")[:16], computed independently with hashlib.
        assert config_hash({"a": "1", "b": "2"}) == "55c420c0f44ea4c6"

    def test_config_hash_key_order_invariant(self):
        assert config_hash({"b": "2", "a": "1"}) == config_hash(
            {"a": "1", "b": "2"}
        )

    def test_config_hash_sensitive_to_values(self):
        assert config_hash({"a": "1"}) != config_hash({"a": "2"})
        assert config_hash({}) != config_hash({"a": "1"})


class TestRunManifest:
    def record_one(self, tmp_path, label="stage-a"):
        artifact = tmp_path / "out.tsv"
        artifact.write_text("x\ty\tz\n", encoding="utf-8")
        manifest = RunManifest(tmp_path / "manifest.json")
        manifest.record_stage(
            label,
            seed=42,
            config={"alpha": 1, "beta": "two"},
            inputs={},
            outputs={"triples": artifact},
            counts={"triples": 1},
        )
        manifest.save()
        return manifest, artifact

    def test_fresh_manifest_shape(self, tmp_path):
        manifest = RunManifest(tmp_path / "manifest.json")
        assert manifest.data == {
            "manifest_version": MANIFEST_VERSION,
            "tool_version": TOOL_VERSION,
            "stages": {},
        }

    def test_record_and_reload(self, tmp_path):
        _, artifact = self.record_one(tmp_path)
        reloaded = RunManifest(tmp_path / "manifest.json")
        stage = reloaded.data["stages"]["stage-a"]
        assert stage["seed"] == 42
        assert stage["config"] == {"alpha": "1", "beta": "two"}
        assert stage["config_hash"] == config_hash({"alpha": "1", "beta": "two"})
        assert stage["outputs"]["triples"]["digest"] == file_digest(artifact)
        assert stage["counts"] == {"triples": 1}

    def test_stages_accumulate_and_rerecord_replaces(self, tmp_path):
        manifest, artifact = self.record_one(tmp_path)
        manifest.record_stage(
            "stage-b", seed=None, config={}, inputs={"triples": artifact},
            outputs={}, counts={},
        )
        manifest.save()
        reloaded = RunManifest(tmp_path / "manifest.json")
        assert set(reloaded.data["stages"]) == {"stage-a", "stage-b"}
        assert reloaded.data["stages"]["stage-b"]["seed"] is None
        reloaded.record_stage(
            "stage-a", seed=7, config={}, inputs={}, outputs={}, counts={}
        )
        assert reloaded.data["stages"]["stage-a"]["seed"] == 7

    def test_no_time_dependent_fields(self, tmp_path, monkeypatch):
        # Identical runs in different directories must produce identical
        # manifest bytes, so nothing about wall clock or absolute location
        # may leak in when paths are given relative.
        blobs = []
        for name in ("one", "two"):
            run = tmp_path / name
            run.mkdir()
            monkeypatch.chdir(run)
            (run / "out.tsv").write_text("x\ty\tz\n", encoding="utf-8")
            manifest = RunManifest("manifest.json")
            manifest.record_stage(
                "synth",
                seed=13,
                config={"triples": 5000},
                inputs={},
                outputs={"triples": "out.tsv"},
                counts={"triples": 1},
            )
            manifest.save()
            blobs.append((run / "manifest.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_save_is_idempotent_and_newline_terminated(self, tmp_path):
        manifest, _ = self.record_one(tmp_path)
        first = (tmp_path / "manifest.json").read_bytes()
        manifest.save()
        assert (tmp_path / "manifest.json").read_bytes() == first
        assert first.endswith(b"}\n")
        json.loads(first)

    @pytest.mark.parametrize(
        "text",
        ["not json", "[]", "{}", '{"stages": []}', "\xff"],
        ids=["not-json", "top-level-list", "no-stages", "list-stages", "not-utf8"],
    )
    def test_corrupt_manifest_is_data_error(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataError):
            RunManifest(path)
