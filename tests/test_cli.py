"""Command line pipeline: artifacts, determinism, exit codes, config.

The heavyweight fixture runs the full planted-graph pipeline once per
session in its own run directory; individual tests then inspect the
artifacts it left behind.  A second full run backs the byte-for-byte
reproducibility check.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kgreason import cli
from kgreason.errors import ClientError
from kgreason.kg import KnowledgeGraph
from kgreason.manifest import file_digest
from kgreason.rules import Rule, RuleStats, read_rules, write_rules

from conftest import PIPELINE_ARTIFACTS as ARTIFACTS
from conftest import SOURCE_ROOT, run_cli

STAGES = (
    "synth",
    "ingest",
    "mine",
    "compose",
    "select",
    "generate",
    "explore",
    "split",
    "evaluate",
)


class TestPipeline:
    def test_all_artifacts_written(self, pipeline_dir):
        for name in ARTIFACTS:
            path = pipeline_dir / name
            assert path.exists() and path.stat().st_size > 0, name

    def test_mined_and_composed_rule_counts(self, pipeline_dir):
        assert len(read_rules(pipeline_dir / "rules.tsv")) == 8
        assert len(read_rules(pipeline_dir / "library.tsv")) == 14

    def test_stats_prints_store_counts(self, pipeline_dir):
        proc = run_cli(pipeline_dir, "stats", "--store", "store.json")
        stats = json.loads(proc.stdout)
        assert set(stats) == {"entities", "relations", "triples"}
        assert stats["triples"] > 4000

    def test_sample_files_round_trip_as_json_lines(self, pipeline_dir):
        plain = [
            json.loads(line)
            for line in (pipeline_dir / "samples.jsonl").read_text().splitlines()
        ]
        assert plain
        for record in plain:
            assert {
                "id", "setting", "hop", "rule", "question", "answer", "golden"
            } <= set(record)
            assert record["setting"] == "anonymized"
        trials = [
            json.loads(line)
            for line in (pipeline_dir / "trial_samples.jsonl")
            .read_text()
            .splitlines()
        ]
        assert trials
        assert all("trace" in record for record in trials)
        assert any(
            any(s["type"] == "missing_fact" for s in record["trace"]["steps"])
            for record in trials
        )

    def test_trial_detours_stay_anonymized(self, pipeline_dir):
        store = json.loads((pipeline_dir / "store.json").read_text())
        real_names = set(store["entities"])
        text = (pipeline_dir / "trial_samples.jsonl").read_text()
        leaked = {name for name in real_names if name in text}
        assert not leaked, sorted(leaked)[:5]
        original = dict(
            line.split("\t")
            for line in (pipeline_dir / "map.tsv").read_text().splitlines()
        )
        merged = dict(
            line.split("\t")
            for line in (pipeline_dir / "trial_map.tsv").read_text().splitlines()
        )
        assert set(original) < set(merged)
        assert all(merged[k] == v for k, v in original.items())
        assert len(set(merged.values())) == len(merged)

    def test_split_file_covers_both_directions(self, pipeline_dir):
        payload = json.loads((pipeline_dir / "splits.json").read_text())
        keys = {(s["name"], s["hop"]) for s in payload["splits"]}
        assert keys == {
            (name, hop) for name in ("ID", "OOD") for hop in (None, 2, 3, 4)
        }
        by_key = {(s["name"], s["hop"]): s["samples"] for s in payload["splits"]}
        assert by_key[("ID", None)]
        assert by_key[("OOD", None)]

    def test_closed_loop_report_is_all_correct(self, pipeline_dir):
        report = json.loads((pipeline_dir / "report.json").read_text())
        assert report["splits"]
        for split in report["splits"]:
            assert split["exact_match"]["percent"] == "100.00", split
            assert set(split["verdicts"]) == {"correct"}
            assert split["verdicts"]["correct"] == split["samples"]

    def test_manifest_records_every_stage_with_live_digests(self, pipeline_dir):
        manifest = json.loads((pipeline_dir / "manifest.json").read_text())
        assert set(manifest["stages"]) == set(STAGES)
        for stage in manifest["stages"].values():
            for entry in {**stage["inputs"], **stage["outputs"]}.values():
                assert entry["digest"] == file_digest(pipeline_dir / entry["path"])

    def test_rerun_reproduces_every_artifact_byte_for_byte(
        self, pipeline_dir, pipeline_rerun_dir
    ):
        for name in ARTIFACTS:
            assert (pipeline_rerun_dir / name).read_bytes() == (
                pipeline_dir / name
            ).read_bytes(), name

    def test_single_stage_rerun_restores_deleted_artifact(
        self, pipeline_dir, tmp_path
    ):
        clone = tmp_path / "restart"
        shutil.copytree(pipeline_dir, clone)
        original = (clone / "rules.tsv").read_bytes()
        (clone / "rules.tsv").unlink()
        run_cli(
            clone, "mine", "--store", "store.json", "--out", "rules.tsv",
            "--min-support", "2", "--min-confidence", "0.6",
        )
        assert (clone / "rules.tsv").read_bytes() == original
        assert (clone / "manifest.json").read_bytes() == (
            pipeline_dir / "manifest.json"
        ).read_bytes()


class TestRegularSetting:
    """Probe-filtered selection with the offline mock client."""

    def prepare(self, tmp_path: Path) -> Path:
        run = tmp_path / "regular"
        run.mkdir()
        (run / "triples.tsv").write_text(
            "anykid\tpart_of\tcckqlvy\n"
            "cckqlvy\tfrom_country\tvevedgta\n"
            "anykid\tcitizen_of\tvevedgta\n",
            encoding="utf-8",
        )
        rule = Rule("citizen_of", ("part_of", "from_country"))
        write_rules(
            run / "rules.tsv",
            [RuleStats(rule, support=1, body_count=1)],
        )
        run_cli(run, "ingest", "--triples", "triples.tsv", "--store", "store.json")
        return run

    def test_body_known_head_unknown_is_retained(self, tmp_path):
        run = self.prepare(tmp_path)
        (run / "probe.tsv").write_text(
            "anykid\tpart_of\tcckqlvy\ncckqlvy\tfrom_country\tvevedgta\n",
            encoding="utf-8",
        )
        proc = run_cli(
            run, "select", "--store", "store.json", "--library", "rules.tsv",
            "--pool", "pool.tsv", "--setting", "regular", "--per-rule", "1",
            "--client", "mock", "--probe-facts", "probe.tsv", "--seed", "1",
        )
        assert "selected 1 instances" in proc.stdout
        run_cli(
            run, "generate", "--store", "store.json", "--pool", "pool.tsv",
            "--samples", "samples.jsonl", "--seed", "1",
        )
        record = json.loads((run / "samples.jsonl").read_text().splitlines()[0])
        assert record["golden"] == "vevedgta"
        assert record["setting"] == "regular"

    def test_map_out_without_map_writes_an_empty_map(self, tmp_path):
        # A regular pool has no synthetic names, so the map asked for is empty.
        run = self.prepare(tmp_path)
        (run / "probe.tsv").write_text(
            "anykid\tpart_of\tcckqlvy\ncckqlvy\tfrom_country\tvevedgta\n",
            encoding="utf-8",
        )
        run_cli(
            run, "select", "--store", "store.json", "--library", "rules.tsv",
            "--pool", "pool.tsv", "--setting", "regular", "--per-rule", "1",
            "--client", "mock", "--probe-facts", "probe.tsv",
        )
        run_cli(
            run, "explore", "--store", "store.json", "--pool", "pool.tsv",
            "--library", "rules.tsv", "--samples", "trial.jsonl",
            "--map-out", "trial_map.tsv",
        )
        assert (run / "trial_map.tsv").read_text(encoding="utf-8") == ""
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["stages"]["explore"]["outputs"]["map"]["path"] == "trial_map.tsv"

    def test_model_known_head_is_dropped(self, tmp_path):
        run = self.prepare(tmp_path)
        (run / "probe.tsv").write_text(
            "anykid\tpart_of\tcckqlvy\n"
            "cckqlvy\tfrom_country\tvevedgta\n"
            "anykid\tcitizen_of\tvevedgta\n",
            encoding="utf-8",
        )
        proc = run_cli(
            run, "select", "--store", "store.json", "--library", "rules.tsv",
            "--pool", "pool.tsv", "--setting", "regular", "--per-rule", "1",
            "--client", "mock", "--probe-facts", "probe.tsv", "--seed", "1",
            check=False,
        )
        # The only instance is dropped, and an empty pool is a data error.
        assert proc.returncode == 2, proc.stderr
        assert "empty pool: probe:" in proc.stderr
        assert not (run / "pool.tsv").exists()


    def test_probe_and_polisher_share_one_client(self, tmp_path, monkeypatch):
        from kgreason.client import ModelClient

        run = self.prepare(tmp_path)
        (run / "probe.tsv").write_text(
            "anykid\tpart_of\tcckqlvy\ncckqlvy\tfrom_country\tvevedgta\n",
            encoding="utf-8",
        )
        run_cli(
            run, "select", "--store", "store.json", "--library", "rules.tsv",
            "--pool", "pool.tsv", "--setting", "regular", "--per-rule", "1",
            "--client", "mock", "--probe-facts", "probe.tsv",
        )
        clients, tables = [], []
        init, probe_table = ModelClient.__init__, cli._probe_table

        def counted_init(client, *args, **kwargs):
            clients.append(client)
            init(client, *args, **kwargs)

        def counted_table(kg, templates, facts_path):
            tables.append(facts_path)
            return probe_table(kg, templates, facts_path)

        monkeypatch.setattr(ModelClient, "__init__", counted_init)
        monkeypatch.setattr(cli, "_probe_table", counted_table)
        monkeypatch.chdir(run)
        assert cli.main([
            "explore", "--store", "store.json", "--pool", "pool.tsv",
            "--library", "rules.tsv", "--samples", "trial.jsonl",
            "--oracle", "probe", "--polisher", "live", "--client", "mock",
            "--probe-facts", "probe.tsv",
        ]) == 0
        assert len(clients) == 1 and tables == ["probe.tsv"]
        assert (run / "trial.jsonl").read_text(encoding="utf-8").count("\n") == 1

    def test_a_client_that_only_polishes_reads_no_probe_facts(
        self, tmp_path, monkeypatch
    ):
        run = self.prepare(tmp_path)
        (run / "probe.tsv").write_text(
            "anykid\tpart_of\tcckqlvy\ncckqlvy\tfrom_country\tvevedgta\n",
            encoding="utf-8",
        )
        run_cli(
            run, "select", "--store", "store.json", "--library", "rules.tsv",
            "--pool", "pool.tsv", "--setting", "regular", "--per-rule", "1",
            "--client", "mock", "--probe-facts", "probe.tsv",
        )
        # generate has no --probe-facts; a config key of another stage is
        # skipped.
        (run / "run.cfg").write_text("probe_facts=probe.tsv\n", encoding="utf-8")
        tables = []
        monkeypatch.setattr(cli, "_probe_table", lambda *args: tables.append(args))
        monkeypatch.chdir(run)
        polish = ["--polisher", "live", "--client", "mock"]
        assert cli.main([
            "generate", "--store", "store.json", "--pool", "pool.tsv",
            "--samples", "samples.jsonl", "--config", "run.cfg", *polish,
        ]) == 0
        assert cli.main([
            "explore", "--store", "store.json", "--pool", "pool.tsv",
            "--library", "rules.tsv", "--samples", "trial.jsonl",
            "--oracle", "kg", *polish, "--probe-facts", "probe.tsv",
        ]) == 0
        assert tables == []
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        for stage in ("generate", "explore"):
            assert "probe_facts" not in manifest["stages"][stage]["config"]
        assert (run / "samples.jsonl").read_text(encoding="utf-8").count("\n") == 1

    def test_generate_takes_no_probe_facts(self, tmp_path):
        run = self.prepare(tmp_path)
        proc = run_cli(
            run, "generate", "--store", "store.json", "--pool", "pool.tsv",
            "--samples", "samples.jsonl", "--probe-facts", "probe.tsv",
            check=False,
        )
        assert proc.returncode == 1
        assert "usage error: unrecognized arguments: --probe-facts" in proc.stderr
        assert not (run / "samples.jsonl").exists()

    def test_templates_sharing_a_pattern_share_a_verdict(self, tmp_path):
        # The mock model knows sentences, not facts: (a, r2, b) is not in
        # the probe file, but (a, r1, b) is and renders the same sentence
        # under these templates, so r2's fact reads as known too.
        (tmp_path / "triples.tsv").write_text(
            "a\tr2\tb\nb\tr3\tc\na\th\tc\na\tr1\tb\n", encoding="utf-8"
        )
        (tmp_path / "probe.tsv").write_text(
            "a\tr1\tb\nb\tr3\tc\n", encoding="utf-8"
        )
        (tmp_path / "templates.tsv").write_text(
            "r1\t<ENT1> meets <ENT2>.\nr2\t<ENT1> meets <ENT2>.\n", encoding="utf-8"
        )
        write_rules(
            tmp_path / "rules.tsv",
            [RuleStats(Rule("h", ("r2", "r3")), support=1, body_count=1)],
        )
        run_cli(tmp_path, "ingest", "--triples", "triples.tsv", "--store", "store.json")
        select = (
            "select", "--store", "store.json", "--library", "rules.tsv",
            "--pool", "pool.tsv", "--setting", "regular", "--per-rule", "1",
            "--client", "mock", "--probe-facts", "probe.tsv",
        )
        proc = run_cli(tmp_path, *select, "--templates", "templates.tsv")
        assert "selected 1 instances" in proc.stdout
        pooled = json.loads((tmp_path / "pool.tsv").read_text(encoding="utf-8"))
        assert pooled["body"] == [["a", "r2", "b"], ["b", "r3", "c"]]
        # Under the built-in templates the two facts read apart.
        proc = run_cli(tmp_path, *select, "--pool", "other.tsv", check=False)
        assert proc.returncode == 2 and "empty pool: probe:" in proc.stderr


class TestEmptyPool:
    """A select whose final pool is empty is a data error naming the filter
    that emptied it, and writes no pool, no map and no manifest entry."""

    # A small dense random graph: the pooled body facts cover every pooled
    # head fact, so the leakage filter drops every instance.
    DENSE = (
        ["synth", "--kind", "random", "--entities", "10", "--relations", "2",
         "--triples", "40", "--seed", "1", "--out", "triples.tsv"],
        ["ingest", "--triples", "triples.tsv", "--store", "store.json"],
        ["mine", "--store", "store.json", "--out", "rules.tsv",
         "--min-support", "2", "--min-confidence", "0.1"],
        ["compose", "--store", "store.json", "--rules", "rules.tsv",
         "--out", "library.tsv", "--min-confidence", "0.1"],
    )
    SELECT = [
        "select", "--store", "store.json", "--library", "library.tsv",
        "--pool", "pool.tsv", "--map", "map.tsv", "--seed", "1",
    ]

    @pytest.mark.parametrize(
        "per_rule, emptied_by",
        [
            ("2", "empty pool: leakage: every instance's head fact is a pooled "
                  "body fact"),
            ("1000", "empty pool: balance: none of the library's 56 rules has "
                     "1000 instances"),
        ],
    )
    def test_dense_graph(self, tmp_path, monkeypatch, capsys, per_rule, emptied_by):
        monkeypatch.chdir(tmp_path)
        for args in self.DENSE:
            assert cli.main(args) == 0
        capsys.readouterr()
        assert cli.main([*self.SELECT, "--per-rule", per_rule]) == 2
        assert capsys.readouterr().err == f"kgreason: data error: {emptied_by}\n"
        assert not (tmp_path / "pool.tsv").exists()
        assert not (tmp_path / "map.tsv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "select" not in manifest["stages"]


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(
        self, pipeline_dir, tmp_path
    ):
        run = tmp_path / "cfg"
        run.mkdir()
        (run / "mine.cfg").write_text(
            "# mining options\nmin-support=2\nmin-confidence=0.95\n",
            encoding="utf-8",
        )
        store = str(pipeline_dir / "store.json")
        run_cli(
            run, "mine", "--config", "mine.cfg", "--store", store,
            "--out", "strict.tsv", "--manifest", "m1.json",
        )
        assert read_rules(run / "strict.tsv") == []
        stage = json.loads((run / "m1.json").read_text())["stages"]["mine"]
        assert stage["config"]["min_confidence"] == "0.95"
        assert stage["config"]["min_support"] == "2"

        run_cli(
            run, "mine", "--config", "mine.cfg", "--min-confidence", "0.6",
            "--store", store, "--out", "loose.tsv", "--manifest", "m2.json",
        )
        assert len(read_rules(run / "loose.tsv")) == 8
        stage = json.loads((run / "m2.json").read_text())["stages"]["mine"]
        assert stage["config"]["min_confidence"] == "0.6"

    def test_malformed_config_line_is_usage_error(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("no equals sign\n", encoding="utf-8")
        proc = run_cli(
            tmp_path, "stats", "--config", "bad.cfg", "--store", "x",
            check=False,
        )
        assert proc.returncode == 1
        assert "usage error" in proc.stderr

    # A config value meets the same type and choices as its flag.
    CONFIG_ARGS = {
        "synth": ["--out", "out"],
        "generate": [
            "--store", "{d}/store.json", "--pool", "{d}/pool.tsv",
            "--map", "{d}/map.tsv", "--samples", "out",
        ],
    }

    def run_with_config(self, pipeline_dir, tmp_path, stage, line):
        (tmp_path / "stage.cfg").write_text(f"{line}\n", encoding="utf-8")
        args = [arg.format(d=pipeline_dir) for arg in self.CONFIG_ARGS[stage]]
        return run_cli(
            tmp_path, stage, "--config", "stage.cfg", *args, check=False
        )

    @pytest.mark.parametrize(
        "stage, line",
        [("generate", "polisher=bogus"), ("synth", "triples=abc")],
        ids=["bad-choice", "bad-int"],
    )
    def test_bad_config_value_is_usage_error(
        self, pipeline_dir, tmp_path, stage, line
    ):
        proc = self.run_with_config(pipeline_dir, tmp_path, stage, line)
        assert proc.returncode == 1
        assert "usage error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "stage, line, key, value",
        [
            ("generate", "polisher=live", "polisher", "live"),
            ("synth", "triples=50", "triples", "50"),
        ],
        ids=["good-choice", "good-int"],
    )
    def test_good_config_value_control(
        self, pipeline_dir, tmp_path, stage, line, key, value
    ):
        proc = self.run_with_config(pipeline_dir, tmp_path, stage, line)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["stages"][stage]["config"][key] == value


    def test_unknown_config_key_is_usage_error(self, pipeline_dir, tmp_path):
        (tmp_path / "mine.cfg").write_text("min-suport=3\n", encoding="utf-8")
        proc = run_cli(
            tmp_path, "mine", "--config", "mine.cfg",
            "--store", str(pipeline_dir / "store.json"), "--out", "out",
            check=False,
        )
        assert proc.returncode == 1
        assert "usage error" in proc.stderr and "min_suport" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "manifest.json").exists()

    def test_other_stage_config_key_control(self, pipeline_dir, tmp_path):
        """One file may serve several stages: mine skips select's key."""
        manifests = []
        for name, config in (("with", "per_rule=4\n"), ("without", "")):
            run = tmp_path / name
            run.mkdir()
            (run / "mine.cfg").write_text(config, encoding="utf-8")
            run_cli(
                run, "mine", "--config", "mine.cfg",
                "--store", str(pipeline_dir / "store.json"), "--out", "out",
            )
            manifests.append((run / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]


class TestExitCodes:
    # Valid arguments over the session pipeline, so that only --seed can fail.
    UNSEEDED_ARGS = {
        "ingest": ["--triples", "{d}/triples.tsv", "--store", "out"],
        "mine": ["--store", "{d}/store.json", "--out", "out"],
        "compose": [
            "--store", "{d}/store.json", "--rules", "{d}/rules.tsv", "--out", "out",
        ],
        "stats": ["--store", "{d}/store.json"],
        "evaluate": [
            "--store", "{d}/store.json", "--library", "{d}/library.tsv",
            "--splits", "{d}/splits.json", "--samples", "{d}/samples.jsonl",
            "{d}/trial_samples.jsonl", "--predictions", "{d}/preds.jsonl",
            "--map", "{d}/trial_map.tsv", "--report", "out",
        ],
    }

    @pytest.mark.parametrize("stage", sorted(UNSEEDED_ARGS))
    def test_seed_is_usage_error_where_unread(self, pipeline_dir, tmp_path, stage):
        args = [arg.format(d=pipeline_dir) for arg in self.UNSEEDED_ARGS[stage]]
        proc = run_cli(tmp_path, stage, *args, "--seed", "5", check=False)
        assert proc.returncode == 1
        assert "usage error" in proc.stderr and "--seed" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "manifest.json").exists()

    def test_seed_accepted_where_read_control(self, tmp_path):
        run_cli(tmp_path, "synth", "--out", "out", "--triples", "50", "--seed", "5")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["stages"]["synth"]["config"]["seed"] == "5"

    def test_missing_required_options(self, tmp_path):
        proc = run_cli(tmp_path, "mine", check=False)
        assert proc.returncode == 1
        assert "usage error" in proc.stderr

    def test_unknown_subcommand(self, tmp_path):
        proc = run_cli(tmp_path, "transmogrify", check=False)
        assert proc.returncode == 1
        assert "usage error" in proc.stderr

    def test_unknown_flag(self, tmp_path):
        proc = run_cli(tmp_path, "stats", "--bogus", "x", check=False)
        assert proc.returncode == 1
        assert "usage error" in proc.stderr

    def test_missing_store_file(self, tmp_path):
        proc = run_cli(tmp_path, "stats", "--store", "missing.json", check=False)
        assert proc.returncode == 2
        assert "data error" in proc.stderr

    def test_malformed_triples_file(self, tmp_path):
        (tmp_path / "bad.tsv").write_text("only\ttwo\n", encoding="utf-8")
        proc = run_cli(
            tmp_path, "ingest", "--triples", "bad.tsv", "--store", "out.json",
            check=False,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("edit", ["bad counts", "repeated line"])
    def test_rules_file_no_stage_can_read(self, pipeline_dir, tmp_path, edit):
        # Compose, select and evaluate each read a rules file through one
        # reader; each once took these lines and exited 0.
        lines = (pipeline_dir / "rules.tsv").read_text(encoding="utf-8").splitlines()
        if edit == "bad counts":
            record = json.loads(lines[1])
            record.update(support=5, body_count=2)
            lines[1] = json.dumps(record)
        else:
            lines.insert(1, lines[0])
        (tmp_path / "rules.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = run_cli(
            tmp_path, "compose", "--store", str(pipeline_dir / "store.json"),
            "--rules", "rules.tsv", "--out", "library.tsv", check=False,
        )
        assert proc.returncode == 2
        assert "data error: rules.tsv: bad rule record on line 2" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "library.tsv").exists()

    def test_corrupt_store_file(self, tmp_path):
        (tmp_path / "store.json").write_text("not a store", encoding="utf-8")
        proc = run_cli(tmp_path, "stats", "--store", "store.json", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "store",
        [
            "[]",
            '{"format_version": 1, "entities": ["a", "b"], "relations": ["r"], '
            '"triples": [[-1, 0, 0]]}',
        ],
        ids=["top-level-list", "negative-id"],
    )
    def test_malformed_store_is_data_error(self, tmp_path, store):
        (tmp_path / "store.json").write_text(store, encoding="utf-8")
        proc = run_cli(tmp_path, "stats", "--store", "store.json", check=False)
        assert proc.returncode == 2
        assert "data error" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "manifest", ["not json", "[]"], ids=["not-json", "top-level-list"]
    )
    @pytest.mark.parametrize(
        "stage, args",
        [
            ("synth", ["--out", "out.tsv"]),
            ("ingest", ["--triples", "t.tsv", "--store", "out.tsv"]),
        ],
        ids=["synth", "ingest"],
    )
    def test_corrupt_manifest_is_data_error(self, tmp_path, manifest, stage, args):
        (tmp_path / "manifest.json").write_text(manifest, encoding="utf-8")
        (tmp_path / "t.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        proc = run_cli(tmp_path, stage, *args, check=False)
        assert proc.returncode == 2
        assert "data error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out.tsv").exists()
        assert (tmp_path / "manifest.json").read_text() == manifest

    def test_stats_leaves_the_manifest_alone(self, pipeline_dir, tmp_path):
        (tmp_path / "manifest.json").write_text("not json", encoding="utf-8")
        store = str(pipeline_dir / "store.json")
        proc = run_cli(tmp_path, "stats", "--store", store, check=False)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "manifest.json").read_text() == "not json"

    def test_anonymized_select_requires_map(self, pipeline_dir, tmp_path):
        proc = run_cli(
            tmp_path, "select",
            "--store", str(pipeline_dir / "store.json"),
            "--library", str(pipeline_dir / "rules.tsv"),
            "--pool", "pool.tsv", "--setting", "anonymized",
            check=False,
        )
        assert proc.returncode == 1

    def test_split_per_bucket_must_not_be_negative(self, pipeline_dir, tmp_path):
        args = [
            "--samples", str(pipeline_dir / "samples.jsonl"),
            "--training-rules", str(pipeline_dir / "rules.tsv"),
            "--out", "splits.json",
        ]
        proc = run_cli(tmp_path, "split", *args, "--per-bucket", "-1", check=False)
        assert proc.returncode == 1
        assert proc.stderr == (
            "kgreason: usage error: per-bucket count must be >= 0, got -1\n"
        )
        assert not (tmp_path / "splits.json").exists()
        run_cli(tmp_path, "split", *args, "--per-bucket", "0")
        splits = json.loads((tmp_path / "splits.json").read_text())["splits"]
        assert [split["samples"] for split in splits] == [[]] * len(splits)

    @pytest.mark.parametrize(
        "args",
        [
            ["--kind", "planted", "--triples", "-5"],
            ["--kind", "random", "--triples", "0"],
            ["--kind", "random", "--entities", "0"],
            ["--kind", "random", "--relations", "0"],
        ],
        ids=["planted-triples", "random-triples", "entities", "relations"],
    )
    def test_synth_counts_must_be_positive(self, tmp_path, args):
        proc = run_cli(tmp_path, "synth", "--out", "t.tsv", *args, check=False)
        assert proc.returncode == 1
        assert "usage error" in proc.stderr and "must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "t.tsv").exists()

    @pytest.mark.parametrize(
        "args, config, flag",
        [
            (["--entities", "0"], "", "--entities"),
            (["--relations", "10"], "", "--relations"),
            ([], "entities=200\n", "--entities"),
        ],
        ids=["entities", "relations", "config"],
    )
    def test_planted_synth_takes_no_entity_or_relation_count(
        self, tmp_path, args, config, flag
    ):
        # Only --kind random reads the two counts; planted would drop them.
        (tmp_path / "synth.cfg").write_text(config, encoding="utf-8")
        proc = run_cli(
            tmp_path, "synth", "--out", "t.tsv", "--kind", "planted",
            "--triples", "20", "--config", "synth.cfg", *args, check=False,
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            f"kgreason: usage error: {flag} applies only to --kind random\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.cfg"]

    def test_compose_rejects_base_rules_that_are_not_two_hop(self, tmp_path):
        # A one-hop base rule would splice the same composed rule in twice.
        (tmp_path / "t.tsv").write_text(
            "a\tr2\tb\nb\tr3\tc\na\tr1\tc\na\tr0\tc\n", encoding="utf-8"
        )
        run_cli(tmp_path, "ingest", "--triples", "t.tsv", "--store", "s.json")
        write_rules(
            tmp_path / "rules.tsv",
            [
                RuleStats(rule, support=1, body_count=1)
                for rule in (
                    Rule("r0", ("r1",)),
                    Rule("r1", ("r2", "r3")),
                    Rule("r0", ("r2", "r3")),
                )
            ],
        )
        proc = run_cli(
            tmp_path, "compose", "--store", "s.json", "--rules", "rules.tsv",
            "--out", "library.tsv", "--min-confidence", "0.1",
            check=False,
        )
        assert proc.returncode == 2
        assert "data error" in proc.stderr
        assert "r0(X,Y)<-r1(X,Y)" in proc.stderr
        assert not (tmp_path / "library.tsv").exists()

    def evaluate_with(self, pipeline_dir, tmp_path, splits=None, predictions=None):
        """Evaluate the session pipeline with its splits or predictions file
        replaced by the given text."""
        inputs = {"splits": "splits.json", "predictions": "preds.jsonl"}
        for key, text in (("splits", splits), ("predictions", predictions)):
            if text is None:
                inputs[key] = str(pipeline_dir / inputs[key])
            else:
                (tmp_path / inputs[key]).write_text(text, encoding="utf-8")
        return run_cli(
            tmp_path, "evaluate",
            "--store", str(pipeline_dir / "store.json"),
            "--library", str(pipeline_dir / "library.tsv"),
            "--splits", inputs["splits"],
            "--samples", str(pipeline_dir / "samples.jsonl"),
            str(pipeline_dir / "trial_samples.jsonl"),
            "--predictions", inputs["predictions"],
            "--map", str(pipeline_dir / "trial_map.tsv"),
            "--report", "report.json",
            check=False,
        )

    def test_evaluate_with_session_inputs_succeeds(self, pipeline_dir, tmp_path):
        proc = self.evaluate_with(pipeline_dir, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "report.json").exists()

    def test_evaluate_builds_no_adjacency_index(
        self, pipeline_dir, tmp_path, monkeypatch
    ):
        # Evaluate only checks facts, so the store's adjacency is never built.
        def refuse(self):
            raise AssertionError("evaluate built the adjacency indexes")

        monkeypatch.setattr(KnowledgeGraph, "_index", refuse)
        monkeypatch.chdir(tmp_path)
        code = cli.main([
            "evaluate", "--store", str(pipeline_dir / "store.json"),
            "--library", str(pipeline_dir / "library.tsv"),
            "--splits", str(pipeline_dir / "splits.json"),
            "--samples", str(pipeline_dir / "samples.jsonl"),
            str(pipeline_dir / "trial_samples.jsonl"),
            "--predictions", str(pipeline_dir / "preds.jsonl"),
            str(pipeline_dir / "trial_preds.jsonl"),
            "--map", str(pipeline_dir / "trial_map.tsv"), "--report", "report.json",
        ])
        assert code == 0
        assert (tmp_path / "report.json").read_bytes() == (
            pipeline_dir / "report.json"
        ).read_bytes()

    def test_evaluate_rejects_non_string_prediction(self, pipeline_dir, tmp_path):
        proc = self.evaluate_with(
            pipeline_dir, tmp_path, predictions='{"id": "x", "output": 5}\n'
        )
        assert proc.returncode == 2
        assert "data error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "splits",
        [
            "not json",
            "[]",
            '{"splits": [{"hop": 2, "samples": []}]}',
        ],
        ids=["not-json", "top-level-list", "split-without-name"],
    )
    def test_evaluate_rejects_malformed_splits(self, pipeline_dir, tmp_path, splits):
        proc = self.evaluate_with(pipeline_dir, tmp_path, splits=splits)
        assert proc.returncode == 2
        assert "data error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "report.json").exists()

    # One input of each stage, copied from the session pipeline with an
    # invalid UTF-8 byte appended; every other input is the session's own.
    BAD_UTF8 = {
        "ingest-triples": (
            "ingest", "triples.tsv", ["--triples", "{bad}", "--store", "out"],
        ),
        "mine-store": ("mine", "store.json", ["--store", "{bad}", "--out", "out"]),
        "compose-rules": (
            "compose", "rules.tsv",
            ["--store", "{d}/store.json", "--rules", "{bad}", "--out", "out"],
        ),
        "explore-pool": (
            "explore", "pool.tsv",
            [
                "--store", "{d}/store.json", "--pool", "{bad}", "--map",
                "{d}/map.tsv", "--library", "{d}/library.tsv", "--samples", "out",
                "--seed", "5",
            ],
        ),
        "evaluate-predictions": (
            "evaluate", "preds.jsonl",
            [
                "--store", "{d}/store.json", "--library", "{d}/library.tsv",
                "--splits", "{d}/splits.json", "--samples", "{d}/samples.jsonl",
                "{d}/trial_samples.jsonl", "--predictions", "{bad}",
                "--map", "{d}/trial_map.tsv", "--report", "out",
            ],
        ),
    }

    @pytest.mark.parametrize("case", sorted(BAD_UTF8))
    def test_invalid_utf8_is_data_error(self, pipeline_dir, tmp_path, case):
        stage, name, template = self.BAD_UTF8[case]
        bad = tmp_path / name
        bad.write_bytes((pipeline_dir / name).read_bytes() + b"\xff\n")
        args = [arg.format(d=pipeline_dir, bad=bad) for arg in template]
        proc = run_cli(tmp_path, stage, *args, check=False)
        assert proc.returncode == 2, proc.stderr
        assert "data error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["generate", "explore"])
    @pytest.mark.parametrize("edit", ["body-tail", "null-head"])
    def test_pool_facts_must_follow_rule_and_entities(
        self, pipeline_dir, tmp_path, stage, edit
    ):
        lines = (pipeline_dir / "pool.tsv").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        if edit == "body-tail":
            assert record["body"][-1][2] != record["entities"][0]
            record["body"][-1][2] = record["entities"][0]
        else:
            record["head"] = None
        lines[0] = json.dumps(record)
        (tmp_path / "pool.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = [
            "--store", f"{pipeline_dir}/store.json", "--pool", "pool.tsv",
            "--map", f"{pipeline_dir}/map.tsv", "--samples", "out", "--seed", "5",
        ]
        if stage == "explore":
            args += ["--library", f"{pipeline_dir}/library.tsv"]
        proc = run_cli(tmp_path, stage, *args, check=False)
        assert proc.returncode == 2, proc.stderr
        assert "data error" in proc.stderr
        assert "line 1" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_client_error_maps_to_exit_3(self, monkeypatch, capsys):
        def boom(ns):
            raise ClientError("endpoint returned 500")

        monkeypatch.setattr(cli, "cmd_stats", boom)
        assert cli.main(["stats", "--store", "whatever"]) == 3
        assert "client error" in capsys.readouterr().err

    def test_dead_endpoint_exits_3(self, pipeline_dir, tmp_path, monkeypatch, capsys):
        import requests

        calls = []

        def refuse(url, **kwargs):
            calls.append(url)
            raise requests.ConnectionError("connection refused")

        monkeypatch.setattr(requests, "post", refuse)
        monkeypatch.chdir(tmp_path)
        for name in ("store.json", "library.tsv"):
            shutil.copy(pipeline_dir / name, name)
        code = cli.main([
            "select", "--store", "store.json", "--library", "library.tsv",
            "--pool", "pool.tsv", "--setting", "regular", "--client", "live",
            "--endpoint", "https://example.test/v1/chat", "--max-retries", "0",
        ])
        assert code == 3
        assert calls == ["https://example.test/v1/chat"]
        err = capsys.readouterr().err
        assert "client error" in err and "connection refused" in err
        assert not (tmp_path / "pool.tsv").exists()
        assert not (tmp_path / "manifest.json").exists()

    def test_success_exit_zero(self, tmp_path):
        (tmp_path / "t.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        proc = run_cli(
            tmp_path, "ingest", "--triples", "t.tsv", "--store", "s.json"
        )
        assert proc.returncode == 0


class TestComposeMaxHop:
    """compose splices twice, so it can honour --max-hop 2 to 4 only."""

    def compose(self, pipeline_dir, tmp_path, max_hop):
        return run_cli(
            tmp_path, "compose",
            "--store", str(pipeline_dir / "store.json"),
            "--rules", str(pipeline_dir / "rules.tsv"),
            "--out", "library.tsv", "--max-hop", max_hop,
            check=False,
        )

    @pytest.mark.parametrize("max_hop", ["5", "-3", "1"])
    def test_out_of_range_is_usage_error(self, pipeline_dir, tmp_path, max_hop):
        proc = self.compose(pipeline_dir, tmp_path, max_hop)
        assert proc.returncode == 1
        assert "usage error" in proc.stderr
        assert "--max-hop" in proc.stderr
        assert not (tmp_path / "library.tsv").exists()

    @pytest.mark.parametrize("max_hop", [2, 3, 4])
    def test_in_range_control(self, pipeline_dir, tmp_path, max_hop):
        proc = self.compose(pipeline_dir, tmp_path, str(max_hop))
        assert proc.returncode == 0, proc.stderr
        hops = {st.rule.hop for st in read_rules(tmp_path / "library.tsv")}
        assert hops == set(range(2, max_hop + 1))


PINNED_DIGESTS = Path(__file__).with_name("pinned_digests.json")


class TestPinnedArtifacts:
    """Artifact bytes pinned across versions, not only across reruns.

    The sha256 digests live in ``tests/pinned_digests.json``, one group per
    run.  A change that alters an artifact on purpose updates its digest
    there and says why.
    """

    @pytest.fixture(scope="class")
    def pinned(self) -> dict:
        return json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))

    def assert_pinned(self, pinned: dict, group: str, run_dir: Path) -> None:
        actual = {name: file_digest(run_dir / name) for name in pinned[group]}
        assert actual == pinned[group], group

    def test_session_pipeline(self, pinned, pipeline_dir):
        assert sorted(pinned["session pipeline"]) == sorted(ARTIFACTS)
        self.assert_pinned(pinned, "session pipeline", pipeline_dir)

    def test_regular_select(self, pinned, pipeline_dir, tmp_path):
        for name in ("store.json", "library.tsv"):
            shutil.copy(pipeline_dir / name, tmp_path / name)
        # The mock client knows two facts in three, so the probes drop
        # instances whose head it knows and whose body it does not.
        lines = (pipeline_dir / "triples.tsv").read_text(encoding="utf-8")
        lines = lines.splitlines(keepends=True)
        del lines[2::3]
        (tmp_path / "probe.tsv").write_text("".join(lines), encoding="utf-8")
        run_cli(
            tmp_path, "select", "--store", "store.json", "--library", "library.tsv",
            "--pool", "pool.tsv", "--setting", "regular", "--per-rule", "4",
            "--client", "mock", "--probe-facts", "probe.tsv", "--seed", "5",
        )
        self.assert_pinned(pinned, "regular select", tmp_path)

    def test_random_graph_library(self, pinned, tmp_path):
        # A random graph of 72 entities, so that composed rules are scored
        # over two blocks of start entities; 231 library rules, 206 of them
        # composed.
        run_cli(
            tmp_path, "synth", "--out", "triples.tsv", "--kind", "random",
            "--entities", "72", "--relations", "3", "--triples", "1800",
            "--seed", "7",
        )
        run_cli(tmp_path, "ingest", "--triples", "triples.tsv", "--store", "store.json")
        run_cli(
            tmp_path, "mine", "--store", "store.json", "--out", "rules.tsv",
            "--min-support", "2", "--min-confidence", "0.1",
        )
        run_cli(
            tmp_path, "compose", "--store", "store.json", "--rules", "rules.tsv",
            "--out", "library.tsv", "--min-confidence", "0.11",
        )
        self.assert_pinned(pinned, "random-graph compose", tmp_path)

    def test_dense_graph_library(self, pinned, tmp_path):
        # 30 entities, each with 3 distinct successors under each of 4
        # relations.  At 0.07 nearly every 2-hop rule is kept, so compose
        # scores all 4 heads of all 64 three-hop and 256 four-hop bodies:
        # 1,280 candidates, of which 1,278 join the 63 base rules.
        rng = random.Random("dense-777")
        with open(tmp_path / "triples.tsv", "w", encoding="utf-8") as fh:
            for e in range(30):
                for r in range(4):
                    for t in sorted(rng.sample(range(30), 3)):
                        fh.write(f"e{e}\tr{r}\te{t}\n")
        run_cli(tmp_path, "ingest", "--triples", "triples.tsv", "--store", "store.json")
        run_cli(
            tmp_path, "mine", "--store", "store.json", "--out", "rules.tsv",
            "--min-support", "2", "--min-confidence", "0.07",
        )
        proc = run_cli(
            tmp_path, "compose", "--store", "store.json", "--rules", "rules.tsv",
            "--out", "library.tsv", "--min-confidence", "0.07",
        )
        assert "composed 1280 candidates, kept 1278; library holds 1341" in proc.stdout
        self.assert_pinned(pinned, "dense compose", tmp_path)


class TestReservedRelationNames:
    """A relation name holding ( ) , or & would make rule ids ambiguous."""

    @pytest.mark.parametrize(
        "relation", ["a(X,Z1)&b", "b(X,Z1)&c", "a(", "a)", "a,b", "a&b"]
    )
    def test_ingest_rejects(self, tmp_path, relation):
        (tmp_path / "t.tsv").write_text(
            f"x\t{relation}\ty\nx\tc\ty\n", encoding="utf-8"
        )
        proc = run_cli(
            tmp_path, "ingest", "--triples", "t.tsv", "--store", "s.json",
            check=False,
        )
        assert proc.returncode == 2
        assert "data error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("relation", ["a(X,Z1)&b", "b(X,Z1)&c"])
    def test_load_rejects(self, tmp_path, relation):
        store = {
            "format_version": 1,
            "entities": ["x", "y"],
            "relations": sorted([relation, "c"]),
            "triples": [[0, 0, 1], [0, 1, 1]],
        }
        (tmp_path / "s.json").write_text(json.dumps(store), encoding="utf-8")
        proc = run_cli(tmp_path, "stats", "--store", "s.json", check=False)
        assert proc.returncode == 2
        assert "data error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_well_formed_control(self, tmp_path):
        (tmp_path / "t.tsv").write_text("x\ta_b-c.d\ty\n", encoding="utf-8")
        run_cli(tmp_path, "ingest", "--triples", "t.tsv", "--store", "s.json")
        proc = run_cli(tmp_path, "stats", "--store", "s.json")
        assert json.loads(proc.stdout)["relations"] == 1


class TestStageImports:
    """Building the parser imports no stage module a command may not use."""

    def test_parser_choices_match_their_modules(self):
        from kgreason import selection

        assert cli.SETTINGS == selection.SETTINGS
        assert (cli.SETTING_ANONYMIZED, cli.SETTING_REGULAR) == (
            selection.SETTING_ANONYMIZED,
            selection.SETTING_REGULAR,
        )

    LAZY = (
        "kgreason.evaluation",
        "kgreason.explore",
        "kgreason.generation",
        "multiprocessing",
    )

    def loaded_after(self, code, modules=LAZY):
        probe = f"import sys\nprint(sorted(set({modules!r}) & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}\n{probe}"],
            env={**os.environ, "PYTHONPATH": SOURCE_ROOT},
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout.strip()

    def test_cli_import_leaves_stage_modules_out(self):
        code = "import kgreason.cli\nkgreason.cli.build_parser()"
        assert self.loaded_after(code) == "[]"

    def test_evaluation_leaves_the_client_and_logging_out(self):
        # evaluate reads the name map through selection, which needs the
        # client's verdicts only when it probes; nothing evaluate runs logs.
        code = (
            "import sys\nimport kgreason.cli, kgreason.evaluation, kgreason.selection\n"
            "print(sorted({'kgreason.client', 'logging'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SOURCE_ROOT},
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_evaluate_and_split_leave_dataclasses_out(self):
        # Every record is a NamedTuple; dataclasses would also load inspect.
        code = (
            "import kgreason.cli, kgreason.evaluation, kgreason.generation\n"
            "import kgreason.selection, kgreason.templates"
        )
        assert self.loaded_after(code, ("dataclasses", "inspect")) == "[]"

    def test_selection_leaves_explore_out(self):
        # select builds its probe oracle in selection alone.
        code = "import kgreason.cli\nimport kgreason.selection"
        assert self.loaded_after(code) == "[]"

    def test_probe_sees_a_loaded_stage_module(self):
        code = "import kgreason.cli\nimport kgreason.explore"
        assert self.loaded_after(code) == str(
            ["kgreason.explore", "kgreason.generation"]
        )


class TestCliText:
    """Building only the named stage's parser changes no text the command
    line prints.  ``tests/cli_text.json`` holds the help and error texts as
    the parser with every stage printed them, at 80 columns."""

    PINNED = json.loads(
        (Path(__file__).resolve().parent / "cli_text.json").read_text(encoding="utf-8")
    )

    @pytest.mark.skipif(
        "%d.%d" % sys.version_info[:2] != PINNED["python"],
        reason="argparse formats help differently in other Python versions",
    )
    @pytest.mark.parametrize(
        "case", PINNED["cases"], ids=lambda case: " ".join(case["argv"]) or "no-args"
    )
    def test_same_bytes(self, tmp_path, case):
        env = {**os.environ, "PYTHONPATH": SOURCE_ROOT, "COLUMNS": "80"}
        env.pop("LINES", None)
        proc = subprocess.run(
            [sys.executable, "-m", "kgreason", *case["argv"]],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            case["exit"], case["stdout"], case["stderr"]
        )

    def test_every_stage_is_pinned(self):
        cases = self.PINNED["cases"]
        helped = {c["argv"][0] for c in cases if c["argv"][1:] == ["--help"]}
        assert helped == {stage.name for stage in cli.STAGES}

    def test_option_value_naming_a_stage(self):
        argv = ["evaluate", "--report", "select"]
        ns = cli.build_parser(argv).parse_args(argv)
        assert (ns.command, ns.report) == ("evaluate", "select")

    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        # Only `python -m kgreason` freezes the heap at exit; in-process
        # callers such as the tests and the benchmark's tracer keep theirs.
        store = tmp_path / "store.json"
        KnowledgeGraph.from_lines(["a\tr\tb"]).save(store)
        assert cli.main(["stats", "--store", str(store)]) == 0
        assert gc.get_freeze_count() == 0
