"""The benchmark's output checks accept the program's outputs on small
versions of every workload and reject deliberately corrupted artifacts.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

import checks
import workloads

kgreason_cli = pytest.importorskip("kgreason.cli")


def run_in(argv: list, directory: Path) -> None:
    previous = os.getcwd()
    os.chdir(directory)
    try:
        assert kgreason_cli.main(argv) == 0, argv
    finally:
        os.chdir(previous)


def run_workload(workload: workloads.Workload, root: Path, seed: int):
    inputs = root / "inputs"
    inputs.mkdir()
    workload.prepare(inputs, seed, run_in)
    expected = workload.expect(inputs)
    directory = root / "round"
    directory.mkdir()
    for stage, argv in workload.stages(seed):
        run_in([stage, *argv], directory)
        workload.check(stage, directory, expected)
    return directory, expected


def copy_round(fixture, tmp_path: Path):
    """A private copy of a module fixture's round, safe to corrupt."""
    workload, directory, expected = fixture
    return workload, Path(shutil.copytree(directory, tmp_path / "round")), expected


def rewrite_jsonl(path: Path, edit) -> None:
    records = checks.read_jsonl(path)
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@pytest.fixture(scope="module")
def regular(tmp_path_factory):
    workload = workloads.Planted100kRegular()
    workload.triples, workload.per_rule = 3000, 40
    directory, expected = run_workload(workload, tmp_path_factory.mktemp("regular"), 3)
    return workload, directory, expected


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    workload = workloads.DenseCompose()
    workload.entities, workload.out_degree = 12, 2
    directory, expected = run_workload(workload, tmp_path_factory.mktemp("dense"), 3)
    return workload, directory, expected


def test_corrupted_rule_counts_fail(dense, tmp_path):
    workload, directory, expected = copy_round(dense, tmp_path)

    def bump(records):
        records[0]["support"] += 1

    rewrite_jsonl(directory / "rules.tsv", bump)
    with pytest.raises(checks.CheckError, match="support/body_count"):
        workload.check("mine", directory, expected)


def test_library_missing_a_composed_rule_fails(dense, tmp_path):
    workload, directory, expected = copy_round(dense, tmp_path)
    path = directory / "library.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    composed = next(i for i, line in enumerate(lines) if json.loads(line)["hop"] > 2)
    path.write_text("".join(lines[:composed] + lines[composed + 1 :]), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="library rule set"):
        workload.check("compose", directory, expected)


def test_store_missing_a_triple_fails(regular, tmp_path):
    workload, directory, expected = copy_round(regular, tmp_path)
    store = json.loads((directory / "store.json").read_text(encoding="utf-8"))
    store["triples"].pop()
    (directory / "store.json").write_text(json.dumps(store), encoding="utf-8")
    with pytest.raises(checks.CheckError):
        workload.check("ingest", directory, expected)


def test_unbalanced_pool_fails(regular, tmp_path):
    workload, directory, expected = copy_round(regular, tmp_path)
    rewrite_jsonl(directory / "pool.tsv", lambda records: records.append(records[0]))
    with pytest.raises(checks.CheckError, match="per-rule counts differ"):
        workload.check("select", directory, expected)


def test_trace_through_a_missing_fact_fails(regular, tmp_path):
    workload, directory, expected = copy_round(regular, tmp_path)

    def detour(samples):
        step = next(s for s in samples[0]["trace"]["steps"] if s["type"] == "conclude")
        step["entities"][1] = step["entities"][0]

    rewrite_jsonl(directory / "trial_samples.jsonl", detour)
    with pytest.raises(checks.CheckError, match="not in graph"):
        checks.check_explore(
            directory / "trial_samples.jsonl", expected["graph"], expected["probe"]
        )


def test_report_with_an_extra_exact_match_fails(tmp_path):
    workload = workloads.Planted10kEvaluate()
    workload.triples = 3000
    directory, expected = run_workload(workload, tmp_path, 3)
    plan = expected["plan"]
    assert {"untouched", "swapped", "emptied"} <= set(plan.values())
    report = json.loads((directory / "report.json").read_text(encoding="utf-8"))
    report["splits"][0]["exact_match"]["correct"] += 1
    (directory / "report.json").write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="exact match"):
        workload.check("evaluate", directory, expected)
