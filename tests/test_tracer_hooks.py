"""The benchmark's tracer still fits the results it reads.

``perfbench/tracer.py`` wraps public functions by name and counts from
their results: ``select_pipeline(...)[0].size()``, the items of
``ground_rule``,
``explore_samples(...)[1]["error_traces"]`` and ``explore(...).trials``.
It also wraps ``Evaluator.__init__``, ``Evaluator.parse`` and
``Evaluator.evaluate`` by name.  A reshaped result or a renamed method would
otherwise break only ``perfbench/run.py --trace 1``.  Here the tracer runs
select, ``explore --oracle probe`` and evaluate on a one-rule regular
pipeline and must report those counters and spans.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SOURCE_ROOT, run_cli
from kgreason.rules import Rule, RuleStats, write_rules

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

CLIENT = ["--client", "mock", "--probe-facts", "probe.tsv", "--seed", "1"]


def trace(run: Path, *stage_args: str) -> dict:
    out = run / f"trace_{stage_args[0]}.json"
    inherited = os.environ.get("PYTHONPATH")
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(out), *stage_args],
        cwd=run,
        env={
            **os.environ,
            "PYTHONPATH": SOURCE_ROOT + (os.pathsep + inherited if inherited else ""),
        },
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["exit"] == 0
    return payload


@pytest.fixture
def regular_run(tmp_path) -> Path:
    """A store and a one-rule library whose instance the mock model's
    probe facts admit to a regular pool."""
    (tmp_path / "triples.tsv").write_text(
        "anykid\tpart_of\tcckqlvy\n"
        "cckqlvy\tfrom_country\tvevedgta\n"
        "anykid\tcitizen_of\tvevedgta\n",
        encoding="utf-8",
    )
    # The body facts are known to the mock model and the head is not.
    (tmp_path / "probe.tsv").write_text(
        "anykid\tpart_of\tcckqlvy\ncckqlvy\tfrom_country\tvevedgta\n",
        encoding="utf-8",
    )
    rule = Rule("citizen_of", ("part_of", "from_country"))
    write_rules(tmp_path / "rules.tsv", [RuleStats(rule, support=1, body_count=1)])
    run_cli(tmp_path, "ingest", "--triples", "triples.tsv", "--store", "store.json")
    return tmp_path


SELECT = (
    "select", "--store", "store.json", "--library", "rules.tsv",
    "--pool", "pool.tsv", "--setting", "regular", "--per-rule", "1", *CLIENT,
)
EXPLORE = (
    "explore", "--store", "store.json", "--pool", "pool.tsv",
    "--library", "rules.tsv", "--samples", "trial_samples.jsonl",
    "--oracle", "probe", *CLIENT,
)


def test_tracer_counts_select_and_explore(regular_run):
    select = trace(regular_run, *SELECT)["counters"]
    # The tracer counts groundings by wrapping mining.ground_rule, so select
    # must draw them through that name.
    assert select["mining.groundings"] == 1
    assert select["selection.pool_instances"] == 1

    explore = trace(regular_run, *EXPLORE)["counters"]
    assert explore["explore.error_traces"] == 0
    assert explore["explore.trials"] == 1


def test_tracer_spans_evaluate(regular_run):
    for stage in (SELECT, EXPLORE):
        run_cli(regular_run, *stage)
    run_cli(
        regular_run, "split", "--samples", "trial_samples.jsonl",
        "--training-rules", "rules.tsv", "--out", "splits.json",
    )
    (regular_run / "preds.jsonl").write_text(
        json.dumps({"id": "none", "output": "vevedgta is the answer."}) + "\n",
        encoding="utf-8",
    )
    payload = trace(
        regular_run, "evaluate", "--store", "store.json", "--library", "rules.tsv",
        "--splits", "splits.json", "--samples", "trial_samples.jsonl",
        "--predictions", "preds.jsonl", "--report", "report.json",
    )
    names = {span[0] for span in payload["spans"]}
    assert {
        "evaluation.parser_build", "evaluation.parse", "evaluation.evaluate",
    } <= names
    assert payload["counters"]["evaluation.predictions"] == 1
