"""The benchmark's tracer still fits the results it reads.

``perfbench/tracer.py`` wraps public functions by name and counts from
their results: ``select_pipeline(...)[0].size()``,
``explore_samples(...)[1]["error_traces"]`` and ``explore(...).trials``.
A reshaped result would otherwise break only ``perfbench/run.py --trace 1``.
Here the tracer runs select and ``explore --oracle probe`` on a one-rule
regular pipeline and must report those counters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
    return payload["counters"]


def test_tracer_counts_select_and_explore(tmp_path):
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

    select = trace(
        tmp_path, "select", "--store", "store.json", "--library", "rules.tsv",
        "--pool", "pool.tsv", "--setting", "regular", "--per-rule", "1", *CLIENT,
    )
    assert select["selection.pool_instances"] == 1

    explore = trace(
        tmp_path, "explore", "--store", "store.json", "--pool", "pool.tsv",
        "--library", "rules.tsv", "--samples", "trial_samples.jsonl",
        "--oracle", "probe", *CLIENT,
    )
    assert explore["explore.error_traces"] == 0
    assert explore["explore.trials"] == 1
