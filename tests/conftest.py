"""Shared fixtures: small hand-checkable graphs, builders, and the
session-wide planted pipeline run that the command line and acceptance
tests both inspect."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kgreason
from kgreason.kg import KnowledgeGraph
from kgreason.mining import ground_rule
from kgreason.selection import rule_instance

# Three facts over three entities; every expected value in the kg tests
# was first counted by hand on this drawing:  a --r2--> b --r3--> c  and
# a --r1--> c  closing the path.
EXAMPLE_LINES = "a\tr2\tb\nb\tr3\tc\na\tr1\tc\n"

# Same graph plus a second r2 edge into b: the two-hop body r2/r3 now has
# two groundings (a,b,c) and (d,b,c) while only (a,r1,c) closes, so the
# rule r1 <- r2 & r3 scores 1 of 2.
SCORE_LINES = "a\tr2\tb\nb\tr3\tc\na\tr1\tc\nd\tr2\tb\n"


@pytest.fixture
def example_kg() -> KnowledgeGraph:
    return KnowledgeGraph.from_lines(EXAMPLE_LINES.splitlines())


@pytest.fixture
def score_kg() -> KnowledgeGraph:
    return KnowledgeGraph.from_lines(SCORE_LINES.splitlines())


def kg_from(triples) -> KnowledgeGraph:
    lines = [f"{h}\t{r}\t{t}" for h, r, t in triples]
    return KnowledgeGraph.from_lines(lines)


def ground_instances(kg: KnowledgeGraph, rule) -> list:
    """The rule's instances on ``kg``, one per grounding of ``ground_rule``,
    in its order."""
    return [rule_instance(kg, rule, entities) for entities in ground_rule(kg, rule)]


def random_triples(
    rng: random.Random, n_entities: int, n_relations: int, n_triples: int
) -> list[tuple[str, str, str]]:
    return [
        (
            f"e{rng.randrange(n_entities)}",
            f"r{rng.randrange(n_relations)}",
            f"e{rng.randrange(n_entities)}",
        )
        for _ in range(n_triples)
    ]


# ----------------------------------------------------------------------
# full pipeline over a planted graph, shared across test modules

PIPELINE_ARTIFACTS = [
    "triples.tsv",
    "store.json",
    "rules.tsv",
    "library.tsv",
    "pool.tsv",
    "map.tsv",
    "samples.jsonl",
    "corpus.jsonl",
    "preds.jsonl",
    "trial_samples.jsonl",
    "trial_preds.jsonl",
    "trial_map.tsv",
    "splits.json",
    "report.json",
    "manifest.json",
]


# The directory holding the kgreason package this test process imported.
SOURCE_ROOT = str(Path(kgreason.__file__).resolve().parent.parent)


def run_cli(cwd, *args, check=True):
    """Run the CLI in `cwd` on the source tree this test process imported."""
    # An inherited relative PYTHONPATH such as `src` would resolve against cwd.
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = SOURCE_ROOT + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, "-m", "kgreason", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, f"{args}\n{proc.stdout}\n{proc.stderr}"
    return proc


def run_planted_pipeline(run_dir: Path) -> None:
    """Every stage end to end, all paths relative to the run directory."""
    run_dir.mkdir(parents=True, exist_ok=True)
    run_cli(
        run_dir, "synth", "--out", "triples.tsv", "--kind", "planted",
        "--triples", "5000", "--seed", "13",
    )
    run_cli(run_dir, "ingest", "--triples", "triples.tsv", "--store", "store.json")
    run_cli(
        run_dir, "mine", "--store", "store.json", "--out", "rules.tsv",
        "--min-support", "2", "--min-confidence", "0.6",
    )
    run_cli(
        run_dir, "compose", "--store", "store.json", "--rules", "rules.tsv",
        "--out", "library.tsv",
    )
    run_cli(
        run_dir, "select", "--store", "store.json", "--library", "library.tsv",
        "--pool", "pool.tsv", "--map", "map.tsv", "--setting", "anonymized",
        "--per-rule", "4", "--seed", "5",
    )
    run_cli(
        run_dir, "generate", "--store", "store.json", "--pool", "pool.tsv",
        "--map", "map.tsv", "--samples", "samples.jsonl",
        "--corpus", "corpus.jsonl", "--predictions", "preds.jsonl",
        "--seed", "5",
    )
    run_cli(
        run_dir, "explore", "--store", "store.json", "--pool", "pool.tsv",
        "--map", "map.tsv", "--map-out", "trial_map.tsv",
        "--library", "library.tsv", "--samples", "trial_samples.jsonl",
        "--predictions", "trial_preds.jsonl", "--oracle", "kg", "--seed", "5",
    )
    run_cli(
        run_dir, "split", "--samples", "samples.jsonl", "trial_samples.jsonl",
        "--training-rules", "rules.tsv", "--out", "splits.json", "--seed", "3",
    )
    run_cli(
        run_dir, "evaluate", "--store", "store.json", "--library", "library.tsv",
        "--splits", "splits.json",
        "--samples", "samples.jsonl", "trial_samples.jsonl",
        "--predictions", "preds.jsonl", "trial_preds.jsonl",
        "--map", "trial_map.tsv", "--report", "report.json",
    )


@pytest.fixture(scope="session")
def pipeline_dir(tmp_path_factory) -> Path:
    run_dir = tmp_path_factory.mktemp("pipeline")
    run_planted_pipeline(run_dir)
    return run_dir


@pytest.fixture(scope="session")
def pipeline_rerun_dir(tmp_path_factory) -> Path:
    run_dir = tmp_path_factory.mktemp("pipeline-rerun")
    run_planted_pipeline(run_dir)
    return run_dir
