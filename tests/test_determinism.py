"""The determinism contract, for every stage at once.

The pipeline runs in both settings on a small planted graph: once from the
triple and probe-facts files as written, once from copies with their lines
shuffled.  Each run is a fresh interpreter under ``PYTHONHASHSEED`` 0 and
1, so that an order leaking from a ``set`` or ``dict`` of strings fails
every time rather than now and then.  Every artifact must match byte for
byte; only the manifest's digest of ``triples.tsv`` may differ.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SOURCE_ROOT
from kgreason import artifacts, cli, synthetic

PIPELINE = [
    ["ingest", "--triples", "triples.tsv", "--store", "store.json"],
    [
        "mine", "--store", "store.json", "--out", "rules.tsv",
        "--min-support", "2", "--min-confidence", "0.6",
    ],
    [
        "compose", "--store", "store.json", "--rules", "rules.tsv",
        "--out", "library.tsv",
    ],
    [
        "select", "--store", "store.json", "--library", "library.tsv",
        "--pool", "pool.tsv", "--map", "map.tsv", "--per-rule", "4", "--seed", "5",
    ],
    [
        "generate", "--store", "store.json", "--pool", "pool.tsv", "--map", "map.tsv",
        "--samples", "samples.jsonl", "--corpus", "corpus.jsonl",
        "--predictions", "preds.jsonl", "--seed", "5",
    ],
    [
        "explore", "--store", "store.json", "--pool", "pool.tsv", "--map", "map.tsv",
        "--map-out", "trial_map.tsv", "--library", "library.tsv",
        "--samples", "trial_samples.jsonl", "--predictions", "trial_preds.jsonl",
        "--seed", "5",
    ],
    [
        "split", "--samples", "samples.jsonl", "trial_samples.jsonl",
        "--training-rules", "rules.tsv", "--out", "splits.json", "--seed", "3",
    ],
    [
        "evaluate", "--store", "store.json", "--library", "library.tsv",
        "--splits", "splits.json", "--samples", "samples.jsonl", "trial_samples.jsonl",
        "--predictions", "preds.jsonl", "trial_preds.jsonl", "--map", "trial_map.tsv",
        "--report", "report.json",
    ],
    # The regular setting keeps its own manifest, as its select and
    # generate would replace the anonymized entries.
    [
        "select", "--store", "store.json", "--library", "library.tsv",
        "--pool", "rpool.tsv", "--setting", "regular", "--per-rule", "2",
        "--client", "mock", "--probe-facts", "probe.tsv", "--seed", "5",
        "--manifest", "regular.json",
    ],
    [
        "generate", "--store", "store.json", "--pool", "rpool.tsv",
        "--samples", "rsamples.jsonl", "--seed", "5", "--manifest", "regular.json",
    ],
]

# One interpreter runs every stage, so that a run costs one start-up.
PIPELINE_SCRIPT = """
import json, sys
from kgreason.cli import main
for args in json.loads(sys.argv[1]):
    if main(args) != 0:
        sys.exit(f"{args[0]} failed")
"""

INPUTS = ("triples.tsv", "probe.tsv")
ARTIFACTS = sorted([
    "store.json", "rules.tsv", "library.tsv", "pool.tsv", "map.tsv",
    "samples.jsonl", "corpus.jsonl", "preds.jsonl", "trial_map.tsv",
    "trial_samples.jsonl", "trial_preds.jsonl", "splits.json", "report.json",
    "manifest.json", "rpool.tsv", "rsamples.jsonl", "regular.json",
])


def run_pipeline(folder: Path, hash_seed: int) -> dict[str, bytes]:
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONHASHSEED": str(hash_seed),
        "PYTHONPATH": SOURCE_ROOT + (os.pathsep + inherited if inherited else ""),
    }
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE_SCRIPT, json.dumps(PIPELINE)],
        cwd=folder, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    artifacts = {
        p.name: p.read_bytes() for p in folder.iterdir() if p.name not in INPUTS
    }
    manifest = json.loads(artifacts["manifest.json"])
    del manifest["stages"]["ingest"]["inputs"]["triples"]["digest"]
    artifacts["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return artifacts


@pytest.fixture(scope="module")
def inputs() -> dict[str, list[str]]:
    triples = synthetic.planted_triples(13, 3000)
    lines = [f"{h}\t{r}\t{t}\n" for h, r, t in triples]
    return {"triples.tsv": lines, "probe.tsv": lines[::3] + lines[1::3]}


@pytest.fixture(scope="module")
def reference(inputs, tmp_path_factory) -> dict[str, bytes]:
    folder = tmp_path_factory.mktemp("as-written")
    for name, lines in inputs.items():
        (folder / name).write_text("".join(lines), encoding="utf-8")
    return run_pipeline(folder, 0)


def test_reference_run_covers_both_settings(reference):
    manifest = json.loads(reference["manifest.json"])
    assert manifest["stages"]["select"]["counts"]["instances"] > 0
    regular = json.loads(reference["regular.json"])
    assert regular["stages"]["select"]["counts"]["instances"] > 0
    assert sorted(reference) == ARTIFACTS


@pytest.mark.parametrize(
    "shuffled, hash_seed", [(False, 1), (True, 0), (True, 1)],
    ids=["as-written-hash-1", "shuffled-hash-0", "shuffled-hash-1"],
)
def test_artifacts_ignore_input_order_and_hash_seed(
    inputs, reference, tmp_path, shuffled, hash_seed
):
    rng = random.Random(1)
    for name, lines in inputs.items():
        if shuffled:
            lines = lines[:]
            rng.shuffle(lines)
        (tmp_path / name).write_text("".join(lines), encoding="utf-8")
    assert run_pipeline(tmp_path, hash_seed) == reference


def test_no_record_reaches_json(inputs, reference, tmp_path, monkeypatch):
    """Records are NamedTuples, which JSON would write as plain lists without
    complaint; every artifact is built from dicts, lists and scalars instead.
    Records files go through ``artifacts._encode``, the rest through
    ``json.dumps``."""

    def checked(encode):
        def encode_checked(obj, *args, **kwargs):
            stack = [obj]
            while stack:
                item = stack.pop()
                assert not hasattr(type(item), "_fields"), f"record in json: {item!r}"
                if isinstance(item, dict):
                    stack.extend(item.items())
                elif isinstance(item, (list, tuple)):
                    stack.extend(item)
            return encode(obj, *args, **kwargs)

        return encode_checked

    for name, lines in inputs.items():
        (tmp_path / name).write_text("".join(lines), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(json, "dumps", checked(json.dumps))
    monkeypatch.setattr(artifacts, "_encode", checked(artifacts._encode))
    for args in PIPELINE:
        assert cli.main(args) == 0
    assert (tmp_path / "report.json").read_bytes() == reference["report.json"]
