"""Damaged inputs fail cleanly at every stage.

Hypothesis halves, empties, flips one bit of, or drops one line of one
input of one stage.  The inputs come from a small anonymized pipeline and
a small regular one, with a probe-facts file, a templates file and a config
file among them.  Whatever the damage, the stage exits 0, 1 or 2, prints no
traceback and leaves no new or partial output file.  Most cases run
``cli.main`` in process; a few run the command line in a subprocess, where
a traceback would show on stderr.
"""

from __future__ import annotations

import io
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from kgreason.cli import main

# Stage runs over files of one base directory.  Each is (argv, inputs,
# outputs): "<name>" in argv names a file of the run directory.
STAGES = [
    (
        ["ingest", "--triples", "<triples.tsv>", "--store", "<store.json>"],
        ["triples.tsv"],
        ["store.json"],
    ),
    (
        [
            "mine", "--config", "<mine.cfg>", "--store", "<store.json>",
            "--out", "<rules.tsv>",
        ],
        ["mine.cfg", "store.json"],
        ["rules.tsv"],
    ),
    (
        [
            "compose", "--store", "<store.json>", "--rules", "<rules.tsv>",
            "--out", "<library.tsv>",
        ],
        ["store.json", "rules.tsv"],
        ["library.tsv"],
    ),
    (
        [
            "select", "--store", "<store.json>", "--library", "<library.tsv>",
            "--pool", "<pool.tsv>", "--map", "<map.tsv>", "--per-rule", "4",
            "--seed", "5",
        ],
        ["store.json", "library.tsv"],
        ["pool.tsv", "map.tsv"],
    ),
    (
        [
            "select", "--store", "<store.json>", "--library", "<library.tsv>",
            "--pool", "<rpool.tsv>", "--setting", "regular", "--per-rule", "2",
            "--client", "mock", "--probe-facts", "<probe.tsv>",
            "--templates", "<templates.tsv>", "--seed", "5",
        ],
        ["store.json", "library.tsv", "probe.tsv", "templates.tsv"],
        ["rpool.tsv"],
    ),
    (
        [
            "generate", "--store", "<store.json>", "--pool", "<pool.tsv>",
            "--map", "<map.tsv>", "--templates", "<templates.tsv>",
            "--samples", "<samples.jsonl>", "--predictions", "<preds.jsonl>",
            "--seed", "5",
        ],
        ["store.json", "pool.tsv", "map.tsv", "templates.tsv"],
        ["samples.jsonl", "preds.jsonl"],
    ),
    (
        [
            "generate", "--store", "<store.json>", "--pool", "<rpool.tsv>",
            "--samples", "<rsamples.jsonl>", "--seed", "5",
        ],
        ["store.json", "rpool.tsv"],
        ["rsamples.jsonl"],
    ),
    (
        [
            "explore", "--store", "<store.json>", "--pool", "<pool.tsv>",
            "--map", "<map.tsv>", "--map-out", "<trial_map.tsv>",
            "--library", "<library.tsv>", "--samples", "<trial_samples.jsonl>",
            "--predictions", "<trial_preds.jsonl>", "--seed", "5",
        ],
        ["store.json", "pool.tsv", "map.tsv", "library.tsv"],
        ["trial_map.tsv", "trial_samples.jsonl", "trial_preds.jsonl"],
    ),
    (
        [
            "split", "--samples", "<samples.jsonl>", "<trial_samples.jsonl>",
            "--training-rules", "<rules.tsv>", "--out", "<splits.json>",
            "--seed", "3",
        ],
        ["samples.jsonl", "trial_samples.jsonl", "rules.tsv"],
        ["splits.json"],
    ),
    (
        [
            "evaluate", "--store", "<store.json>", "--library", "<library.tsv>",
            "--splits", "<splits.json>",
            "--samples", "<samples.jsonl>", "<trial_samples.jsonl>",
            "--predictions", "<preds.jsonl>", "<trial_preds.jsonl>",
            "--map", "<trial_map.tsv>", "--report", "<report.json>",
        ],
        [
            "store.json", "library.tsv", "splits.json", "samples.jsonl",
            "trial_samples.jsonl", "preds.jsonl", "trial_preds.jsonl",
            "trial_map.tsv",
        ],
        ["report.json"],
    ),
]

DAMAGES = ("halve", "empty", "flip", "drop line")


def argv(args: list[str], folder: Path) -> list[str]:
    return [
        str(folder / arg[1:-1]) if arg.startswith("<") else arg for arg in args
    ] + ["--manifest", str(folder / "manifest.json")]


def quiet_main(args: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """Every stage's inputs, written by running the stages in order."""
    folder = tmp_path_factory.mktemp("fuzz-base")
    code, err = quiet_main(argv(
        ["synth", "--out", "<triples.tsv>", "--triples", "1500", "--seed", "13"],
        folder,
    ))
    assert code == 0, err
    lines = (folder / "triples.tsv").read_text(encoding="utf-8").splitlines(True)
    (folder / "probe.tsv").write_text("".join(lines[::3] + lines[1::3]), "utf-8")
    relations = sorted({line.split("\t")[1] for line in lines})
    (folder / "templates.tsv").write_text(
        "".join(f"{rel}\t<ENT1> has {rel} <ENT2>.\n" for rel in relations[:4]),
        encoding="utf-8",
    )
    (folder / "mine.cfg").write_text(
        "# mining thresholds\nmin_support = 2\nmin-confidence=0.6\n",
        encoding="utf-8",
    )
    for args, _, outputs in STAGES:
        code, err = quiet_main(argv(args, folder))
        assert code == 0, (args, err)
        assert all((folder / name).exists() for name in outputs)
    return folder


def damaged(data: bytes, damage: str, at: int) -> bytes:
    if damage == "halve":
        return data[: len(data) // 2]
    if damage == "empty" or not data:
        return b""
    if damage == "flip":
        i = at % (8 * len(data))
        flipped = bytes([data[i // 8] ^ (1 << i % 8)])
        return data[: i // 8] + flipped + data[i // 8 + 1:]
    lines = data.splitlines(keepends=True)
    del lines[at % len(lines)]
    return b"".join(lines)


def run_damaged(base: Path, stage: int, target: int, damage: str, at: int, run):
    """Run one stage over copies of its inputs, one of them damaged, and
    check the exit code and what the stage left behind."""
    args, inputs, outputs = STAGES[stage]
    folder = Path(tempfile.mkdtemp(dir=base))
    for name in inputs:
        shutil.copy(base / name, folder / name)
    victim = folder / inputs[target % len(inputs)]
    victim.write_bytes(damaged(victim.read_bytes(), damage, at))
    before = sorted(p.name for p in folder.iterdir())
    code, err = run(argv(args, folder))
    assert code in (0, 1, 2), (args, victim.name, damage, err)
    assert "Traceback" not in err
    left = sorted(p.name for p in folder.iterdir())
    if code == 0:
        assert all(name in left for name in outputs), (args, victim.name, damage)
    else:
        assert left == before, (args, victim.name, damage, err)
    shutil.rmtree(folder)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    stage=st.integers(0, len(STAGES) - 1),
    target=st.integers(0, 7),
    damage=st.sampled_from(DAMAGES),
    at=st.integers(0, 1 << 20),
)
def test_damaged_input_fails_cleanly(base, stage, target, damage, at):
    run_damaged(base, stage, target, damage, at, quiet_main)


def run_subprocess(args: list[str]) -> tuple[int, str]:
    proc = run_cli(Path(args[-1]).parent, *args, check=False)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "stage, target, damage",
    [(0, 0, "flip"), (1, 0, "drop line"), (4, 2, "halve"), (9, 2, "flip")],
)
def test_damaged_input_fails_cleanly_from_the_command_line(
    base, stage, target, damage
):
    run_damaged(base, stage, target, damage, 12345, run_subprocess)
