"""Whole-file writes, and the readers of every text input."""

from __future__ import annotations

import os
import threading
from pathlib import Path

import pytest

from kgreason.artifacts import read_records, write_lines, write_records
from kgreason.cli import main
from kgreason.errors import DataError
from kgreason.kg import KnowledgeGraph
from kgreason.rules import Rule, RuleStats, write_rules


def failing_records():
    yield {"n": 1}
    yield {"n": 2}
    raise RuntimeError("disk on fire")


def leftovers(folder) -> list[str]:
    return sorted(p.name for p in folder.iterdir() if p.name.endswith(".tmp"))


class TestWriteLines:
    def test_lines_and_count(self, tmp_path):
        path = tmp_path / "out.txt"
        assert write_lines(path, ["a", "", "b"]) == 3
        assert path.read_bytes() == b"a\n\nb\n"
        assert leftovers(tmp_path) == []

    def test_failure_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"old":true}\n')
        with pytest.raises(RuntimeError):
            write_records(path, failing_records())
        assert path.read_bytes() == b'{"old":true}\n'
        assert leftovers(tmp_path) == []

    def test_failure_without_a_previous_file_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_records(tmp_path / "records.jsonl", failing_records())
        assert list(tmp_path.iterdir()) == []

    def test_symlink_is_kept_and_its_target_replaced(self, tmp_path):
        target = tmp_path / "real.txt"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        write_lines(link, ["new"])
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_text(encoding="utf-8") == "new\n"
        assert leftovers(tmp_path) == []

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []

        def drain():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        assert write_records(fifo, [{"a": 1}, {"b": "é"}]) == 2
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == ['{"a":1}\n{"b":"é"}\n'.encode("utf-8")]
        assert fifo.is_fifo()
        assert leftovers(tmp_path) == []


class TestReadRecords:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"n": 1}\n\n   \n{"n": 2}\n', encoding="utf-8")
        assert read_records(path, "thing", lambda r: r["n"]) == [1, 2]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        records = [{"id": "x", "v": [1, 2]}, {"id": "ü", "v": None}]
        assert write_records(path, records) == 2
        assert read_records(path, "thing", dict) == records

    def test_bad_line_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"n": 1}\n\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"r\.jsonl: bad thing on line 3$"):
            read_records(path, "thing", lambda r: r["n"])

    @pytest.mark.parametrize("line", ['{"m": 1}', "[1]", '{"n": "x"}'])
    def test_parse_rejection_is_a_data_error(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="bad thing on line 1"):
            read_records(path, "thing", lambda r: int(r["n"]))


# ----------------------------------------------------------------------
# edge cases of every text input, through the command line

TRIPLES = (
    "anykid\tpart_of\tcckqlvy\n"
    "cckqlvy\tfrom_country\tvevedgta\n"
    "anykid\tcitizen_of\tvevedgta\n"
)


def tiny_run(run: Path) -> None:
    """A three-fact store, its one two-hop rule and an anonymized pool, in
    ``run``, which is the working directory."""
    (run / "triples.tsv").write_text(TRIPLES, encoding="utf-8")
    rule = Rule("citizen_of", ("part_of", "from_country"))
    write_rules(run / "rules.tsv", [RuleStats(rule, support=1, body_count=1)])
    for args in (
        ["ingest", "--triples", "triples.tsv", "--store", "store.json"],
        [
            "select", "--store", "store.json", "--library", "rules.tsv",
            "--pool", "pool.tsv", "--map", "map.tsv", "--per-rule", "1",
        ],
    ):
        assert main([*args, "--manifest", "manifest.json"]) == 0


# Per reader: the well-formed file, then the stage that reads it from
# "input" and writes "output".
READERS = {
    "triples": (TRIPLES, ["ingest", "--triples", "input", "--store", "output"]),
    "probe facts": (
        "anykid\tpart_of\tcckqlvy\ncckqlvy\tfrom_country\tvevedgta\n",
        [
            "select", "--store", "store.json", "--library", "rules.tsv",
            "--pool", "output", "--setting", "regular", "--per-rule", "1",
            "--client", "mock", "--probe-facts", "input",
        ],
    ),
    "map": (
        None,  # the map select wrote
        [
            "generate", "--store", "store.json", "--pool", "pool.tsv",
            "--map", "input", "--samples", "output",
        ],
    ),
    "templates": (
        "part_of\t<ENT1> is part of <ENT2>.\nfrom_country\t<ENT1> is from <ENT2>.\n",
        [
            "generate", "--store", "store.json", "--pool", "pool.tsv",
            "--map", "map.tsv", "--templates", "input", "--samples", "output",
        ],
    ),
    "config": (
        "triples = triples.tsv\n# ingest options\n",
        ["ingest", "--config", "input", "--store", "output"],
    ),
}

# Each case edits the first line of the well-formed file.
CASES = {
    "crlf line ends": lambda first, rest: first + "\r\n" + rest,
    "cr inside a line": lambda first, rest: (
        first[:-3] + "\r" + first[-3:] + "\n" + rest
    ),
    "whitespace-only line": lambda first, rest: first + "\n \t \n" + rest,
    "trailing tab": lambda first, rest: first + "\t\n" + rest,
    "empty first field": lambda first, rest: (
        first[first.index("\t" if "\t" in first else "="):] + "\n" + rest
    ),
    "empty last field": lambda first, rest: (
        first[:first.rindex("\t" if "\t" in first else "=") + 1] + "\n" + rest
    ),
    "invalid utf-8": None,
}

# Exit codes by reader and case; every other pair exits 0.
EXITS = {
    ("triples", "cr inside a line"): 2,
    ("triples", "trailing tab"): 2,
    ("triples", "empty first field"): 2,
    ("triples", "empty last field"): 2,
    ("probe facts", "cr inside a line"): 2,
    ("probe facts", "trailing tab"): 2,
    ("probe facts", "empty first field"): 2,
    ("probe facts", "empty last field"): 2,
    ("map", "cr inside a line"): 2,
    ("map", "trailing tab"): 2,
    ("map", "empty first field"): 2,
    ("map", "empty last field"): 2,
    ("templates", "cr inside a line"): 2,
    ("templates", "trailing tab"): 2,
    ("templates", "empty first field"): 2,
    ("templates", "empty last field"): 2,
    ("config", "cr inside a line"): 1,
    ("config", "empty first field"): 1,
    ("config", "empty last field"): 1,
}

# How each reader reports the "cr inside a line" case.  The break splits the
# first line in two, and the first half is well formed.  Triples, the map and
# the config file then fail on the second half, line 2.  In the probe facts
# the first half names an entity the store lacks, and in the templates it
# cuts <ENT2>, so those fail on line 1.
CR_ERRORS = {
    "triples": "data error: input: bad triple on line 2",
    "probe facts": "data error: input: bad triple on line 1: unknown entity: 'cckq'",
    "map": "data error: input: bad map entry on line 2",
    "templates": (
        "data error: input: bad relation template on line 1: relation template "
        "for 'part_of' must contain <ENT2> exactly once"
    ),
    "config": "usage error: input: bad key=value option on line 2",
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("reader", list(READERS))
def test_text_input_edge_cases(tmp_path, monkeypatch, capsys, reader, case):
    """Every reader skips blank lines and holds every other line to its
    format.  A broken field, name or template, or undecodable bytes, in a
    tab-separated file give an error naming the file, and the line if any."""
    monkeypatch.chdir(tmp_path)
    tiny_run(tmp_path)
    good, args = READERS[reader]
    if good is None:
        good = (tmp_path / "map.tsv").read_text(encoding="utf-8")
    first, _, rest = good.partition("\n")
    edit = CASES[case]
    if edit is None:
        data = good.encode("utf-8") + b"\xff\n"
        expected = 2
    else:
        data = edit(first, rest).encode("utf-8")
        expected = EXITS.get((reader, case), 0)
    (tmp_path / "input").write_bytes(data)
    code = main([*args, "--manifest", "manifest.json"])
    err = capsys.readouterr().err
    assert code == expected, err
    if code and reader != "config":
        assert "data error: input: " in err, err
    if case == "cr inside a line":
        assert CR_ERRORS[reader] in err, err
    assert (tmp_path / "output").exists() == (code == 0)
    assert leftovers(tmp_path) == []


# A well-formed line whose value is wrong, per reader: the input, then the
# error naming its file and line.
BAD_VALUES = {
    "probe facts": (
        "anykid\tpart_of\tcckqlvy\n\nnosuch\tfrom_country\tvevedgta\n",
        "input: bad triple on line 3: unknown entity: 'nosuch'",
    ),
    "map": (
        "anykid\tZorp\nnosuch\tBlim\n",
        "input: bad map entry on line 2: unknown entity: 'nosuch'",
    ),
    "templates": (
        "from_country\t<ENT1> is from <ENT2>.\npart_of\t<ENT1> bad\n",
        "input: bad relation template on line 2: relation template for "
        "'part_of' must contain <ENT2> exactly once: '<ENT1> bad'",
    ),
}


@pytest.mark.parametrize("reader", list(BAD_VALUES))
def test_bad_value_inside_a_line_names_the_file_and_line(
    tmp_path, monkeypatch, capsys, reader
):
    monkeypatch.chdir(tmp_path)
    tiny_run(tmp_path)
    data, message = BAD_VALUES[reader]
    (tmp_path / "input").write_text(data, encoding="utf-8")
    code = main([*READERS[reader][1], "--manifest", "manifest.json"])
    assert code == 2
    assert f"kgreason: data error: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "output").exists()


@pytest.mark.parametrize("line", ["a\tr\tb\r", "a\tr\tb\r\n", "a\tr\tb\n"])
def test_in_memory_line_break_is_dropped(line):
    assert KnowledgeGraph.from_lines(["", line]).stats() == {
        "entities": 2, "relations": 1, "triples": 1,
    }


def test_in_memory_cr_inside_a_field_is_kept():
    kg = KnowledgeGraph.from_lines(["a\tr\rs\tb"])
    assert kg.relation_names() == ["r\rs"]
