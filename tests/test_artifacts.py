"""Whole-file writes and the JSON-lines reader."""

from __future__ import annotations

import os
import threading

import pytest

from kgreason.artifacts import read_records, write_lines, write_records
from kgreason.errors import DataError


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
