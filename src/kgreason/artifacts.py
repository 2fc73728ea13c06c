"""How every artifact reaches disk, and how every text input is read.

An artifact is written whole: its lines go to a hidden temp file beside the
target (``.{name}.{pid}.tmp``), which then replaces the target in one
rename.  A stage that fails part way leaves the previous file, or no file;
only a process killed outright (SIGKILL) can leave the temp file behind.

Every text input is read here too.  Line-based files go through one loop,
``parse_lines``, and an error names the file and the 1-based line.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

from .errors import DataError, IngestError

T = TypeVar("T")

# Compact records, one per line, non-ASCII kept as is.
_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each line plus ``"\\n"`` to ``path`` whole.  Returns the count.

    A symlink is followed, so the link stays and its target gets the new
    content.  A target that exists and is not a regular file (``/dev/null``,
    a FIFO) cannot be replaced by a rename and is written in place.
    """
    target = os.path.realpath(path)
    try:
        in_place = not stat.S_ISREG(os.stat(target).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(target, "w", encoding="utf-8") as fh:
            return _write(fh, lines)
    folder, name = os.path.split(target)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            count = _write(fh, lines)
        os.replace(tmp, target)
    except BaseException:
        if os.path.lexists(tmp):
            os.unlink(tmp)
        raise
    return count


def _write(fh: TextIO, lines: Iterable[str]) -> int:
    count = 0
    for line in lines:
        fh.write(line)
        fh.write("\n")
        count += 1
    return count


def write_records(path: str | Path, records: Iterable[Any]) -> int:
    """One compact JSON record per line.  Returns the record count."""
    return write_lines(path, map(_encode, records))


def parse_lines(
    lines: Iterable[str], what: str, parse: Callable[[str], T]
) -> Iterator[T]:
    """``parse`` of each line that is not blank or whitespace only, its line
    break dropped.  A KeyError, TypeError, ValueError or DataError from
    ``parse`` is an IngestError with the 1-based line (and a DataError's text)."""
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if line and not line.isspace():
            try:
                value = parse(line)
            except (KeyError, TypeError, ValueError) as exc:
                raise IngestError(line_no, what) from exc
            except DataError as exc:
                raise IngestError(line_no, what, str(exc)) from exc
            yield value


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text.  A line error or undecodable bytes met
    while reading it become a DataError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text") from exc
    except IngestError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_fields(lines: Iterable[str], n: int, what: str, convert=None) -> Iterator[Any]:
    """Exactly ``n`` non-empty tab-separated fields per line, or ``convert``
    of them, from an ``open_text`` file or from lines in memory."""

    def split(line: str) -> list[str]:
        fields = line.split("\t")
        if len(fields) != n or "" in fields:
            raise ValueError(f"expected {n} non-empty tab-separated fields")
        return fields

    parse = split if convert is None else lambda line: convert(*split(line))
    return parse_lines(lines, what, parse)


def read_records(path: str | Path, what: str, parse: Callable[[Any], T]) -> list[T]:
    """``parse`` applied to each non-blank line's JSON value, in file order."""
    with open_text(path) as fh:
        return list(parse_lines(fh, what, lambda line: parse(json.loads(line))))


def read_json(path: str | Path, what: str) -> dict[str, Any]:
    """The JSON object in ``path``; anything else is a DataError naming it."""
    try:
        with open_text(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a JSON {what}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: a {what} must be a JSON object")
    return payload
