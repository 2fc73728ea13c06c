"""How every artifact reaches disk, and how JSON-lines files are read back.

An artifact is written whole: its lines go to a hidden temp file beside the
target (``.{name}.{pid}.tmp``), which then replaces the target in one
rename.  A stage that fails part way leaves the previous file, or no file;
only a process killed outright (SIGKILL) can leave the temp file behind.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path
from typing import Any, Callable, Iterable, TextIO, TypeVar

from .errors import DataError

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


def read_records(path: str | Path, what: str, parse: Callable[[Any], T]) -> list[T]:
    """``parse`` applied to each non-blank line's JSON value, in file order.

    A line that is not JSON, or that ``parse`` rejects with a KeyError,
    TypeError or ValueError, is a DataError naming the file and the line.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(parse(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: bad {what} on line {line_no}") from exc
    return out
