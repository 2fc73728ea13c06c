"""Files are opened in one module.

``artifacts.py`` decides how a file is read and written: its encoding, the
one loop over its lines and the error a malformed line gives.  A call that
opens a file anywhere else in ``src/kgreason`` would be a reader or writer
of its own.  The one exception is ``manifest.file_digest``, which hashes a
file's raw bytes.  ``open`` counts in every spelling (``open``,
``io.open``, ``path.open``), and so do the ``pathlib`` shortcuts that open
a file behind the call.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import kgreason

PACKAGE = Path(kgreason.__file__).resolve().parent

OPENERS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}

# Where a file may be opened: a whole module, or one function of a module.
ALLOWED = {"artifacts.py", "manifest.py: file_digest"}


def open_calls(tree: ast.AST, scope: str = "") -> Iterator[str]:
    """The qualified name of the function around each call that opens a
    file; ``""`` for a call at module level."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in OPENERS:
                yield scope
        yield from open_calls(node, inner)


def stray_openers(package: Path = PACKAGE) -> list[str]:
    stray = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in open_calls(tree):
            site = f"{path.name}: {scope}"
            if path.name not in ALLOWED and site not in ALLOWED:
                stray.append(site)
    return stray


def test_files_are_opened_only_in_artifacts_and_the_digest():
    assert stray_openers() == []


def test_guard_sees_every_spelling(tmp_path):
    (tmp_path / "artifacts.py").write_text(
        "def read(path):\n    return open(path).read()\n", encoding="utf-8"
    )
    (tmp_path / "manifest.py").write_text(
        "def file_digest(path):\n"
        "    return open(path, 'rb').read()\n\n\n"
        "def load(path):\n"
        "    return path.read_text()\n",
        encoding="utf-8",
    )
    (tmp_path / "reader.py").write_text(
        "import io\n\n"
        "HEADER = open('header.txt').read()\n\n\n"
        "class Table:\n"
        "    def load(self, path):\n"
        "        with io.open(path) as fh:\n"
        "            return fh.read()\n\n"
        "    def save(self, path, text):\n"
        "        def write():\n"
        "            path.write_bytes(text)\n"
        "        write()\n",
        encoding="utf-8",
    )
    assert stray_openers(tmp_path) == [
        "manifest.py: load",
        "reader.py: ",
        "reader.py: Table.load",
        "reader.py: Table.save.write",
    ]
