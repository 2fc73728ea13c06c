"""Every public name the package defines is used by the package itself.

A public function, class or method that nothing in ``src/kgreason`` names
is code only tests call.  It either moves into the test oracle that needs
it or goes.  A function or class counts as used when it appears anywhere in
the package as a name, an attribute or an import, outside its own ``def`` or
``class`` line.  A method counts as used only where it is accessed as an
attribute (``x.method``), so a local variable or a parameter of the same
name does not hide it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import kgreason

PACKAGE = Path(kgreason.__file__).resolve().parent

# Names the package does not use itself but that stay on purpose.
ALLOWED = {
    # perfbench/tracer.py wraps it; the reference regex parser in
    # tests/regex_parser.py uses it with name_alternation.
    "RelationTemplate.to_regex",
    "name_alternation",
    # perfbench/tracer.py reads it from each explore() result.
    "ExplorationTrace.trials",
}


def is_public(name: str) -> bool:
    return not name.startswith("_")


def definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each public top-level function and
    class, and of each public method of a public class."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not is_public(node.name):
            continue
        found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and is_public(item.name):
                    found.append((f"{node.name}.{item.name}", item.name))
    return found


def named(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Every identifier the module mentions, and those it reads as an
    attribute."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names | attributes, attributes


def unused_public_names(package: Path = PACKAGE) -> list[str]:
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    used, as_attribute = set(), set()
    for tree in trees.values():
        names, attributes = named(tree)
        used |= names
        as_attribute |= attributes
    unused = []
    for module, tree in trees.items():
        for qualified, bare in definitions(tree):
            if module == "cli.py" and bare.startswith("cmd_"):
                continue  # the stage table dispatches these by name
            seen = as_attribute if "." in qualified else used
            if bare not in seen and qualified not in ALLOWED:
                unused.append(f"{module}: {qualified}")
    return unused


def test_every_public_name_is_used_in_the_package():
    assert unused_public_names() == []


def test_guard_sees_a_name_only_tests_would_call(tmp_path):
    (tmp_path / "orphan.py").write_text(
        "def helper():\n    return 1\n\n\n"
        "class Box:\n    def size(self):\n        return helper()\n",
        encoding="utf-8",
    )
    assert unused_public_names(tmp_path) == ["orphan.py: Box", "orphan.py: Box.size"]


def test_guard_sees_a_method_named_only_as_a_local(tmp_path):
    (tmp_path / "shadow.py").write_text(
        "class Box:\n"
        "    def total(self):\n"
        "        return 1\n\n"
        "    def width(self):\n"
        "        return 2\n\n\n"
        "def measure(box):\n"
        "    total = 3\n"
        "    return total + box.width()\n\n\n"
        "VALUE = measure(Box())\n",
        encoding="utf-8",
    )
    assert unused_public_names(tmp_path) == ["shadow.py: Box.total"]
