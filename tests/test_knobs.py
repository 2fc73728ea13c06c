"""Every defaulted parameter of a public function is one the package sets.

A parameter with a default that no call in ``src/kgreason`` ever passes is
a knob nobody turns: each caller gets the default, so the parameter is a
constant spelled as an option.  It becomes a module constant or goes.  A
defaulted parameter of a public module-level function counts as passed
when some call of the function's name in the package (``fn(...)`` or
``module.fn(...)``) passes it by keyword or by position.  A call that
unpacks ``**kwargs`` passes every keyword, and one that unpacks ``*args``
every position from there on.  A function's calls of itself do not count,
as a recursive call only hands on what its own caller passed.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

import kgreason

PACKAGE = Path(kgreason.__file__).resolve().parent

# Defaulted parameters that no call in the package passes but that stay.
ALLOWED = {
    # Tests drive the command line through main(argv); the console script
    # and ``python -m kgreason`` call main() to read sys.argv.
    "cli.py: main(argv)",
}


def defaulted(fn: ast.FunctionDef) -> list[tuple[str, Optional[int]]]:
    """(name, position) of each defaulted parameter; a keyword-only one has
    no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    found += [
        (a.arg, None)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def calls(tree: ast.Module) -> Iterator[tuple[str, str, ast.Call]]:
    """(top-level function around it or "", called name, call) of each call."""
    for top in tree.body:
        scope = top.name if isinstance(top, ast.FunctionDef) else ""
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    yield scope, func.id, node
                elif isinstance(func, ast.Attribute):
                    yield scope, func.attr, node


def passes(call: ast.Call, name: str, position: Optional[int]) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(
        i == position or isinstance(arg, ast.Starred)
        for i, arg in enumerate(call.args[: position + 1])
    )


def unturned_knobs(package: Path = PACKAGE) -> list[str]:
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    sites = [
        (module, scope, name, call)
        for module, tree in trees.items()
        for scope, name, call in calls(tree)
    ]
    unturned = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            callers = [
                call
                for site_module, scope, name, call in sites
                if name == fn.name and (site_module, scope) != (module, fn.name)
            ]
            for param, position in defaulted(fn):
                knob = f"{module}: {fn.name}({param})"
                if knob in ALLOWED:
                    continue
                if not any(passes(call, param, position) for call in callers):
                    unturned.append(knob)
    return unturned


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert unturned_knobs() == []


def test_guard_sees_a_default_no_caller_passes(tmp_path):
    (tmp_path / "knobs.py").write_text(
        "def scale(x, factor=2, offset=0, *, clip=None, round_to=None):\n"
        "    return x * factor + offset\n\n\n"
        "def walk(node, depth=0, seen=None, limit=9):\n"
        "    return walk(node, depth + 1, seen, limit=limit)\n\n\n"
        "def pad(x, width=0):\n"
        "    return x\n\n\n"
        "def _private(x, unused=1):\n"
        "    return x\n\n\n"
        "OPTIONS = {}\n"
        "VALUES = [scale(1, 3, clip=4), walk(0, seen=set()), pad(1, **OPTIONS)]\n",
        encoding="utf-8",
    )
    (tmp_path / "other.py").write_text(
        "import knobs\n\n\n"
        "def use(x, more=None):\n"
        "    return knobs.scale(x, *more)\n",
        encoding="utf-8",
    )
    # ``scale``'s offset is reached by the star in other.py and ``pad``'s
    # width by the ``**``; ``walk``'s depth and limit are passed only by
    # ``walk`` itself, and a private function is not looked at.
    assert unturned_knobs(tmp_path) == [
        "knobs.py: scale(round_to)",
        "knobs.py: walk(depth)",
        "knobs.py: walk(limit)",
        "other.py: use(more)",
    ]
