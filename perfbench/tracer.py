"""Run one kgreason stage in this process with spans around its layers.

Usage: python3 tracer.py TRACE_OUT.json STAGE [STAGE OPTIONS...]

The stage runs through ``kgreason.cli.main`` exactly as ``python -m
kgreason`` would run it, but first the public functions each stage calls
are replaced by wrappers that record a span (name, start, end, parent) and
a few counters.  The program itself is not changed: the wrappers live here
and are installed on the imported modules.  Spans stay in memory and are
written to TRACE_OUT.json when the stage ends, together with the counters,
the time the ``kgreason.cli`` import took, the stage's exit code and the
counts the stage recorded in its manifest.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Recorder:
    """Spans as ``[name, start, end, parent index]`` plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if index in self._stack:
            self._stack.remove(index)

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def count_distinct(self, key: str, value) -> None:
        self.distinct.setdefault(key, set()).add(value)

    def totals(self) -> dict[str, float]:
        out = dict(self.counters)
        out.update({key: len(values) for key, values in self.distinct.items()})
        return out


def _wrap_call(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _wrap_generator(rec: Recorder, name: str, fn, per_item: str):
    """The span runs from the first item requested until the last is taken."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def consume():
            index = rec.open(name)
            try:
                for item in inner:
                    rec.count(per_item)
                    yield item
            finally:
                rec.close(index)

        return consume()

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the public functions of every layer a stage calls."""
    from kgreason import (
        cli,
        client,
        evaluation,
        explore,
        generation,
        kg,
        manifest,
        mining,
        rules,
        selection,
        templates,
    )

    def method(owner, attr, name, after=None):
        setattr(owner, attr, _wrap_call(rec, name, getattr(owner, attr), after))

    def classmethod_(owner, attr, name):
        fn = owner.__dict__[attr].__func__
        setattr(owner, attr, classmethod(_wrap_call(rec, name, fn)))

    def counted(key):
        return lambda result, args: rec.count(key)

    def probe_after(result, args):
        rec.count("client.probe_fact_calls")
        rec.count_distinct("client.probe_distinct", args[1])

    Graph = kg.KnowledgeGraph
    classmethod_(Graph, "load", "kg.load")
    classmethod_(Graph, "from_file", "kg.from_file")
    method(Graph, "save", "kg.save")

    method(mining, "mine_rule_stats", "mining.mine_rule_stats")
    method(mining, "compose_library", "mining.compose_library")
    method(mining, "score_rule", "mining.score_rule", counted("mining.score_rule_calls"))
    mining.ground_rule = _wrap_generator(
        rec, "mining.ground_rule", mining.ground_rule, "mining.groundings"
    )

    method(
        selection,
        "select_pipeline",
        "selection.select_pipeline",
        lambda result, args: rec.count("selection.pool_instances", result[0].size()),
    )
    method(selection, "read_pool", "selection.read_pool")
    method(selection, "write_pool", "selection.write_pool")

    method(client.ModelClient, "probe_fact", "client.probe_fact", probe_after)
    method(
        templates.TemplateLibrary,
        "render_fact",
        "templates.render_fact",
        counted("templates.render_fact_calls"),
    )
    method(templates.RelationTemplate, "to_regex", "templates.to_regex")

    method(
        generation,
        "make_samples",
        "generation.make_samples",
        lambda result, args: rec.count("generation.samples", len(result[0])),
    )
    method(generation, "corpus_from_pool", "generation.corpus_from_pool")
    method(
        explore,
        "explore_samples",
        "explore.explore_samples",
        lambda result, args: rec.count("explore.error_traces", result[1]["error_traces"]),
    )
    method(
        explore,
        "explore",
        "explore.explore",
        lambda result, args: rec.count("explore.trials", result.trials),
    )

    method(evaluation.Evaluator, "__init__", "evaluation.parser_build")
    method(
        evaluation.Evaluator,
        "parse",
        "evaluation.parse",
        counted("evaluation.predictions"),
    )
    method(evaluation.Evaluator, "evaluate", "evaluation.evaluate")

    # cli imported these two by name, so its own references are wrapped too.
    for attr in ("read_rules", "write_rules"):
        wrapped = _wrap_call(rec, f"rules.{attr}", getattr(rules, attr))
        setattr(rules, attr, wrapped)
        setattr(cli, attr, wrapped)

    for attr in ("__init__", "record_stage", "save"):
        method(manifest.RunManifest, attr, "manifest.record")


def _manifest_counts(argv: list[str], stage: str) -> dict:
    path = "manifest.json"
    if "--manifest" in argv:
        path = argv[argv.index("--manifest") + 1]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)["stages"][stage]["counts"]
    except (OSError, KeyError, ValueError):
        return {}


def main(argv: list[str]) -> int:
    out, stage_argv = Path(argv[0]), argv[1:]
    start = time.perf_counter()
    from kgreason import cli

    import_s = time.perf_counter() - start
    rec = Recorder()
    install(rec)
    index = rec.open(f"stage.{stage_argv[0]}")
    try:
        code = cli.main(stage_argv)
    finally:
        rec.close(index)
    payload = {
        "stage": stage_argv[0],
        "exit": code,
        "import_s": import_s,
        "spans": rec.spans,
        "counters": rec.totals(),
        "stage_counts": _manifest_counts(stage_argv, stage_argv[0]) if code == 0 else {},
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
