"""Command line pipeline driver.

Each subcommand runs one pipeline stage over files in the current run
directory and records what it read and wrote in a shared manifest.  All
stages are deterministic given the same inputs, options, and --seed, so a
rerun in a fresh directory reproduces every artifact byte for byte.

Exit codes: 0 success, 1 usage error, 2 data error, 3 model client error.

A stage process imports only the modules its own command uses: the stage
modules and the model client are imported inside the commands.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import mining
from .errors import ClientError, DataError, UsageError
from .kg import KnowledgeGraph, Triple
from .manifest import RunManifest
from .rules import DEFAULT_MAX_HOP, RuleStats, read_rules, sort_stats, write_rules
from .seeding import derive_seed

if TYPE_CHECKING:
    from .client import ModelClient
    from .generation import ReasoningSample
    from .selection import AnonymizationMap, SelectionPool
    from .templates import TemplateLibrary

logger = logging.getLogger(__name__)

PROG = "kgreason"

# Copies of selection.SETTINGS and explore.ORACLE_KG / ORACLE_PROBE, so that
# building the parser imports neither module; a test pins them equal.
SETTING_ANONYMIZED = "anonymized"
SETTING_REGULAR = "regular"
SETTINGS = (SETTING_ANONYMIZED, SETTING_REGULAR)
ORACLE_KG = "kg"
ORACLE_PROBE = "probe"

# compose's --max-hop runs from 2, which composes nothing, to 4: two
# splices of two-hop base rules reach at most DEFAULT_MAX_HOP hops.
MIN_MAX_HOP = 2

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise UsageError(f"not a boolean: {text!r}")


def read_config(path: str | Path) -> dict[str, str]:
    """Flat ``key=value`` option file; blank lines and # comments allowed."""
    config: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}: line {line_no} is not key=value")
            key, _, value = line.partition("=")
            config[key.strip().replace("-", "_")] = value.strip()
    return config


class Options:
    """Option resolution: command line flag, then config file, then default.

    Every resolved value is remembered so the manifest records the effective
    configuration of the stage.
    """

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.config = read_config(ns.config) if getattr(ns, "config", None) else {}
        self.used: dict[str, str] = {}

    def get(self, dest: str, conv: Callable[[str], object], default):
        value = getattr(self.ns, dest, None)
        if value is None:
            raw = self.config.get(dest)
            value = conv(raw) if raw is not None else default
        if value is not None:
            self.used[dest] = str(value)
        return value


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _record(
    ns: argparse.Namespace,
    stage: str,
    seed: Optional[int],
    opts: Options,
    inputs: dict[str, str],
    outputs: dict[str, str],
    counts: dict[str, int],
) -> None:
    manifest = RunManifest(ns.manifest)
    manifest.record_stage(stage, seed, opts.used, inputs, outputs, counts)
    manifest.save()


def _load_templates(path: Optional[str]) -> TemplateLibrary:
    from .templates import TemplateLibrary

    library = TemplateLibrary.builtin()
    if path:
        library = TemplateLibrary.load(path)
    return library


def _build_client(opts: Options, kg: KnowledgeGraph) -> ModelClient:
    from .client import ClientConfig, ModelClient, mock_client

    mode = opts.get("client", str, "mock")
    if mode == "mock":
        table = {}
        facts_path = opts.get("probe_facts", str, None)
        if facts_path:
            table = _probe_table(opts, kg, facts_path)
        return mock_client(table)
    config = ClientConfig(
        mode="live",
        endpoint=opts.get("endpoint", str, ""),
        model=opts.get("model", str, ""),
        token_env=opts.get("token_env", str, "KGREASON_API_TOKEN"),
        timeout=opts.get("timeout", float, 30.0),
        max_retries=opts.get("max_retries", int, 2),
        parallelism=opts.get("parallelism", int, 4),
    )
    return ModelClient(config)


def _probe_table(
    opts: Options, kg: KnowledgeGraph, facts_path: str
) -> dict[str, str]:
    """Sentences the simulated model treats as known, from a triple file."""
    templates = _load_templates(opts.get("templates", str, None))
    table: dict[str, str] = {}
    with open(facts_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataError(f"{facts_path}: bad triple line {line_no}")
            head, relation, tail = fields
            fact = Triple(
                kg.entity_id(head), kg.relation_id(relation), kg.entity_id(tail)
            )
            sentence = templates.render_fact(kg, fact, kg.entity_name)
            table[sentence] = "known"
    return table


def _polisher(opts: Options, kg: KnowledgeGraph):
    mode = opts.get("polisher", str, "none")
    if mode == "none":
        return None
    if mode == "mock":
        from .client import mock_client

        return mock_client().polish
    return _build_client(opts, kg).polish


def _load_pool(
    opts: Options, kg: KnowledgeGraph, seed: int
) -> tuple[SelectionPool, Optional[AnonymizationMap], str, Optional[str]]:
    from . import selection

    pool_path = opts.get("pool", str, None)
    if not pool_path:
        raise UsageError("--pool is required")
    map_path = opts.get("map", str, None)
    mapping = selection.AnonymizationMap.load(map_path, kg) if map_path else None
    name_map = mapping.entries if mapping else None
    pool = selection.read_pool(pool_path, kg, seed=seed, name_map=name_map)
    if pool.setting == SETTING_ANONYMIZED and mapping is None:
        raise UsageError("anonymized pool requires --map")
    return pool, mapping, pool_path, map_path


# ----------------------------------------------------------------------
# subcommands

def cmd_synth(ns: argparse.Namespace) -> int:
    from . import synthetic

    opts = Options(ns)
    seed = opts.get("seed", int, 0)
    out = opts.get("out", str, None)
    kind = opts.get("kind", str, "planted")
    n_triples = opts.get("triples", int, 5000)
    if not out:
        raise UsageError("--out is required")
    stage_seed = derive_seed(seed, "synth")
    if kind == "planted":
        triples = synthetic.planted_triples(stage_seed, n_triples)
    elif kind == "random":
        triples = synthetic.random_triples(
            stage_seed,
            opts.get("entities", int, 200),
            opts.get("relations", int, 10),
            n_triples,
        )
    else:
        raise UsageError(f"unknown synthetic kind: {kind}")
    count = synthetic.write_triples(out, triples)
    _record(ns, "synth", stage_seed, opts, {}, {"triples": out}, {"triples": count})
    print(f"wrote {count} triples to {out}")
    return 0


def cmd_ingest(ns: argparse.Namespace) -> int:
    opts = Options(ns)
    triples = opts.get("triples", str, None)
    store = opts.get("store", str, None)
    if not triples or not store:
        raise UsageError("--triples and --store are required")
    kg = KnowledgeGraph.from_file(triples)
    kg.save(store)
    stats = kg.stats()
    _record(ns, "ingest", None, opts, {"triples": triples}, {"store": store}, stats)
    print(
        f"ingested {stats['triples']} facts over {stats['entities']} entities "
        f"and {stats['relations']} relations into {store}"
    )
    return 0


def cmd_stats(ns: argparse.Namespace) -> int:
    opts = Options(ns)
    store = opts.get("store", str, None)
    if not store:
        raise UsageError("--store is required")
    kg = KnowledgeGraph.load(store)
    print(json.dumps(kg.stats(), indent=2, sort_keys=True))
    return 0


def cmd_mine(ns: argparse.Namespace) -> int:
    opts = Options(ns)
    store = opts.get("store", str, None)
    out = opts.get("out", str, None)
    if not store or not out:
        raise UsageError("--store and --out are required")
    min_support = opts.get("min_support", int, mining.DEFAULT_MIN_SUPPORT)
    min_confidence = opts.get("min_confidence", str, mining.DEFAULT_MIN_CONFIDENCE)
    workers = opts.get("workers", int, 1)
    kg = KnowledgeGraph.load(store)
    stats = mining.mine_rule_stats(kg, workers=workers)
    kept = mining.filter_stats(stats, min_support, min_confidence)
    count = write_rules(out, kept)
    _record(
        ns,
        "mine",
        None,
        opts,
        {"store": store},
        {"rules": out},
        {"candidates": len(stats), "rules": count},
    )
    print(f"mined {len(stats)} candidate rules, kept {count}")
    return 0


def cmd_compose(ns: argparse.Namespace) -> int:
    opts = Options(ns)
    store = opts.get("store", str, None)
    rules_path = opts.get("rules", str, None)
    out = opts.get("out", str, None)
    if not store or not rules_path or not out:
        raise UsageError("--store, --rules and --out are required")
    max_hop = opts.get("max_hop", int, DEFAULT_MAX_HOP)
    if not MIN_MAX_HOP <= max_hop <= DEFAULT_MAX_HOP:
        raise UsageError(
            f"--max-hop must be between {MIN_MAX_HOP} and {DEFAULT_MAX_HOP}, "
            f"got {max_hop}"
        )
    min_confidence = opts.get("min_confidence", str, mining.DEFAULT_MIN_CONFIDENCE)
    kg = KnowledgeGraph.load(store)
    base = read_rules(rules_path)
    for st in base:
        if st.rule.hop != 2:
            raise DataError(
                f"{rules_path}: compose needs two-hop base rules, "
                f"got {st.rule.rule_id}"
            )
    composed = mining.compose_library([st.rule for st in base], max_hop=max_hop)
    threshold = mining.exact_fraction(min_confidence)
    kept: list[RuleStats] = []
    # Bodies in sorted order share the longest prefixes with their
    # predecessor; the library is sorted again below, so order is free.
    chains = mining.ChainCounts(kg)
    for rule in sorted(composed, key=lambda r: r.body_relations):
        scored = mining.score_rule(kg, rule, chains)
        if scored.confidence is not None and scored.confidence > threshold:
            kept.append(scored)
    library = sort_stats(list(base) + kept)
    count = write_rules(out, library)
    _record(
        ns,
        "compose",
        None,
        opts,
        {"store": store, "rules": rules_path},
        {"library": out},
        {
            "base": len(base),
            "composed_candidates": len(composed),
            "composed_kept": len(kept),
            "library": count,
        },
    )
    print(
        f"composed {len(composed)} candidates, kept {len(kept)}; "
        f"library holds {count} rules"
    )
    return 0


def cmd_select(ns: argparse.Namespace) -> int:
    from . import explore, selection

    opts = Options(ns)
    seed = opts.get("seed", int, 0)
    store = opts.get("store", str, None)
    library_path = opts.get("library", str, None)
    pool_path = opts.get("pool", str, None)
    if not store or not library_path or not pool_path:
        raise UsageError("--store, --library and --pool are required")
    setting = opts.get("setting", str, SETTING_ANONYMIZED)
    per_rule_n = opts.get("per_rule", int, 6)
    map_path = opts.get("map", str, None)
    if setting == SETTING_ANONYMIZED and not map_path:
        raise UsageError("anonymized setting requires --map")
    kg = KnowledgeGraph.load(store)
    stats = read_rules(library_path)
    per_rule = {
        st.rule.rule_id: list(mining.ground_rule(kg, st.rule)) for st in stats
    }
    oracle = None
    if setting == SETTING_REGULAR:
        templates = _load_templates(opts.get("templates", str, None))
        client = _build_client(opts, kg)
        oracle = explore.probe_from_client(kg, templates, client)
    stage_seed = derive_seed(seed, "select")
    pool, mapping = selection.select_pipeline(
        kg, per_rule, per_rule_n, stage_seed, setting, oracle
    )
    count = selection.write_pool(pool_path, pool, kg)
    outputs = {"pool": pool_path}
    map_entries = 0
    if mapping is not None:
        mapping.save(map_path, kg)
        outputs["map"] = map_path
        map_entries = len(mapping.entries)
    counts = {
        "instances": count,
        "rules": len(pool.per_rule),
        "map_entries": map_entries,
    }
    counts.update(pool.dropped)
    _record(
        ns,
        "select",
        stage_seed,
        opts,
        {"store": store, "library": library_path},
        outputs,
        counts,
    )
    print(
        f"selected {count} instances across {len(pool.per_rule)} rules "
        f"({setting} setting)"
    )
    return 0


def cmd_generate(ns: argparse.Namespace) -> int:
    from . import generation

    opts = Options(ns)
    seed = opts.get("seed", int, 0)
    store = opts.get("store", str, None)
    samples_path = opts.get("samples", str, None)
    corpus_path = opts.get("corpus", str, None)
    if not store or not samples_path:
        raise UsageError("--store and --samples are required")
    kg = KnowledgeGraph.load(store)
    stage_seed = derive_seed(seed, "generate")
    pool, _, pool_path, map_path = _load_pool(opts, kg, stage_seed)
    templates = _load_templates(opts.get("templates", str, None))
    polisher = _polisher(opts, kg)
    samples, info = generation.make_samples(kg, pool, templates, polisher)
    generation.write_samples(samples_path, samples)
    outputs = {"samples": samples_path}
    counts = dict(info)
    if corpus_path:
        docs = generation.corpus_from_pool(kg, pool, templates, stage_seed, polisher)
        counts["corpus_docs"] = generation.write_corpus(corpus_path, docs)
        outputs["corpus"] = corpus_path
    predictions_path = opts.get("predictions", str, None)
    if predictions_path:
        from . import evaluation

        outputs["predictions"] = predictions_path
        evaluation.write_predictions(
            predictions_path, {s.sample_id: s.answer for s in samples}
        )
    inputs = {"store": store, "pool": pool_path}
    if map_path:
        inputs["map"] = map_path
    _record(ns, "generate", stage_seed, opts, inputs, outputs, counts)
    print(f"generated {len(samples)} samples ({info['skipped_ambiguous']} skipped)")
    return 0


def cmd_explore(ns: argparse.Namespace) -> int:
    from . import explore, generation
    from .selection import AnonymizationMap

    opts = Options(ns)
    seed = opts.get("seed", int, 0)
    store = opts.get("store", str, None)
    library_path = opts.get("library", str, None)
    samples_path = opts.get("samples", str, None)
    if not store or not library_path or not samples_path:
        raise UsageError("--store, --library and --samples are required")
    kg = KnowledgeGraph.load(store)
    stage_seed = derive_seed(seed, "explore")
    pool, mapping, pool_path, map_path = _load_pool(opts, kg, stage_seed)
    templates = _load_templates(opts.get("templates", str, None))
    rule_library = read_rules(library_path)
    oracle_kind = opts.get("oracle", str, ORACLE_KG)
    if oracle_kind == ORACLE_KG:
        oracle = explore.KgFactOracle(kg)
    elif oracle_kind == ORACLE_PROBE:
        client = _build_client(opts, kg)
        probe = explore.probe_from_client(kg, templates, client)
        oracle = explore.ProbeFactOracle(kg, probe)
    else:
        raise UsageError(f"unknown oracle: {oracle_kind}")
    max_trials = opts.get("max_trials", int, None)
    ensure_error = opts.get("ensure_error", _parse_bool, True)
    polisher = _polisher(opts, kg)
    samples, info, minted = explore.explore_samples(
        kg,
        pool,
        templates,
        rule_library,
        oracle,
        max_trials=max_trials,
        ensure_error=ensure_error,
        polisher=polisher,
    )
    generation.write_samples(samples_path, samples)
    outputs = {"samples": samples_path}
    map_out = opts.get("map_out", str, None)
    if map_out and mapping is not None:
        AnonymizationMap({**mapping.entries, **minted}).save(map_out, kg)
        outputs["map"] = map_out
    elif minted:
        logger.warning(
            "minted %d synthetic names for trace narration; pass --map-out "
            "to persist them for evaluation",
            len(minted),
        )
    predictions_path = opts.get("predictions", str, None)
    if predictions_path:
        from . import evaluation

        outputs["predictions"] = predictions_path
        evaluation.write_predictions(
            predictions_path, {s.sample_id: s.answer for s in samples}
        )
    inputs = {"store": store, "pool": pool_path, "library": library_path}
    if map_path:
        inputs["map"] = map_path
    _record(ns, "explore", stage_seed, opts, inputs, outputs, dict(info))
    print(
        f"explored {len(samples)} samples "
        f"({info['error_traces']} with recovered missteps, "
        f"{info['skipped_exhausted']} exhausted)"
    )
    return 0


def cmd_split(ns: argparse.Namespace) -> int:
    from . import evaluation, generation

    opts = Options(ns)
    seed = opts.get("seed", int, 0)
    out = opts.get("out", str, None)
    training_path = opts.get("training_rules", str, None)
    if not out or not training_path or not ns.samples:
        raise UsageError("--samples, --training-rules and --out are required")
    samples: list[ReasoningSample] = []
    for path in ns.samples:
        samples.extend(generation.read_samples(path))
    training_ids = [st.rule.rule_id for st in read_rules(training_path)]
    per_bucket = opts.get("per_bucket", int, None)
    splits = evaluation.build_splits(
        samples, training_ids, per_bucket=per_bucket, seed=seed
    )
    payload = {
        "splits": [
            {
                "name": split.name,
                "hop": split.hop,
                "samples": [s.sample_id for s in split.samples],
            }
            for split in splits
        ]
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    inputs = {f"samples_{i}": path for i, path in enumerate(ns.samples)}
    inputs["training_rules"] = training_path
    _record(
        ns,
        "split",
        seed,
        opts,
        inputs,
        {"splits": out},
        {split.key: len(split.samples) for split in splits},
    )
    for split in splits:
        print(f"{split.key}: {len(split.samples)} samples")
    return 0


def cmd_evaluate(ns: argparse.Namespace) -> int:
    from . import evaluation, generation
    from .selection import AnonymizationMap

    opts = Options(ns)
    store = opts.get("store", str, None)
    library_path = opts.get("library", str, None)
    splits_path = opts.get("splits", str, None)
    report_path = opts.get("report", str, None)
    if not store or not library_path or not splits_path or not report_path:
        raise UsageError("--store, --library, --splits and --report are required")
    if not ns.samples or not ns.predictions:
        raise UsageError("--samples and --predictions are required")
    kg = KnowledgeGraph.load(store)
    stats = read_rules(library_path)
    templates = _load_templates(opts.get("templates", str, None))
    map_path = opts.get("map", str, None)
    extra_names = None
    if map_path:
        mapping = AnonymizationMap.load(map_path, kg)
        extra_names = {name: eid for eid, name in mapping.entries.items()}
    by_id: dict[str, ReasoningSample] = {}
    for path in ns.samples:
        for sample in generation.read_samples(path):
            by_id[sample.sample_id] = sample
    splits = evaluation.read_splits(splits_path, by_id)
    outputs: dict[str, str] = {}
    for path in ns.predictions:
        outputs.update(evaluation.read_predictions(path))
    evaluator = evaluation.Evaluator(kg, stats, templates, extra_names)
    report = evaluator.evaluate(splits, outputs)
    report.save(report_path)
    print(report.render_table())
    inputs = {
        "store": store,
        "library": library_path,
        "splits": splits_path,
    }
    inputs.update({f"samples_{i}": p for i, p in enumerate(ns.samples)})
    inputs.update({f"predictions_{i}": p for i, p in enumerate(ns.predictions)})
    if map_path:
        inputs["map"] = map_path
    _record(
        ns,
        "evaluate",
        None,
        opts,
        inputs,
        {"report": report_path},
        {"splits": len(splits), "predictions": len(outputs)},
    )
    return 0


# ----------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value option file")
    parser.add_argument("--manifest", default="manifest.json")
    parser.add_argument("--seed", type=int)


def _add_client_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--client", choices=["mock", "live"])
    parser.add_argument("--probe-facts", dest="probe_facts")
    parser.add_argument("--endpoint")
    parser.add_argument("--model")
    parser.add_argument("--token-env", dest="token_env")
    parser.add_argument("--timeout", type=float)
    parser.add_argument("--max-retries", dest="max_retries", type=int)
    parser.add_argument("--parallelism", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic triple file")
    _add_common(p)
    p.add_argument("--out")
    p.add_argument("--kind", choices=["planted", "random"])
    p.add_argument("--triples", type=int)
    p.add_argument("--entities", type=int)
    p.add_argument("--relations", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="load a triple file into a graph store")
    _add_common(p)
    p.add_argument("--triples")
    p.add_argument("--store")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="print graph store statistics")
    _add_common(p)
    p.add_argument("--store")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("mine", help="mine and filter two-hop rules")
    _add_common(p)
    p.add_argument("--store")
    p.add_argument("--out")
    p.add_argument("--min-support", dest="min_support", type=int)
    p.add_argument("--min-confidence", dest="min_confidence")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("compose", help="extend mined rules to longer chains")
    _add_common(p)
    p.add_argument("--store")
    p.add_argument("--rules")
    p.add_argument("--out")
    p.add_argument("--max-hop", dest="max_hop", type=int)
    p.add_argument("--min-confidence", dest="min_confidence")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("select", help="build a balanced instance pool")
    _add_common(p)
    _add_client_options(p)
    p.add_argument("--store")
    p.add_argument("--library")
    p.add_argument("--pool")
    p.add_argument("--map")
    p.add_argument("--setting", choices=list(SETTINGS))
    p.add_argument("--per-rule", dest="per_rule", type=int)
    p.add_argument("--templates")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("generate", help="render question/answer samples")
    _add_common(p)
    _add_client_options(p)
    p.add_argument("--store")
    p.add_argument("--pool")
    p.add_argument("--map")
    p.add_argument("--templates")
    p.add_argument("--samples")
    p.add_argument("--corpus")
    p.add_argument("--predictions")
    p.add_argument("--polisher", choices=["none", "mock", "live"])
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("explore", help="trial-and-error reasoning traces")
    _add_common(p)
    _add_client_options(p)
    p.add_argument("--store")
    p.add_argument("--pool")
    p.add_argument("--map")
    p.add_argument("--map-out", dest="map_out")
    p.add_argument("--library")
    p.add_argument("--templates")
    p.add_argument("--samples")
    p.add_argument("--oracle", choices=[ORACLE_KG, ORACLE_PROBE])
    p.add_argument("--max-trials", dest="max_trials", type=int)
    p.add_argument(
        "--ensure-error",
        dest="ensure_error",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p.add_argument("--predictions")
    p.add_argument("--polisher", choices=["none", "mock", "live"])
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("split", help="partition samples into evaluation splits")
    _add_common(p)
    p.add_argument("--samples", nargs="+")
    p.add_argument("--training-rules", dest="training_rules")
    p.add_argument("--out")
    p.add_argument("--per-bucket", dest="per_bucket", type=int)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("evaluate", help="score predictions against splits")
    _add_common(p)
    p.add_argument("--store")
    p.add_argument("--library")
    p.add_argument("--splits")
    p.add_argument("--samples", nargs="+")
    p.add_argument("--predictions", nargs="+")
    p.add_argument("--map")
    p.add_argument("--templates")
    p.add_argument("--report")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except UsageError as exc:
        print(f"{PROG}: usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"{PROG}: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{PROG}: data error: {exc}", file=sys.stderr)
        return 2
    except ClientError as exc:
        print(f"{PROG}: client error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
