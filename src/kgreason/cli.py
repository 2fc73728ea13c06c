"""Command line pipeline driver.

Each subcommand runs one pipeline stage over files in the current run
directory and records what it read and wrote in a shared manifest.  All
stages are deterministic given the same inputs, options, and --seed, so a
rerun in a fresh directory reproduces every artifact byte for byte.

Each stage is declared once, in the ``STAGES`` table: name, help text and
options (type, default, choices, required), with its body in ``cmd_<stage>``.
One driver builds the parser from the table, rejects a missing required
option, opens the manifest and runs the body.  The body reads each option
from its flag, then the --config file (held to the flag's type and choices),
then the default, and returns its seed and counts.  The driver records them
with every option the body read and the files it read and wrote.  A config
key that names no option of any stage is a usage error.

Exit codes: 0 success, 1 usage error, 2 data error, 3 model client error.

A stage process imports only the modules its own command uses: the stage
modules and the model client are imported inside the bodies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

from . import mining
from .artifacts import open_text, parse_lines, read_fields, write_lines
from .errors import ClientError, DataError, IngestError, UsageError
from .kg import KnowledgeGraph, Triple
from .manifest import RunManifest
from .rules import DEFAULT_MAX_HOP, RuleStats, read_rules, sort_stats, write_rules
from .seeding import derive_seed

if TYPE_CHECKING:
    from .client import ModelClient
    from .generation import ReasoningSample
    from .selection import SelectionPool
    from .templates import TemplateLibrary

PROG = "kgreason"

# A copy of selection.SETTINGS, so that building the parser does not import
# selection; a test pins them equal.  The oracle names live only here.
SETTING_ANONYMIZED = "anonymized"
SETTING_REGULAR = "regular"
SETTINGS = (SETTING_ANONYMIZED, SETTING_REGULAR)
ORACLE_KG = "kg"
ORACLE_PROBE = "probe"

# compose's --max-hop runs from 2, which composes nothing, to 4: two
# splices of two-hop base rules reach at most DEFAULT_MAX_HOP hops.
MIN_MAX_HOP = 2

# Config file spellings of a bool option's value.
_BOOLS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def read_config(path: str | Path) -> dict[str, str]:
    """Flat ``key=value`` option file; blank lines and # comments allowed."""

    def entry(line: str) -> Optional[tuple[str, str]]:
        key, eq, value = line.strip().partition("=")
        if key.startswith("#"):
            return None
        if not eq:
            raise ValueError(line)
        return key.strip().replace("-", "_"), value.strip()

    with open_text(path) as fh:
        try:
            return dict(filter(None, parse_lines(fh, "key=value option", entry)))
        except IngestError as exc:
            raise UsageError(f"{path}: {exc}") from None


class Opt(NamedTuple):
    """``--some-name`` on the command line, ``some_name=`` in a config file.

    A ``bool`` option is ``--name`` / ``--no-name``.  A ``many`` option takes
    one or more values on the command line only and is not recorded.
    """

    dest: str
    type: Callable[[str], Any] = str
    default: Any = None
    choices: Optional[Sequence] = None
    required: bool = False
    many: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")

    def from_config(self, raw: str):
        """A config file value, held to the same type and choices as the flag."""
        try:
            value = _BOOLS[raw.lower()] if self.type is bool else self.type(raw)
        except (KeyError, ValueError):
            raise UsageError(
                f"config value {self.dest}={raw!r} is not a valid {self.type.__name__}"
            ) from None
        if self.choices is not None and value not in self.choices:
            allowed = ", ".join(map(str, self.choices))
            raise UsageError(f"config value {self.dest}={raw!r}: choose from {allowed}")
        return value


class Stage(NamedTuple):
    name: str
    help: str
    options: tuple[Opt, ...]
    # Whether the stage adds an entry to the manifest.
    records: bool = True


class Options:
    """A stage's options, each resolved when the body first reads it:
    command line flag, then config file, then default.

    The options the body reads, and the files it names as its inputs and
    outputs, are remembered for the manifest entry of the stage.
    """

    def __init__(self, ns: argparse.Namespace, options: Sequence[Opt]):
        self.ns = ns
        self.specs = {opt.dest: opt for opt in options}
        raw = read_config(ns.config) if ns.config else {}
        # One file may serve several stages, so a key of another stage is
        # skipped; a key of no stage at all is a typo.
        known = {opt.dest for stage in STAGES for opt in stage.options}
        unknown = sorted(key for key in raw if key not in known)
        if unknown:
            raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
        self.config = {
            key: self.specs[key].from_config(value)
            for key, value in raw.items()
            if key in self.specs and not self.specs[key].many
        }
        self.used: dict[str, str] = {}
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}

    def get(self, dest: str):
        value = getattr(self.ns, dest)
        if self.specs[dest].many:
            return value
        if value is None:
            value = self.config.get(dest, self.specs[dest].default)
        if value is not None:
            self.used[dest] = str(value)
        return value

    def given(self, dest: str) -> bool:
        """Whether the command line or the config file sets an option."""
        return getattr(self.ns, dest) is not None or dest in self.config

    def input(self, dest: str):
        """The file(s) an option names, read by the stage; none if unset."""
        paths = self.get(dest)
        if paths and self.specs[dest].many:
            self.inputs.update({f"{dest}_{i}": p for i, p in enumerate(paths)})
        elif paths:
            self.inputs[dest] = paths
        return paths

    def output(self, dest: str, label: Optional[str] = None):
        """The file an option names, written by the stage under ``label``."""
        path = self.get(dest)
        if path:
            self.outputs[label or dest] = path
        return path


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _load_templates(path: Optional[str]) -> TemplateLibrary:
    from .templates import TemplateLibrary

    return TemplateLibrary.load(path) if path else TemplateLibrary.builtin()


def _build_client(opts: Options, known: frozenset[str] = frozenset()) -> ModelClient:
    """The stage's model client; a mock client knows the sentences ``known``."""
    from .client import ClientConfig, ModelClient, mock_client

    if opts.get("client") == "mock":
        return mock_client(known)
    live = ("endpoint", "model", "token_env", "timeout", "max_retries")
    return ModelClient(ClientConfig(mode="live", **{k: opts.get(k) for k in live}))


def _probe(
    opts: Options, kg: KnowledgeGraph, templates: TemplateLibrary
) -> tuple[ModelClient, Callable[[Triple], str]]:
    """The stage's model client and its verdict on a fact of ``kg``.  A mock
    client knows the facts of --probe-facts, which only a probing stage
    reads."""
    from .selection import probe_from_client

    facts_path = opts.get("client") == "mock" and opts.get("probe_facts")
    known = _probe_table(kg, templates, facts_path) if facts_path else frozenset()
    client = _build_client(opts, known)
    return client, probe_from_client(kg, templates, client)


def _probe_table(
    kg: KnowledgeGraph, templates: TemplateLibrary, facts_path: str
) -> frozenset[str]:
    """Sentences the simulated model knows, from a triple file."""

    def sentence(h: str, r: str, t: str) -> str:
        fact = Triple(kg.entity_id(h), kg.relation_id(r), kg.entity_id(t))
        return templates.render_fact(kg, fact, kg.entity_name)

    with open_text(facts_path) as fh:
        return frozenset(read_fields(fh, 3, "triple", sentence))


def _emptied_by(pool: SelectionPool, rules: int, n: int) -> str:
    """Which filter of the selection left ``pool`` with no instance."""
    balanced = rules - pool.dropped["balance_rules_dropped"]
    if not balanced:
        return f"balance: none of the library's {rules} rules has {n} instances"
    if pool.dropped["rebalance_rules_dropped"] == balanced:
        return "leakage: every instance's head fact is a pooled body fact"
    return "probe: no instance has known body facts and an unknown head"


def _polisher(opts: Options, client: Optional[ModelClient] = None):
    """The --polisher rewrite, through ``client`` when the stage has one."""
    if opts.get("polisher") == "none":
        return None
    return (client or _build_client(opts)).polish


def _load_pool(opts: Options, kg: KnowledgeGraph, seed: int) -> SelectionPool:
    """The --pool file, with the synthetic names of --map when it is given."""
    from . import selection

    pool_path, map_path = opts.input("pool"), opts.input("map")
    name_map = selection.read_name_map(map_path, kg) if map_path else None
    pool = selection.read_pool(pool_path, kg, seed=seed, name_map=name_map)
    if pool.setting == SETTING_ANONYMIZED and name_map is None:
        raise UsageError("anonymized pool requires --map")
    return pool


def _write_predictions(opts: Options, samples: Sequence[ReasoningSample]) -> None:
    """With --predictions, write each sample's own answer as its prediction."""
    path = opts.output("predictions")
    if path:
        from . import evaluation

        evaluation.write_predictions(path, {s.sample_id: s.answer for s in samples})


# ----------------------------------------------------------------------
# stage bodies: each does its stage's work and returns the seed and the
# counts for its manifest entry

Counts = dict[str, int]


def cmd_synth(opts: Options) -> tuple[int, Counts]:
    from . import synthetic

    out = opts.output("out", "triples")
    planted = opts.get("kind") == "planted"
    # Only the random kind reads the entity and relation counts.
    for dest in ("entities", "relations"):
        if planted and opts.given(dest):
            raise UsageError(f"--{dest} applies only to --kind random")
    for dest in ("triples", "entities", "relations")[: 1 if planted else 3]:
        if opts.get(dest) < 1:
            raise UsageError(f"--{dest} must be >= 1, got {opts.get(dest)}")
    n_triples = opts.get("triples")
    stage_seed = derive_seed(opts.get("seed"), "synth")
    if planted:
        triples = synthetic.planted_triples(stage_seed, n_triples)
    else:
        triples = synthetic.random_triples(
            stage_seed, opts.get("entities"), opts.get("relations"), n_triples
        )
    count = synthetic.write_triples(out, triples)
    print(f"wrote {count} triples to {out}")
    return stage_seed, {"triples": count}


def cmd_ingest(opts: Options) -> tuple[None, Counts]:
    store = opts.output("store")
    kg = KnowledgeGraph.from_file(opts.input("triples"))
    kg.save(store)
    stats = kg.stats()
    print(
        f"ingested {stats['triples']} facts over {stats['entities']} entities "
        f"and {stats['relations']} relations into {store}"
    )
    return None, stats


def cmd_stats(opts: Options) -> None:
    kg = KnowledgeGraph.load(opts.get("store"))
    print(json.dumps(kg.stats(), indent=2, sort_keys=True))


def cmd_mine(opts: Options) -> tuple[None, Counts]:
    kg = KnowledgeGraph.load(opts.input("store"))
    stats = mining.mine_rule_stats(kg)
    kept = mining.filter_stats(
        stats, opts.get("min_support"), opts.get("min_confidence")
    )
    count = write_rules(opts.output("out", "rules"), kept)
    print(f"mined {len(stats)} candidate rules, kept {count}")
    return None, {"candidates": len(stats), "rules": count}


def cmd_compose(opts: Options) -> tuple[None, Counts]:
    rules_path = opts.input("rules")
    max_hop = opts.get("max_hop")
    threshold = mining.exact_fraction(opts.get("min_confidence"))
    kg = KnowledgeGraph.load(opts.input("store"))
    base = read_rules(rules_path)
    for st in base:
        if st.rule.hop != 2:
            raise DataError(
                f"{rules_path}: compose needs two-hop base rules, "
                f"got {st.rule.rule_id}"
            )
    composed = mining.compose_library([st.rule for st in base], max_hop=max_hop)
    kept: list[RuleStats] = []
    # Bodies in sorted order share the longest prefixes with their
    # predecessor, and the heads of one body its counts; the library is
    # sorted again below, so order is free.  support/body_count > num/den
    # is compared in integers, as den > 0.
    num, den = threshold.numerator, threshold.denominator
    chains = mining.ChainCounts(kg)
    for rule in sorted(composed, key=lambda r: r.body_relations):
        scored = mining.score_rule(kg, rule, chains)
        if scored.body_count > 0 and scored.support * den > num * scored.body_count:
            kept.append(scored)
    count = write_rules(opts.output("out", "library"), sort_stats(list(base) + kept))
    print(
        f"composed {len(composed)} candidates, kept {len(kept)}; "
        f"library holds {count} rules"
    )
    return None, {
        "base": len(base),
        "composed_candidates": len(composed),
        "composed_kept": len(kept),
        "library": count,
    }


def cmd_select(opts: Options) -> tuple[int, Counts]:
    from . import selection

    setting = opts.get("setting")
    if setting == SETTING_ANONYMIZED and not opts.get("map"):
        raise UsageError("anonymized setting requires --map")
    kg = KnowledgeGraph.load(opts.input("store"))
    stats = read_rules(opts.input("library"))
    per_rule = {
        st.rule.rule_id: list(mining.ground_rule(kg, st.rule)) for st in stats
    }
    oracle = None
    if setting == SETTING_REGULAR:
        _, oracle = _probe(opts, kg, _load_templates(opts.get("templates")))
    seed, n = derive_seed(opts.get("seed"), "select"), opts.get("per_rule")
    pool, name_map = selection.select_pipeline(kg, per_rule, n, seed, setting, oracle)
    if not pool.size():
        raise DataError(f"empty pool: {_emptied_by(pool, len(per_rule), n)}")
    count = selection.write_pool(opts.output("pool"), pool, kg)
    if name_map is not None:
        selection.write_name_map(opts.output("map"), kg, name_map)
    counts = {"instances": count, "rules": len(pool.per_rule)}
    counts.update(map_entries=len(name_map or {}), **pool.dropped)
    print(
        f"selected {count} instances across {len(pool.per_rule)} rules "
        f"({setting} setting)"
    )
    return seed, counts


def cmd_generate(opts: Options) -> tuple[int, Counts]:
    from . import generation

    kg = KnowledgeGraph.load(opts.input("store"))
    stage_seed = derive_seed(opts.get("seed"), "generate")
    pool = _load_pool(opts, kg, stage_seed)
    templates = _load_templates(opts.get("templates"))
    polisher = _polisher(opts)
    samples, info = generation.make_samples(kg, pool, templates, polisher)
    generation.write_samples(opts.output("samples"), samples)
    counts = dict(info)
    corpus_path = opts.output("corpus")
    if corpus_path:
        docs = generation.corpus_from_pool(kg, pool, templates, stage_seed, polisher)
        counts["corpus_docs"] = generation.write_corpus(corpus_path, docs)
    _write_predictions(opts, samples)
    print(f"generated {len(samples)} samples ({info['skipped_ambiguous']} skipped)")
    return stage_seed, counts


def cmd_explore(opts: Options) -> tuple[int, Counts]:
    from . import explore, generation, selection

    kg = KnowledgeGraph.load(opts.input("store"))
    stage_seed = derive_seed(opts.get("seed"), "explore")
    pool = _load_pool(opts, kg, stage_seed)
    templates = _load_templates(opts.get("templates"))
    rule_library = read_rules(opts.input("library"))
    client = probe = None
    if opts.get("oracle") == ORACLE_PROBE:
        client, probe = _probe(opts, kg, templates)
    oracle = explore.KgFactOracle(kg, probe)
    polisher = _polisher(opts, client)
    max_trials, ensure_error = opts.get("max_trials"), opts.get("ensure_error")
    samples, info, name_map = explore.explore_samples(
        kg, pool, templates, rule_library, oracle, max_trials, ensure_error, polisher
    )
    generation.write_samples(opts.output("samples"), samples)
    if opts.get("map_out"):
        selection.write_name_map(opts.output("map_out", "map"), kg, name_map)
    elif info["minted_names"]:
        # Imported where it logs, like the stage modules, so that a stage
        # that never logs does not load it.
        import logging

        logging.getLogger(__name__).warning(
            "minted %d synthetic names for trace narration; pass --map-out "
            "to persist them for evaluation",
            info["minted_names"],
        )
    _write_predictions(opts, samples)
    print(
        f"explored {len(samples)} samples "
        f"({info['error_traces']} with recovered missteps, "
        f"{info['skipped_exhausted']} exhausted)"
    )
    return stage_seed, dict(info)


def cmd_split(opts: Options) -> tuple[int, Counts]:
    from . import evaluation, generation

    seed = opts.get("seed")
    samples: list[ReasoningSample] = []
    for path in opts.input("samples"):
        samples.extend(generation.read_samples(path))
    training_ids = [st.rule.rule_id for st in read_rules(opts.input("training_rules"))]
    splits = evaluation.build_splits(
        samples, training_ids, per_bucket=opts.get("per_bucket"), seed=seed
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
    text = json.dumps(payload, indent=2, sort_keys=True)
    write_lines(opts.output("out", "splits"), [text])
    for split in splits:
        print(f"{split.key}: {len(split.samples)} samples")
    return seed, {split.key: len(split.samples) for split in splits}


def cmd_evaluate(opts: Options) -> tuple[None, Counts]:
    from . import evaluation, generation, selection

    kg = KnowledgeGraph.load(opts.input("store"))
    stats = read_rules(opts.input("library"))
    templates = _load_templates(opts.get("templates"))
    map_path = opts.input("map")
    name_map = selection.read_name_map(map_path, kg) if map_path else {}
    by_id: dict[str, ReasoningSample] = {}
    for path in opts.input("samples"):
        for sample in generation.read_samples(path):
            by_id[sample.sample_id] = sample
    splits = evaluation.read_splits(opts.input("splits"), by_id)
    outputs: dict[str, str] = {}
    for path in opts.input("predictions"):
        outputs.update(evaluation.read_predictions(path))
    extra_names = {name: eid for eid, name in name_map.items()}
    evaluator = evaluation.Evaluator(kg, stats, templates, extra_names)
    report = evaluator.evaluate(splits, outputs)
    report.save(opts.output("report"))
    print(report.render_table())
    return None, {"splits": len(splits), "predictions": len(outputs)}


# ----------------------------------------------------------------------
# the stage table

# Taken only by the stages that draw random numbers.  Every stage also takes
# --config and --manifest.
SEED = Opt("seed", int, 0)
STORE = Opt("store", required=True)
OUT = Opt("out", required=True)
LIBRARY = Opt("library", required=True)
POOL = Opt("pool", required=True)
SAMPLE_FILES = Opt("samples", required=True, many=True)
MAP = Opt("map")
TEMPLATES = Opt("templates")
MIN_CONFIDENCE = Opt("min_confidence", default=mining.DEFAULT_MIN_CONFIDENCE)
PROBE_FACTS = Opt("probe_facts")
# A probing stage's client options; the mock client reads --probe-facts.
CLIENT = (
    Opt("client", default="mock", choices=("mock", "live")),
    PROBE_FACTS,
    Opt("endpoint", default=""),
    Opt("model", default=""),
    Opt("token_env", default="KGREASON_API_TOKEN"),
    Opt("timeout", float, 30.0),
    Opt("max_retries", int, 2),
)
# generate and explore both turn a pool into samples.
FROM_POOL = (
    STORE,
    POOL,
    MAP,
    TEMPLATES,
    Opt("samples", required=True),
    Opt("predictions"),
    Opt("polisher", default="none", choices=("none", "live")),
    *CLIENT,
    SEED,
)

STAGES = (
    Stage("synth", "generate a synthetic triple file", (
        OUT,
        Opt("kind", default="planted", choices=("planted", "random")),
        Opt("triples", int, 5000),
        Opt("entities", int, 200),
        Opt("relations", int, 10),
        SEED,
    )),
    Stage("ingest", "load a triple file into a graph store", (
        Opt("triples", required=True),
        STORE,
    )),
    Stage("stats", "print graph store statistics", (STORE,), records=False),
    Stage("mine", "mine and filter two-hop rules", (
        STORE,
        OUT,
        Opt("min_support", int, mining.DEFAULT_MIN_SUPPORT),
        MIN_CONFIDENCE,
    )),
    Stage("compose", "extend mined rules to longer chains", (
        STORE,
        Opt("rules", required=True),
        OUT,
        Opt("max_hop", int, DEFAULT_MAX_HOP, range(MIN_MAX_HOP, DEFAULT_MAX_HOP + 1)),
        MIN_CONFIDENCE,
    )),
    Stage("select", "build a balanced instance pool", (
        STORE,
        LIBRARY,
        POOL,
        MAP,
        Opt("setting", default=SETTING_ANONYMIZED, choices=SETTINGS),
        Opt("per_rule", int, 6),
        TEMPLATES,
        *CLIENT,
        SEED,
    )),
    # generate never probes, so its client only polishes.
    Stage("generate", "render question/answer samples", (
        *(opt for opt in FROM_POOL if opt is not PROBE_FACTS),
        Opt("corpus"),
    )),
    Stage("explore", "trial-and-error reasoning traces", (
        *FROM_POOL,
        Opt("map_out"),
        LIBRARY,
        Opt("oracle", default=ORACLE_KG, choices=(ORACLE_KG, ORACLE_PROBE)),
        Opt("max_trials", int),
        Opt("ensure_error", bool, True),
    )),
    Stage("split", "partition samples into evaluation splits", (
        SAMPLE_FILES,
        Opt("training_rules", required=True),
        OUT,
        Opt("per_bucket", int),
        SEED,
    )),
    Stage("evaluate", "score predictions against splits", (
        STORE,
        LIBRARY,
        Opt("splits", required=True),
        SAMPLE_FILES,
        Opt("predictions", required=True, many=True),
        MAP,
        TEMPLATES,
        Opt("report", required=True),
    )),
)


# ----------------------------------------------------------------------
# the driver

def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The parser for ``argv``: with only the stage that ``argv[0]`` names,
    else with all of them, so that the help and the error texts that list
    the stages are the same either way."""
    parser = _Parser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    named = [stage for stage in STAGES if argv and stage.name == argv[0]]
    for stage in named or STAGES:
        p = sub.add_parser(stage.name, help=stage.help)
        p.add_argument("--config", help="key=value option file")
        p.add_argument("--manifest", default="manifest.json")
        for opt in stage.options:
            if opt.type is bool:
                kwargs = {"action": argparse.BooleanOptionalAction}
            else:
                kwargs = {"type": opt.type, "choices": opt.choices}
                kwargs["nargs"] = "+" if opt.many else None
            p.add_argument(opt.flag, dest=opt.dest, **kwargs)
    return parser


def run_stage(stage: Stage, ns: argparse.Namespace) -> None:
    """Check the options, run the stage's body and record what it did."""
    opts = Options(ns, stage.options)
    missing = [o.flag for o in stage.options if o.required and not opts.get(o.dest)]
    if missing:
        raise UsageError(f"missing required options: {', '.join(missing)}")
    # Opened first, so that a corrupt manifest fails before any output.
    manifest = RunManifest(ns.manifest) if stage.records else None
    # Looked up by name here, so that the body can be replaced at run time.
    result = globals()[f"cmd_{stage.name}"](opts)
    if manifest is not None:
        seed, counts = result
        manifest.record_stage(
            stage.name, seed, opts.used, opts.inputs, opts.outputs, counts
        )
        manifest.save()


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = build_parser(argv).parse_args(argv)
        run_stage(next(s for s in STAGES if s.name == ns.command), ns)
        return 0
    except UsageError as exc:
        print(f"{PROG}: usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"{PROG}: data error: {exc}", file=sys.stderr)
        return 2
    except ClientError as exc:
        print(f"{PROG}: client error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
