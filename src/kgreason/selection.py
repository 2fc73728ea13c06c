"""Selection of rule instances for dataset construction.

The selection pipeline balances instances per rule, removes instances whose
head fact leaks into the pooled body facts, and prepares one of two
settings: ``anonymized`` (entities renamed to synthetic strings so the
final questions cannot be answered from memorized surface forms) or
``regular`` (instances filtered by probing an oracle so that bodies are
known and the head is not).

Pool files keep original entity names as stable join keys against the
graph.  Synthetic names live in one place, the pool's ``name_map`` (entity
id -> synthetic name), which ``write_name_map`` and ``read_name_map`` keep
in the map file; they are applied at render time.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from pathlib import Path
from string import ascii_lowercase, ascii_uppercase
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .artifacts import open_text, read_fields, read_records, write_lines, write_records
from .errors import DataError, UsageError
from .kg import KnowledgeGraph, Triple
from .rules import Rule, RuleInstance
from .seeding import derive_seed
from .templates import TemplateLibrary

SETTING_ANONYMIZED = "anonymized"
SETTING_REGULAR = "regular"
SETTINGS = (SETTING_ANONYMIZED, SETTING_REGULAR)

SYNTHETIC_NAME_MIN_LEN = 3
SYNTHETIC_NAME_MAX_LEN = 8
_NAME_ATTEMPTS = 100_000


class SelectionPool(NamedTuple):
    """Balanced per-rule instance sets plus selection provenance."""

    setting: str
    per_rule: dict[str, list[RuleInstance]]
    seed: int
    name_map: Mapping[int, str] = MappingProxyType({})
    dropped: Mapping[str, int] = MappingProxyType({})

    def instances(self) -> Iterator[RuleInstance]:
        for rid in sorted(self.per_rule):
            yield from self.per_rule[rid]

    def size(self) -> int:
        return sum(len(v) for v in self.per_rule.values())

    def entity_ids(self) -> list[int]:
        ids = {e for inst in self.instances() for e in inst.entities}
        return sorted(ids)

    def display_name(self, kg: KnowledgeGraph, eid: int) -> str:
        return self.name_map.get(eid) or kg.entity_name(eid)

    def body_fact_union(self) -> set[Triple]:
        return {fact for inst in self.instances() for fact in inst.body_facts}


def rule_instance(
    kg: KnowledgeGraph, rule: Rule, entities: tuple[int, ...]
) -> RuleInstance:
    """The instance of ``rule`` that binds ``entities`` on ``kg``: the body
    facts along the chain and the head fact from its first entity to its
    last."""
    rel_ids = map(kg.relation_id, rule.body_relations)
    return RuleInstance(
        rule=rule,
        entities=entities,
        body_facts=tuple(map(Triple, entities, rel_ids, entities[1:])),
        head_fact=Triple(entities[0], kg.relation_id(rule.head_relation), entities[-1]),
    )


class Groundings(Sequence):
    """A rule's groundings on ``kg`` as the sequence of its instances.

    The entity id tuples are kept and an instance is built only when it is
    read, so balancing a rule builds only the instances it keeps.
    """

    def __init__(
        self, kg: KnowledgeGraph, rule: Rule, groundings: Iterable[tuple[int, ...]]
    ):
        self._kg = kg
        self._rule = rule
        self._entities = list(groundings)

    def __len__(self) -> int:
        return len(self._entities)

    def __getitem__(self, index: int) -> RuleInstance:
        return rule_instance(self._kg, self._rule, self._entities[index])


def _sample_sorted(
    instances: Sequence[RuleInstance], n: int, seed: int
) -> list[RuleInstance]:
    """Uniform sample without replacement, returned in canonical order.

    ``sample`` picks by index and draws the same indices from ``range(N)``
    as from any sequence of length N, so only the picks are read.
    """
    if len(instances) == n:
        picked = list(instances)
    else:
        indices = random.Random(seed).sample(range(len(instances)), n)
        picked = [instances[i] for i in indices]
    picked.sort(key=lambda inst: inst.entities)
    return picked


def balance_instances(
    per_rule: Mapping[str, Sequence[RuleInstance]],
    n: int,
    seed: int,
    setting: str = SETTING_ANONYMIZED,
) -> SelectionPool:
    """Keep exactly ``n`` instances per rule, sampled uniformly under seed.

    Rules with fewer than ``n`` instances are dropped entirely (and logged),
    so the result always has equal per-rule counts.
    """
    if n < 1:
        raise UsageError(f"per-rule instance count must be >= 1, got {n}")
    if setting not in SETTINGS:
        raise UsageError(f"unknown setting: {setting!r}")
    kept: dict[str, list[RuleInstance]] = {}
    rules_dropped = 0
    for rule_id in sorted(per_rule):
        instances = per_rule[rule_id]
        if len(instances) < n:
            rules_dropped += 1
            # Imported here, so that a stage that never logs does not load it.
            import logging

            logging.getLogger(__name__).info(
                "dropping rule %s: %d instances < %d", rule_id, len(instances), n
            )
            continue
        kept[rule_id] = _sample_sorted(
            instances, n, derive_seed(seed, "balance", rule_id)
        )
    return SelectionPool(
        setting=setting,
        per_rule=kept,
        seed=seed,
        dropped={"balance_rules_dropped": rules_dropped},
    )


def rebalance_min(pool: SelectionPool, stage: str = "rebalance") -> SelectionPool:
    """Equalize per-rule counts downward to the current minimum.

    Rules left with no instances are removed first; the minimum is taken
    over the remaining rules and larger sets are downsampled under the
    pool seed.  ``stage`` names one rebalance and its drop counts.
    """
    nonempty = {rid: insts for rid, insts in pool.per_rule.items() if insts}
    rules_dropped = len(pool.per_rule) - len(nonempty)
    dropped = {**pool.dropped, f"{stage}_rules_dropped": rules_dropped}
    if not nonempty:
        return pool._replace(per_rule={}, dropped=dropped)
    target = min(len(v) for v in nonempty.values())
    removed = 0
    out: dict[str, list[RuleInstance]] = {}
    for rule_id in sorted(nonempty):
        instances = nonempty[rule_id]
        if len(instances) > target:
            removed += len(instances) - target
            instances = _sample_sorted(
                instances, target, derive_seed(pool.seed, stage, rule_id)
            )
        out[rule_id] = list(instances)
    dropped[f"{stage}_instances_dropped"] = removed
    return pool._replace(per_rule=out, dropped=dropped)


def leakage_filter(pool: SelectionPool) -> SelectionPool:
    """Drop instances whose head fact occurs among pooled body facts.

    The body fact set is global across every instance of every rule, which
    is the strictest reading: after filtering, no retained head fact can be
    reconstructed from any retained body fact.  Counts are then re-balanced
    downward to the new per-rule minimum.
    """
    body_union = pool.body_fact_union()
    removed = 0
    out: dict[str, list[RuleInstance]] = {}
    for rule_id in sorted(pool.per_rule):
        kept = []
        for inst in pool.per_rule[rule_id]:
            if inst.head_fact in body_union:
                removed += 1
            else:
                kept.append(inst)
        out[rule_id] = kept
    dropped = dict(pool.dropped)
    dropped["leakage_instances_dropped"] = removed
    return rebalance_min(pool._replace(per_rule=out, dropped=dropped))


def probe_filter(
    pool: SelectionPool, oracle: Callable[[Triple], str]
) -> SelectionPool:
    """Keep instances whose body facts all probe as known and whose head
    probes as unknown.

    Only meaningful in the regular setting.  An undecided verdict anywhere
    excludes the instance and is counted separately.  The caller is expected
    to rebalance afterwards.
    """
    # Imported here, so that evaluate, which imports this module for the
    # name map, does not load the model client.
    from .client import VERDICT_KNOWN, VERDICT_UNDECIDED, VERDICT_UNKNOWN

    if pool.setting != SETTING_REGULAR:
        raise UsageError("probe filter applies to the regular setting only")
    removed = 0
    undecided = 0
    out: dict[str, list[RuleInstance]] = {}
    for rule_id in sorted(pool.per_rule):
        kept = []
        for inst in pool.per_rule[rule_id]:
            verdicts = [oracle(fact) for fact in inst.body_facts]
            head_verdict = oracle(inst.head_fact)
            if VERDICT_UNDECIDED in verdicts or head_verdict == VERDICT_UNDECIDED:
                undecided += 1
                continue
            if all(v == VERDICT_KNOWN for v in verdicts) and (
                head_verdict == VERDICT_UNKNOWN
            ):
                kept.append(inst)
            else:
                removed += 1
        out[rule_id] = kept
    dropped = dict(pool.dropped)
    dropped["probe_instances_dropped"] = removed
    dropped["probe_undecided"] = undecided
    return pool._replace(per_rule=out, dropped=dropped)


def probe_from_client(kg: KnowledgeGraph, library: TemplateLibrary, client):
    """The client's verdict on a fact, asked with the fact's sentence under
    the store's own entity names."""
    return lambda fact: client.probe_fact(library.render_fact(kg, fact, kg.entity_name))


def anonymize(pool: SelectionPool, kg: KnowledgeGraph) -> SelectionPool:
    """The pool with one global injective synthetic name per pooled entity.

    Synthetic names are a capital letter followed by lowercase letters,
    3 to 8 letters in total, rejection-sampled so they collide neither with
    any original entity name nor with each other.  Relations keep their
    names, so graph structure is untouched.
    """
    return _mint_names(pool, kg, pool.entity_ids(), derive_seed(pool.seed, "anonymize"))


def extend_name_map(
    pool: SelectionPool, kg: KnowledgeGraph, entity_ids: Iterable[int]
) -> SelectionPool:
    """The pool with synthetic names for the entities its map does not cover.

    Trace rendering can pass through entities outside the selected
    instances; in the anonymized setting those must not surface their
    original names.  New names are drawn from a seed derived from the
    pool's, ordered by original entity name, and avoid both real names
    and every name already in the map, so extension keeps the map
    injective and deterministic.
    """
    missing = sorted(set(entity_ids) - pool.name_map.keys(), key=kg.entity_name)
    return _mint_names(pool, kg, missing, derive_seed(pool.seed, "anonymize", "extend"))


def _mint_names(
    pool: SelectionPool, kg: KnowledgeGraph, entity_ids: Iterable[int], seed: int
) -> SelectionPool:
    """The pool with a fresh name for each of ``entity_ids``, in that order."""
    rng = random.Random(seed)
    taken = set(kg.entity_names()) | set(pool.name_map.values())
    name_map = dict(pool.name_map)
    for eid in entity_ids:
        for _ in range(_NAME_ATTEMPTS):
            length = rng.randint(SYNTHETIC_NAME_MIN_LEN, SYNTHETIC_NAME_MAX_LEN)
            name = rng.choice(ascii_uppercase) + "".join(
                rng.choice(ascii_lowercase) for _ in range(length - 1)
            )
            if name not in taken:
                break
        else:
            # The name space has billions of candidates, so exhausting the
            # attempt budget means the graph itself is pathological.
            raise DataError("could not draw a fresh synthetic name")
        taken.add(name)
        name_map[eid] = name
    return pool._replace(name_map=name_map)


def select_pipeline(
    kg: KnowledgeGraph,
    per_rule: Mapping[str, Sequence[RuleInstance]],
    n: int,
    seed: int,
    setting: str = SETTING_ANONYMIZED,
    oracle: Optional[Callable[[Triple], str]] = None,
) -> tuple[SelectionPool, Optional[dict[int, str]]]:
    """Full selection pass: balance, leakage filter, then the per-setting
    step (probe filter for regular, name map for anonymized).  The returned
    pool always has equal per-rule counts; its name map comes second, or
    None in the regular setting."""
    pool = balance_instances(per_rule, n, seed, setting)
    pool = leakage_filter(pool)
    if setting == SETTING_REGULAR:
        if oracle is None:
            raise UsageError("regular setting requires a probe oracle")
        return rebalance_min(probe_filter(pool, oracle), stage="probe_rebalance"), None
    pool = anonymize(pool, kg)
    return pool, pool.name_map


# ----------------------------------------------------------------------
# name map and pool files

def write_name_map(
    path: str | Path, kg: KnowledgeGraph, name_map: Mapping[int, str]
) -> int:
    """One ``original<TAB>synthetic`` line per entity, sorted by original name."""
    rows = sorted((kg.entity_name(eid), name) for eid, name in name_map.items())
    return write_lines(path, map("\t".join, rows))


def read_name_map(path: str | Path, kg: KnowledgeGraph) -> dict[int, str]:
    """The entity id -> synthetic name map a map file holds.  It must be
    injective and keep every store name hidden: each entity once, each
    synthetic name once, and no synthetic name that is a store name."""
    name_map: dict[int, str] = {}
    given: set[str] = set()

    def entry(original: str, synthetic: str) -> tuple[int, str]:
        eid = kg.entity_id(original)
        if eid in name_map:
            raise DataError(f"entity {original!r} is mapped twice")
        if synthetic in given:
            raise DataError(f"synthetic name {synthetic!r} is given twice")
        if kg.has_entity(synthetic):
            raise DataError(f"synthetic name {synthetic!r} is a store name")
        given.add(synthetic)
        return eid, synthetic

    with open_text(path) as fh:
        for eid, synthetic in read_fields(fh, 2, "map entry", entry):
            name_map[eid] = synthetic
    return name_map


def write_pool(path: str | Path, pool: SelectionPool, kg: KnowledgeGraph) -> int:
    """One instance per line with original entity names as join keys."""

    def fact(triple: Triple) -> list[str]:
        h, r, t = triple
        return [kg.entity_name(h), kg.relation_name(r), kg.entity_name(t)]

    return write_records(
        path,
        (
            {
                "rule": inst.rule.rule_id,
                "setting": pool.setting,
                "entities": [kg.entity_name(e) for e in inst.entities],
                "body": [fact(t) for t in inst.body_facts],
                "head": fact(inst.head_fact),
            }
            for inst in pool.instances()
        ),
    )


def read_pool(
    path: str | Path,
    kg: KnowledgeGraph,
    seed: int = 0,
    name_map: Optional[Mapping[int, str]] = None,
) -> SelectionPool:
    setting: Optional[str] = None

    def parse(record) -> RuleInstance:
        nonlocal setting
        rule = Rule.decode(record["rule"])
        names = record["entities"]
        if len(names) != rule.hop + 1:
            raise ValueError("entity count does not fit the rule")
        body = [list(f) for f in zip(names, rule.body_relations, names[1:])]
        if record["body"] != body or record["head"] != [
            names[0], rule.head_relation, names[-1]
        ]:
            raise ValueError("body or head does not follow from rule and entities")
        inst = rule_instance(kg, rule, tuple(kg.entity_id(e) for e in names))
        line_setting = record["setting"]
        if setting is None:
            setting = line_setting
        elif setting != line_setting:
            raise DataError("mixed settings in one pool file")
        return inst

    per_rule: dict[str, list[RuleInstance]] = {}
    for inst in read_records(path, "pool record", parse):
        per_rule.setdefault(inst.rule.rule_id, []).append(inst)
    return SelectionPool(
        setting=setting or SETTING_ANONYMIZED,
        per_rule=per_rule,
        seed=seed,
        name_map=dict(name_map or {}),
    )
