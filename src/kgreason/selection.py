"""Selection of rule instances for dataset construction.

The selection pipeline balances instances per rule, removes instances whose
head fact leaks into the pooled body facts, and prepares one of two
settings: ``anonymized`` (entities renamed to synthetic strings so the
final questions cannot be answered from memorized surface forms) or
``regular`` (instances filtered by probing an oracle so that bodies are
known and the head is not).

Pool files keep original entity names as stable join keys against the
graph; synthetic names live in the anonymization map artifact and are
applied at render time.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from string import ascii_lowercase, ascii_uppercase
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .artifacts import open_text, read_fields, read_records, write_lines, write_records
from .client import VERDICT_KNOWN, VERDICT_UNDECIDED, VERDICT_UNKNOWN
from .errors import DataError, UsageError
from .kg import KnowledgeGraph, Triple
from .rules import Rule, RuleInstance
from .seeding import derive_seed

logger = logging.getLogger(__name__)

SETTING_ANONYMIZED = "anonymized"
SETTING_REGULAR = "regular"
SETTINGS = (SETTING_ANONYMIZED, SETTING_REGULAR)

SYNTHETIC_NAME_MIN_LEN = 3
SYNTHETIC_NAME_MAX_LEN = 8
_NAME_ATTEMPTS = 100_000


@dataclass
class SelectionPool:
    """Balanced per-rule instance sets plus selection provenance."""

    setting: str
    per_rule: dict[str, list[RuleInstance]]
    seed: int
    name_map: dict[int, str] = field(default_factory=dict)
    dropped: dict[str, int] = field(default_factory=dict)

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


@dataclass(frozen=True)
class AnonymizationMap:
    """Injective entity id -> synthetic name mapping."""

    entries: dict[int, str]

    def save(self, path: str | Path, kg: KnowledgeGraph) -> None:
        rows = sorted(
            (kg.entity_name(eid), name) for eid, name in self.entries.items()
        )
        write_lines(path, (f"{original}\t{synthetic}" for original, synthetic in rows))

    @classmethod
    def load(cls, path: str | Path, kg: KnowledgeGraph) -> "AnonymizationMap":
        with open_text(path) as fh:
            return cls({
                kg.entity_id(original): synthetic
                for original, synthetic in read_fields(fh, 2, "map entry")
            })


def _sample_sorted(
    instances: Sequence[RuleInstance], n: int, seed: int
) -> list[RuleInstance]:
    """Uniform sample without replacement, returned in canonical order."""
    if len(instances) == n:
        picked = list(instances)
    else:
        picked = random.Random(seed).sample(list(instances), n)
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
            logger.info(
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
    pool seed.
    """
    nonempty = {rid: insts for rid, insts in pool.per_rule.items() if insts}
    rules_dropped = len(pool.per_rule) - len(nonempty)
    dropped = dict(pool.dropped)
    dropped[f"{stage}_rules_dropped"] = (
        dropped.get(f"{stage}_rules_dropped", 0) + rules_dropped
    )
    if not nonempty:
        return replace(pool, per_rule={}, dropped=dropped)
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
    dropped[f"{stage}_instances_dropped"] = (
        dropped.get(f"{stage}_instances_dropped", 0) + removed
    )
    return replace(pool, per_rule=out, dropped=dropped)


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
    return rebalance_min(replace(pool, per_rule=out, dropped=dropped))


def probe_filter(
    pool: SelectionPool, oracle: Callable[[Triple], str]
) -> SelectionPool:
    """Keep instances whose body facts all probe as known and whose head
    probes as unknown.

    Only meaningful in the regular setting.  An undecided verdict anywhere
    excludes the instance and is counted separately.  The caller is expected
    to rebalance afterwards.
    """
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
    return replace(pool, per_rule=out, dropped=dropped)


def anonymize(
    pool: SelectionPool, kg: KnowledgeGraph, seed: Optional[int] = None
) -> tuple[SelectionPool, AnonymizationMap]:
    """Attach one global injective synthetic-name map for pooled entities.

    Synthetic names are a capital letter followed by lowercase letters,
    3 to 8 letters in total, rejection-sampled so they collide neither with
    any original entity name nor with each other.  Relations keep their
    names, so graph structure is untouched.
    """
    if pool.setting != SETTING_ANONYMIZED:
        raise UsageError("anonymize applies to the anonymized setting only")
    rng = random.Random(derive_seed(pool.seed if seed is None else seed, "anonymize"))
    taken = set(kg.entity_names())
    entries: dict[int, str] = {}
    for eid in pool.entity_ids():
        name = _mint_name(rng, taken)
        taken.add(name)
        entries[eid] = name
    mapping = AnonymizationMap(entries)
    return replace(pool, name_map=dict(entries)), mapping


def _mint_name(rng: random.Random, taken: set[str]) -> str:
    for _ in range(_NAME_ATTEMPTS):
        length = rng.randint(SYNTHETIC_NAME_MIN_LEN, SYNTHETIC_NAME_MAX_LEN)
        name = rng.choice(ascii_uppercase) + "".join(
            rng.choice(ascii_lowercase) for _ in range(length - 1)
        )
        if name not in taken:
            return name
    # The name space has billions of candidates, so exhausting the attempt
    # budget means the graph itself is pathological.
    raise DataError("could not draw a fresh synthetic name")


def extend_name_map(
    pool: SelectionPool, kg: KnowledgeGraph, entity_ids: Sequence[int]
) -> tuple[SelectionPool, dict[int, str]]:
    """Mint synthetic names for entities the pool's map does not cover.

    Trace rendering can pass through entities outside the selected
    instances; in the anonymized setting those must not surface their
    original names.  New names are drawn from a seed derived from the
    pool's, ordered by original entity name, and avoid both real names
    and every name already in the map, so extension keeps the map
    injective and deterministic.
    """
    missing = sorted(
        {eid for eid in entity_ids if eid not in pool.name_map},
        key=kg.entity_name,
    )
    if not missing:
        return pool, {}
    rng = random.Random(derive_seed(pool.seed, "anonymize", "extend"))
    taken = set(kg.entity_names()) | set(pool.name_map.values())
    added: dict[int, str] = {}
    for eid in missing:
        name = _mint_name(rng, taken)
        taken.add(name)
        added[eid] = name
    return replace(pool, name_map={**pool.name_map, **added}), added


def select_pipeline(
    kg: KnowledgeGraph,
    per_rule: Mapping[str, Sequence[RuleInstance]],
    n: int,
    seed: int,
    setting: str = SETTING_ANONYMIZED,
    oracle: Optional[Callable[[Triple], str]] = None,
) -> tuple[SelectionPool, Optional[AnonymizationMap]]:
    """Full selection pass: balance, leakage filter, then the per-setting
    step (probe filter for regular, name map for anonymized).  The returned
    pool always has equal per-rule counts."""
    pool = balance_instances(per_rule, n, seed, setting)
    pool = leakage_filter(pool)
    if setting == SETTING_REGULAR:
        if oracle is None:
            raise UsageError("regular setting requires a probe oracle")
        pool = rebalance_min(probe_filter(pool, oracle), stage="probe_rebalance")
        return pool, None
    pool, mapping = anonymize(pool, kg)
    return pool, mapping


# ----------------------------------------------------------------------
# pool file

def write_pool(path: str | Path, pool: SelectionPool, kg: KnowledgeGraph) -> int:
    """One instance per line with original entity names as join keys."""

    def fact(t: Triple) -> list[str]:
        return [
            kg.entity_name(t.head),
            kg.relation_name(t.relation),
            kg.entity_name(t.tail),
        ]

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
        entities = tuple(kg.entity_id(e) for e in names)
        rel_ids = [kg.relation_id(r) for r in rule.body_relations]
        line_setting = record["setting"]
        if setting is None:
            setting = line_setting
        elif setting != line_setting:
            raise DataError(f"{path}: mixed settings in one pool file")
        return RuleInstance(
            rule=rule,
            entities=entities,
            body_facts=tuple(map(Triple, entities, rel_ids, entities[1:])),
            head_fact=Triple(
                entities[0], kg.relation_id(rule.head_relation), entities[-1]
            ),
        )

    per_rule: dict[str, list[RuleInstance]] = {}
    for inst in read_records(path, "pool record", parse):
        per_rule.setdefault(inst.rule.rule_id, []).append(inst)
    return SelectionPool(
        setting=setting or SETTING_ANONYMIZED,
        per_rule=per_rule,
        seed=seed,
        name_map=dict(name_map or {}),
    )
