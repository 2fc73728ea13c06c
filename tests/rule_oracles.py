"""Rule-by-Rule reference implementations, used as test oracles.

These are the forms the fast paths in `kgreason.rules` and
`kgreason.mining` replaced: the rule encoding and the rules file written
atom by atom, with the variables numbered here rather than by
`kgreason.rules.chain_vars`, composition that tries every ordered pair
of rules with `compose_rules` and deduplicates by `rule_id`, and the
library order that compares `(-confidence, rule_id)` tuples.  They build
far more objects than they keep, but their behaviour is the definition the
fast paths must reproduce exactly.  `all_triples` lists a graph's facts
from its per-relation pairs, for tests that walk every fact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

from kgreason.kg import KnowledgeGraph, Triple
from kgreason.rules import DEFAULT_MAX_HOP, Rule, RuleStats


def all_triples(kg: KnowledgeGraph) -> list[Triple]:
    """Every fact in canonical (head, relation, tail) order."""
    return sorted(
        Triple(h, r, t)
        for r in range(kg.num_relations)
        for h, t in kg.relation_pairs(r)
    )


def body_atoms(rule: Rule) -> list[tuple[str, str, str]]:
    """(relation, subject, object) per body atom, chained X, Z1, ..., Y."""
    hop = len(rule.body_relations)
    names = ["X"] + [f"Z{i}" for i in range(1, hop)] + ["Y"]
    return [
        (rel, names[i], names[i + 1]) for i, rel in enumerate(rule.body_relations)
    ]


def atom_rule_id(rule: Rule) -> str:
    """The canonical encoding, one ``relation(subject,object)`` per atom."""
    body = "&".join(f"{rel}({s},{o})" for rel, s, o in body_atoms(rule))
    return f"{rule.head_relation}(X,Y)<-{body}"


def write_rules_by_atoms(path: str | Path, stats: Iterable[RuleStats]) -> int:
    """The rules file, its head and body variables read off the atoms."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for st in stats:
            conf = st.confidence
            record = {
                "rule": atom_rule_id(st.rule),
                "head": {"relation": st.rule.head_relation, "vars": ["X", "Y"]},
                "body": [
                    {"relation": rel, "vars": [s, o]}
                    for rel, s, o in body_atoms(st.rule)
                ],
                "hop": st.rule.hop,
                "support": st.support,
                "body_count": st.body_count,
                "confidence": float(conf) if conf is not None else None,
            }
            fh.write(json.dumps(record, separators=(",", ":"), ensure_ascii=False))
            fh.write("\n")
            count += 1
    return count


def compose_rules(
    outer: Rule, inner: Rule, max_hop: int = DEFAULT_MAX_HOP
) -> Optional[Rule]:
    """Splice ``inner``'s body into ``outer`` where inner's head relation
    occurs in outer's body.

    The leftmost matching body atom is replaced, and variables are renamed
    left to right back to the canonical X, Z1, ..., Y sequence.  Returns
    None when no body atom matches or the combined hop count would exceed
    ``max_hop``.
    """
    try:
        at = outer.body_relations.index(inner.head_relation)
    except ValueError:
        return None
    new_hop = outer.hop + inner.hop - 1
    if new_hop > max_hop:
        return None
    body = (
        outer.body_relations[:at]
        + inner.body_relations
        + outer.body_relations[at + 1 :]
    )
    return Rule(outer.head_relation, body)


def compose_library_pairwise(
    two_hop: Sequence[Rule], max_hop: int = DEFAULT_MAX_HOP
) -> list[Rule]:
    """Every ordered pair through `compose_rules`, first rule per id kept."""
    base = sorted(set(two_hop), key=atom_rule_id)
    seen: dict[str, Rule] = {}
    three: list[Rule] = []
    for outer in base:
        for inner in base:
            rule = compose_rules(outer, inner, max_hop)
            if rule is not None and atom_rule_id(rule) not in seen:
                seen[atom_rule_id(rule)] = rule
                three.append(rule)
    four: list[Rule] = []
    for outer in three:
        for inner in base:
            rule = compose_rules(outer, inner, max_hop)
            if rule is not None and atom_rule_id(rule) not in seen:
                seen[atom_rule_id(rule)] = rule
                four.append(rule)
    out = three + four
    out.sort(key=lambda r: (r.hop, atom_rule_id(r)))
    return out


def sort_stats_by_fraction(stats: Iterable[RuleStats]) -> list[RuleStats]:
    """Descending confidence, then rule id, unscorable rules last."""

    def key(st: RuleStats) -> tuple[Fraction, str]:
        conf = st.confidence
        if conf is None:
            conf = Fraction(-1)
        return (-conf, atom_rule_id(st.rule))

    return sorted(stats, key=key)
