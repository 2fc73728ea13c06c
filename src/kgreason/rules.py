"""Horn chain rules and their serialized form.

A rule has one head atom ``head(X, Y)`` and a body that is a single relation
chain ``r1(X, Z1), r2(Z1, Z2), ..., rn(Z_{n-1}, Y)``.  Because the chain
shape is fixed, a rule is fully determined by its head relation plus the
ordered tuple of body relations; variable names are derived from position
and always form the canonical sequence X, Z1, Z2, ..., Y.

The canonical textual encoding doubles as the rule id and as the sort tie
breaker everywhere ordered rule lists are produced.  It is built once per
rule, straight from the relation names and ``chain_vars``, and cached in the
rule's instance dict, not in the two fields that a ``Rule`` hashes and
compares by; the rules file and ``formula`` write their atoms the same
way.  Relation names may not contain ``(``, ``)``, ``,`` or ``&``, the
encoding's delimiters, so the encoding is injective: two rules share an id
exactly when they share their head relation and body relation sequence.
"""

from __future__ import annotations

import re
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .artifacts import read_records, write_records
from .errors import DataError, UsageError
from .kg import Triple, check_relation_name

VAR_X = "X"
VAR_Y = "Y"

MIN_HOP = 1
DEFAULT_MAX_HOP = 4


def chain_vars(hop: int) -> tuple[str, ...]:
    """Canonical variable sequence for a chain of ``hop`` body atoms."""
    if hop < MIN_HOP:
        raise UsageError(f"hop must be >= {MIN_HOP}, got {hop}")
    return (VAR_X, *[f"Z{i}" for i in range(1, hop)], VAR_Y)


class Rule(
    NamedTuple("Rule", [("head_relation", str), ("body_relations", tuple[str, ...])])
):
    """A chain rule, identified by head relation and body relation sequence."""

    def __new__(cls, head_relation: str, body_relations: Iterable[str]):
        body_relations = tuple(body_relations)
        if not body_relations:
            raise UsageError("rule body must contain at least one atom")
        for name in (head_relation, *body_relations):
            check_relation_name(name)
        return super().__new__(cls, head_relation, body_relations)

    @property
    def hop(self) -> int:
        return len(self.body_relations)

    @cached_property
    def rule_id(self) -> str:
        """Compact canonical encoding, stable across runs on the same data."""
        names = chain_vars(len(self.body_relations))
        body = "&".join(
            f"{rel}({a},{b})"
            for rel, a, b in zip(self.body_relations, names, names[1:])
        )
        return f"{self.head_relation}({VAR_X},{VAR_Y})<-{body}"

    def formula(self) -> str:
        """Readable rendering used inside generated reasoning text."""
        names = chain_vars(len(self.body_relations))
        body = " & ".join(
            f"{rel}({a}, {b})"
            for rel, a, b in zip(self.body_relations, names, names[1:])
        )
        return f"{self.head_relation}({VAR_X}, {VAR_Y}) <- {body}"

    @classmethod
    def decode(cls, rule_id: str) -> "Rule":
        match = re.fullmatch(r"(.+)\(X,Y\)<-(.+)", rule_id, re.DOTALL)
        if not match:
            raise DataError(f"not a canonical rule encoding: {rule_id!r}")
        head_relation = match.group(1)
        body_relations = []
        for idx, atom_text in enumerate(match.group(2).split("&")):
            m = re.fullmatch(
                r"(.+)\(([A-Za-z0-9]+),([A-Za-z0-9]+)\)", atom_text, re.DOTALL
            )
            if not m:
                raise DataError(f"bad body atom in rule encoding: {atom_text!r}")
            body_relations.append(m.group(1))
        rule = cls(head_relation, tuple(body_relations))
        if rule.rule_id != rule_id:
            raise DataError(f"non-canonical rule encoding: {rule_id!r}")
        return rule


class RuleStats(
    NamedTuple("RuleStats", [("rule", Rule), ("support", int), ("body_count", int)])
):
    """A rule together with its grounding counts on one graph.

    ``body_count`` is the number of distinct full variable bindings that
    satisfy the body chain.  ``support`` is the part of those whose head
    fact also holds, so it is also the number of the rule's instances.
    ``confidence`` is cached in the instance dict, so the class has no
    ``__slots__``, like ``Rule``.
    """

    @cached_property
    def confidence(self) -> Optional[Fraction]:
        """Exact confidence, or None when the rule is unscorable (no bodies)."""
        if self.body_count == 0:
            return None
        return Fraction(self.support, self.body_count)


class RuleInstance(NamedTuple):
    """One grounding of a rule's body on a concrete graph.

    ``entities`` lists the bound entity ids in chain position order, so
    ``entities[0]`` is X and ``entities[-1]`` is Y.  ``head_fact`` is the
    grounded head triple (X, head relation, Y), which holds in the graph.
    """

    rule: Rule
    entities: tuple[int, ...]
    body_facts: tuple[Triple, ...]
    head_fact: Triple

    @property
    def subject(self) -> int:
        return self.entities[0]

    @property
    def object(self) -> int:
        return self.entities[-1]


# ----------------------------------------------------------------------
# rules file

def sort_stats(stats: Iterable[RuleStats]) -> list[RuleStats]:
    """Descending confidence, ties broken by ascending rule encoding.

    Unscorable rules come last.  Each distinct confidence is ranked once, so
    the sort itself compares ints and strings.  A confidence is keyed by its
    lowest-terms (numerator, denominator), which ``Fraction`` always holds,
    and ranked by the floor of 2**64 times its value, then exactly only
    between confidences that share that floor.
    """
    stats = list(stats)
    values: dict[tuple[int, int], Fraction] = {}
    for st in stats:
        conf = st.confidence
        if conf is not None:
            values[conf.numerator, conf.denominator] = conf
    distinct = sorted(
        values,
        key=lambda nd: ((nd[0] << 64) // nd[1], values[nd]),
        reverse=True,
    )
    rank = {nd: i for i, nd in enumerate(distinct)}
    last = len(distinct)

    def key(st: RuleStats) -> tuple[int, str]:
        conf = st.confidence
        if conf is None:
            return last, st.rule.rule_id
        return rank[conf.numerator, conf.denominator], st.rule.rule_id

    return sorted(stats, key=key)


def write_rules(path: str | Path, stats: Iterable[RuleStats]) -> int:
    """Write one rule per line in the order given.  Returns the line count."""

    def record(st: RuleStats) -> dict:
        rule = st.rule
        names = chain_vars(rule.hop)
        conf = st.confidence
        return {
            "rule": rule.rule_id,
            "head": {"relation": rule.head_relation, "vars": [VAR_X, VAR_Y]},
            "body": [
                {"relation": rel, "vars": [a, b]}
                for rel, a, b in zip(rule.body_relations, names, names[1:])
            ],
            "hop": rule.hop,
            "support": st.support,
            "body_count": st.body_count,
            "confidence": float(conf) if conf is not None else None,
        }

    return write_records(path, map(record, stats))


def read_rules(path: str | Path) -> list[RuleStats]:
    """Load a rules file.  Confidence is recomputed exactly from the counts."""

    def parse(record) -> RuleStats:
        rule = Rule(
            record["head"]["relation"],
            tuple(a["relation"] for a in record["body"]),
        )
        stats = RuleStats(
            rule=rule,
            support=int(record["support"]),
            body_count=int(record["body_count"]),
        )
        if record.get("rule") not in (None, rule.rule_id):
            raise DataError(
                f"{path}: rule id {record['rule']!r} does not match its atoms"
            )
        return stats

    return read_records(path, "rule record", parse)
