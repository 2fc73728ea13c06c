"""Horn chain rules and their serialized form.

A rule has one head atom ``head(X, Y)`` and a body that is a single relation
chain ``r1(X, Z1), r2(Z1, Z2), ..., rn(Z_{n-1}, Y)``.  Because the chain
shape is fixed, a rule is fully determined by its head relation plus the
ordered tuple of body relations; variable names are derived from position
and always form the canonical sequence X, Z1, Z2, ..., Y.

The canonical textual encoding doubles as the rule id and as the sort tie
breaker everywhere ordered rule lists are produced.  It is built once per
rule, by filling the relation names into a per-hop format made from
``chain_vars``, and cached in the rule's instance dict, not in the two
fields that a ``Rule`` hashes and compares by; the rules file and
``formula`` write their atoms the same way.  Relation names may not contain ``(``, ``)``, ``,`` or ``&``, the
encoding's delimiters, so the encoding is injective: two rules share an id
exactly when they share their head relation and body relation sequence.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from fractions import Fraction
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .artifacts import read_records, write_lines
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


@lru_cache(maxsize=None)
def _id_format(hop: int) -> str:
    """The encoding of a ``hop``-atom rule, with a ``%s`` for each relation."""
    names = chain_vars(hop)
    body = "&".join("%%s(%s,%s)" % pair for pair in zip(names, names[1:]))
    return f"%s({VAR_X},{VAR_Y})<-{body}"


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
        return _id_format(len(self.body_relations)) % (
            self.head_relation, *self.body_relations
        )

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

    Unscorable rules come last.  Each distinct (support, body_count) pair
    gets its exact confidence once, and each distinct confidence is ranked
    once, by the floor of 2**64 times its value, then exactly only between
    confidences that share that floor.  So the sort itself compares ints
    and strings.
    """
    stats = list(stats)
    confs: dict[tuple[int, int], Fraction] = {}
    for st in stats:
        counts = (st.support, st.body_count)
        if st.body_count and counts not in confs:
            confs[counts] = Fraction(*counts)
    distinct = sorted(
        set(confs.values()),
        key=lambda c: ((c.numerator << 64) // c.denominator, c),
        reverse=True,
    )
    rank = {c: i for i, c in enumerate(distinct)}
    by_counts = {counts: rank[c] for counts, c in confs.items()}
    last = len(distinct)
    return sorted(
        stats,
        key=lambda st: (by_counts.get((st.support, st.body_count), last), st.rule.rule_id),
    )


@lru_cache(maxsize=None)
def _record_format(hop: int) -> str:
    """The rules-file line of a ``hop``-atom rule, with a ``%s`` for the rule
    id, each relation name and each count."""
    names = chain_vars(hop)
    atoms = ",".join(
        '{"relation":%%s,"vars":["%s","%s"]}' % pair for pair in zip(names, names[1:])
    )
    return (
        '{"rule":%s,"head":{"relation":%s,"vars":["' + VAR_X + '","' + VAR_Y
        + '"]},"body":[' + atoms + '],"hop":' + str(hop)
        + ',"support":%s,"body_count":%s,"confidence":%s}'
    )


def write_rules(path: str | Path, stats: Iterable[RuleStats]) -> int:
    """Write one rule per line in the order given.  Returns the line count.

    Each line is the compact JSON record ``{"rule", "head", "body", "hop",
    "support", "body_count", "confidence"}``, filled into a per-hop format:
    names go through the escaper of json's compact ``ensure_ascii=False``
    encoder, and the confidence is the ``repr`` of ``support / body_count``,
    the correctly rounded float that ``float`` of the exact ratio gives.
    """

    def line(st: RuleStats) -> str:
        rule = st.rule
        body = rule.body_relations
        conf = repr(st.support / st.body_count) if st.body_count else "null"
        return _record_format(len(body)) % (
            _quote(rule.rule_id), _quote(rule.head_relation), *map(_quote, body),
            st.support, st.body_count, conf,
        )

    return write_lines(path, map(line, stats))


def read_rules(path: str | Path) -> list[RuleStats]:
    """Load a rules file.  Confidence is recomputed exactly from the counts.

    ``support`` and ``body_count`` are ints with ``0 <= support <=
    body_count``, and no rule is listed twice; any other line is a data
    error naming the file and the line.
    """
    seen: set[Rule] = set()

    def parse(record) -> RuleStats:
        rule = Rule(
            record["head"]["relation"],
            tuple(a["relation"] for a in record["body"]),
        )
        if record.get("rule") not in (None, rule.rule_id):
            raise DataError(f"rule id {record['rule']!r} does not match its atoms")
        support, body_count = record["support"], record["body_count"]
        if type(support) is not int or type(body_count) is not int:
            raise DataError("support and body_count must be integers")
        if not 0 <= support <= body_count:
            raise DataError(
                f"support {support} and body_count {body_count} "
                "break 0 <= support <= body_count"
            )
        if rule in seen:
            raise DataError(f"rule {rule.rule_id!r} is listed twice")
        seen.add(rule)
        return RuleStats(rule, support, body_count)

    return read_records(path, "rule record", parse)
