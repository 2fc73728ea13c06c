"""Rule mining, scoring, filtering, and composition.

Two-hop rule instances are counted by a breadth-first sweep over each
entity's outgoing edges: for every edge (A, r1, B) and continuation
(B, r2, C), every relation r3 with (A, r3, C) present closes the path and
counts one instance of ``r3(X,Y) <- r1(X,Z1) & r2(Z1,Y)``.

Scoring counts distinct full variable bindings.  ``body_count`` (x) is the
number of bindings satisfying the body chain alone, ``support`` (y) the
part of them whose head fact also holds, and confidence is the exact
rational y/x.  Chains of any length are scored without listing their
bindings: ``ChainCounts`` propagates, one relation at a time, the number
of body paths from each start entity to each end, with the counts of 64
consecutive start ids packed into the lanes of one int.  x is the sum of
all lanes and y the sum of the lanes whose start the head relation links
to that end.  The lane width comes from a bound on a block's path count
that is read off the graph before counting, so no lane overflows and the
counts are exact.  The work follows the distinct (block, end) pairs per
prefix, not the path count, which grows exponentially with hop, bodies
that share a prefix share its propagation, and the heads of one body share
its body count.  Thresholds are interpreted as exact decimals so that the
strict comparison at a boundary such as 0.6 behaves the way the printed
number reads, not the way its nearest binary float rounds.

Composition splices two-hop rules into each other as ``(head, body)``
relation tuples and builds a ``Rule`` only for each distinct candidate, so
its cost follows the candidates kept, not the pairs tried.
"""

from __future__ import annotations

from itertools import repeat
from operator import and_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .errors import UnknownSymbolError, UsageError
from .kg import KnowledgeGraph
from .rules import DEFAULT_MAX_HOP, Rule, RuleStats, sort_stats

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_MIN_SUPPORT = 1000
DEFAULT_MIN_CONFIDENCE = "0.6"

# Start entities per packed block in ``ChainCounts``.  Any block size gives
# the same counts; 1 is one plain count per start.
_LANES = 64


def exact_fraction(value) -> Fraction:
    """Interpret a threshold as an exact decimal quantity."""
    # Imported here, so that a stage that reads no threshold, such as
    # ingest, loads neither fractions nor the decimal module it imports.
    from fractions import Fraction

    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"not a valid threshold: {value!r}") from exc
    raise UsageError(f"not a valid threshold: {value!r}")


# ----------------------------------------------------------------------
# two-hop mining

def _two_hop_counts(kg: KnowledgeGraph) -> dict[tuple[int, int, int], int]:
    """y counts: the instances of each two-hop rule ``(r3, r1, r2)``."""
    counts: dict[tuple[int, int, int], int] = {}
    out_edges = kg.out_edges
    for a in range(kg.num_entities):
        edges_a = out_edges(a)
        if not edges_a:
            continue
        # The relations linking ``a`` straight to each tail close a path.
        closers: dict[int, list[int]] = {}
        for r, t in edges_a:
            closers.setdefault(t, []).append(r)
        for r1, b in edges_a:
            for r2, c in out_edges(b):
                for r3 in closers.get(c, ()):
                    key = (r3, r1, r2)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def _pair_body_counts(
    kg: KnowledgeGraph, pairs: Iterable[tuple[int, int]]
) -> dict[tuple[int, int], int]:
    """x counts for two-hop bodies: paths through a shared middle entity."""
    tail_counts: dict[int, dict[int, int]] = {}
    head_counts: dict[int, dict[int, int]] = {}
    for rid in range(kg.num_relations):
        tc: dict[int, int] = {}
        hc: dict[int, int] = {}
        for h, t in kg.relation_pairs(rid):
            tc[t] = tc.get(t, 0) + 1
            hc[h] = hc.get(h, 0) + 1
        tail_counts[rid] = tc
        head_counts[rid] = hc
    out: dict[tuple[int, int], int] = {}
    for r1, r2 in pairs:
        starts = tail_counts[r1]
        ends = head_counts[r2]
        out[(r1, r2)] = sum(n * ends.get(mid, 0) for mid, n in starts.items())
    return out


def mine_rule_stats(kg: KnowledgeGraph) -> list[RuleStats]:
    """Score every two-hop rule that has at least one instance on the graph.

    The result is sorted by canonical rule encoding.
    """
    y_counts = _two_hop_counts(kg)
    x_counts = _pair_body_counts(kg, {(r1, r2) for (_, r1, r2) in y_counts})
    stats = []
    for (r3, r1, r2), y in y_counts.items():
        rule = Rule(
            kg.relation_name(r3), (kg.relation_name(r1), kg.relation_name(r2))
        )
        stats.append(RuleStats(rule=rule, support=y, body_count=x_counts[(r1, r2)]))
    stats.sort(key=lambda st: st.rule.rule_id)
    return stats


# ----------------------------------------------------------------------
# grounding and scoring for arbitrary chain length

def walk_chain(
    step: Callable[[int, Optional[int]], Sequence[int]],
    rels: Sequence[Optional[int]],
    path: tuple[int, ...],
    deepest: Optional[list[tuple[int, ...]]] = None,
) -> Iterator[tuple[int, ...]]:
    """Every full walk along ``rels`` that extends ``path``, in ascending
    order: ``step(eid, rid)`` lists the next entities from ``eid``,
    ascending, and each is tried in turn.  With ``deepest``, ``deepest[0]``
    becomes each walk that stalls deeper than it, so once the walks run out
    it holds the first of the deepest stalls.

    A module-level function rather than a closure that names itself, so no
    reference cycle keeps the graph behind ``step`` alive after the walk,
    even one left unfinished.
    """
    depth = len(path) - 1
    if depth == len(rels):
        yield path
        return
    nexts = step(path[-1], rels[depth])
    if not nexts and deepest is not None and len(path) > len(deepest[0]):
        deepest[0] = path
    for nxt in nexts:
        yield from walk_chain(step, rels, path + (nxt,), deepest)


def iter_body_groundings(kg: KnowledgeGraph, rule: Rule) -> Iterator[tuple[int, ...]]:
    """Yield every full binding of the body chain as an entity id tuple.

    Bindings come out in ascending order, walked on from each edge of the
    first body relation.  A body relation that is absent from the graph
    yields nothing (the rule is unscorable).
    """
    rels: list[int] = []
    for name in rule.body_relations:
        if not kg.has_relation(name):
            return
        rels.append(kg.relation_id(name))

    for first_edge in kg.relation_pairs(rels[0]):
        yield from walk_chain(kg.tails, rels, first_edge)


def ground_rule(kg: KnowledgeGraph, rule: Rule) -> Iterator[tuple[int, ...]]:
    """Stream the rule's groundings, the body groundings whose head fact
    holds, as entity id tuples in ascending order."""
    if not kg.has_relation(rule.head_relation):
        return
    head_rid = kg.relation_id(rule.head_relation)
    for entities in iter_body_groundings(kg, rule):
        if kg.holds(entities[0], head_rid, entities[-1]):
            yield entities


class ChainCounts:
    """Body path counts for 64 start entities to an int, sharing prefixes
    between bodies.

    A level maps ``block`` to ``{end: packed}``.  Lane ``j`` of ``packed``,
    ``width`` bits wide, holds the number of paths from start
    ``64·block + j`` to ``end`` along the body's relations so far.  A level
    is propagated from the one before it as per-start counts would be,
    ``nxt[c] += packed`` for each tail ``c`` of ``end``, so one big-int
    addition moves up to 64 starts at once and no lane is read alone.  The
    body count of a block is the sum of its lanes over all ends, and its
    support the same sum after each end's column is ANDed with a mask whose
    lanes are all ones exactly for the starts that the head relation links
    to that end.  The masks are built once per head relation.

    The counts are exact.  No start has more than ``D**hop`` paths of
    ``hop`` relations, where ``D`` is the graph's largest out-degree under
    one relation, so no block has more than ``64·D**hop``.  ``width`` puts
    that bound below ``2**width - 1``, so no lane sum carries into its
    neighbour, and as ``2**width`` is 1 modulo ``2**width - 1``, the
    remainder of a packed sum is the exact sum of its lanes.  The bound
    grows with hop: a body longer than any seen so far widens the lanes and
    drops every level and mask built at the old width.

    The levels of the last body's prefixes stay on a stack, one per
    relation: a body that shares its first k relations with the previous
    body only propagates the rest, so scoring bodies in sorted order reuses
    the most.  The same body again reuses its level and its body count, so
    the heads of one body pay one count and a masked sum each.
    """

    def __init__(self, kg: KnowledgeGraph):
        self.kg = kg
        self._degree = kg.max_out_degree()
        self._hop = 0
        self._width = 0
        self._rels: list[int] = []
        self._levels: list[dict[int, dict[int, int]]] = []
        # The body count of the level on top of the stack, once summed.
        self._body_count: Optional[int] = None
        self._succ: dict[int, dict[int, list[int]]] = {}
        self._masks: dict[int, dict[int, dict[int, int]]] = {}

    def count(self, rels: Sequence[int], head: Optional[int]) -> tuple[int, int]:
        """``(body_count, support)`` of the body chain ``rels`` under the head
        relation ``head``; a ``head`` of None has no support."""
        if len(rels) > self._hop:
            self._hop = len(rels)
            self._width = (_LANES * self._degree**self._hop + 1).bit_length()
            self._rels.clear()
            self._levels.clear()
            self._masks.clear()
        level = self._level(rels)
        modulus = (1 << self._width) - 1
        x = self._body_count
        if x is None:
            x = sum(sum(ends.values()) % modulus for ends in level.values())
            self._body_count = x
        y = 0
        if head is not None:
            masks = self._head_masks(head)
            for block, ends in level.items():
                row = masks.get(block)
                if row:
                    # Each end's column ANDed with its mask, in row order.
                    cols = map(ends.get, row, repeat(0))
                    y += sum(map(and_, cols, row.values())) % modulus
        return x, y

    def _level(self, rels: Sequence[int]) -> dict[int, dict[int, int]]:
        keep = 0
        shared = min(len(rels), len(self._rels))
        while keep < shared and rels[keep] == self._rels[keep]:
            keep += 1
        if keep == len(rels) == len(self._rels):
            return self._levels[-1]  # the same body: its level and count stand
        self._body_count = None
        del self._rels[keep:]
        del self._levels[keep:]
        for rid in rels[keep:]:
            level: dict[int, dict[int, int]] = {}
            if self._levels:
                tails = self._successors(rid).get
                for block, ends in self._levels[-1].items():
                    nxt: dict[int, int] = {}
                    for b, v in ends.items():
                        for c in tails(b, ()):
                            nxt[c] = nxt.get(c, 0) + v
                    if nxt:
                        level[block] = nxt
            else:
                for h, t in self.kg.relation_pairs(rid):
                    block, lane = divmod(h, _LANES)
                    row = level.setdefault(block, {})
                    row[t] = row.get(t, 0) | 1 << (self._width * lane)
            self._rels.append(rid)
            self._levels.append(level)
        return self._levels[-1]

    def _successors(self, rid: int) -> dict[int, list[int]]:
        """Each head's tails under ``rid``, one dict per relation."""
        succ = self._succ.get(rid)
        if succ is None:
            succ = self._succ[rid] = {}
            for h, t in self.kg.relation_pairs(rid):
                succ.setdefault(h, []).append(t)
        return succ

    def _head_masks(self, head: int) -> dict[int, dict[int, int]]:
        masks = self._masks.get(head)
        if masks is None:
            ones = (1 << self._width) - 1
            masks = {}
            for h, t in self.kg.relation_pairs(head):
                block, lane = divmod(h, _LANES)
                row = masks.setdefault(block, {})
                row[t] = row.get(t, 0) | ones << (self._width * lane)
            self._masks[head] = masks
        return masks


def score_rule(
    kg: KnowledgeGraph, rule: Rule, chains: Optional[ChainCounts] = None
) -> RuleStats:
    """Count body groundings and head-satisfying groundings for one rule.

    ``body_count`` is the number of body paths, and the support is the part
    of them whose head fact holds.  Pass one ``chains`` for many rules on
    the same graph to share the propagation of common body prefixes.
    """
    if chains is None:
        chains = ChainCounts(kg)
    elif chains.kg is not kg:
        raise UsageError("chain counts were built for another graph")
    try:
        rels = [kg.relation_id(name) for name in rule.body_relations]
    except UnknownSymbolError:
        # An absent body relation leaves the rule unscorable.
        return RuleStats(rule, 0, 0)
    head = (
        kg.relation_id(rule.head_relation)
        if kg.has_relation(rule.head_relation)
        else None
    )
    x, y = chains.count(rels, head)
    return RuleStats(rule, y, x)


# ----------------------------------------------------------------------
# filtering

def filter_stats(
    stats: Iterable[RuleStats],
    min_support: int = DEFAULT_MIN_SUPPORT,
    min_confidence=DEFAULT_MIN_CONFIDENCE,
) -> list[RuleStats]:
    """Keep rules with support >= min_support and confidence strictly above
    min_confidence.  Unscorable rules never pass.  Sorted by descending
    confidence, ties by ascending canonical encoding."""
    threshold = exact_fraction(min_confidence)
    kept = [
        st
        for st in stats
        if st.support >= min_support
        and st.confidence is not None
        and st.confidence > threshold
    ]
    return sort_stats(kept)


# ----------------------------------------------------------------------
# composition

def compose_library(
    two_hop: Sequence[Rule], max_hop: int = DEFAULT_MAX_HOP
) -> list[Rule]:
    """Build longer rules from a filtered two-hop set.

    Three-hop rules come from every ordered pair of two-hop rules; four-hop
    rules from splicing a two-hop rule into each composed three-hop rule.
    A splice replaces the leftmost body relation of the outer rule that
    heads the inner rule with the inner rule's body, and drops results
    longer than ``max_hop``.  Splices run on ``(head, body)`` relation
    tuples: only the inner rules headed by a relation of the outer body are
    tried, and a ``Rule`` is built only for each distinct candidate.  Since
    relation names cannot hold the encoding's delimiters, distinct tuples
    are distinct rule ids, so deduplicating tuples collapses exactly what
    the ids would.  The result is sorted by (hop, canonical encoding).
    """
    inners: dict[str, list[tuple[str, ...]]] = {}
    base = {(r.head_relation, r.body_relations) for r in two_hop}
    for head, body in base:
        inners.setdefault(head, []).append(body)
    seen: set[tuple[str, tuple[str, ...]]] = set()

    def splice(outers: Iterable[tuple[str, tuple[str, ...]]]):
        out = []
        for head, body in outers:
            room = max_hop - len(body) + 1
            for at, rel in enumerate(body):
                before, after = body[:at], body[at + 1 :]
                if rel in before:
                    continue  # only the leftmost occurrence is replaced
                for inner in inners.get(rel, ()):
                    if len(inner) > room:
                        continue
                    rule = (head, before + inner + after)
                    if rule not in seen:
                        seen.add(rule)
                        out.append(rule)
        return out

    three = splice(base)
    four = splice(three)
    # Every name comes from a rule built already, so none is checked again.
    out = [Rule._make(rule) for rule in three + four]
    out.sort(key=lambda r: (r.hop, r.rule_id))
    return out
