"""Independent reference implementations used as test oracles.

Everything here works on raw name triples and deliberately shares no code
with the package: results are produced by exhaustive enumeration so they
can arbitrate what the optimized implementations must return.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Optional, Sequence


def brute_two_hop(raw_triples: Iterable[tuple[str, str, str]]) -> dict:
    """Exhaustive two-hop rule census by scanning all path pairs.

    Returns {(head_rel, r1, r2): {"instances": set[(x, z, y)],
    "support": int, "body_count": int, "confidence": Fraction}} for every
    rule with at least one closed instance.  body_count counts all distinct
    (x, z, y) bindings of the body chain regardless of closure.
    """
    triples = set(raw_triples)
    out_edges: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for h, r, t in triples:
        out_edges[h].append((r, t))
    paths: dict[tuple[str, str], set[tuple[str, str, str]]] = defaultdict(set)
    for x, r1, z in triples:
        for r2, y in out_edges.get(z, ()):
            paths[(r1, r2)].add((x, z, y))
    facts_from: dict[str, set[tuple[str, str]]] = defaultdict(set)
    for h, r, t in triples:
        facts_from[h].add((r, t))
    rules: dict[tuple[str, str, str], dict] = {}
    for (r1, r2), bindings in paths.items():
        closed: dict[str, set[tuple[str, str, str]]] = defaultdict(set)
        for x, z, y in bindings:
            for rh, t in facts_from.get(x, ()):
                if t == y:
                    closed[rh].add((x, z, y))
        for rh, instances in closed.items():
            rules[(rh, r1, r2)] = {
                "instances": instances,
                "support": len(instances),
                "body_count": len(bindings),
                "confidence": Fraction(len(instances), len(bindings)),
            }
    return rules


def brute_chain_groundings(
    raw_triples: Iterable[tuple[str, str, str]], body_relations: Sequence[str]
) -> set[tuple[str, ...]]:
    """All entity tuples (e0..ek) threading the body chain, any length."""
    triples = set(raw_triples)
    by_rel: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
    for h, r, t in triples:
        by_rel[r][h].append(t)
    results: set[tuple[str, ...]] = set()
    entities = {h for h, _, _ in triples} | {t for _, _, t in triples}

    def extend(prefix: tuple[str, ...], depth: int) -> None:
        if depth == len(body_relations):
            results.add(prefix)
            return
        rel = body_relations[depth]
        for nxt in by_rel.get(rel, {}).get(prefix[-1], ()):
            extend(prefix + (nxt,), depth + 1)

    for start in entities:
        extend((start,), 0)
    return results


def brute_rule_score(
    raw_triples: Iterable[tuple[str, str, str]],
    head_relation: str,
    body_relations: Sequence[str],
) -> tuple[int, int]:
    """(body_count, closed_count) for a chain rule of any hop."""
    triples = set(raw_triples)
    groundings = brute_chain_groundings(triples, body_relations)
    closed = sum(
        1 for g in groundings if (g[0], head_relation, g[-1]) in triples
    )
    return len(groundings), closed


def brute_walks(
    raw_triples: Iterable[tuple[str, str, str]],
    relations: Sequence[str],
    start: str,
) -> list[tuple[str, ...]]:
    """Every walk from ``start`` along a prefix of ``relations``, the empty
    prefix included, found by trying every entity at every step."""
    triples = set(raw_triples)
    entities = {h for h, _, _ in triples} | {t for _, _, t in triples}
    walks = frontier = [(start,)]
    for rel in relations:
        frontier = [
            walk + (e,) for walk in frontier for e in entities
            if (walk[-1], rel, e) in triples
        ]
        walks = walks + frontier
    return walks


def brute_first_walk(
    raw_triples: Iterable[tuple[str, str, str]],
    relations: Sequence[str],
    start: str,
) -> tuple[Optional[tuple[str, ...]], Optional[tuple[str, ...]]]:
    """(the smallest full walk, None), or when there is none (None, the
    smallest of the longest walks), which all stall there."""
    walks = brute_walks(raw_triples, relations, start)
    full = [w for w in walks if len(w) == len(relations) + 1]
    if full:
        return min(full), None
    longest = max(map(len, walks))
    return None, min(w for w in walks if len(w) == longest)
