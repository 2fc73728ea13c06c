"""One walker grounds body chains for select and explore.

``mining.walk_chain`` yields the walks along a chain of relations in
ascending order.  Select streams every body grounding through it
(``iter_body_groundings``); explore takes the first walk under a fact
oracle and, when there is none, the first of the deepest stalls
(``explore._ground_chain``).  Both are held to exhaustive enumeration in
``tests/bruteforce.py`` on random graphs and bodies of one to four
relations.  Entity ids follow name order, so name tuples sort as id tuples.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_chain_groundings, brute_first_walk
from conftest import kg_from
from kgreason.client import VERDICT_KNOWN, VERDICT_UNKNOWN
from kgreason.explore import KgFactOracle, _ground_chain
from kgreason.mining import iter_body_groundings
from kgreason.rules import Rule
from kgreason.templates import SIDE_OBJECT, SIDE_SUBJECT

ENTITIES = [f"e{i}" for i in range(6)]
RELATIONS = ["r0", "r1", "r2"]

graphs = st.lists(
    st.tuples(
        st.sampled_from(ENTITIES), st.sampled_from(RELATIONS), st.sampled_from(ENTITIES)
    ),
    min_size=1,
    max_size=24,
    unique=True,
)
# r3 is in no graph, so a body holding it has no walk past it.
bodies = st.lists(st.sampled_from(RELATIONS + ["r3"]), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(graphs, bodies)
def test_body_groundings_are_every_walk_ascending(triples, body):
    kg = kg_from(triples)
    walks = iter_body_groundings(kg, Rule("h", body))
    got = [tuple(map(kg.entity_name, walk)) for walk in walks]
    assert got == sorted(brute_chain_groundings(triples, body))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_ground_chain_takes_the_first_walk_or_the_first_deepest_stall(data):
    triples = data.draw(graphs)
    body = data.draw(bodies)
    known_side = data.draw(st.sampled_from([SIDE_SUBJECT, SIDE_OBJECT]))
    entities = sorted({e for h, _, t in triples for e in (h, t)})
    start = data.draw(st.sampled_from(entities))
    # None walks the graph's facts; a set walks only the facts it holds.
    known_facts = data.draw(st.none() | st.sets(st.sampled_from(triples)))
    kg = kg_from(triples)
    probe = None
    if known_facts is not None:

        def probe(fact):
            names = (
                kg.entity_name(fact.head),
                kg.relation_name(fact.relation),
                kg.entity_name(fact.tail),
            )
            return VERDICT_KNOWN if names in known_facts else VERDICT_UNKNOWN

    walkable = triples if known_facts is None else known_facts
    rule = Rule("h", body)
    solution, failure = _ground_chain(
        rule, kg.entity_id(start), known_side, KgFactOracle(kg, probe)
    )

    if known_side == SIDE_SUBJECT:
        walk, stall = brute_first_walk(walkable, body, start)
    else:
        # Backward from Y is forward over the reversed facts and body.
        reversed_facts = [(t, r, h) for h, r, t in walkable]
        walk, stall = brute_first_walk(reversed_facts, body[::-1], start)
        walk, stall = walk and walk[::-1], stall and stall[::-1]
    if walk is not None:
        assert failure is None
        assert tuple(map(kg.entity_name, solution)) == walk
        return
    assert solution is None
    assert tuple(map(kg.entity_name, failure.grounded)) == stall
    depth = len(stall) - 1
    expected_atom = depth if known_side == SIDE_SUBJECT else rule.hop - 1 - depth
    assert failure.atom_index == expected_atom
    assert failure.rule == rule
