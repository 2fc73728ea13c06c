"""Two-hop mining, exact scoring, filtering, and composition."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import brute_chain_groundings, brute_rule_score, brute_two_hop
from conftest import ground_instances, kg_from, random_triples
from kgreason import cli
from kgreason.errors import UsageError
from kgreason.mining import (
    ChainCounts,
    compose_library,
    exact_fraction,
    filter_stats,
    ground_rule,
    iter_body_groundings,
    mine_rule_stats,
    score_rule,
)
from kgreason.rules import Rule, RuleStats
from rule_oracles import (
    compose_library_pairwise,
    compose_rules,
    sort_stats_by_fraction,
    write_rules_by_atoms,
)


def mined_instances(kg):
    """Map each mined rule id to the named entities of the instances
    ``ground_rule`` finds for it, whose number must be the mined support."""
    found = {}
    for stats in mine_rule_stats(kg):
        instances = [
            tuple(kg.entity_name(e) for e in entities)
            for entities in ground_rule(kg, stats.rule)
        ]
        assert len(instances) == stats.support
        found[stats.rule.rule_id] = instances
    return found


class TestTwoHopInstances:
    def test_single_closing_path(self, example_kg):
        found = mined_instances(example_kg)
        assert found == {"r1(X,Y)<-r2(X,Z1)&r3(Z1,Y)": [("a", "b", "c")]}

    def test_no_closed_path_empty(self):
        kg = kg_from([("a", "r1", "b"), ("b", "r2", "c")])
        assert mine_rule_stats(kg) == []

    def test_self_loop_closure(self):
        kg = kg_from([("a", "r", "a")])
        found = mined_instances(kg)
        assert found == {"r(X,Y)<-r(X,Z1)&r(Z1,Y)": [("a", "a", "a")]}

    def test_no_duplicates_and_deterministic(self, score_kg):
        first = mined_instances(score_kg)
        assert first == mined_instances(score_kg)
        assert mine_rule_stats(score_kg) == mine_rule_stats(score_kg)
        for instances in first.values():
            assert len(instances) == len(set(instances))


class TestScoring:
    def test_known_counts(self, score_kg):
        stats = score_rule(score_kg, Rule("r1", ("r2", "r3")))
        assert stats.body_count == 2
        assert stats.support == 1
        assert stats.confidence == Fraction(1, 2)

    def test_full_closure_confidence_one(self, example_kg):
        stats = score_rule(example_kg, Rule("r1", ("r2", "r3")))
        assert stats.confidence == Fraction(1, 1)

    def test_absent_body_relation_unscorable(self, example_kg):
        stats = score_rule(example_kg, Rule("r1", ("r9", "r3")))
        assert stats.body_count == 0
        assert stats.confidence is None

    def test_ground_rule_head_toggle(self, score_kg):
        # Of the two body groundings only (a, b, c) has its head fact.
        rule = Rule("r1", ("r2", "r3"))
        assert len(list(iter_body_groundings(score_kg, rule))) == 2
        assert len(list(ground_rule(score_kg, rule))) == 1

    def test_grounded_instances_verify_facts(self, score_kg):
        for inst in ground_instances(score_kg, Rule("r1", ("r2", "r3"))):
            for fact in (*inst.body_facts, inst.head_fact):
                assert score_kg.holds(fact.head, fact.relation, fact.tail)


class TestBruteForceAgreement:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**30))
    def test_mined_stats_match_enumeration(self, seed):
        rng = random.Random(seed)
        triples = random_triples(rng, 15, 4, 60)
        kg = kg_from(triples)
        expected = brute_two_hop(triples)
        mined = mine_rule_stats(kg)
        got = {
            (s.rule.head_relation, *s.rule.body_relations): s for s in mined
        }
        assert set(got) == set(expected)
        for key, exp in expected.items():
            assert got[key].support == exp["support"]
            assert got[key].body_count == exp["body_count"]
            assert got[key].confidence == exp["confidence"]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**30))
    def test_general_hop_grounding_matches_enumeration(self, seed):
        rng = random.Random(seed)
        triples = random_triples(rng, 8, 3, 25)
        kg = kg_from(triples)
        body = tuple(rng.choice(["r0", "r1", "r2"]) for _ in range(3))
        x, y = brute_rule_score(triples, "r0", body)
        stats = score_rule(kg, Rule("r0", body))
        assert (stats.body_count, stats.support) == (x, y)


def shared_prefix_rules(rng, relations, count):
    """Rules of hop 1-4 whose bodies often repeat or extend earlier ones.

    The relation name ``absent`` stands for a body or head relation the
    graph does not have.  The list comes back shuffled, so consecutive bodies share a
    prefix of any length, diverge early, or repeat outright.
    """
    names = list(relations) + ["absent"]
    bodies: list[tuple[str, ...]] = []
    for _ in range(count):
        if bodies and rng.random() < 0.6:
            prefix = rng.choice(bodies)[: rng.randint(0, 3)]
        else:
            prefix = ()
        hop = rng.randint(max(1, len(prefix)), 4)
        rest = tuple(rng.choice(names) for _ in range(hop - len(prefix)))
        bodies.append(prefix + rest)
    rules = [Rule(rng.choice(names), body) for body in bodies]
    rng.shuffle(rules)
    return rules


class TestChainCounts:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**30))
    def test_shared_counter_matches_enumeration(self, seed):
        rng = random.Random(seed)
        triples = random_triples(rng, 7, 3, 30)
        kg = kg_from(triples)
        chains = ChainCounts(kg)
        for rule in shared_prefix_rules(rng, ["r0", "r1", "r2"], 25):
            stats = score_rule(kg, rule, chains)
            x, y = brute_rule_score(triples, rule.head_relation, rule.body_relations)
            assert (stats.body_count, stats.support) == (x, y), rule.rule_id

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**30))
    def test_sharing_does_not_change_stats(self, seed):
        rng = random.Random(seed)
        kg = kg_from(random_triples(rng, 10, 4, 60))
        rules = shared_prefix_rules(rng, ["r0", "r1", "r2", "r3"], 30)
        chains = ChainCounts(kg)
        shared = [score_rule(kg, rule, chains) for rule in rules]
        alone = [score_rule(kg, rule) for rule in rules]
        assert shared == alone

    def test_counter_of_another_graph_is_refused(self, score_kg, example_kg):
        with pytest.raises(UsageError):
            score_rule(score_kg, Rule("r1", ("r2", "r3")), ChainCounts(example_kg))


def numbered(i: int) -> str:
    """Entity names that sort like their numbers, so the ids of a graph in
    which every entity has an edge are those numbers."""
    return f"e{i:03d}"


BLOCK_EDGES = (63, 64, 127, 128)
BODY_RELATIONS = ("r0", "r1", "r2")


class TestPackedCounts:
    """``ChainCounts`` packs the counts of 64 consecutive start ids into one
    int; these graphs put starts on both sides of block edges, fill a block
    up to the lane-width bound, and make one counter widen its lanes."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**30))
    def test_starts_across_blocks_match_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(65, 200)
        triples = [
            (numbered(a), rng.choice(BODY_RELATIONS), numbered(rng.randrange(n)))
            for a in range(n)
        ]
        triples += [
            (numbered(rng.randrange(n)), rng.choice(BODY_RELATIONS),
             numbered(rng.randrange(n)))
            for _ in range(rng.randint(0, 2 * n))
        ]
        # The starts at block edges get paths, and a head relation "h" that
        # closes about half of them; a few other starts close some too.
        closing = [a for a in BLOCK_EDGES if a < n] + rng.sample(range(n), 8)
        for a in closing:
            for rel in BODY_RELATIONS:
                triples += [
                    (numbered(a), rel, numbered(c)) for c in rng.sample(range(n), 2)
                ]
            triples += [
                (numbered(a), "h", numbered(c)) for c in rng.sample(range(n), n // 2)
            ]
        kg = kg_from(triples)
        assert kg.entity_name(n - 1) == numbered(n - 1)
        rules = [
            Rule(rng.choice(("h", "h", *BODY_RELATIONS)), rule.body_relations)
            for rule in shared_prefix_rules(rng, BODY_RELATIONS, 20)
        ]
        chains = ChainCounts(kg)
        for rule in rules:
            stats = score_rule(kg, rule, chains)
            x, y = brute_rule_score(triples, rule.head_relation, rule.body_relations)
            assert (stats.body_count, stats.support) == (x, y), rule.rule_id

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**30), st.integers(64, 130), st.integers(1, 3))
    def test_full_blocks_at_the_bound_and_widening(self, seed, n, degree):
        # Every entity has exactly ``degree`` tails under each relation, so
        # each of the first 64 starts has degree**hop paths and their block
        # reaches the bound 64·degree**hop that sets the lane width.
        rng = random.Random(seed)
        triples = [
            (numbered(a), rel, numbered(c))
            for a in range(n)
            for rel in ("h", *BODY_RELATIONS)
            for c in rng.sample(range(n), degree)
        ]
        kg = kg_from(triples)
        two = tuple(rng.choice(BODY_RELATIONS) for _ in range(2))
        four = two + tuple(rng.choice(BODY_RELATIONS) for _ in range(2))
        three = four[:3]
        chains = ChainCounts(kg)
        # A longer body widens the lanes, whose old prefixes must not be
        # reused; shorter bodies after it keep the wider lanes.
        for body in (two, four, two, three):
            for head in ("h", body[0]):
                stats = score_rule(kg, Rule(head, body), chains)
                x, y = brute_rule_score(triples, head, body)
                assert (stats.body_count, stats.support) == (x, y), (head, body)
        assert score_rule(kg, Rule("h", four)).body_count == n * degree**4


class TestFiltering:
    def make(self, head, support, body):
        return RuleStats(Rule(head, ("p", "q")), support, body)

    def test_exact_fraction_parses_decimal_exactly(self):
        assert exact_fraction("0.6") == Fraction(3, 5)
        assert exact_fraction("0.61") == Fraction(61, 100)
        assert exact_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert exact_fraction(1) == Fraction(1)

    def test_exact_fraction_rejects_junk(self):
        with pytest.raises(UsageError):
            exact_fraction(object())

    def test_strict_confidence_boundary(self):
        at = self.make("a", 3, 5)        # exactly 3/5
        above = self.make("b", 61, 100)  # 61/100
        kept = filter_stats([at, above], min_support=1, min_confidence="0.6")
        assert [s.rule.head_relation for s in kept] == ["b"]

    def test_support_threshold_inclusive(self):
        low = self.make("a", 9, 10)
        enough = self.make("b", 10, 11)
        kept = filter_stats([low, enough], min_support=10, min_confidence="0.5")
        assert [s.rule.head_relation for s in kept] == ["b"]

    def test_empty_input_empty_output(self):
        assert filter_stats([], 1000, "0.6") == []

    def test_output_sorted_by_confidence_then_encoding(self):
        stats = [self.make("a", 70, 100), self.make("b", 90, 100),
                 self.make("c", 70, 100)]
        kept = filter_stats(stats, 1, "0.5")
        assert [s.rule.head_relation for s in kept] == ["b", "a", "c"]

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**30),
        st.integers(1, 5),
        st.integers(1, 8),
        st.fractions(min_value=0, max_value=1),
    )
    def test_filter_monotone_in_thresholds(self, seed, sup1, sup2, conf):
        rng = random.Random(seed)
        stats = [
            self.make(f"h{i}", rng.randint(0, 12), rng.randint(12, 20))
            for i in range(10)
        ]
        lo, hi = sorted([sup1, sup2])
        kept_hi = {s.rule.rule_id for s in filter_stats(stats, hi, conf)}
        kept_lo = {s.rule.rule_id for s in filter_stats(stats, lo, conf)}
        assert kept_hi <= kept_lo


class TestComposition:
    def test_canonical_pair(self):
        outer = Rule("citizen_of", ("born_in", "city_of"))
        inner = Rule("born_in", ("high_school", "locate_in"))
        composed = compose_rules(outer, inner)
        assert composed == Rule(
            "citizen_of", ("high_school", "locate_in", "city_of")
        )
        assert composed.rule_id == (
            "citizen_of(X,Y)<-high_school(X,Z1)&locate_in(Z1,Z2)&city_of(Z2,Y)"
        )

    def test_no_matching_body_atom(self):
        outer = Rule("citizen_of", ("born_in", "city_of"))
        inner = Rule("works_for", ("a", "b"))
        assert compose_rules(outer, inner) is None

    def test_hop_cap(self):
        outer = Rule("h", ("a", "b", "c"))
        inner = Rule("a", ("d", "e", "f"))
        assert compose_rules(outer, inner) is None    # would be 5-hop
        assert compose_rules(outer, Rule("a", ("d", "e"))) is not None

    def test_leftmost_body_atom_replaced(self):
        outer = Rule("h", ("a", "a"))
        inner = Rule("a", ("p", "q"))
        assert compose_rules(outer, inner) == Rule("h", ("p", "q", "a"))

    def test_library_shapes_and_dedup(self):
        two = [Rule("h", ("a", "b")), Rule("a", ("c", "d")), Rule("c", ("e", "f"))]
        lib = compose_library(two)
        ids = [r.rule_id for r in lib]
        assert len(ids) == len(set(ids))
        assert Rule("h", ("c", "d", "b")) in lib
        assert Rule("a", ("e", "f", "d")) in lib
        assert Rule("h", ("e", "f", "d", "b")) in lib
        assert all(2 < r.hop <= 4 for r in lib)

    # One input with every shape the splice must get right: a duplicated
    # base rule, relation ``a`` heading two rules, and ``a`` twice in one
    # body, so only its leftmost occurrence may be replaced.
    SHAPES = [
        Rule("h", ("a", "a")),
        Rule("a", ("b", "c")),
        Rule("a", ("c", "b")),
        Rule("a", ("b", "c")),
        Rule("b", ("a", "h")),
        Rule("h", ("b", "a")),
    ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.builds(
                Rule,
                st.sampled_from("habc"),
                st.lists(st.sampled_from("habc"), min_size=1, max_size=3).map(tuple),
            ),
            max_size=10,
        ).flatmap(lambda rules: st.permutations(rules + rules[: len(rules) // 3])),
        st.sampled_from([2, 3, 4]),
    )
    @example(SHAPES, 2)
    @example(SHAPES, 3)
    @example(SHAPES, 4)
    def test_library_equals_pairwise_oracle(self, base, max_hop):
        assert compose_library(base, max_hop) == compose_library_pairwise(
            base, max_hop
        )

    def test_composed_regrounding_matches_joint_enumeration(self):
        rng = random.Random(5)
        triples = random_triples(rng, 12, 6, 80)
        kg = kg_from(triples)
        composed = compose_rules(Rule("r0", ("r1", "r2")), Rule("r1", ("r3", "r4")))
        got = {
            tuple(kg.entity_name(e) for e in g)
            for g in iter_body_groundings(kg, composed)
        }
        assert got == brute_chain_groundings(triples, ("r3", "r4", "r2"))


class TestComposeOracle:
    """The ``compose`` stage writes the library that the slow path builds:
    every candidate scored alone by enumeration, kept by a ``Fraction``
    comparison, ordered by ``Fraction`` keys and written atom by atom."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**30),
        st.sampled_from(["0", "0.1", "0.25", "1/3", "0.5", "2/3"]),
        st.sampled_from([2, 3, 4]),
    )
    def test_library_bytes_equal_oracle_path(
        self, tmp_path_factory, seed, threshold, max_hop
    ):
        rng = random.Random(seed)
        triples = random_triples(rng, 8, 3, rng.randint(10, 40))
        # Few bodies, each under several heads; ``absent`` is no relation of
        # the store, as a head or in a body.
        names = ["r0", "r1", "r2", "absent"]
        bodies = {
            (rng.choice(names), rng.choice(names)) for _ in range(rng.randint(1, 5))
        }
        base = []
        for body in sorted(bodies):
            for head in rng.sample(names, rng.randint(1, 4)):
                body_count = rng.randint(0, 9)
                base.append(
                    RuleStats(Rule(head, body), rng.randint(0, body_count), body_count)
                )
        rng.shuffle(base)

        d = tmp_path_factory.mktemp("compose")
        kg_from(triples).save(d / "store.json")
        write_rules_by_atoms(d / "rules.tsv", base)
        assert cli.main([
            "compose", "--store", str(d / "store.json"),
            "--rules", str(d / "rules.tsv"), "--out", str(d / "library.tsv"),
            "--max-hop", str(max_hop), "--min-confidence", threshold,
            "--manifest", str(d / "manifest.json"),
        ]) == 0

        kept = []
        for rule in compose_library_pairwise([s.rule for s in base], max_hop):
            x, y = brute_rule_score(triples, rule.head_relation, rule.body_relations)
            if x > 0 and Fraction(y, x) > Fraction(threshold):
                kept.append(RuleStats(rule, y, x))
        write_rules_by_atoms(d / "oracle.tsv", sort_stats_by_fraction(base + kept))
        assert (d / "library.tsv").read_bytes() == (d / "oracle.tsv").read_bytes()
