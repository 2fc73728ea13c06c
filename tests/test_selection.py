"""Instance balancing, leakage filtering, probing, and anonymization."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kg_from, random_triples
from kgreason.client import VERDICT_KNOWN, VERDICT_UNDECIDED, VERDICT_UNKNOWN
from kgreason.errors import DataError, UsageError
from kgreason.kg import Triple
from kgreason.mining import ground_rule, mine_rule_stats
from kgreason.rules import Rule, RuleInstance
from kgreason.selection import (
    SETTING_ANONYMIZED,
    SETTING_REGULAR,
    anonymize,
    balance_instances,
    extend_name_map,
    leakage_filter,
    probe_filter,
    read_name_map,
    read_pool,
    rebalance_min,
    select_pipeline,
    write_name_map,
    write_pool,
)


def chain_instance(rule: Rule, start: int, head_present=True) -> RuleInstance:
    """Synthetic instance over distinct entity ids starting at ``start``."""
    entities = tuple(range(start, start + rule.hop + 1))
    body = tuple(
        Triple(entities[i], i, entities[i + 1]) for i in range(rule.hop)
    )
    head = Triple(entities[0], 99, entities[-1]) if head_present else None
    return RuleInstance(rule, entities, body, head)


def rule_counts(pool) -> dict[str, int]:
    return {rid: len(insts) for rid, insts in pool.per_rule.items()}


RULE_A = Rule("ra", ("p", "q"))
RULE_B = Rule("rb", ("p", "q"))


def make_per_rule(counts: dict[Rule, int], spacing=100):
    per_rule = {}
    base = 0
    for rule, n in counts.items():
        per_rule[rule.rule_id] = [
            chain_instance(rule, base + i * spacing) for i in range(n)
        ]
        base += 10_000
    return per_rule


class TestBalance:
    def test_five_and_three_at_three(self):
        pool = balance_instances(
            make_per_rule({RULE_A: 5, RULE_B: 3}), 3, 0, SETTING_ANONYMIZED
        )
        assert rule_counts(pool) == {RULE_A.rule_id: 3, RULE_B.rule_id: 3}

    def test_rule_below_n_dropped(self, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="kgreason.selection"):
            pool = balance_instances(
                make_per_rule({RULE_A: 5, RULE_B: 2}), 3, 0, SETTING_ANONYMIZED
            )
        assert rule_counts(pool) == {RULE_A.rule_id: 3}
        assert pool.dropped["balance_rules_dropped"] == 1
        assert any("rb" in rec.message for rec in caplog.records)

    def test_all_below_n_empty_pool(self):
        pool = balance_instances(
            make_per_rule({RULE_A: 2}), 3, 0, SETTING_ANONYMIZED
        )
        assert pool.size() == 0

    def test_same_seed_same_selection(self):
        per_rule = make_per_rule({RULE_A: 9})
        p1 = balance_instances(per_rule, 4, 123, SETTING_ANONYMIZED)
        p2 = balance_instances(per_rule, 4, 123, SETTING_ANONYMIZED)
        assert [i.entities for i in p1.instances()] == [
            i.entities for i in p2.instances()
        ]

    def test_different_seed_can_differ(self):
        per_rule = make_per_rule({RULE_A: 40})
        p1 = balance_instances(per_rule, 4, 1, SETTING_ANONYMIZED)
        p2 = balance_instances(per_rule, 4, 2, SETTING_ANONYMIZED)
        assert [i.entities for i in p1.instances()] != [
            i.entities for i in p2.instances()
        ]

    def test_n_must_be_positive(self):
        with pytest.raises(UsageError):
            balance_instances({}, 0, 0, SETTING_ANONYMIZED)


class TestLeakage:
    def test_head_in_other_body_discarded(self):
        shared = Triple(1, 2, 3)
        victim = RuleInstance(
            RULE_A, (1, 3), (Triple(1, 0, 3),), shared
        )
        carrier = RuleInstance(
            RULE_B, (1, 3, 5), (shared, Triple(3, 1, 5)), Triple(1, 98, 5)
        )
        pool = balance_instances(
            {RULE_A.rule_id: [victim], RULE_B.rule_id: [carrier]},
            1,
            0,
            SETTING_ANONYMIZED,
        )
        filtered = leakage_filter(pool)
        heads = {i.head_fact for i in filtered.instances()}
        assert shared not in heads
        assert filtered.dropped["leakage_instances_dropped"] == 1

    def test_cyclic_instance_self_discards(self):
        fact = Triple(1, 0, 1)
        inst = RuleInstance(Rule("r", ("p", "p")), (1, 1, 1), (fact, fact), fact)
        pool = balance_instances({"r(X,Y)<-p(X,Z1)&p(Z1,Y)": [inst]},
                                 1, 0, SETTING_ANONYMIZED)
        assert leakage_filter(pool).size() == 0

    def test_disjoint_universes_unchanged(self):
        pool = balance_instances(
            make_per_rule({RULE_A: 3, RULE_B: 3}), 2, 0, SETTING_ANONYMIZED
        )
        filtered = leakage_filter(pool)
        assert rule_counts(filtered) == rule_counts(pool)

    def test_rebalance_drops_to_min(self):
        pool = balance_instances(
            make_per_rule({RULE_A: 4, RULE_B: 4}), 4, 0, SETTING_ANONYMIZED
        )
        pruned = dict(pool.per_rule)
        pruned[RULE_B.rule_id] = pruned[RULE_B.rule_id][:2]
        pool = type(pool)(
            setting=pool.setting, per_rule=pruned, seed=pool.seed,
            name_map=pool.name_map, dropped=pool.dropped,
        )
        rebalanced = rebalance_min(pool)
        assert rule_counts(rebalanced) == {RULE_A.rule_id: 2, RULE_B.rule_id: 2}
        assert len(set(rule_counts(rebalanced).values())) <= 1

    def test_rebalance_drops_empty_rules(self):
        pool = balance_instances(
            make_per_rule({RULE_A: 3, RULE_B: 3}), 3, 0, SETTING_ANONYMIZED
        )
        pruned = dict(pool.per_rule)
        pruned[RULE_B.rule_id] = []
        pool = type(pool)(
            setting=pool.setting, per_rule=pruned, seed=pool.seed,
            name_map=pool.name_map, dropped=pool.dropped,
        )
        rebalanced = rebalance_min(pool)
        assert set(rebalanced.per_rule) == {RULE_A.rule_id}
        assert rule_counts(rebalanced)[RULE_A.rule_id] == 3


class TestProbe:
    def oracle_from(self, known: set, undecided: set = frozenset()):
        def oracle(fact: Triple) -> str:
            if fact in undecided:
                return VERDICT_UNDECIDED
            return VERDICT_KNOWN if fact in known else VERDICT_UNKNOWN

        return oracle

    def regular_pool(self):
        return balance_instances(
            {RULE_A.rule_id: [chain_instance(RULE_A, 0)]},
            1, 0, SETTING_REGULAR,
        )

    def test_body_known_head_unknown_retained(self):
        pool = self.regular_pool()
        inst = next(pool.instances())
        out = probe_filter(pool, self.oracle_from(set(inst.body_facts)))
        assert out.size() == 1

    def test_head_known_dropped(self):
        pool = self.regular_pool()
        inst = next(pool.instances())
        known = set(inst.body_facts) | {inst.head_fact}
        out = probe_filter(pool, self.oracle_from(known))
        assert out.size() == 0
        assert out.dropped["probe_instances_dropped"] == 1

    def test_body_fact_unknown_dropped(self):
        pool = self.regular_pool()
        inst = next(pool.instances())
        out = probe_filter(pool, self.oracle_from(set(inst.body_facts[:1])))
        assert out.size() == 0

    def test_undecided_excluded_and_counted(self):
        pool = self.regular_pool()
        inst = next(pool.instances())
        out = probe_filter(
            pool,
            self.oracle_from(set(inst.body_facts), {inst.body_facts[0]}),
        )
        assert out.size() == 0
        assert out.dropped["probe_undecided"] == 1

    def test_rejects_anonymized_pool(self):
        pool = balance_instances(
            make_per_rule({RULE_A: 1}), 1, 0, SETTING_ANONYMIZED
        )
        with pytest.raises(UsageError):
            probe_filter(pool, self.oracle_from(set()))


class TestAnonymize:
    def graph_pool(self):
        triples = [
            ("alice", "p", "bob"), ("bob", "q", "paris"),
            ("alice", "ra", "paris"),
        ]
        kg = kg_from(triples)
        rule = Rule("ra", ("p", "q"))
        per_rule = {rule.rule_id: list(ground_rule(kg, rule))}
        pool = balance_instances(per_rule, 1, 0, SETTING_ANONYMIZED)
        return kg, pool

    def test_name_style_and_injectivity(self):
        kg, pool = self.graph_pool()
        names = list(anonymize(pool, kg).name_map.values())
        assert len(names) == len(set(names)) == 3
        for name in names:
            assert re.fullmatch(r"[A-Z][a-z]{2,7}", name)
            assert name not in kg.entity_names()

    def test_same_entity_same_name_across_instances(self):
        kg, pool = self.graph_pool()
        out = anonymize(pool, kg)
        bob = kg.entity_id("bob")
        assert out.display_name(kg, bob) == out.name_map[bob]

    def test_same_seed_reproduces_map(self):
        kg, pool = self.graph_pool()
        pool = pool._replace(seed=5)
        assert anonymize(pool, kg).name_map == anonymize(pool, kg).name_map

    def test_map_file_round_trip(self, tmp_path):
        kg, pool = self.graph_pool()
        name_map = anonymize(pool, kg).name_map
        path = tmp_path / "map.tsv"
        assert write_name_map(path, kg, name_map) == 3
        assert read_name_map(path, kg) == name_map

    def test_map_file_without_synthetic_name_rejected(self, tmp_path):
        # An empty name would be a mention everywhere in a model output.
        kg, _ = self.graph_pool()
        path = tmp_path / "map.tsv"
        path.write_text("bob\t\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_name_map(path, kg)

    @pytest.mark.parametrize(
        "second, why",
        [
            ("alice\tQux", "entity 'alice' is mapped twice"),
            ("bob\tZed", "synthetic name 'Zed' is given twice"),
            ("bob\tparis", "synthetic name 'paris' is a store name"),
            ("bob\tbob", "synthetic name 'bob' is a store name"),
        ],
    )
    def test_map_file_must_be_injective(self, tmp_path, second, why):
        # Two entities under one name would render alike, and evaluation's
        # inverse map would keep only one of them.
        kg, _ = self.graph_pool()
        path = tmp_path / "map.tsv"
        path.write_text(f"alice\tZed\n\n{second}\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_name_map(path, kg)
        assert str(err.value) == f"{path}: bad map entry on line 3: {why}"


class TestExtendNameMap:
    def anonymized_pool(self):
        triples = [
            ("alice", "p", "bob"), ("bob", "q", "paris"),
            ("alice", "ra", "paris"),
            ("zoe", "p", "rome"),
        ]
        kg = kg_from(triples)
        rule = Rule("ra", ("p", "q"))
        per_rule = {rule.rule_id: list(ground_rule(kg, rule))}
        pool = balance_instances(per_rule, 1, 0, SETTING_ANONYMIZED)
        return kg, anonymize(pool, kg)

    def test_covered_ids_are_a_no_op(self):
        kg, pool = self.anonymized_pool()
        out = extend_name_map(pool, kg, pool.entity_ids())
        assert out.name_map == pool.name_map

    def test_new_ids_get_disjoint_fresh_names(self):
        kg, pool = self.anonymized_pool()
        outsiders = [kg.entity_id("zoe"), kg.entity_id("rome")]
        merged = extend_name_map(pool, kg, outsiders).name_map
        added = {e: merged[e] for e in merged.keys() - pool.name_map.keys()}
        assert set(added) == set(outsiders)
        for name in added.values():
            assert re.fullmatch(r"[A-Z][a-z]{2,7}", name)
            assert name not in kg.entity_names()
            assert name not in pool.name_map.values()
        assert len(set(merged.values())) == len(merged)
        assert merged == {**pool.name_map, **added}
        assert pool.name_map.keys() == set(pool.entity_ids())

    def test_extension_is_deterministic(self):
        kg, pool = self.anonymized_pool()
        outsiders = [kg.entity_id("rome"), kg.entity_id("zoe")]
        first = extend_name_map(pool, kg, outsiders)
        second = extend_name_map(pool, kg, list(reversed(outsiders)))
        assert first.name_map == second.name_map


class TestPipelineAndFiles:
    def mined_pool(self, seed=0, setting=SETTING_ANONYMIZED, oracle=None, n=2):
        rng = random.Random(seed)
        triples = random_triples(rng, 14, 4, 90)
        kg = kg_from(triples)
        stats = mine_rule_stats(kg)
        per_rule = {s.rule.rule_id: list(ground_rule(kg, s.rule)) for s in stats}
        pool, mapping = select_pipeline(kg, per_rule, n, seed, setting, oracle)
        return kg, pool, mapping

    def test_pipeline_balanced_and_leak_free(self):
        kg, pool, mapping = self.mined_pool()
        assert len(set(rule_counts(pool).values())) <= 1
        heads = {i.head_fact for i in pool.instances()}
        assert not heads & pool.body_fact_union()
        assert mapping is not None

    def test_regular_requires_oracle(self):
        with pytest.raises(UsageError):
            self.mined_pool(setting=SETTING_REGULAR)

    def test_pool_file_round_trip(self, tmp_path):
        kg, pool, mapping = self.mined_pool()
        path = tmp_path / "pool.jsonl"
        count = write_pool(path, pool, kg)
        assert count == pool.size()
        loaded = read_pool(path, kg, seed=pool.seed, name_map=mapping)
        assert loaded.setting == pool.setting
        assert [i.entities for i in loaded.instances()] == [
            i.entities for i in pool.instances()
        ]
        # File stores original names as join keys, not synthetic ones.
        text = path.read_text()
        for synthetic in mapping.values():
            assert synthetic not in text

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**30))
    def test_pipeline_invariants_random(self, seed):
        kg, pool, _ = self.mined_pool(seed=seed)
        assert len(set(rule_counts(pool).values())) <= 1
        heads = {i.head_fact for i in pool.instances()}
        assert not heads & pool.body_fact_union()
