"""Triple store: ingest, indexing, queries, persistence."""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kg_from, random_triples
from rule_oracles import all_triples
from kgreason.errors import DataError, IngestError, UnknownSymbolError
from kgreason.kg import KnowledgeGraph


def ids(kg, *names):
    return tuple(kg.entity_id(n) for n in names)


class TestIngest:
    def test_example_counts(self, example_kg):
        # Hand count of the three-line example: entities {a, b, c},
        # relations {r1, r2, r3}, three facts.
        assert example_kg.num_entities == 3
        assert example_kg.num_relations == 3
        assert example_kg.num_triples == 3

    def test_duplicate_lines_dedup(self):
        kg = kg_from([("a", "r", "b"), ("a", "r", "b")])
        assert kg.num_triples == 1

    def test_two_field_line_rejected_with_line_number(self):
        with pytest.raises(IngestError) as err:
            KnowledgeGraph.from_lines(["a\tr\tb", "a\tb"])
        assert err.value.line_no == 2

    def test_empty_field_rejected(self):
        with pytest.raises(IngestError):
            KnowledgeGraph.from_lines(["a\t\tb"])

    def test_empty_stream_is_valid(self):
        kg = KnowledgeGraph.from_lines([])
        assert kg.num_triples == 0
        assert kg.stats() == {"entities": 0, "relations": 0, "triples": 0}

    def test_blank_lines_skipped(self):
        kg = KnowledgeGraph.from_lines(["", "a\tr\tb", ""])
        assert kg.num_triples == 1

    def test_ids_assigned_by_sorted_name(self, example_kg):
        assert [example_kg.entity_name(i) for i in range(3)] == ["a", "b", "c"]
        assert [example_kg.relation_name(i) for i in range(3)] == ["r1", "r2", "r3"]


class TestQueries:
    def test_has_fact_present(self, example_kg):
        a, b = ids(example_kg, "a", "b")
        assert example_kg.holds(a, example_kg.relation_id("r2"), b)

    def test_has_fact_absent(self, example_kg):
        a, c = ids(example_kg, "a", "c")
        assert not example_kg.holds(a, example_kg.relation_id("r2"), c)

    def test_unknown_symbol_distinct_from_absent(self, example_kg):
        with pytest.raises(UnknownSymbolError):
            example_kg.relation_id("r9")
        with pytest.raises(UnknownSymbolError):
            example_kg.relation_name(17)

    def test_neighbors_forward_canonical(self, example_kg):
        a, b, c = ids(example_kg, "a", "b", "c")
        r1, r2 = example_kg.relation_id("r1"), example_kg.relation_id("r2")
        # Canonical order is ascending relation id then entity id.
        assert list(example_kg.out_edges(a)) == [(r1, c), (r2, b)]

    def test_neighbors_no_out_edges(self, example_kg):
        (c,) = ids(example_kg, "c")
        assert list(example_kg.out_edges(c)) == []

    def test_successors_predecessors(self, example_kg):
        a, b = ids(example_kg, "a", "b")
        r2 = example_kg.relation_id("r2")
        assert list(example_kg.tails(a, r2)) == [b]
        assert list(example_kg.heads(b, r2)) == [a]

    def test_self_loop_retained(self):
        kg = kg_from([("a", "r", "a")])
        aid = kg.entity_id("a")
        assert kg.holds(aid, kg.relation_id("r"), aid)
        assert list(kg.tails(aid, kg.relation_id("r"))) == [aid]


class TestOrderIndependence:
    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 2**30))
    def test_queries_ignore_input_order(self, rnd, seed):
        rng = random.Random(seed)
        triples = random_triples(rng, 12, 4, 30)
        shuffled = list(dict.fromkeys(triples))
        rnd.shuffle(shuffled)
        kg1 = kg_from(triples)
        kg2 = kg_from(shuffled)
        assert all_triples(kg1) == all_triples(kg2)
        for e in range(kg1.num_entities):
            assert kg1.out_edges(e) == kg2.out_edges(e)
            for r in range(kg1.num_relations):
                assert kg1.heads(e, r) == kg2.heads(e, r)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**30))
    def test_index_mutual_consistency(self, seed):
        rng = random.Random(seed)
        kg = kg_from(random_triples(rng, 10, 3, 25))
        for x in range(kg.num_entities):
            for r, y in kg.out_edges(x):
                assert x in kg.heads(y, r)
            for r in range(kg.num_relations):
                for h in kg.heads(x, r):
                    assert (r, x) in kg.out_edges(h)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, score_kg):
        path = tmp_path / "store.json"
        score_kg.save(path)
        loaded = KnowledgeGraph.load(path)
        assert all_triples(loaded) == all_triples(score_kg)
        assert loaded.entity_names() == score_kg.entity_names()
        assert loaded.relation_names() == score_kg.relation_names()

    def test_save_is_deterministic(self, tmp_path, score_kg):
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        score_kg.save(p1)
        score_kg.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text('{"format_version": 99, "entities": [], '
                        '"relations": [], "triples": []}')
        with pytest.raises(DataError):
            KnowledgeGraph.load(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("not json")
        with pytest.raises(DataError):
            KnowledgeGraph.load(path)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        kg = kg_from(random_triples(random.Random(3), 20, 4, 60))
        first, second = tmp_path / "s1.json", tmp_path / "s2.json"
        kg.save(first)
        KnowledgeGraph.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("reverse_names", [False, True])
    def test_store_out_of_canonical_order_loads_as_canonical(
        self, tmp_path, reverse_names
    ):
        kg = kg_from(random_triples(random.Random(4), 15, 4, 50))
        canonical = tmp_path / "canonical.json"
        kg.save(canonical)
        payload = json.loads(canonical.read_text(encoding="utf-8"))
        entities, relations = payload["entities"], payload["relations"]
        triples = payload["triples"]
        if reverse_names:
            # Reverse both name tables and renumber every id to match.
            n_ent, n_rel = len(entities), len(relations)
            triples = [
                [n_ent - 1 - h, n_rel - 1 - r, n_ent - 1 - t] for h, r, t in triples
            ]
            payload.update(entities=entities[::-1], relations=relations[::-1])
        # Shuffle the triples and repeat one of them.
        triples.append(triples[0])
        random.Random(5).shuffle(triples)
        payload["triples"] = triples
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps(payload), encoding="utf-8")

        loaded = KnowledgeGraph.load(shuffled)
        assert loaded.entity_names() == entities
        assert loaded.relation_names() == relations
        assert all_triples(loaded) == all_triples(kg)
        resaved = tmp_path / "resaved.json"
        loaded.save(resaved)
        assert resaved.read_bytes() == canonical.read_bytes()

    def test_isolated_entities_survive_a_round_trip(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(
            '{"format_version": 1, "entities": ["a", "b", "c"], '
            '"relations": ["r"], "triples": [[0, 0, 2]]}',
            encoding="utf-8",
        )
        kg = KnowledgeGraph.load(path)
        assert kg.entity_names() == ["a", "b", "c"]
        assert list(kg.out_edges(1)) == []
        assert list(kg.tails(0, 0)) == [2]


def index_built(kg: KnowledgeGraph) -> bool:
    """Whether the adjacency indexes exist, asked without building them."""
    try:
        KnowledgeGraph._succ.__get__(kg)
    except AttributeError:
        return False
    return True


def every_answer(kg: KnowledgeGraph) -> tuple:
    """The answer to every query of the graph, fact checks first."""
    ents, rels = range(kg.num_entities), range(kg.num_relations)
    return (
        kg.num_triples,
        [[[kg.holds(h, r, t) for t in ents] for r in rels] for h in ents],
        [[list(kg.tails(e, r)) for r in rels] for e in ents],
        [[list(kg.heads(e, r)) for r in rels] for e in ents],
        [list(kg.relation_pairs(r)) for r in rels],
        [list(kg.out_edges(e)) for e in ents],
        kg.max_out_degree(),
    )


class TestLazyIndexes:
    """A graph builds its adjacency on the first adjacency query.  Until
    then it answers fact checks and saves from its id triples; after, it
    saves from its fact set.  Either way it answers and saves like a graph
    whose indexes were built at once."""

    def sources(self, tmp_path):
        triples = random_triples(random.Random(7), 12, 3, 40)
        canonical = tmp_path / "canonical.json"
        kg_from(triples).save(canonical)
        payload = json.loads(canonical.read_text(encoding="utf-8"))
        # Out of canonical order: triples shuffled with a repeat, and the
        # same again with both name tables reversed and every id renumbered.
        shuffled = payload["triples"] + payload["triples"][:1]
        random.Random(8).shuffle(shuffled)
        n_ent, n_rel = len(payload["entities"]), len(payload["relations"])
        renamed = {
            "format_version": 1,
            "entities": payload["entities"][::-1],
            "relations": payload["relations"][::-1],
            "triples": [
                [n_ent - 1 - h, n_rel - 1 - r, n_ent - 1 - t] for h, r, t in shuffled
            ],
        }
        (tmp_path / "shuffled.json").write_text(
            json.dumps({**payload, "triples": shuffled}), encoding="utf-8"
        )
        (tmp_path / "renamed.json").write_text(json.dumps(renamed), encoding="utf-8")
        return triples, canonical.read_bytes(), {
            "canonical": lambda: KnowledgeGraph.load(canonical),
            "shuffled": lambda: KnowledgeGraph.load(tmp_path / "shuffled.json"),
            "renamed": lambda: KnowledgeGraph.load(tmp_path / "renamed.json"),
            "from_lines": lambda: kg_from(triples),
        }

    @pytest.mark.parametrize(
        "source", ["canonical", "shuffled", "renamed", "from_lines"]
    )
    def test_answers_and_saves_like_an_eager_graph(self, tmp_path, source):
        triples, canonical, make = self.sources(tmp_path)
        lazy, eager = make[source](), make[source]()
        eager.tails(0, 0)
        assert index_built(eager) and not index_built(lazy)

        before, after = tmp_path / "before.json", tmp_path / "after.json"
        lazy.save(before)
        eager.save(tmp_path / "eager.json")
        assert lazy.num_triples == eager.num_triples
        assert not index_built(lazy)
        assert before.read_bytes() == canonical
        assert (tmp_path / "eager.json").read_bytes() == canonical

        assert every_answer(lazy) == every_answer(eager)
        assert index_built(lazy)
        lazy.save(after)
        assert after.read_bytes() == canonical
        assert_matches_oracle(lazy, set(triples))

    @pytest.mark.parametrize(
        "first_query",
        [
            lambda kg: kg.tails(0, 0),
            lambda kg: kg.heads(0, 0),
            lambda kg: kg.relation_pairs(0),
            lambda kg: kg.out_edges(0),
            lambda kg: kg.max_out_degree(),
        ],
        ids=["tails", "heads", "relation_pairs", "out_edges", "max_out_degree"],
    )
    def test_any_adjacency_query_builds_every_index(self, first_query):
        kg = kg_from(random_triples(random.Random(9), 8, 2, 20))
        assert kg.holds(0, 0, 0) in (True, False) and kg.num_triples
        assert not index_built(kg)
        first_query(kg)
        assert index_built(kg)
        assert KnowledgeGraph._triples.__get__(kg) is None


def store_text(entities=("a", "b"), relations=("r",), triples=((0, 0, 1),)):
    return json.dumps(
        {
            "format_version": 1,
            "entities": list(entities),
            "relations": list(relations),
            "triples": list(triples),
        }
    )


class TestStoreValidation:
    """Malformed stores raise DataError instead of loading or crashing."""

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"format_version": 1, "relations": [], "triples": []}',
            '{"format_version": 1, "entities": [], "relations": []}',
            store_text(triples=[(0, 0, 2)]),
            store_text(triples=[(0, 1, 1)]),
            store_text(triples=[(-1, 0, 0)]),
            store_text(triples=[(0, 0, -1)]),
            store_text(entities=["", "b"]),
            store_text(relations=[""]),
            store_text(triples=[(0.0, 0, 1)]),
            store_text(triples=[("0", 0, 1)]),
            store_text(triples=[(True, 0, 1)]),
            store_text(triples=[(0, 0)]),
            store_text(triples=[0]),
            store_text(entities=["a", 1]),
            store_text(entities=["a", "a"]),
            store_text(relations=["r", "r"]),
            '{"format_version": 1, "entities": "ab", "relations": [], "triples": []}',
        ],
        ids=[
            "top-level-list",
            "no-entities",
            "no-triples",
            "entity-id-out-of-range",
            "relation-id-out-of-range",
            "negative-head-id",
            "negative-tail-id",
            "empty-entity-name",
            "empty-relation-name",
            "float-id",
            "string-id",
            "bool-id",
            "short-triple",
            "triple-not-a-list",
            "non-string-name",
            "duplicate-entity-name",
            "duplicate-relation-name",
            "names-not-a-list",
        ],
    )
    def test_rejected(self, tmp_path, text):
        path = tmp_path / "store.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError):
            KnowledgeGraph.load(path)

    def test_well_formed_control_loads(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(store_text(), encoding="utf-8")
        assert KnowledgeGraph.load(path).num_triples == 1


def assert_matches_oracle(kg, facts):
    """Compare every query with a naive scan of a set of name triples.

    Ids are assigned in sorted name order, so ascending ids must read as
    ascending names.
    """
    ent, rel = kg.entity_name, kg.relation_name
    entities = sorted({h for h, _, _ in facts} | {t for _, _, t in facts})
    relations = sorted({r for _, r, _ in facts})
    assert kg.entity_names() == entities
    assert kg.relation_names() == relations
    assert kg.num_triples == len(facts)
    named = [(ent(t.head), rel(t.relation), ent(t.tail)) for t in all_triples(kg)]
    assert named == sorted(facts)
    for r in relations:
        rid = kg.relation_id(r)
        expected = sorted((h, t) for h, rr, t in facts if rr == r)
        assert [(ent(h), ent(t)) for h, t in kg.relation_pairs(rid)] == expected
    for e in entities:
        eid = kg.entity_id(e)
        out = sorted((r, t) for h, r, t in facts if h == e)
        assert [(rel(r), ent(t)) for r, t in kg.out_edges(eid)] == out
        for r in relations:
            rid = kg.relation_id(r)
            tails = sorted(t for h, rr, t in facts if h == e and rr == r)
            heads = sorted(h for h, rr, t in facts if t == e and rr == r)
            assert [ent(t) for t in kg.tails(eid, rid)] == tails
            assert [ent(h) for h in kg.heads(eid, rid)] == heads
            for other in entities:
                oid = kg.entity_id(other)
                present = (e, r, other) in facts
                assert kg.holds(eid, rid, oid) is present


class TestNaiveOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d", "é", "B", "a b"]),
                st.sampled_from(["p", "q", "r_1"]),
                st.sampled_from(["a", "b", "c", "d", "é", "B", "a b"]),
            ),
            max_size=30,
        )
    )
    def test_queries_match_name_triple_oracle(self, triples):
        facts = set(triples)
        kg = kg_from(triples)
        assert_matches_oracle(kg, facts)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.json"
            kg.save(path)
            assert_matches_oracle(KnowledgeGraph.load(path), facts)
