"""Question/answer rendering, sample records, and corpus building."""

from __future__ import annotations

import json

import pytest

from conftest import kg_from
from rule_oracles import all_triples
from kgreason.errors import UsageError
from kgreason.generation import (
    CORPUS_VERSIONS,
    QUERY_SKIP,
    ReasoningSample,
    build_corpus,
    chain_answer,
    corpus_from_pool,
    make_samples,
    query_entities,
    read_samples,
    render_question,
    sample_id_for,
    select_query_side,
    validated_polish,
    write_samples,
)
from kgreason.mining import ground_rule
from kgreason.rules import Rule
from kgreason.selection import SETTING_ANONYMIZED, balance_instances
from kgreason.templates import SIDE_OBJECT, SIDE_SUBJECT, TemplateLibrary

CITIZEN_TRIPLES = [
    ("anykid", "part_of", "cckqlvy"),
    ("cckqlvy", "from_country", "vevedgta"),
    ("anykid", "citizen_of", "vevedgta"),
]
CITIZEN_RULE = Rule("citizen_of", ("part_of", "from_country"))


def citizen_instance():
    kg = kg_from(CITIZEN_TRIPLES)
    (inst,) = ground_rule(kg, CITIZEN_RULE)
    return kg, inst


class TestQuerySide:
    def test_both_unique_defaults_to_object(self):
        kg, inst = citizen_instance()
        assert select_query_side(kg, inst) == (
            SIDE_OBJECT
        )

    def test_ambiguous_object_falls_back_to_subject(self):
        kg = kg_from(
            CITIZEN_TRIPLES + [("anykid", "citizen_of", "elsewhere")]
        )
        (inst, _) = sorted(
            ground_rule(kg, CITIZEN_RULE), key=lambda i: i.entities
        ) + [None]
        side = select_query_side(kg, inst)
        assert side == SIDE_SUBJECT

    def test_ambiguous_both_sides_skips(self):
        kg = kg_from(
            CITIZEN_TRIPLES
            + [
                ("anykid", "citizen_of", "elsewhere"),
                ("stranger", "citizen_of", "vevedgta"),
            ]
        )
        matches = [
            i
            for i in ground_rule(kg, CITIZEN_RULE)
            if kg.entity_name(i.entities[0]) == "anykid"
        ]
        inst = matches[0]
        assert select_query_side(kg, inst) == (
            QUERY_SKIP
        )

    def test_query_entities_rejects_skip(self):
        _, inst = citizen_instance()
        with pytest.raises(UsageError):
            query_entities(inst, QUERY_SKIP)


def object_answer(kg, inst, lib, polisher=None):
    """The chain answer asking for the object, polished as make_samples
    polishes it."""
    text = chain_answer(inst.rule, inst.entities, inst.object, lib, kg.entity_name)
    return validated_polish(polisher, text, [kg.entity_name(e) for e in inst.entities])


class TestRendering:
    def test_question_text(self):
        kg, inst = citizen_instance()
        lib = TemplateLibrary.builtin()
        text = render_question(
            inst, lib.question("citizen_of", SIDE_OBJECT), kg.entity_name
        )
        assert text == "Which country might anykid be a citizen of?"

    def test_chain_answer_structure(self):
        kg, inst = citizen_instance()
        lib = TemplateLibrary.builtin()
        answer = object_answer(kg, inst, lib)
        assert answer == (
            "anykid is a part of cckqlvy. "
            "cckqlvy is from the country vevedgta. "
            "Therefore, anykid may be a citizen of vevedgta. "
            "Thus, vevedgta is the answer."
        )

    def test_four_hop_answer_has_four_fact_sentences(self):
        triples = [
            ("a", "r1", "b"), ("b", "r2", "c"), ("c", "r3", "d"),
            ("d", "r4", "e"), ("a", "h", "e"),
        ]
        kg = kg_from(triples)
        (inst,) = ground_rule(kg, Rule("h", ("r1", "r2", "r3", "r4")))
        answer = object_answer(kg, inst, TemplateLibrary.builtin())
        chain, _, tail = answer.partition(" Therefore, ")
        assert chain.count(".") == 4
        assert tail.endswith("Thus, e is the answer.")

    def test_polisher_applied_when_names_survive(self):
        kg, inst = citizen_instance()
        lib = TemplateLibrary.builtin()

        def shouty(instruction, text):
            return text.replace("is a part of", "belongs to")

        answer = object_answer(kg, inst, lib, polisher=shouty)
        assert "anykid belongs to cckqlvy" in answer

    def test_polisher_dropping_entity_falls_back(self):
        kg, inst = citizen_instance()
        lib = TemplateLibrary.builtin()
        answer = object_answer(kg, inst, lib, polisher=lambda i, t: "gone.")
        assert "Thus, vevedgta is the answer." in answer

    def test_validated_polish_direct(self):
        ok = validated_polish(lambda i, t: t + " indeed", "keep ann here", ["ann"])
        assert ok == "keep ann here indeed"
        # Mention check is case-sensitive: rewriting the name means fallback.
        fallback = validated_polish(lambda i, t: t.upper(), "keep ann here", ["ann"])
        assert fallback == "keep ann here"
        assert validated_polish(None, "keep ann here", ["ann"]) == "keep ann here"


class TestSamples:
    def pool(self):
        kg = kg_from(CITIZEN_TRIPLES)
        per_rule = {
            CITIZEN_RULE.rule_id: list(ground_rule(kg, CITIZEN_RULE))
        }
        return kg, balance_instances(per_rule, 1, 0, SETTING_ANONYMIZED)

    def test_sample_id_frozen(self):
        assert sample_id_for(
            "anonymized", "rh(X,Y)<-r1(X,Z1)&r2(Z1,Y)", ("A", "B", "C"), "object"
        ) == "77e7a0a88d09"

    def test_make_samples_fields(self):
        kg, pool = self.pool()
        samples, info = make_samples(kg, pool, TemplateLibrary.builtin())
        assert info == {"samples": 1, "skipped_ambiguous": 0}
        (sample,) = samples
        assert sample.hop == 2
        assert sample.rule_id == CITIZEN_RULE.rule_id
        assert sample.golden_entity == "vevedgta"
        assert sample.golden_entity in sample.answer
        assert sample.setting == SETTING_ANONYMIZED

    def test_ambiguous_instances_counted(self):
        kg = kg_from(
            CITIZEN_TRIPLES
            + [
                ("anykid", "citizen_of", "elsewhere"),
                ("stranger", "citizen_of", "vevedgta"),
            ]
        )
        insts = [
            i
            for i in ground_rule(kg, CITIZEN_RULE)
            if kg.entity_name(i.entities[0]) == "anykid"
        ]
        pool = balance_instances(
            {CITIZEN_RULE.rule_id: insts[:1]}, 1, 0, SETTING_ANONYMIZED
        )
        samples, info = make_samples(kg, pool, TemplateLibrary.builtin())
        assert samples == []
        assert info["skipped_ambiguous"] == 1

    def test_record_round_trip(self, tmp_path):
        kg, pool = self.pool()
        samples, _ = make_samples(kg, pool, TemplateLibrary.builtin())
        path = tmp_path / "samples.jsonl"
        assert write_samples(path, samples) == 1
        assert read_samples(path) == samples

    def test_record_shape(self):
        sample = ReasoningSample("id1", "regular", 2, "r", "q?", "a.", "g", None)
        record = sample.to_record()
        assert record == {
            "id": "id1", "setting": "regular", "hop": 2, "rule": "r",
            "question": "q?", "answer": "a.", "golden": "g",
        }
        assert ReasoningSample.from_record(record) == sample


class TestCorpus:
    def corpus_kg(self, n_facts):
        triples = [("hub", f"r{i%3}", f"spoke{i}") for i in range(n_facts)]
        return kg_from(triples)

    def docs_for(self, n_facts, seed=0):
        kg = self.corpus_kg(n_facts)
        hub = kg.entity_id("hub")
        return kg, build_corpus(
            kg, hub, all_triples(kg), TemplateLibrary.builtin(),
            kg.entity_name, seed,
        )

    def test_23_facts_make_12_docs(self):
        _, docs = self.docs_for(23)
        assert len(docs) == 12
        assert {d.chunk for d in docs} == {0, 1, 2}
        assert {d.version for d in docs} == {1, 2, 3, 4}

    def test_single_fact_makes_4_docs(self):
        _, docs = self.docs_for(1)
        assert len(docs) == CORPUS_VERSIONS

    def test_doc_text_mentions_all_fact_entities(self):
        kg, docs = self.docs_for(15)
        for doc in docs:
            assert doc.entity in doc.text or any(
                doc.entity in str(f) for f in doc.source_facts
            )
            for h, r, t in doc.source_facts:
                assert h in doc.text
                assert t in doc.text

    def test_versions_are_order_permutations(self):
        _, docs = self.docs_for(10)
        texts = {d.version: d.text for d in docs if d.chunk == 0}
        sentence_sets = {
            v: sorted(t.rstrip(".").split(". ")) for v, t in texts.items()
        }
        assert len({tuple(s) for s in sentence_sets.values()}) == 1
        assert len(set(texts.values())) > 1

    def test_deterministic_per_seed(self):
        _, d1 = self.docs_for(10, seed=4)
        _, d2 = self.docs_for(10, seed=4)
        assert [d.to_record() for d in d1] == [d.to_record() for d in d2]

    def test_pool_corpus_covers_body_facts_only(self):
        kg = kg_from(CITIZEN_TRIPLES)
        per_rule = {CITIZEN_RULE.rule_id: list(ground_rule(kg, CITIZEN_RULE))}
        pool = balance_instances(per_rule, 1, 0, SETTING_ANONYMIZED)
        docs = corpus_from_pool(kg, pool, TemplateLibrary.builtin(), 0)
        rendered = " ".join(d.text for d in docs)
        assert "a part of" in rendered
        assert "from the country" in rendered
        # The head fact would give the answer away, so it never appears.
        assert "citizen of" not in rendered

    def test_corpus_docs_serializable(self):
        _, docs = self.docs_for(3)
        for doc in docs:
            json.dumps(doc.to_record())
