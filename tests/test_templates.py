"""Relation/question templates, fallbacks, files, and fact regexes."""

from __future__ import annotations

import pytest

from conftest import kg_from
from rule_oracles import all_triples
from kgreason.errors import DataError, TemplateError
from kgreason.templates import (
    SIDE_OBJECT,
    SIDE_SUBJECT,
    QuestionTemplate,
    RelationTemplate,
    TemplateLibrary,
    generic_question_template,
    name_alternation,
)


class TestRelationTemplate:
    def test_render(self):
        t = RelationTemplate("citizen_of", "<ENT1> is a citizen of <ENT2>.")
        assert t.render("Anykid", "Vevedgta") == "Anykid is a citizen of Vevedgta."

    def test_slots_required_exactly_once(self):
        with pytest.raises(TemplateError):
            RelationTemplate("r", "<ENT1> only")
        with pytest.raises(TemplateError):
            RelationTemplate("r", "<ENT1> and <ENT2> and <ENT2>")

    def test_empty_name_rejected(self):
        t = RelationTemplate("r", "<ENT1> to <ENT2>.")
        with pytest.raises(TemplateError):
            t.render("", "b")

    def test_possibility_clause_softens_is(self):
        t = RelationTemplate("citizen_of", "<ENT1> is a citizen of <ENT2>.")
        assert (
            t.possibility_clause("A", "B") == "A may be a citizen of B"
        )

    def test_regex_round_trip(self):
        t = RelationTemplate("citizen_of", "<ENT1> is a citizen of <ENT2>.")
        rx = t.to_regex(name_alternation(["Anykid", "Vevedgta"]))
        m = rx.search("Anykid is a citizen of Vevedgta.")
        assert m and m.group("e1") == "Anykid" and m.group("e2") == "Vevedgta"

    def test_regex_ignores_possibility_clause(self):
        t = RelationTemplate("citizen_of", "<ENT1> is a citizen of <ENT2>.")
        rx = t.to_regex(name_alternation(["A", "B"]))
        assert rx.search("A may be a citizen of B.") is None

    def test_regex_matches_mid_sentence(self):
        t = RelationTemplate("cast_member", "<ENT1> has cast member <ENT2>.")
        rx = t.to_regex(name_alternation(["Arstkb", "Qoztebgc"]))
        m = rx.search("Arstkb has cast member Qoztebgc, who speaks it.")
        assert m and m.group("e2") == "Qoztebgc"

    def test_regex_requires_word_boundary_after_phrase_tail(self):
        t = RelationTemplate("r1", "<ENT1> linked via r1 to <ENT2>.")
        # No trailing-slot template whose literal tail could swallow a
        # longer token: build one ending in the phrase itself.
        t2 = RelationTemplate("r1", "<ENT1> and <ENT2> share r1.")
        rx = t2.to_regex(name_alternation(["A", "B"]))
        assert rx.search("A and B share r1.")
        assert rx.search("A and B share r12.") is None


class TestQuestionTemplate:
    def test_render_known_example(self):
        t = QuestionTemplate(
            "citizen_of", SIDE_OBJECT, "Which country might <ENT> be a citizen of?"
        )
        assert t.render("Anykid") == "Which country might Anykid be a citizen of?"

    def test_slot_validation(self):
        with pytest.raises(TemplateError):
            QuestionTemplate("r", SIDE_OBJECT, "no slot here?")

    def test_side_validation(self):
        with pytest.raises(TemplateError):
            QuestionTemplate("r", "middle", "about <ENT>?")


class TestLibrary:
    def test_builtin_lookup(self):
        lib = TemplateLibrary.builtin()
        assert lib.relation("citizen_of").pattern == "<ENT1> is a citizen of <ENT2>."
        q = lib.question("citizen_of", SIDE_OBJECT)
        assert q.render("Anykid") == "Which country might Anykid be a citizen of?"

    def test_generic_fallback(self):
        lib = TemplateLibrary.builtin()
        t = lib.relation("plays_chess_with")
        assert t.render("A", "B") == (
            "A is connected to B through plays chess with."
        )
        q = lib.question("plays_chess_with", SIDE_SUBJECT)
        assert "might be linked to A" in q.render("A")

    def test_fallback_is_built_once_per_relation(self):
        lib = TemplateLibrary.builtin()
        first = lib.relation("plays_chess_with")
        assert lib.relation("plays_chess_with") is first
        assert lib.relation("plays_go_with") is not first

    def test_added_template_wins_over_cached_fallback(self):
        lib = TemplateLibrary.builtin()
        lib.relation("plays_chess_with")
        lib.add_relation(
            RelationTemplate("plays_chess_with", "<ENT1> plays chess with <ENT2>.")
        )
        assert lib.relation("plays_chess_with").render("A", "B") == (
            "A plays chess with B."
        )

    def test_render_fact(self):
        kg = kg_from([("alice", "citizen_of", "france")])
        lib = TemplateLibrary.builtin()
        (fact,) = all_triples(kg)
        assert lib.render_fact(kg, fact, kg.entity_name) == (
            "alice is a citizen of france."
        )

    def test_save_load_round_trip(self, tmp_path):
        rels = tmp_path / "rels.tsv"
        rels.write_text(
            "speaks\t<ENT1> speaks <ENT2>.\n\nborn_in\t<ENT1> was born in <ENT2>.\n",
            encoding="utf-8",
        )
        loaded = TemplateLibrary.load(rels)
        assert loaded.relation("speaks").pattern == "<ENT1> speaks <ENT2>."
        assert loaded.relation("born_in").pattern == "<ENT1> was born in <ENT2>."
        assert loaded.question("citizen_of", SIDE_OBJECT) == (
            generic_question_template("citizen_of", SIDE_OBJECT)
        )

    def test_load_rejects_bad_field_count(self, tmp_path):
        bad = tmp_path / "rels.tsv"
        bad.write_text("only_one_field\n")
        with pytest.raises(DataError):
            TemplateLibrary.load(bad)


class TestPieces:
    def test_literals_and_slots_in_pattern_order(self):
        t = RelationTemplate("r", "In fact, <ENT2> is led by <ENT1> today.")
        assert t.pieces() == ["In fact, ", "<ENT2>", " is led by ", "<ENT1>", " today"]

    def test_trailing_punctuation_dropped(self):
        t = RelationTemplate("r", "<ENT1> is a citizen of <ENT2>. ")
        assert t.pieces() == ["", "<ENT1>", " is a citizen of ", "<ENT2>", ""]


class TestNameAlternation:
    def test_longest_first(self):
        rx = name_alternation(["New York", "New York City"])
        import re

        m = re.search(rx, "in New York City today")
        assert m.group(0) == "New York City"

    def test_word_bounded(self):
        import re

        rx = name_alternation(["Ann"])
        assert re.search(rx, "Anna went home") is None
        assert re.search(rx, "Ann went home")

    def test_empty_matches_nothing(self):
        import re

        assert re.search(name_alternation([]), "anything at all") is None
