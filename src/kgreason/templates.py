"""Verbalization templates for facts and questions.

A relation template turns one fact into one sentence via the ``<ENT1>`` and
``<ENT2>`` slots.  A question template has a single ``<ENT>`` slot for the
given entity and asks, in possibility tone, for the entity on the queried
side.  Templates are hand written or loaded from a tab-separated file; a
deterministic fallback is always available so runs never stall on a
missing entry.

Fact sentences must be mechanically invertible: `RelationTemplate.pieces`
splits a template into its literal text and its two slots, and evaluation
matches those pieces around the entity mentions it finds in model outputs.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .artifacts import open_text, read_fields
from .errors import TemplateError
from .kg import KnowledgeGraph, Triple

ENT1 = "<ENT1>"
ENT2 = "<ENT2>"
ENT = "<ENT>"

SIDE_SUBJECT = "subject"
SIDE_OBJECT = "object"

def _phrase(relation: str) -> str:
    return relation.replace("_", " ")


class RelationTemplate(
    NamedTuple("RelationTemplate", [("relation", str), ("pattern", str)])
):
    __slots__ = ()

    def __new__(cls, relation: str, pattern: str):
        for slot in (ENT1, ENT2):
            if pattern.count(slot) != 1:
                raise TemplateError(
                    f"relation template for {relation!r} must contain "
                    f"{slot} exactly once: {pattern!r}"
                )
        return super().__new__(cls, relation, pattern)

    def render(self, subject_name: str, object_name: str) -> str:
        if not subject_name or not object_name:
            raise TemplateError("cannot render a fact with an empty entity name")
        return self.pattern.replace(ENT1, subject_name).replace(ENT2, object_name)

    def possibility_clause(self, subject_name: str, object_name: str) -> str:
        """Hedged variant of the sentence, for conclusions.

        Replacing the first " is " with " may be " keeps the clause from
        matching its relation template, so conclusions are never mistaken
        for stated facts when answers are parsed back.
        """
        sentence = self.render(subject_name, object_name).rstrip(".")
        if " is " in sentence:
            return sentence.replace(" is ", " may be ", 1)
        return (
            f"{object_name} may be the {_phrase(self.relation)} answer "
            f"for {subject_name}"
        )

    def pieces(self) -> list[str]:
        """The sentence as literal, slot, literal, slot, literal.

        The slots are ``ENT1`` and ``ENT2`` in the order the pattern puts
        them; a literal may be empty.  Trailing punctuation is dropped so a
        fact is still found when the sentence continues with a clause
        ("... member B, who ...") instead of a full stop.
        """
        core = self.pattern.rstrip().rstrip(".!?")
        return re.split(f"({re.escape(ENT1)}|{re.escape(ENT2)})", core)

    def to_regex(self, name_alternation: str) -> re.Pattern:
        """Regex recovering both entity mentions from a rendered sentence.

        ``name_alternation`` is a pre-built alternation over every entity
        surface form that may appear.  This is the form of the regex
        reference parser in the tests and the hook the benchmark's tracer
        times; evaluation matches `pieces` around looked-up mentions.
        """
        regex = ""
        for part in self.pieces():
            if part == ENT1:
                regex += f"(?P<e1>{name_alternation})"
            elif part == ENT2:
                regex += f"(?P<e2>{name_alternation})"
            else:
                regex += re.escape(part)
        return re.compile(regex + r"(?!\w)")


class QuestionTemplate(
    NamedTuple(
        "QuestionTemplate",
        [("relation", str), ("queried_side", str), ("pattern", str)],
    )
):
    __slots__ = ()

    def __new__(cls, relation: str, queried_side: str, pattern: str):
        if queried_side not in (SIDE_SUBJECT, SIDE_OBJECT):
            raise TemplateError(
                f"queried side must be subject or object: {queried_side!r}"
            )
        if pattern.count(ENT) != 1:
            raise TemplateError(
                f"question template for {relation!r} must contain {ENT} "
                f"exactly once: {pattern!r}"
            )
        return super().__new__(cls, relation, queried_side, pattern)

    def render(self, given_name: str) -> str:
        if not given_name:
            raise TemplateError("cannot render a question with an empty entity name")
        return self.pattern.replace(ENT, given_name)


# A small hand-written table for relations that commonly occur in general
# knowledge graphs.  Everything else falls back to a generic pattern.
BUILTIN_RELATIONS: dict[str, str] = {
    "citizen_of": f"{ENT1} is a citizen of {ENT2}.",
    "born_in": f"{ENT1} is born in {ENT2}.",
    "city_of": f"{ENT1} is a city of {ENT2}.",
    "capital_of": f"{ENT1} is the capital of {ENT2}.",
    "located_in": f"{ENT1} is located in {ENT2}.",
    "member_of": f"{ENT1} is a member of {ENT2}.",
    "part_of": f"{ENT1} is a part of {ENT2}.",
    "works_for": f"{ENT1} is an employee of {ENT2}.",
    "speaks": f"{ENT1} is a speaker of {ENT2}.",
    "head_coach": f"{ENT1} is the head coach of {ENT2}.",
    "from_country": f"{ENT1} is from the country {ENT2}.",
    "headquartered_in": f"{ENT1} has its headquarters situated in {ENT2}.",
}

BUILTIN_QUESTIONS: dict[tuple[str, str], str] = {
    ("citizen_of", SIDE_OBJECT): f"Which country might {ENT} be a citizen of?",
    ("citizen_of", SIDE_SUBJECT): f"Which person might be a citizen of {ENT}?",
    ("born_in", SIDE_OBJECT): f"Which place might {ENT} be born in?",
    ("capital_of", SIDE_OBJECT): f"Which country might {ENT} be the capital of?",
    ("capital_of", SIDE_SUBJECT): f"Which city might be the capital of {ENT}?",
}


def generic_relation_template(relation: str) -> RelationTemplate:
    return RelationTemplate(
        relation, f"{ENT1} is connected to {ENT2} through {_phrase(relation)}."
    )


def generic_question_template(relation: str, side: str) -> QuestionTemplate:
    phrase = _phrase(relation)
    if side == SIDE_OBJECT:
        pattern = f"Which entity might {ENT} be linked to by {phrase}?"
    else:
        pattern = f"Which entity might be linked to {ENT} by {phrase}?"
    return QuestionTemplate(relation, side, pattern)


class TemplateLibrary:
    """Lookup of relation and question templates with generic fallback."""

    def __init__(
        self,
        relations: Optional[Iterable[RelationTemplate]] = None,
        questions: Optional[Iterable[QuestionTemplate]] = None,
    ):
        self._relations: dict[str, RelationTemplate] = {}
        self._questions: dict[tuple[str, str], QuestionTemplate] = {}
        self._fallbacks: dict[str, RelationTemplate] = {}
        for rt in relations or ():
            self._relations[rt.relation] = rt
        for qt in questions or ():
            self._questions[(qt.relation, qt.queried_side)] = qt

    @classmethod
    def builtin(cls) -> "TemplateLibrary":
        return cls(
            [RelationTemplate(rel, pat) for rel, pat in BUILTIN_RELATIONS.items()],
            [
                QuestionTemplate(rel, side, pat)
                for (rel, side), pat in BUILTIN_QUESTIONS.items()
            ],
        )

    def add_relation(self, template: RelationTemplate) -> None:
        self._relations[template.relation] = template

    def relation(self, relation: str) -> RelationTemplate:
        found = self._relations.get(relation)
        if found is not None:
            return found
        fallback = self._fallbacks.get(relation)
        if fallback is None:
            fallback = self._fallbacks[relation] = generic_relation_template(relation)
        return fallback

    def question(self, relation: str, side: str) -> QuestionTemplate:
        found = self._questions.get((relation, side))
        if found is not None:
            return found
        return generic_question_template(relation, side)

    def render_fact(self, kg: KnowledgeGraph, fact: Triple, name_of) -> str:
        return self.relation(kg.relation_name(fact.relation)).render(
            name_of(fact.head), name_of(fact.tail)
        )

    # ------------------------------------------------------------------
    # persistence: an editable two-column tab-separated relations file

    @classmethod
    def load(cls, relations_path: str | Path) -> "TemplateLibrary":
        lib = cls()
        with open_text(relations_path) as fh:
            for template in read_fields(fh, 2, "relation template", RelationTemplate):
                lib.add_relation(template)
        return lib


def name_alternation(names: Iterable[str]) -> str:
    """Alternation over entity surface forms, longest first, word-bounded."""
    ordered = sorted(set(names), key=lambda s: (-len(s), s))
    if not ordered:
        return r"(?!x)x"  # matches nothing
    joined = "|".join(re.escape(n) for n in ordered)
    return rf"(?<!\w)(?:{joined})(?!\w)"
