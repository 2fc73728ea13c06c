"""Question, answer, and corpus generation from selected rule instances.

Questions are asked in possibility tone about whichever side of the head
fact has a unique answer in the graph.  Answers narrate the body facts in
chain order, hedge the conclusion, and end with a fixed terminal sentence
naming the golden entity, which downstream evaluation parses back out.
Every entity mention uses the pool's display name, so anonymized pools
render with synthetic names throughout.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .artifacts import read_records, write_records
from .errors import TemplateError, UsageError
from .kg import KnowledgeGraph, Triple
from .rules import Rule, RuleInstance
from .seeding import derive_seed
from .selection import SelectionPool
from .templates import (
    SIDE_OBJECT,
    SIDE_SUBJECT,
    QuestionTemplate,
    TemplateLibrary,
)

QUERY_SKIP = "skip"

CORPUS_VERSIONS = 4
CORPUS_CHUNK_SIZE = 10

POLISH_INSTRUCTION = (
    "Rewrite the following text so it reads naturally. Keep every stated "
    "piece of information and do not alter what it says."
)

CONCLUSION_PREFIX = "Therefore, "
ANSWER_SENTENCE = "Thus, {name} is the answer."


def select_query_side(kg: KnowledgeGraph, instance: RuleInstance) -> str:
    """Decide which side of the instance's head fact to ask about.

    Ask for the object when the subject has exactly one object under the
    head relation; otherwise ask for the subject when it is the unique
    subject for that object; otherwise the instance is unusable for an
    unambiguous question and the result is ``skip``.
    """
    rid = kg.relation_id(instance.rule.head_relation)
    if len(kg.tails(instance.subject, rid)) == 1:
        return SIDE_OBJECT
    if len(kg.heads(instance.object, rid)) == 1:
        return SIDE_SUBJECT
    return QUERY_SKIP


def query_entities(instance: RuleInstance, side: str) -> tuple[int, int]:
    """(given entity, asked entity) ids for a chosen query side."""
    if side == SIDE_OBJECT:
        return instance.subject, instance.object
    if side == SIDE_SUBJECT:
        return instance.object, instance.subject
    raise UsageError(f"not a queryable side: {side!r}")


def render_question(
    instance: RuleInstance,
    template: QuestionTemplate,
    name_of: Callable[[int], str],
) -> str:
    """Fill the question template with the given entity's display name."""
    if template.relation != instance.rule.head_relation:
        raise TemplateError(
            f"question template is for {template.relation!r}, instance head "
            f"is {instance.rule.head_relation!r}"
        )
    given, _ = query_entities(instance, template.queried_side)
    return template.render(name_of(given))


def chain_answer(
    rule: Rule,
    entities: Sequence[int],
    answer: int,
    library: TemplateLibrary,
    name_of: Callable[[int], str],
) -> str:
    """Body facts in chain order, hedged conclusion, terminal answer."""
    names = [name_of(e) for e in entities]
    sentences = [
        library.relation(rel).render(names[i], names[i + 1])
        for i, rel in enumerate(rule.body_relations)
    ]
    clause = library.relation(rule.head_relation).possibility_clause(
        names[0], names[-1]
    )
    terminal = ANSWER_SENTENCE.format(name=name_of(answer))
    sentences.append(f"{CONCLUSION_PREFIX}{clause}. {terminal}")
    return " ".join(sentences)


def validated_polish(polisher, text: str, required_names: Iterable[str]) -> str:
    """Run the polisher but fall back when any entity mention is lost."""
    if polisher is None:
        return text
    polished = polisher(POLISH_INSTRUCTION, text)
    missing = [name for name in required_names if name not in polished]
    if missing:
        # Imported here, so that a stage that never logs does not load it.
        import logging

        logging.getLogger(__name__).warning(
            "polished text dropped entity mentions %s; keeping original", missing
        )
        return text
    return polished


# ----------------------------------------------------------------------
# samples

class ReasoningSample(NamedTuple):
    """One question/answer pair, optionally carrying an exploration trace.

    ``trace`` is kept in its serialized record form so sample files round
    trip without the agent machinery.
    """

    sample_id: str
    setting: str
    hop: int
    rule_id: str
    question: str
    answer: str
    golden_entity: str
    trace: Optional[dict] = None

    def to_record(self) -> dict:
        record = {
            "id": self.sample_id,
            "setting": self.setting,
            "hop": self.hop,
            "rule": self.rule_id,
            "question": self.question,
            "answer": self.answer,
            "golden": self.golden_entity,
        }
        if self.trace is not None:
            record["trace"] = self.trace
        return record

    @classmethod
    def from_record(cls, record: dict) -> "ReasoningSample":
        return cls(
            sample_id=record["id"],
            setting=record["setting"],
            hop=int(record["hop"]),
            rule_id=record["rule"],
            question=record["question"],
            answer=record["answer"],
            golden_entity=record["golden"],
            trace=record.get("trace"),
        )


def sample_id_for(setting: str, rule_id: str, entity_names: Iterable[str], side: str) -> str:
    key = "|".join([setting, rule_id, side, *entity_names])
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:12]


def pool_sample(
    kg: KnowledgeGraph,
    pool: SelectionPool,
    instance: RuleInstance,
    side: str,
    answer: str,
    library: TemplateLibrary,
    name_of: Callable[[int], str],
    trace: Optional[dict] = None,
) -> ReasoningSample:
    """The sample that asks a pool instance about ``side`` of its head fact.

    A sample with a trace is a trial: its id is drawn under the setting
    ``<setting>-trial``, so it never collides with the plain sample of the
    same instance.
    """
    rule = instance.rule
    id_setting = pool.setting if trace is None else f"{pool.setting}-trial"
    names = [kg.entity_name(e) for e in instance.entities]
    _, asked = query_entities(instance, side)
    return ReasoningSample(
        sample_id=sample_id_for(id_setting, rule.rule_id, names, side),
        setting=pool.setting,
        hop=rule.hop,
        rule_id=rule.rule_id,
        question=render_question(
            instance, library.question(rule.head_relation, side), name_of
        ),
        answer=answer,
        golden_entity=name_of(asked),
        trace=trace,
    )


def make_samples(
    kg: KnowledgeGraph,
    pool: SelectionPool,
    library: TemplateLibrary,
    polisher=None,
) -> tuple[list[ReasoningSample], dict[str, int]]:
    """Plain chain samples for every unambiguously queryable pool instance.

    Returns the samples in canonical id order plus counters for skipped
    instances.
    """
    samples: list[ReasoningSample] = []
    skipped = 0
    name_of = lambda e: pool.display_name(kg, e)  # noqa: E731
    for inst in pool.instances():
        side = select_query_side(kg, inst)
        if side == QUERY_SKIP:
            skipped += 1
            continue
        _, asked = query_entities(inst, side)
        text = chain_answer(inst.rule, inst.entities, asked, library, name_of)
        text = validated_polish(polisher, text, [name_of(e) for e in inst.entities])
        samples.append(pool_sample(kg, pool, inst, side, text, library, name_of))
    samples.sort(key=lambda s: s.sample_id)
    return samples, {"samples": len(samples), "skipped_ambiguous": skipped}


def write_samples(path: str | Path, samples: Iterable[ReasoningSample]) -> int:
    return write_records(path, (sample.to_record() for sample in samples))


def read_samples(path: str | Path) -> list[ReasoningSample]:
    return read_records(path, "sample", ReasoningSample.from_record)


# ----------------------------------------------------------------------
# corpus

class CorpusDoc(NamedTuple):
    entity: str
    chunk: int
    version: int
    text: str
    source_facts: tuple[tuple[str, str, str], ...]

    def to_record(self) -> dict:
        return {
            "entity": self.entity,
            "chunk": self.chunk,
            "version": self.version,
            "text": self.text,
            "facts": [list(f) for f in self.source_facts],
        }


def build_corpus(
    kg: KnowledgeGraph,
    entity: int,
    entity_facts: list[Triple],
    library: TemplateLibrary,
    name_of: Callable[[int], str],
    seed: int,
    polisher=None,
) -> list[CorpusDoc]:
    """Entity-centric documents: facts chunked by ten, four seeded
    sentence-order versions per chunk."""
    display = name_of(entity)
    docs: list[CorpusDoc] = []
    ordered = sorted(entity_facts)
    for chunk_idx in range(0, max(1, len(ordered)), CORPUS_CHUNK_SIZE):
        chunk = ordered[chunk_idx : chunk_idx + CORPUS_CHUNK_SIZE]
        if not chunk:
            break
        sentences = [library.render_fact(kg, f, name_of) for f in chunk]
        names = sorted(
            {name_of(f.head) for f in chunk} | {name_of(f.tail) for f in chunk}
        )
        for version in range(1, CORPUS_VERSIONS + 1):
            order = list(range(len(sentences)))
            random.Random(
                derive_seed(seed, "corpus", display, str(chunk_idx), str(version))
            ).shuffle(order)
            text = " ".join(sentences[i] for i in order)
            text = validated_polish(polisher, text, names)
            docs.append(
                CorpusDoc(
                    entity=display,
                    chunk=chunk_idx // CORPUS_CHUNK_SIZE,
                    version=version,
                    text=text,
                    source_facts=tuple(
                        (kg.entity_name(h), kg.relation_name(r), kg.entity_name(t))
                        for h, r, t in chunk
                    ),
                )
            )
    return docs


def corpus_from_pool(
    kg: KnowledgeGraph,
    pool: SelectionPool,
    library: TemplateLibrary,
    seed: int,
    polisher=None,
) -> list[CorpusDoc]:
    """Documents covering the pooled body facts, grouped per entity.

    Head facts are deliberately not included: the corpus injects the
    prerequisite knowledge, never the answers themselves.
    """
    facts = sorted(pool.body_fact_union())
    by_entity: dict[int, list[Triple]] = {}
    for fact in facts:
        by_entity.setdefault(fact.head, []).append(fact)
        if fact.tail != fact.head:
            by_entity.setdefault(fact.tail, []).append(fact)
    name_of = lambda e: pool.display_name(kg, e)  # noqa: E731
    docs: list[CorpusDoc] = []
    for eid in sorted(by_entity):
        docs.extend(
            build_corpus(kg, eid, by_entity[eid], library, name_of, seed, polisher)
        )
    return docs


def write_corpus(path: str | Path, docs: Iterable[CorpusDoc]) -> int:
    return write_records(path, (doc.to_record() for doc in docs))
