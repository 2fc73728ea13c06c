"""Trial-and-error exploration over a candidate rule library.

Given a question (head relation plus the known entity), the agent tries
candidate rules in order.  For each rule it grounds the body chain from the
known end, committing to the canonically first full grounding.  When no
grounding exists, the attempt is recorded as a missing-fact error at the
point where the canonical greedy walk stalled, and the next candidate is
tried. The trial cap guarantees termination even against an oracle that
answers nothing.

Successful traces render to reasoning text in the same shape as plain
chain answers; traces with errors additionally narrate the abandoned paths
("... this path is not applicable. Let's consider a different path ...")
so rendered length grows with the number of errors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .client import VERDICT_KNOWN
from .errors import UsageError
from .generation import (
    ReasoningSample,
    chain_answer,
    pool_sample,
    query_entities,
    select_query_side,
    validated_polish,
    QUERY_SKIP,
)
from .kg import KnowledgeGraph, Triple
from .mining import walk_chain
from .rules import Rule, RuleInstance, RuleStats
from .selection import SelectionPool, extend_name_map
from .templates import SIDE_OBJECT, SIDE_SUBJECT, TemplateLibrary

OUTCOME_SUCCESS = "success"
OUTCOME_EXHAUSTED = "exhausted"


# ----------------------------------------------------------------------
# the fact oracle

class KgFactOracle:
    """The facts the explore search may walk: the graph's, or with a
    ``probe`` only those it marks ``known``.

    ``undecided`` is treated as not known, and a verdict is asked each time
    a fact is walked; the probe of a model client is
    ``selection.probe_from_client``, whose client keeps the verdicts.
    Neighbor queries take only relation ids from ``relation_id``.  Without a
    probe they return the graph's own lists, which callers must not mutate.
    """

    def __init__(
        self, kg: KnowledgeGraph, probe: Optional[Callable[[Triple], str]] = None
    ):
        self.kg = kg
        self._probe = probe

    def relation_id(self, name: str) -> Optional[int]:
        return self.kg.relation_id(name) if self.kg.has_relation(name) else None

    def successors(self, eid: int, rid: Optional[int]) -> Sequence[int]:
        if rid is None:
            return []
        tails = self.kg.tails(eid, rid)
        if self._probe is None:
            return tails
        return [t for t in tails if self._probe(Triple(eid, rid, t)) == VERDICT_KNOWN]

    def predecessors(self, eid: int, rid: Optional[int]) -> Sequence[int]:
        if rid is None:
            return []
        heads = self.kg.heads(eid, rid)
        if self._probe is None:
            return heads
        return [h for h in heads if self._probe(Triple(h, rid, eid)) == VERDICT_KNOWN]


# ----------------------------------------------------------------------
# trace structure

class MissingFact(NamedTuple):
    """One abandoned attempt: the chain could not be grounded.

    ``grounded`` is the contiguous entity chain established before the
    stall: it starts at X when walking forward, or ends at Y when walking
    backward.  ``atom_index`` is the 0-based body atom that failed.
    """

    rule: Rule
    atom_index: int
    grounded: tuple[int, ...]

    def missing_fact(self, known_side: str) -> tuple[Optional[int], str, Optional[int]]:
        relation = self.rule.body_relations[self.atom_index]
        if known_side == SIDE_SUBJECT:
            return self.grounded[-1], relation, None
        return None, relation, self.grounded[0]


class Conclude(NamedTuple):
    rule: Rule
    entities: tuple[int, ...]
    answer: int


class ExplorationTrace(NamedTuple):
    """Ordered record of one exploration run.

    ``known_side`` names the chain end that was given: ``subject`` walks
    forward from X toward Y, ``object`` backward from Y toward X.  Each
    trial is one step: a ``MissingFact`` for each abandoned rule, then a
    ``Conclude`` when a rule grounds.
    """

    head_relation: str
    known: int
    known_side: str
    steps: tuple
    outcome: str

    @property
    def trials(self) -> int:
        return len(self.steps)

    @property
    def error_count(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, MissingFact))

    @property
    def conclusion(self) -> Optional[Conclude]:
        if self.steps and isinstance(self.steps[-1], Conclude):
            return self.steps[-1]
        return None

    def entity_ids(self) -> set[int]:
        """Every entity the trace mentions when rendered or serialized."""
        seen = {self.known}
        for step in self.steps:
            if isinstance(step, MissingFact):
                seen.update(step.grounded)
            elif isinstance(step, Conclude):
                seen.update(step.entities)
        return seen

    def to_record(self, name_of: Callable[[int], str]) -> dict:
        steps = []
        for step in self.steps:
            steps.append({"type": "try_rule", "rule": step.rule.rule_id})
            if isinstance(step, MissingFact):
                subject, relation, obj = step.missing_fact(self.known_side)
                prefix = _grounded_facts(step.rule, step.grounded, self.known_side)
                steps.append(
                    {
                        "type": "missing_fact",
                        "rule": step.rule.rule_id,
                        "atom_index": step.atom_index,
                        "fact": [
                            name_of(subject) if subject is not None else None,
                            relation,
                            name_of(obj) if obj is not None else None,
                        ],
                        "prefix": [
                            [name_of(a), rel, name_of(b)] for a, rel, b in prefix
                        ],
                    }
                )
            else:
                steps.append(
                    {
                        "type": "conclude",
                        "rule": step.rule.rule_id,
                        "entities": [name_of(e) for e in step.entities],
                        "answer": name_of(step.answer),
                    }
                )
        return {"steps": steps, "outcome": self.outcome}


def _grounded_facts(
    rule: Rule, grounded: tuple[int, ...], known_side: str
) -> list[tuple[int, str, int]]:
    """(subject, relation, object) chain facts established before a stall."""
    k = len(grounded) - 1
    if known_side == SIDE_SUBJECT:
        rels = rule.body_relations[:k]
    else:
        rels = rule.body_relations[rule.hop - k :]
    return [(grounded[i], rel, grounded[i + 1]) for i, rel in enumerate(rels)]


# ----------------------------------------------------------------------
# candidate ordering and the exploration loop

def order_candidates(library: Iterable[RuleStats], head_relation: str) -> list[Rule]:
    """Candidates for a head relation: most confident first, then fewest
    hops, then canonical encoding."""

    def key(st: RuleStats) -> tuple:
        conf = st.confidence if st.confidence is not None else Fraction(-1)
        return (-conf, st.rule.hop, st.rule.rule_id)

    matching = [st for st in library if st.rule.head_relation == head_relation]
    matching.sort(key=key)
    return [st.rule for st in matching]


def _ground_chain(rule: Rule, known: int, known_side: str, oracle):
    """Find the canonically first full grounding of the body chain.

    Returns (entities tuple, None) on success or (None, MissingFact) when
    no grounding exists.  The recorded stall is the deepest point reached on
    the canonical-first path, so the cited missing fact is genuinely
    unprovable from its grounded prefix.
    """
    rel_ids = [oracle.relation_id(name) for name in rule.body_relations]
    # Walk from the known entity: forward along the body, or backward from
    # its last atom; a walked path reversed is a backward chain.
    forward = known_side == SIDE_SUBJECT
    step = oracle.successors if forward else oracle.predecessors
    deepest = [(known,)]
    walks = walk_chain(step, rel_ids if forward else rel_ids[::-1], (known,), deepest)
    path = next(walks, None)
    if path is not None:
        return (path if forward else path[::-1]), None
    stall = deepest[0]
    depth = len(stall) - 1
    return None, MissingFact(
        rule=rule,
        atom_index=depth if forward else rule.hop - 1 - depth,
        grounded=stall if forward else stall[::-1],
    )


def explore(
    head_relation: str,
    known: int,
    known_side: str,
    candidates: Sequence[Rule],
    oracle,
    max_trials: Optional[int] = None,
    ensure_error: bool = False,
) -> ExplorationTrace:
    """Try candidate rules in order until one concludes or trials run out.

    With ``ensure_error`` the trace is shaped for training data: when some
    candidates ground and some do not, the first that does not is tried
    first and then only those that do, so the trace shows an error followed
    by a successful switch.  Each candidate is grounded at most once, and
    the trial cap applies after that reordering.
    """
    if known_side not in (SIDE_SUBJECT, SIDE_OBJECT):
        raise UsageError(f"known side must be subject or object: {known_side!r}")
    for rule in candidates:
        if rule.head_relation != head_relation:
            raise UsageError(
                f"candidate {rule.rule_id} does not answer {head_relation!r}"
            )
    if max_trials is not None and max_trials < 0:
        raise UsageError(f"max trials must be >= 0, got {max_trials}")
    # (rule, solution, failure) per candidate, grounded when first needed.
    attempts: Iterable = (
        (rule, *_ground_chain(rule, known, known_side, oracle)) for rule in candidates
    )
    if ensure_error:
        attempts = list(attempts)
        failed = [a for a in attempts if a[1] is None]
        grounded = [a for a in attempts if a[1] is not None]
        if failed and grounded:
            attempts = [failed[0], *grounded]
    steps: list = []
    for rule, solution, failure in islice(attempts, max_trials):
        if solution is None:
            steps.append(failure)
            continue
        answer = solution[-1] if known_side == SIDE_SUBJECT else solution[0]
        steps.append(Conclude(rule=rule, entities=solution, answer=answer))
        return ExplorationTrace(
            head_relation, known, known_side, tuple(steps), OUTCOME_SUCCESS
        )
    return ExplorationTrace(
        head_relation, known, known_side, tuple(steps), OUTCOME_EXHAUSTED
    )


# ----------------------------------------------------------------------
# rendering

TRY_FIRST = "To find the answer, we can follow the reasoning path: {formula}."
TRY_NEXT = "Let's consider a different path: {formula}."
NOT_APPLICABLE = "since we are unsure of {what}, this path is not applicable."


def _missing_phrase(
    step: MissingFact, known_side: str, name_of: Callable[[int], str]
) -> str:
    subject, relation, obj = step.missing_fact(known_side)
    phrase = relation.replace("_", " ")
    if subject is not None:
        return f"{name_of(subject)}'s {phrase}"
    return f"which entity is linked to {name_of(obj)} by {phrase}"


def render_trace(
    trace: ExplorationTrace,
    library: TemplateLibrary,
    name_of: Callable[[int], str],
) -> str:
    """Reasoning text for a successful trace.

    A trace with no errors renders exactly like the plain chain answer for
    its concluding rule.  Traces with errors narrate each abandoned path
    before the successful one.
    """
    if trace.outcome != OUTCOME_SUCCESS:
        raise UsageError("only successful traces can be rendered")
    conclude = trace.conclusion
    answer = chain_answer(
        conclude.rule, conclude.entities, conclude.answer, library, name_of
    )
    if trace.error_count == 0:
        return answer

    parts: list[str] = []
    for i, step in enumerate(trace.steps):
        tpl = TRY_NEXT if i else TRY_FIRST
        parts.append(tpl.format(formula=step.rule.formula()))
        if isinstance(step, MissingFact):
            phrase = NOT_APPLICABLE.format(
                what=_missing_phrase(step, trace.known_side, name_of)
            )
            grounded = _grounded_facts(step.rule, step.grounded, trace.known_side)
            if grounded:
                sentences = [
                    library.relation(rel).render(name_of(a), name_of(b))
                    for a, rel, b in grounded
                ]
                lead = " ".join(sentences).rstrip(".")
                parts.append(f"{lead}, but {phrase}")
            else:
                parts.append(phrase[0].upper() + phrase[1:])
    parts.append(answer)
    return " ".join(parts)


# ----------------------------------------------------------------------
# trial-and-error samples over a pool

def explore_samples(
    kg: KnowledgeGraph,
    pool: SelectionPool,
    library: TemplateLibrary,
    rule_library: Sequence[RuleStats],
    oracle,
    max_trials: Optional[int] = None,
    ensure_error: bool = True,
    polisher=None,
) -> tuple[list[ReasoningSample], dict[str, int], dict[int, str]]:
    """Run the agent over every queryable pool instance.

    Each sample keeps the instance's golden entity as reference answer and
    embeds the serialized trace.  Instances whose exploration exhausts are
    skipped and counted.

    Exploration can wander through entities the selection pool never
    touched.  When the pool carries a synthetic-name map, those entities
    get freshly minted names before rendering; the third return value is
    the map grown by them, for callers to persist in place of the pool's.
    """
    skipped_ambiguous = 0
    skipped_exhausted = 0
    error_traces = 0
    by_head: dict[str, list[Rule]] = {}
    explored: list[tuple[RuleInstance, str, int, ExplorationTrace]] = []
    for inst in pool.instances():
        side = select_query_side(kg, inst)
        if side == QUERY_SKIP:
            skipped_ambiguous += 1
            continue
        head_rel = inst.rule.head_relation
        candidates = by_head.get(head_rel)
        if candidates is None:
            candidates = order_candidates(rule_library, head_rel)
            by_head[head_rel] = candidates
        known, asked = query_entities(inst, side)
        known_side = SIDE_SUBJECT if side == SIDE_OBJECT else SIDE_OBJECT
        trace = explore(
            head_rel, known, known_side, candidates, oracle, max_trials, ensure_error
        )
        if trace.outcome != OUTCOME_SUCCESS:
            skipped_exhausted += 1
            continue
        if trace.error_count > 0:
            error_traces += 1
        explored.append((inst, side, asked, trace))

    named = len(pool.name_map)
    if pool.name_map:
        mentioned: set[int] = set()
        for _inst, _side, asked, trace in explored:
            mentioned.add(asked)
            mentioned.update(trace.entity_ids())
        pool = extend_name_map(pool, kg, mentioned)
    name_of = lambda e: pool.display_name(kg, e)  # noqa: E731

    samples: list[ReasoningSample] = []
    for inst, side, _asked, trace in explored:
        text = render_trace(trace, library, name_of)
        required = [name_of(e) for e in trace.conclusion.entities]
        text = validated_polish(polisher, text, required)
        record = trace.to_record(name_of)
        samples.append(
            pool_sample(kg, pool, inst, side, text, library, name_of, record)
        )
    samples.sort(key=lambda s: s.sample_id)
    counts = {
        "samples": len(samples),
        "skipped_ambiguous": skipped_ambiguous,
        "skipped_exhausted": skipped_exhausted,
        "error_traces": error_traces,
        "minted_names": len(pool.name_map) - named,
    }
    return samples, counts, pool.name_map
