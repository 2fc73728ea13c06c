"""Evaluation of model outputs against generated samples.

Raw outputs are parsed mechanically: the predicted entity comes from the
terminal answer sentence (falling back to the last known entity mention),
the final attempted rule from the last rule formula in the text (falling
back to the relation sequence of the parsed fact chain), and the fact
chain from relation template matches after that formula.  Entity mentions
are found by looking slices of the text up in a name set, longest name
first; nothing is compiled per name.

Verdicts partition predictions into correct answers, wrong rule choices,
chains resting on absent facts, and valid alternatives (sound rule, true
facts, different entity).  Outputs with no extractable entity are counted
unparseable and score as wrong.
"""

from __future__ import annotations

import json
import random
import re
from bisect import bisect_left
from itertools import chain, filterfalse
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .artifacts import read_json, read_records, write_lines, write_records
from .errors import DataError, UsageError
from .generation import ReasoningSample
from .kg import KnowledgeGraph
from .rules import Rule, RuleStats
from .seeding import derive_seed
from .templates import ENT2, TemplateLibrary

SPLIT_ID = "ID"
SPLIT_OOD = "OOD"

VERDICT_CORRECT = "correct"
VERDICT_RULE_ERROR = "rule_error"
VERDICT_FACT_ERROR = "fact_error"
VERDICT_VALID_ALTERNATIVE = "valid_alternative"
VERDICT_UNPARSEABLE = "unparseable"


def normalize_entity(name: str) -> str:
    """Case and whitespace insensitive form used for all equality checks."""
    return " ".join(name.split()).casefold()


# ----------------------------------------------------------------------
# splits

class EvalSplit(NamedTuple):
    """A named bucket of samples: ID/OOD, overall or one hop count."""

    name: str
    hop: Optional[int]
    samples: tuple[ReasoningSample, ...]

    @property
    def key(self) -> str:
        return f"{self.name}-all" if self.hop is None else f"{self.name}-{self.hop}hop"


def build_splits(
    samples: Sequence[ReasoningSample],
    training_rule_ids: Iterable[str],
    per_bucket: Optional[int] = None,
    seed: int = 0,
) -> list[EvalSplit]:
    """Partition samples into ID/OOD by rule membership, bucketed by hop.

    ID means the sample's rule is in the training rule set.  Each side has
    a bucket for hops 2, 3 and 4, empty or not, and for any other hop a
    sample holds, ascending.  Buckets can be capped at ``per_bucket``
    samples with a seeded uniform subsample; the overall split is the union
    of its (capped) hop buckets.
    """
    if per_bucket is not None and per_bucket < 0:
        raise UsageError(f"per-bucket count must be >= 0, got {per_bucket}")
    training = set(training_rule_ids)
    for sample in samples:
        if not sample.rule_id:
            raise DataError(f"sample {sample.sample_id} has no rule id")
    groups = {
        SPLIT_ID: [s for s in samples if s.rule_id in training],
        SPLIT_OOD: [s for s in samples if s.rule_id not in training],
    }
    hops = sorted({2, 3, 4}.union(s.hop for s in samples))
    splits: list[EvalSplit] = []
    for name, group in groups.items():
        overall: list[ReasoningSample] = []
        hop_splits: list[EvalSplit] = []
        for hop in hops:
            bucket = [s for s in group if s.hop == hop]
            if per_bucket is not None and len(bucket) > per_bucket:
                rng = random.Random(derive_seed(seed, "split", name, str(hop)))
                bucket = rng.sample(bucket, per_bucket)
                bucket.sort(key=lambda s: s.sample_id)
            hop_splits.append(EvalSplit(name, hop, tuple(bucket)))
            overall.extend(bucket)
        splits.append(EvalSplit(name, None, tuple(overall)))
        splits.extend(hop_splits)
    return splits


# ----------------------------------------------------------------------
# parsing raw outputs

# Positions with no word character just before them: where a name may
# start, and one past where a name may end.
_BOUNDARIES = re.compile(r"(?<!\w)")
_SPACES = re.compile(r"\s*")
# The answer phrases, around a name: "<name> is the (correct) answer" and
# "the answer is: <name>".
_NAMED_ANSWER = r"\s+is\s+the\s+(?:correct\s+)?answer"
_NAMED_ANSWER_TAIL = re.compile(_NAMED_ANSWER, re.IGNORECASE)
_NAMED_ANSWER_STARTS = re.compile(f"(?={_NAMED_ANSWER})", re.IGNORECASE)
_ANSWER_LEAD = re.compile(r"the\s+answer\s+is", re.IGNORECASE)


def _case_key(text: str) -> str | tuple[str, ...]:
    """Key under which two strings match each other with ``re.IGNORECASE``.

    ``re`` compares one character at a time through its simple lowercase
    form (that of "İ" is "i", the first character of ``"İ".lower()``) plus
    a few extra pairs such as i/ı, s/ſ and σ/ς.  Upper-casing the simple
    lowercase form merges exactly the same characters.  The per-character
    keys are joined into one string, which is ``text.upper()`` for ASCII
    text, unless one of them is longer than a character ("ß" gives "SS"):
    then they stay a tuple, so two keys are equal exactly when their
    characters' keys are.  Either way the key has one item per character.
    """
    if text.isascii():
        return text.upper()
    parts = [c.lower()[0].upper() for c in text]
    joined = "".join(parts)
    return joined if len(joined) == len(text) else tuple(parts)


def _case_keys(names: set[str]) -> set:
    """The case keys of ``names``, the ASCII ones upper-cased in bulk."""
    keys = set(map(str.upper, filter(str.isascii, names)))
    keys.update(map(_case_key, filterfalse(str.isascii, names)))
    return keys


class _Text:
    """A text, the positions where a name may start in it and those where
    one may end."""

    def __init__(self, text: str):
        self.text = text
        self.starts = [m.start() for m in _BOUNDARIES.finditer(text)]
        self.start_set = set(self.starts)
        # Every start past position 0 follows a non-word character, where a
        # name may end; so it may at the end of the text.
        self.end_set = {pos - 1 for pos in self.starts[1:]}
        self.end_set.add(len(text))


class _NameIndex:
    """A set of non-empty names with their lengths by first character.

    The index holds the names' keys and compares a text slice by its
    ``key``; with no key, names and slices are compared as they are.
    """

    def __init__(
        self,
        keys: set,
        key: Optional[Callable[[str], str | tuple[str, ...]]] = None,
    ):
        self._key = key
        self._keys = keys
        # A key has one item per character of its name.
        lengths: dict = {}
        for first, length in set(zip(map(itemgetter(0), keys), map(len, keys))):
            lengths.setdefault(first, []).append(length)
        self._lengths = {
            first: sorted(found, reverse=True) for first, found in lengths.items()
        }
        self.lengths = sorted({n for found in lengths.values() for n in found})

    def ends(self, text: _Text, start: int) -> list[int]:
        """Ends of the names at ``start``, longest first.

        A name counts where no word character comes just before or just
        after it, as in `templates.name_alternation`.
        """
        raw = text.text
        if start not in text.start_set or start >= len(raw):
            return []
        key, keys, end_set = self._key, self._keys, text.end_set
        if key is None:
            return [
                end
                for length in self._lengths.get(raw[start], ())
                if (end := start + length) in end_set and raw[start:end] in keys
            ]
        return [
            end
            for length in self._lengths.get(key(raw[start])[0], ())
            if (end := start + length) in end_set and key(raw[start:end]) in keys
        ]


def _colon_gap_ends(raw: str, pos: int) -> list[int]:
    r"""Where ``\s*:?\s*`` starting at ``pos`` can end, in the order a
    backtracking regex tries them."""
    spaces_end = _SPACES.match(raw, pos).end()
    ends: list[int] = []
    if raw.startswith(":", spaces_end):
        after_colon = _SPACES.match(raw, spaces_end + 1).end()
        ends.extend(range(after_colon, spaces_end, -1))
    ends.extend(range(spaces_end, pos - 1, -1))
    return ends


class ParsedPrediction(NamedTuple):
    """Structured view of one raw output."""

    raw: str
    predicted: Optional[str]
    final_rule_id: Optional[str]
    facts: tuple[tuple[str, str, str], ...]

    @property
    def final_hop(self) -> Optional[int]:
        if self.final_rule_id is not None:
            return Rule.decode(self.final_rule_id).hop
        return len(self.facts) if self.facts else None


class OutputParser:
    """Matcher over a fixed entity name set and template library.

    Names are found by lookup: at each position with no word character
    before it, the distinct name lengths are tried longest first against a
    name set, and a slice counts when no word character follows it.
    Template sentences are matched piece by piece around those mentions,
    backtracking longest name first.  The result is what a regex with a
    longest-first alternation over every name finds (`tests/regex_parser.py`
    keeps that form as the reference), but nothing is compiled per name.
    """

    def __init__(
        self,
        relations: Iterable[str],
        names: Iterable[str],
        library: TemplateLibrary,
        rule_formulas: Optional[Mapping[str, str]] = None,
    ):
        names = set(names)
        names.discard("")
        self._names = _NameIndex(names)
        self._answer_names = _NameIndex(_case_keys(names), _case_key)
        self._fact_pieces = [
            (rel, library.relation(rel).pieces()) for rel in sorted(set(relations))
        ]
        self._formulas = dict(rule_formulas or {})

    def extract_prediction(self, raw: str | _Text) -> Optional[str]:
        """Predicted entity: terminal answer pattern, else last known name."""
        text = raw if isinstance(raw, _Text) else _Text(raw)
        best: Optional[tuple[int, str]] = None
        for start, name in chain(self._named_answers(text), self._answer_leads(text)):
            if best is None or start >= best[0]:
                best = (start, name)
        if best is not None:
            return best[1]
        last = None
        pos = 0
        for start, ends in self._mentions(text).items():
            if start >= pos:
                last, pos = text.text[start : ends[0]], ends[0]
        return last

    def _mentions(self, text: _Text, begin: int = 0) -> dict[int, list[int]]:
        """Ends of the names at each start from ``begin`` on, longest first,
        by start."""
        found = {}
        for start in text.starts[bisect_left(text.starts, begin) :]:
            ends = self._names.ends(text, start)
            if ends:
                found[start] = ends
        return found

    def _named_answers(self, text: _Text) -> Iterator[tuple[int, str]]:
        """Each "<name> is the (correct) answer", as (start, name)."""
        raw = text.text
        tails = {m.start() for m in _NAMED_ANSWER_STARTS.finditer(raw)}
        starts = {end - n for end in tails for n in self._answer_names.lengths}
        pos = 0
        for start in sorted(starts & text.start_set):
            if start < pos:
                continue
            for end in self._answer_names.ends(text, start):
                if end in tails:
                    yield start, raw[start:end]
                    pos = _NAMED_ANSWER_TAIL.match(raw, end).end()
                    break

    def _answer_leads(self, text: _Text) -> Iterator[tuple[int, str]]:
        """Each "the answer is: <name>", as (start, name)."""
        raw = text.text
        pos = 0
        while (lead := _ANSWER_LEAD.search(raw, pos)) is not None:
            pos = lead.start() + 1
            for start in _colon_gap_ends(raw, lead.end()):
                ends = self._answer_names.ends(text, start)
                if ends:
                    yield lead.start(), raw[start : ends[0]]
                    pos = ends[0]
                    break

    def find_facts(
        self, text: str | _Text, begin: int = 0
    ) -> list[tuple[str, str, str]]:
        """Template matches in the text from ``begin`` on as (subject,
        relation, object), by position.

        Matches from different relations may overlap: a sentence like
        "A has cast member B, who speaks C" states two facts sharing the
        pivot mention of B, and both must survive.  Within one relation,
        matches do not overlap and the leftmost wins.
        """
        indexed = text if isinstance(text, _Text) else _Text(text)
        if begin not in indexed.start_set:
            # A word character comes just before ``begin``, so the text from
            # there on has a name boundary at ``begin`` that this one lacks.
            indexed, begin = _Text(indexed.text[begin:]), 0
        raw = indexed.text
        tail = raw[begin:]
        mentions = self._mentions(indexed, begin)
        # With no lead, a sentence starts at a mention that ``middle``
        # follows; many relations share one middle.
        before: dict[str, list[int]] = {}
        hits: list[tuple[int, int, tuple[str, str, str]]] = []
        for rel, (lead, slot, middle, _, trail) in self._fact_pieces:
            if lead not in tail or middle not in tail or trail not in tail:
                continue
            if lead:
                starts = _occurrences(raw, lead, begin)
            else:
                if middle not in before:
                    before[middle] = [
                        start
                        for start, ends in mentions.items()
                        if any(raw.startswith(middle, end) for end in ends)
                    ]
                starts = before[middle]
            pos = 0
            for start in starts:
                if start < pos:
                    continue
                found = _match_fact(indexed, mentions, start + len(lead), middle, trail)
                if found is not None:
                    first, second, end = found
                    if slot == ENT2:
                        first, second = second, first
                    hits.append((start, end, (first, rel, second)))
                    pos = end
        hits.sort()
        return [fact for _, _, fact in hits]

    def parse(self, raw: str) -> ParsedPrediction:
        final_rule_id = None
        tail_start = 0
        for rule_id, formula in self._formulas.items():
            pos = raw.rfind(formula)
            if pos >= 0 and pos + len(formula) >= tail_start:
                tail_start = pos + len(formula)
                final_rule_id = rule_id
        text = _Text(raw)
        return ParsedPrediction(
            raw=raw,
            predicted=self.extract_prediction(text),
            final_rule_id=final_rule_id,
            facts=tuple(self.find_facts(text, tail_start)),
        )


def _occurrences(text: str, piece: str, begin: int) -> Iterator[int]:
    """Every start of ``piece`` in ``text`` from ``begin`` on, overlapping
    ones included."""
    pos = text.find(piece, begin)
    while pos >= 0:
        yield pos
        pos = text.find(piece, pos + 1)


def _match_fact(
    text: _Text,
    mentions: Mapping[int, list[int]],
    first_at: int,
    middle: str,
    trail: str,
) -> Optional[tuple[str, str, int]]:
    """Both names and the end of a fact sentence whose first slot is at
    ``first_at``: mention, ``middle``, mention, ``trail``, then no word
    character.  Longer names are tried first in each slot."""
    raw = text.text
    for first_end in mentions.get(first_at, ()):
        if raw.startswith(middle, first_end):
            second_at = first_end + len(middle)
            for second_end in mentions.get(second_at, ()):
                end = second_end + len(trail)
                if raw.startswith(trail, second_end) and end in text.end_set:
                    return raw[first_at:first_end], raw[second_at:second_end], end
    return None


# ----------------------------------------------------------------------
# scoring

class MatchScore(NamedTuple):
    """Exact match: a split's ``correct`` verdicts over its size."""

    correct: int
    total: int

    @property
    def percent(self) -> str:
        return f"{100 * self.correct / self.total:.2f}"


def rule_length_usage(
    parsed: Mapping[str, ParsedPrediction]
) -> tuple[dict[int, float], int]:
    """Share of outputs whose final attempted rule has each hop count.

    Outputs with no determinable final rule are excluded from the
    denominator and returned as the second element.
    """
    hops: list[int] = []
    unparseable = 0
    for pp in parsed.values():
        hop = pp.final_hop
        if hop is None:
            unparseable += 1
        else:
            hops.append(hop)
    if not hops:
        return {}, unparseable
    total = len(hops)
    out = {hop: hops.count(hop) / total for hop in sorted(set(hops))}
    return out, unparseable


# ----------------------------------------------------------------------
# error classification

class Verdict(NamedTuple):
    kind: str
    fact_indices: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        if self.kind == VERDICT_FACT_ERROR:
            return f"{VERDICT_FACT_ERROR}:{self.fact_indices[0]}"
        return self.kind


def classify_error(
    parsed: ParsedPrediction,
    sample: ReasoningSample,
    kg: KnowledgeGraph,
    valid_rules: Iterable[Rule],
    name_to_id: Optional[Mapping[str, int]] = None,
) -> Verdict:
    """Assign exactly one verdict to a parsed prediction.

    Order of tests: unparseable, correct, wrong rule, first absent fact
    (all absent positions are reported, 1-based), else valid alternative.
    ``name_to_id`` must map names to entity ids of ``kg``: facts are looked
    up without a range check, and an id out of range can alias another
    fact.
    """
    if parsed.predicted is None:
        return Verdict(VERDICT_UNPARSEABLE)
    if normalize_entity(parsed.predicted) == normalize_entity(sample.golden_entity):
        return Verdict(VERDICT_CORRECT)
    head_relation = Rule.decode(sample.rule_id).head_relation
    valid_ids = {
        r.rule_id for r in valid_rules if r.head_relation == head_relation
    }
    if parsed.final_rule_id is not None:
        final_rule_id = parsed.final_rule_id
    elif parsed.facts:
        final_rule_id = Rule(
            head_relation, tuple(rel for _, rel, _ in parsed.facts)
        ).rule_id
    else:
        final_rule_id = None
    if final_rule_id is None or final_rule_id not in valid_ids:
        return Verdict(VERDICT_RULE_ERROR)

    def resolve(name: str) -> Optional[int]:
        if name_to_id is not None and name in name_to_id:
            return name_to_id[name]
        return kg.entity_id(name) if kg.has_entity(name) else None

    absent: list[int] = []
    for index, (subj, rel, obj) in enumerate(parsed.facts, start=1):
        s = resolve(subj)
        o = resolve(obj)
        if (
            s is None
            or o is None
            or not kg.has_relation(rel)
            or not kg.holds(s, kg.relation_id(rel), o)
        ):
            absent.append(index)
    if absent:
        return Verdict(VERDICT_FACT_ERROR, tuple(absent))
    return Verdict(VERDICT_VALID_ALTERNATIVE)


# ----------------------------------------------------------------------
# report

class SplitResult(NamedTuple):
    split_key: str
    samples: int
    match: MatchScore
    usage: dict[int, float]
    usage_unparseable: int
    verdicts: dict[str, int]

    def to_record(self) -> dict:
        return {
            "split": self.split_key,
            "samples": self.samples,
            "exact_match": {
                "correct": self.match.correct,
                "total": self.match.total,
                "percent": self.match.percent,
            },
            "rule_length_usage": {str(h): round(p, 4) for h, p in self.usage.items()},
            "usage_unparseable": self.usage_unparseable,
            "verdicts": dict(sorted(self.verdicts.items())),
        }


class EvalReport(NamedTuple):
    results: list[SplitResult]

    def to_json(self) -> str:
        return json.dumps(
            {"splits": [r.to_record() for r in self.results]},
            indent=2,
            sort_keys=True,
            ensure_ascii=False,
        )

    def save(self, path: str | Path) -> None:
        write_lines(path, [self.to_json()])

    def render_table(self) -> str:
        lines = [
            f"{'split':<12} {'n':>6} {'EM%':>8} {'usage by hop':<24} verdicts",
            "-" * 78,
        ]
        for r in self.results:
            usage = " ".join(f"{h}:{p:.2%}" for h, p in sorted(r.usage.items()))
            verdicts = " ".join(f"{k}={v}" for k, v in sorted(r.verdicts.items()))
            lines.append(
                f"{r.split_key:<12} {r.samples:>6} {r.match.percent:>8} "
                f"{usage:<24} {verdicts}"
            )
        return "\n".join(lines)


class Evaluator:
    """End-to-end evaluation over raw prediction texts."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        library_stats: Sequence[RuleStats],
        templates: TemplateLibrary,
        extra_names: Optional[Mapping[str, int]] = None,
    ):
        self.kg = kg
        self.stats = list(library_stats)
        self.templates = templates
        self.extra_names = dict(extra_names or {})
        for name, eid in self.extra_names.items():
            if type(eid) is not int or not 0 <= eid < kg.num_entities:
                raise DataError(
                    f"name {name!r} maps to {eid!r}, not an entity id of the graph"
                )
        # Ids are positions in the name table.
        self.name_to_id = dict(zip(kg.entity_names(), range(kg.num_entities)))
        self.name_to_id.update(self.extra_names)
        self.parser = OutputParser(
            kg.relation_names(),
            self.name_to_id,
            templates,
            {st.rule.rule_id: st.rule.formula() for st in self.stats},
        )
        self.valid_rules = [st.rule for st in self.stats]

    def parse(self, raw: str) -> ParsedPrediction:
        return self.parser.parse(raw)

    def classify(self, parsed: ParsedPrediction, sample: ReasoningSample) -> Verdict:
        return classify_error(
            parsed, sample, self.kg, self.valid_rules, self.name_to_id
        )

    def evaluate(
        self, splits: Sequence[EvalSplit], outputs: Mapping[str, str]
    ) -> EvalReport:
        parsed_cache: dict[str, ParsedPrediction] = {
            sid: self.parse(raw) for sid, raw in outputs.items()
        }
        results = []
        for split in splits:
            if not split.samples:
                continue
            verdict_counts: dict[str, int] = {}
            split_parsed: dict[str, ParsedPrediction] = {}
            for sample in split.samples:
                pp = parsed_cache.get(sample.sample_id)
                if pp is None:
                    pp = ParsedPrediction(raw="", predicted=None, final_rule_id=None, facts=())
                split_parsed[sample.sample_id] = pp
                verdict = self.classify(pp, sample)
                verdict_counts[verdict.label] = verdict_counts.get(verdict.label, 0) + 1
            usage, usage_unparseable = rule_length_usage(split_parsed)
            results.append(
                SplitResult(
                    split_key=split.key,
                    samples=len(split.samples),
                    match=MatchScore(
                        verdict_counts.get(VERDICT_CORRECT, 0), len(split.samples)
                    ),
                    usage=usage,
                    usage_unparseable=usage_unparseable,
                    verdicts=verdict_counts,
                )
            )
        return EvalReport(results)


# ----------------------------------------------------------------------
# predictions file

def write_predictions(path: str | Path, outputs: Mapping[str, str]) -> int:
    return write_records(
        path, ({"id": sid, "output": outputs[sid]} for sid in sorted(outputs))
    )


def read_predictions(path: str | Path) -> dict[str, str]:
    def parse(record) -> tuple[str, str]:
        sid, output = record["id"], record["output"]
        if not isinstance(sid, str) or not isinstance(output, str):
            raise TypeError("prediction id and output must be strings")
        return sid, output

    return dict(read_records(path, "prediction", parse))


def read_splits(
    path: str | Path, samples: Mapping[str, ReasoningSample]
) -> list[EvalSplit]:
    """Splits written by ``split``: ``{"splits": [{"name", "hop", "samples"}]}``.

    Every sample id must be a key of ``samples``.
    """
    payload = read_json(path, "splits file")
    records = payload.get("splits")
    if not isinstance(records, list):
        raise DataError(f"{path}: expected an object with a list of splits")
    splits = []
    for index, record in enumerate(records):
        if not (
            isinstance(record, dict)
            and isinstance(record.get("name"), str)
            and "hop" in record
            and (record["hop"] is None or type(record["hop"]) is int)
            and isinstance(record.get("samples"), list)
            and all(isinstance(sid, str) for sid in record["samples"])
        ):
            raise DataError(
                f"{path}: split {index} needs a string name, an integer or null "
                f"hop and a list of sample ids"
            )
        members = []
        for sid in record["samples"]:
            if sid not in samples:
                raise DataError(f"split references unknown sample {sid}")
            members.append(samples[sid])
        splits.append(EvalSplit(record["name"], record["hop"], tuple(members)))
    return splits
