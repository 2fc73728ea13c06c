"""Regex reference parser for model outputs, used as a test oracle.

This is the parser `kgreason.evaluation.OutputParser` replaced: it puts a
longest-first alternation over every entity name into one compiled regex
per relation template (`RelationTemplate.to_regex`) and into the answer
patterns, and lets the regex engine find the mentions.  It is slow to build
for a large vocabulary, but its behaviour is the definition the
lookup-based parser must reproduce exactly.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Optional

from kgreason.evaluation import ParsedPrediction
from kgreason.templates import TemplateLibrary, name_alternation

_ANSWER_PATTERNS = (
    r"(?P<name>{alt})\s+is\s+the\s+(?:correct\s+)?answer",
    r"the\s+answer\s+is\s*:?\s*(?P<name>{alt})",
)


class RegexOutputParser:
    """Compiled matcher over a fixed entity name set and template library."""

    def __init__(
        self,
        relations: Iterable[str],
        names: Iterable[str],
        library: TemplateLibrary,
        rule_formulas: Optional[Mapping[str, str]] = None,
    ):
        self._alt = name_alternation(names)
        self._name_regex = re.compile(self._alt)
        self._answer_regexes = [
            re.compile(p.format(alt=self._alt), re.IGNORECASE)
            for p in _ANSWER_PATTERNS
        ]
        self._fact_regexes = {
            rel: library.relation(rel).to_regex(self._alt)
            for rel in sorted(set(relations))
        }
        self._formulas = dict(rule_formulas or {})

    def extract_prediction(self, raw: str) -> Optional[str]:
        """Predicted entity: terminal answer pattern, else last known name."""
        best: Optional[tuple[int, str]] = None
        for regex in self._answer_regexes:
            for m in regex.finditer(raw):
                if best is None or m.start() >= best[0]:
                    best = (m.start(), m.group("name"))
        if best is not None:
            return best[1]
        last = None
        for m in self._name_regex.finditer(raw):
            last = m.group(0)
        return last

    def find_facts(self, text: str) -> list[tuple[str, str, str]]:
        """Template matches as (subject, relation, object), by position.

        Matches from different relations may overlap: a sentence like
        "A has cast member B, who speaks C" states two facts sharing the
        pivot mention of B, and both must survive.
        """
        hits: list[tuple[int, int, tuple[str, str, str]]] = []
        for rel, regex in sorted(self._fact_regexes.items()):
            for m in regex.finditer(text):
                hits.append((m.start(), m.end(), (m.group("e1"), rel, m.group("e2"))))
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
        return ParsedPrediction(
            raw=raw,
            predicted=self.extract_prediction(raw),
            final_rule_id=final_rule_id,
            facts=tuple(self.find_facts(raw[tail_start:])),
        )
