"""Output parsing, scoring, split handling and error classification.

The fixture graph holds two reasoning chains (a coaching chain ending in a
country and a cast/speaks chain ending in a language) so every verdict kind
has a concrete raw output whose classification was first done by hand.
"""

from __future__ import annotations

import json
import random
import re
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgreason.errors import DataError
from kgreason.evaluation import (
    EvalSplit,
    Evaluator,
    MatchScore,
    OutputParser,
    ParsedPrediction,
    VERDICT_CORRECT,
    VERDICT_FACT_ERROR,
    VERDICT_RULE_ERROR,
    VERDICT_UNPARSEABLE,
    VERDICT_VALID_ALTERNATIVE,
    _case_key,
    build_splits,
    classify_error,
    normalize_entity,
    read_predictions,
    read_splits,
    rule_length_usage,
    write_predictions,
)
from kgreason.generation import ReasoningSample
from kgreason.rules import Rule, RuleStats
from kgreason.templates import RelationTemplate, TemplateLibrary

from conftest import kg_from
from regex_parser import RegexOutputParser

R_CIT = Rule("citizen_of", ("head_coach", "from_country"))
R_LANG = Rule("language_spoken", ("cast_member", "speaks"))

# The coaching chain Ztgl -> Nzwscwm -> Wcsa is fully present; the chain
# through Mfqep is only half present (no head_coach edge into Mfqep), and
# Qoztebgc speaks Crbzovw, not Wcsa.
FIXTURE_TRIPLES = [
    ("Mfqep", "from_country", "Zxdxcgh"),
    ("Ztgl", "head_coach", "Nzwscwm"),
    ("Nzwscwm", "from_country", "Wcsa"),
    ("Ztgl", "citizen_of", "Vevedgta"),
    ("Arstkb", "cast_member", "Qoztebgc"),
    ("Arstkb", "language_spoken", "Crbzovw"),
    ("Qoztebgc", "speaks", "Crbzovw"),
]


def fixture_kg():
    return kg_from(FIXTURE_TRIPLES)


def fixture_templates() -> TemplateLibrary:
    library = TemplateLibrary.builtin()
    library.add_relation(
        RelationTemplate("cast_member", "<ENT1> has cast member <ENT2>.")
    )
    library.add_relation(
        RelationTemplate("speaks", "<ENT1>, who speaks the language <ENT2>.")
    )
    return library


def stats_for(rule: Rule, num: int, den: int) -> RuleStats:
    return RuleStats(rule, support=num, body_count=den)


def sample(sid: str, rule: Rule, golden: str, hop: int = 2) -> ReasoningSample:
    return ReasoningSample(
        sample_id=sid,
        setting="regular",
        hop=hop,
        rule_id=rule.rule_id,
        question="q",
        answer="a",
        golden_entity=golden,
    )


CIT_SAMPLE = sample("s-cit", R_CIT, "Vevedgta")
LANG_SAMPLE = sample("s-lang", R_LANG, "Crbzovw")

OUT_CORRECT = (
    "Ztgl is the head coach of Nzwscwm. Nzwscwm is from the country Wcsa. "
    "Thus, Vevedgta is the answer."
)
OUT_RULE_ERROR = (
    "Mfqep is from the country Zxdxcgh. Thus, Zxdxcgh is the answer."
)
OUT_FACT1 = (
    "Ztgl is the head coach of Mfqep. Mfqep is from the country Zxdxcgh. "
    "Thus, Zxdxcgh is the answer."
)
OUT_FACT2 = (
    "Arstkb has cast member Qoztebgc, who speaks the language Wcsa. "
    "Thus, Wcsa is the answer."
)
OUT_ALT = (
    "Ztgl is the head coach of Nzwscwm. Nzwscwm is from the country Wcsa. "
    "Thus, Wcsa is the answer."
)
OUT_UNPARSEABLE = "I have no idea."


def make_evaluator(extra_names=None) -> Evaluator:
    return Evaluator(
        fixture_kg(),
        [stats_for(R_CIT, 4, 5), stats_for(R_LANG, 3, 4)],
        fixture_templates(),
        extra_names=extra_names,
    )


class TestNormalize:
    def test_case_and_whitespace_insensitive(self):
        assert normalize_entity(" New  York ") == normalize_entity("new york")
        assert normalize_entity("Wcsa") == "wcsa"
        assert normalize_entity("a") != normalize_entity("b")


def extract_prediction(raw: str, names: list[str]):
    return OutputParser([], names, TemplateLibrary()).extract_prediction(raw)


class TestExtractPrediction:
    NAMES = ["Zxdxcgh", "Vevedgta", "Nzwscwm"]

    def test_terminal_answer_sentence(self):
        assert (
            extract_prediction("Thus, Zxdxcgh is the answer.", self.NAMES)
            == "Zxdxcgh"
        )

    def test_answer_is_variant(self):
        assert (
            extract_prediction("I believe the answer is Vevedgta", self.NAMES)
            == "Vevedgta"
        )
        assert (
            extract_prediction("The answer is: Nzwscwm.", self.NAMES)
            == "Nzwscwm"
        )

    def test_correct_answer_variant(self):
        assert (
            extract_prediction("So Zxdxcgh is the correct answer.", self.NAMES)
            == "Zxdxcgh"
        )

    def test_last_answer_statement_wins(self):
        raw = (
            "Vevedgta is the answer. Wait, that is wrong. "
            "Thus, Zxdxcgh is the answer."
        )
        assert extract_prediction(raw, self.NAMES) == "Zxdxcgh"

    def test_falls_back_to_last_entity_mention(self):
        raw = "Maybe Vevedgta, or rather Nzwscwm if pressed."
        assert extract_prediction(raw, self.NAMES) == "Nzwscwm"

    def test_no_known_entity_gives_none(self):
        assert extract_prediction("I have no idea.", self.NAMES) is None
        assert extract_prediction("", self.NAMES) is None

    def test_embedded_mention_does_not_count(self):
        assert extract_prediction("Zxdxcghx is the answer.", self.NAMES) is None

    def test_multiword_name_beats_its_suffix(self):
        names = ["New York", "York"]
        assert extract_prediction("the answer is New York", names) == "New York"


class TestMatchScore:
    def test_reference_fraction(self):
        assert MatchScore(correct=34, total=201).percent == "16.92"

    def test_extremes(self):
        assert MatchScore(0, 5).percent == "0.00"
        assert MatchScore(5, 5).percent == "100.00"

    def match(self, outputs, samples):
        split = EvalSplit("ID", None, tuple(samples))
        return make_evaluator().evaluate([split], outputs).results[0].match

    def test_exact_match_scoring_rules(self):
        samples = [
            sample(f"s{i}", R_CIT, golden)
            for i, golden in enumerate(["Wcsa", "Wcsa", "Vevedgta"])
        ]
        outputs = {
            "s0": "Thus, WCSA is the answer.",
            "s1": "Thus, Vevedgta is the answer.",
            "s2": OUT_UNPARSEABLE,
        }
        assert self.match(outputs, samples) == MatchScore(correct=1, total=3)

    def test_missing_prediction_counts_wrong(self):
        samples = [sample("s0", R_CIT, "Wcsa")]
        assert self.match({}, samples) == MatchScore(correct=0, total=1)

    def test_empty_split_is_not_scored(self):
        full = EvalSplit("ID", None, (sample("s0", R_CIT, "Wcsa"),))
        report = make_evaluator().evaluate([EvalSplit("OOD", None, ()), full], {})
        assert [r.split_key for r in report.results] == [full.key]

    def test_order_invariance(self):
        samples = [sample(f"s{i}", R_CIT, "Wcsa") for i in range(6)]
        outputs = {
            f"s{i}": f"Thus, {'Wcsa' if i % 2 else 'Vevedgta'} is the answer."
            for i in range(6)
        }
        one = self.match(outputs, samples)
        assert one == self.match(outputs, reversed(samples)) == (3, 6)


class TestRuleLengthUsage:
    def parsed(self, rule=None, facts=()):
        return ParsedPrediction(
            raw="",
            predicted="x",
            final_rule_id=None if rule is None else rule.rule_id,
            facts=tuple(facts),
        )

    def test_single_length(self):
        usage, skipped = rule_length_usage(
            {"a": self.parsed(R_CIT), "b": self.parsed(R_CIT)}
        )
        assert usage == {2: 1.0}
        assert skipped == 0

    def test_mixed_lengths_share(self):
        three = Rule("citizen_of", ("head_coach", "works_for", "from_country"))
        usage, _ = rule_length_usage(
            {"a": self.parsed(R_CIT), "b": self.parsed(three)}
        )
        assert usage == {2: 0.5, 3: 0.5}

    def test_fact_chain_fallback_counts_length(self):
        facts = [("a", "head_coach", "b")]
        usage, _ = rule_length_usage({"a": self.parsed(facts=facts)})
        assert usage == {1: 1.0}

    def test_undeterminable_excluded_and_counted(self):
        usage, skipped = rule_length_usage(
            {"a": self.parsed(R_CIT), "b": self.parsed()}
        )
        assert usage == {2: 1.0}
        assert skipped == 1

    def test_all_undeterminable(self):
        assert rule_length_usage({"a": self.parsed()}) == ({}, 1)


class TestOutputParser:
    def make_parser(self):
        kg = fixture_kg()
        three = Rule("citizen_of", ("head_coach", "works_for", "from_country"))
        return OutputParser(
            kg.relation_names(),
            kg.entity_names(),
            fixture_templates(),
            {
                R_CIT.rule_id: R_CIT.formula(),
                three.rule_id: three.formula(),
            },
        ), three

    def test_last_formula_wins_and_gates_facts(self):
        parser, three = self.make_parser()
        raw = (
            f"To find the answer, we can follow the reasoning path: "
            f"{three.formula()}. Ztgl is the head coach of Mfqep. "
            f"Let's consider a different path: {R_CIT.formula()}. "
            f"Ztgl is the head coach of Nzwscwm. "
            f"Nzwscwm is from the country Wcsa. Thus, Wcsa is the answer."
        )
        parsed = parser.parse(raw)
        assert parsed.final_rule_id == R_CIT.rule_id
        assert parsed.facts == (
            ("Ztgl", "head_coach", "Nzwscwm"),
            ("Nzwscwm", "from_country", "Wcsa"),
        )
        assert parsed.predicted == "Wcsa"
        assert parsed.final_hop == 2

    def test_no_formula_parses_all_facts(self):
        parser, _ = self.make_parser()
        parsed = parser.parse(OUT_ALT)
        assert parsed.final_rule_id is None
        assert parsed.facts == (
            ("Ztgl", "head_coach", "Nzwscwm"),
            ("Nzwscwm", "from_country", "Wcsa"),
        )
        assert parsed.final_hop == 2

    def test_overlapping_relative_clause_keeps_both_facts(self):
        parser, _ = self.make_parser()
        parsed = parser.parse(OUT_FACT2)
        assert parsed.facts == (
            ("Arstkb", "cast_member", "Qoztebgc"),
            ("Qoztebgc", "speaks", "Wcsa"),
        )

    def test_unparseable_output(self):
        parser, _ = self.make_parser()
        parsed = parser.parse(OUT_UNPARSEABLE)
        assert parsed.predicted is None
        assert parsed.facts == ()
        assert parsed.final_hop is None


# ----------------------------------------------------------------------
# agreement with the regex reference parser

# Letters whose case behaves unusually under re.IGNORECASE: ß upper-cases to
# two letters, İ lower-cases to two; ı/i, ſ/s, ς/σ, µ (micro)/μ, K (Kelvin)/k
# and Ω (ohm)/ω are extra pairs; ǅ is a title-case letter.
_LETTERS = (
    "abcdefgxyzABCXYZäöüßéçñøå"
    "\u0130\u0131\u017f\u03c3\u03c2\u03a3\u00b5\u03bc\u212a\u2126\u01c5"
)
# A store keeps names verbatim, so a name may also start with a space or a
# colon, or contain an answer phrase itself.
_TRICKY_NAMES = [
    "St. Louis", "AC/DC", "São Paulo", "O'Brien", "Σίσυφος", "İzmir", "@home",
    "The Answer", " Padded", "Padded", ":Cue", "Cue",
]
_LEADS = ["", "", "", "In fact, ", "Of course ", "By law: "]
_MIDDLES = [
    " is the capital of ", " has cast member ", ", who speaks ", " -> ",
    " is a citizen of ", " IS A CITIZEN OF ", " ", "",
]
_TRAILS = ["", "", ".", "!", " indeed.", " today"]
_CASINGS = (str, str.upper, str.lower, str.swapcase, str.title)
# ASCII and the letters whose case key is unusual, for the case key
# property; and for each such letter the characters re.IGNORECASE may
# match it with (a generator's bias only: the property asks re itself).
_KEY_ALPHABET = (
    string.ascii_letters + string.digits + " _." + "\u212a\u017f\u0131\u0130\u00df\u03c3\u03c2"
)
_KIN = {
    **{c: "kK\u212a" for c in "kK\u212a"},
    **{c: "sS\u017f" for c in "sS\u017f"},
    **{c: "iI\u0131\u0130" for c in "iI\u0131\u0130"},
    **{c: "\u03c3\u03c2\u03a3" for c in "\u03c3\u03c2"},
    "\u00df": "\u00df\u1e9e",
}


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(1, 5)))


def _random_names(rng: random.Random) -> list[str]:
    """Names, some of them prefixes or suffixes of others."""
    names = [
        " ".join(_random_word(rng) for _ in range(rng.randint(1, 3)))
        for _ in range(6)
    ]
    names += rng.sample(_TRICKY_NAMES, 4)
    for name in list(names):
        words = name.split(" ")
        if len(words) > 1 and rng.random() < 0.7:
            cut = rng.randint(1, len(words) - 1)
            names.append(rng.choice([" ".join(words[:cut]), " ".join(words[cut:])]))
        if rng.random() < 0.3:
            names.append(name[: rng.randint(1, len(name))])
    return sorted(set(n for n in names if n.strip()))


def _random_template(rng: random.Random, relation: str) -> RelationTemplate:
    slots = ["<ENT1>", "<ENT2>"]
    if rng.random() < 0.3:
        slots.reverse()
    lead, middle, trail = rng.choice(_LEADS), rng.choice(_MIDDLES), rng.choice(_TRAILS)
    return RelationTemplate(relation, lead + slots[0] + middle + slots[1] + trail)


def _answer_sentence(rng: random.Random, name: str) -> str:
    phrase = rng.choice(
        [
            "{} is the answer.",
            "{} is the correct answer",
            "{}  is\tthe CORRECT answer!",
            "the answer is {}",
            "The Answer is:  {}.",
            "THE ANSWER IS :{}",
            "the answer is  : \n{}",
            "Breathe answer is {}",
        ]
    )
    left, right = phrase.split("{}")
    casing = rng.choice(_CASINGS)
    return casing(left) + rng.choice(_CASINGS)(name) + casing(right)


def _random_parse_case(rng: random.Random):
    """Names, templates, formulas and an output text mixing rendered facts,
    overlapping relative clauses, answer sentences, swapped and stripped
    names and noise."""
    names = _random_names(rng)
    relations = [f"rel_{i}" for i in range(rng.randint(1, 4))]
    library = TemplateLibrary.builtin()
    templates = {}
    for rel in relations:
        if rng.random() < 0.85:
            library.add_relation(_random_template(rng, rel))
        templates[rel] = library.relation(rel)
    relations.append("citizen_of")
    templates["citizen_of"] = library.relation("citizen_of")
    formulas = {}
    for _ in range(rng.randint(0, 2)):
        body = tuple(rng.choices(relations, k=rng.randint(1, 3)))
        rule = Rule(rng.choice(relations), body)
        formulas[rule.rule_id] = rule.formula()

    def pick() -> str:
        return rng.choice(names)

    segments = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(8)
        a, b, c = pick(), pick(), pick()
        t1, t2 = templates[rng.choice(relations)], templates[rng.choice(relations)]
        if kind == 0:
            segments.append(t1.render(a, b))
        elif kind == 1:
            # Relative clause: the second fact shares the first one's object.
            first = t1.render(a, b).rstrip(".!?")
            second = t2.render(b, c)
            if second.startswith(b):
                segments.append(first + second[len(b) :])
            else:
                segments.append(first + ", " + second)
        elif kind == 2:
            segments.append(_answer_sentence(rng, a))
        elif kind == 3:
            segments.append(t1.render(b, a))
        elif kind == 4:
            stripped = rng.choice(["someone", "", a + rng.choice(["x", "_1", "ü"])])
            segments.append(t1.render(a, "<X>").replace("<X>", stripped))
        elif kind == 5 and formulas:
            segments.append(rng.choice(list(formulas.values())))
        elif kind == 6:
            segments.append(rng.choice(_CASINGS)(t1.render(a, b)))
        else:
            words = (rng.choice([pick(), _random_word(rng)]) for _ in range(3))
            segments.append(" ".join(words))
    separators = [" ", ". ", "\n", ", ", "", ":", " — "]
    text = segments[0]
    for segment in segments[1:]:
        text += rng.choice(separators) + segment
    return relations, names, library, formulas, text


class TestRegexAgreement:
    """The lookup parser returns what the regex reference parser does."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**30))
    def test_parses_equal_regex_oracle(self, seed):
        case = _random_parse_case(random.Random(seed))
        relations, names, library, formulas, text = case
        fast = OutputParser(relations, names, library, formulas)
        slow = RegexOutputParser(relations, names, library, formulas)
        assert fast.parse(text) == slow.parse(text)
        assert fast.find_facts(text) == slow.find_facts(text)

    def test_fixture_outputs_equal_regex_oracle(self):
        kg = fixture_kg()
        args = (kg.relation_names(), kg.entity_names(), fixture_templates())
        fast, slow = OutputParser(*args), RegexOutputParser(*args)
        for raw in (OUT_CORRECT, OUT_RULE_ERROR, OUT_FACT1, OUT_FACT2, OUT_ALT):
            assert fast.parse(raw) == slow.parse(raw)

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_case_keys_equal_exactly_when_ignorecase_matches(self, data):
        a = data.draw(st.text(alphabet=_KEY_ALPHABET, max_size=6))
        # Each character of b is a case relative of a's, or any at all.
        b = "".join(
            data.draw(st.sampled_from(_KIN.get(c, c) + _KEY_ALPHABET[::7])) for c in a
        )
        matches = re.fullmatch(re.escape(a), b, re.IGNORECASE) is not None
        assert (_case_key(a) == _case_key(b)) == matches

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**30))
    def test_case_relatives_parse_equal_regex_oracle(self, seed):
        """Answer sentences that name an entity through the case relatives
        of its characters, for names of ASCII letters, of letters whose
        case key is one character (ſ, ı, İ, K, σ, ς) and of ß, whose key is
        two."""
        rng = random.Random(seed)
        letters = "sikSIKab" + "".join(_KIN) + " "
        names = sorted(
            {
                "".join(rng.choice(letters) for _ in range(rng.randint(1, 5))).strip()
                for _ in range(8)
            }
            - {""}
        )
        library = TemplateLibrary.builtin()
        segments = []
        for _ in range(rng.randint(1, 5)):
            name = "".join(rng.choice(_KIN.get(c, c)) for c in rng.choice(names))
            other = rng.choice(names)
            segments.append(rng.choice([
                _answer_sentence(rng, name),
                library.relation("citizen_of").render(other, name),
                name,
            ]))
        text = rng.choice([" ", ". ", "\n", ""]).join(segments)
        args = (["citizen_of"], names, library)
        assert OutputParser(*args).parse(text) == RegexOutputParser(*args).parse(text)

    def test_formula_ending_inside_a_word(self):
        # The facts after a formula are read from the text after it, where a
        # name may start right at its end although a word character comes
        # before it in the whole output.
        args = (["citizen_of"], ["anykid", "vevedgta"], TemplateLibrary.builtin())
        formulas = {"custom": "path X"}
        raw = "path Xanykid is a citizen of vevedgta."
        fast = OutputParser(*args, formulas).parse(raw)
        assert fast == RegexOutputParser(*args, formulas).parse(raw)
        assert fast.facts == (("anykid", "citizen_of", "vevedgta"),)

    def test_case_key_merges_what_ignorecase_merges(self):
        cased = [
            c for c in map(chr, range(sys.maxunicode + 1))
            if c.lower() != c or c.upper() != c
        ]
        alphabet = "".join(cased)
        by_key: dict = {}
        for c in cased:
            by_key.setdefault(_case_key(c), set()).add(c)
        for c in cased:
            matched = set(re.findall(re.escape(c), alphabet, re.IGNORECASE))
            assert matched == by_key[_case_key(c)], c


class TestClassifyError:
    def classify(self, raw, sample_=CIT_SAMPLE, extra_names=None):
        evaluator = make_evaluator(extra_names)
        return evaluator.classify(evaluator.parse(raw), sample_)

    def test_correct(self):
        assert self.classify(OUT_CORRECT).kind == VERDICT_CORRECT

    def test_unparseable(self):
        assert self.classify(OUT_UNPARSEABLE).kind == VERDICT_UNPARSEABLE

    def test_rule_error_when_inferred_rule_not_in_library(self):
        verdict = self.classify(OUT_RULE_ERROR)
        assert verdict.kind == VERDICT_RULE_ERROR
        assert verdict.label == "rule_error"

    def test_fact_error_first_atom(self):
        verdict = self.classify(OUT_FACT1)
        assert verdict.kind == VERDICT_FACT_ERROR
        assert verdict.fact_indices == (1,)
        assert verdict.label == "fact_error:1"

    def test_fact_error_second_atom(self):
        verdict = self.classify(OUT_FACT2, LANG_SAMPLE)
        assert verdict.kind == VERDICT_FACT_ERROR
        assert verdict.fact_indices == (2,)
        assert verdict.label == "fact_error:2"

    def test_valid_alternative(self):
        verdict = self.classify(OUT_ALT)
        assert verdict.kind == VERDICT_VALID_ALTERNATIVE
        assert verdict.label == "valid_alternative"

    def test_all_absent_positions_reported(self):
        raw = (
            "Ztgl is the head coach of Mfqep. "
            "Mfqep is from the country Wcsa. Thus, Wcsa is the answer."
        )
        verdict = self.classify(raw)
        assert verdict.fact_indices == (1, 2)
        assert verdict.label == "fact_error:1"

    def test_correct_beats_fact_check(self):
        # A correct answer stays correct even over an absent chain.
        raw = (
            "Ztgl is the head coach of Mfqep. "
            "Mfqep is from the country Vevedgta. "
            "Thus, Vevedgta is the answer."
        )
        assert self.classify(raw).kind == VERDICT_CORRECT

    def test_synthetic_name_resolution(self):
        kg = fixture_kg()
        pp = ParsedPrediction(
            raw="",
            predicted="Wcsa",
            final_rule_id=None,
            facts=(
                ("Zorp", "head_coach", "Nzwscwm"),
                ("Nzwscwm", "from_country", "Wcsa"),
            ),
        )
        mapped = classify_error(
            pp,
            CIT_SAMPLE,
            kg,
            [R_CIT],
            name_to_id={"Zorp": kg.entity_id("Ztgl")},
        )
        assert mapped.kind == VERDICT_VALID_ALTERNATIVE
        unmapped = classify_error(pp, CIT_SAMPLE, kg, [R_CIT])
        assert unmapped.label == "fact_error:1"

    def test_unknown_relation_counts_absent(self):
        kg = fixture_kg()
        pp = ParsedPrediction(
            raw="",
            predicted="Wcsa",
            final_rule_id=R_CIT.rule_id,
            facts=(("Ztgl", "coaches_against", "Nzwscwm"),),
        )
        verdict = classify_error(pp, CIT_SAMPLE, kg, [R_CIT])
        assert verdict.label == "fact_error:1"

    def test_explicit_formula_overrides_fact_inference(self):
        # With the attempted formula stated, a one-fact chain after it is
        # judged against that rule, not re-inferred as a 1-hop rule.
        raw = (
            f"Path: {R_CIT.formula()}. "
            "Mfqep is from the country Wcsa. Thus, Wcsa is the answer."
        )
        verdict = self.classify(raw)
        assert verdict.kind == VERDICT_FACT_ERROR
        assert verdict.label == "fact_error:1"


class TestBuildSplits:
    def make_samples(self):
        out = []
        for i in range(4):
            out.append(sample(f"id2-{i}", R_CIT, "Wcsa", hop=2))
        out.append(sample("id3-0", Rule("citizen_of", ("a", "b", "c")), "Wcsa", hop=3))
        out.append(sample("ood2-0", R_LANG, "Crbzovw", hop=2))
        return out

    def training_ids(self):
        return [R_CIT.rule_id, Rule("citizen_of", ("a", "b", "c")).rule_id]

    def test_partition_and_keys(self):
        splits = build_splits(self.make_samples(), self.training_ids())
        assert [s.key for s in splits] == [
            "ID-all",
            "ID-2hop",
            "ID-3hop",
            "ID-4hop",
            "OOD-all",
            "OOD-2hop",
            "OOD-3hop",
            "OOD-4hop",
        ]
        by_key = {s.key: s for s in splits}
        assert len(by_key["ID-all"].samples) == 5
        assert len(by_key["ID-2hop"].samples) == 4
        assert len(by_key["ID-3hop"].samples) == 1
        assert len(by_key["ID-4hop"].samples) == 0
        assert len(by_key["OOD-all"].samples) == 1
        assert {s.sample_id for s in by_key["OOD-all"].samples} == {"ood2-0"}

    def test_every_hop_a_sample_holds_gets_a_bucket(self):
        extra = self.make_samples() + [
            sample("id5-0", R_CIT, "Wcsa", hop=5),
            sample("ood1-0", R_LANG, "Crbzovw", hop=1),
        ]
        splits = build_splits(extra, self.training_ids())
        assert [s.key for s in splits] == [
            f"{name}-{hop}" for name in ("ID", "OOD")
            for hop in ("all", "1hop", "2hop", "3hop", "4hop", "5hop")
        ]
        by_key = {s.key: [x.sample_id for x in s.samples] for s in splits}
        assert by_key["ID-5hop"] == ["id5-0"] and by_key["ID-1hop"] == []
        assert by_key["OOD-1hop"] == ["ood1-0"] and by_key["OOD-5hop"] == []
        assert len(by_key["ID-all"]) == 6
        assert sorted(by_key["OOD-all"]) == ["ood1-0", "ood2-0"]

    def test_per_bucket_cap_is_seeded_and_sorted(self):
        samples = self.make_samples()
        one = build_splits(samples, self.training_ids(), per_bucket=2, seed=5)
        two = build_splits(samples, self.training_ids(), per_bucket=2, seed=5)
        key = {s.key: s for s in one}
        assert len(key["ID-2hop"].samples) == 2
        ids = [s.sample_id for s in key["ID-2hop"].samples]
        assert ids == sorted(ids)
        assert [s.samples for s in one] == [s.samples for s in two]
        # The overall split is the union of the capped buckets.
        assert len(key["ID-all"].samples) == 3

    def test_empty_rule_id_rejected(self):
        bad = ReasoningSample(
            sample_id="bad",
            setting="regular",
            hop=2,
            rule_id="",
            question="q",
            answer="a",
            golden_entity="x",
        )
        with pytest.raises(DataError):
            build_splits([bad], [])

    def test_split_key_property(self):
        assert EvalSplit("ID", None, ()).key == "ID-all"
        assert EvalSplit("OOD", 3, ()).key == "OOD-3hop"


class TestEvaluator:
    def test_extra_name_outside_the_graph_is_rejected(self):
        # E=3, R=2: fact (h, r, t) is the key (h*2 + r)*3 + t, so the
        # out-of-range (a, r, 4) has the key of the real fact (a, s, b).
        kg = kg_from([("a", "s", "b"), ("b", "r", "c")])
        a, b = kg.entity_id("a"), kg.entity_id("b")
        r, s = kg.relation_id("r"), kg.relation_id("s")
        assert kg.holds(a, s, b) and kg.holds(a, r, 4)
        for eid in (4, -1, 3, "2"):
            with pytest.raises(DataError, match="not an entity id"):
                Evaluator(kg, [], TemplateLibrary.builtin(), {"Zed": eid})
        evaluator = Evaluator(kg, [], TemplateLibrary.builtin(), {"Zed": 2})
        assert evaluator.name_to_id["Zed"] == 2

    def outputs(self):
        return {
            "id-correct": OUT_CORRECT,
            "id-rule": OUT_RULE_ERROR,
            "id-fact1": OUT_FACT1,
            "id-alt": OUT_ALT,
            "id-unp": OUT_UNPARSEABLE,
            "ood-fact2": OUT_FACT2,
        }

    def eval_samples(self):
        return [
            sample("id-correct", R_CIT, "Vevedgta"),
            sample("id-rule", R_CIT, "Vevedgta"),
            sample("id-fact1", R_CIT, "Vevedgta"),
            sample("id-alt", R_CIT, "Vevedgta"),
            sample("id-unp", R_CIT, "Vevedgta"),
            sample("ood-fact2", R_LANG, "Crbzovw"),
        ]

    def report(self):
        splits = build_splits(self.eval_samples(), [R_CIT.rule_id])
        return make_evaluator().evaluate(splits, self.outputs())

    def test_split_results_cover_nonempty_splits(self):
        report = self.report()
        assert [r.split_key for r in report.results] == [
            "ID-all",
            "ID-2hop",
            "OOD-all",
            "OOD-2hop",
        ]

    def test_id_split_scores_and_verdicts(self):
        result = self.report().results[0]
        assert result.samples == 5
        assert result.match.percent == "20.00"
        assert result.verdicts == {
            "correct": 1,
            "fact_error:1": 1,
            "rule_error": 1,
            "unparseable": 1,
            "valid_alternative": 1,
        }
        assert result.usage == {1: 0.25, 2: 0.75}
        assert result.usage_unparseable == 1

    def test_ood_split_scores_and_verdicts(self):
        result = self.report().results[2]
        assert result.samples == 1
        assert result.match.percent == "0.00"
        assert result.verdicts == {"fact_error:2": 1}
        assert result.usage == {2: 1.0}

    def test_verdicts_partition_each_split(self):
        for result in self.report().results:
            assert sum(result.verdicts.values()) == result.samples

    def test_missing_output_is_unparseable(self):
        splits = build_splits(self.eval_samples(), [R_CIT.rule_id])
        outputs = self.outputs()
        del outputs["id-unp"]
        report = make_evaluator().evaluate(splits, outputs)
        assert report.results[0].verdicts["unparseable"] == 1

    def test_report_json_round_trip(self, tmp_path):
        report = self.report()
        path = tmp_path / "report.json"
        report.save(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        by_split = {r["split"]: r for r in data["splits"]}
        assert by_split["ID-all"]["exact_match"] == {
            "correct": 1,
            "total": 5,
            "percent": "20.00",
        }
        assert by_split["ID-all"]["rule_length_usage"] == {"1": 0.25, "2": 0.75}

    def test_render_table_mentions_every_split(self):
        table = self.report().render_table()
        assert "EM%" in table
        for key in ("ID-all", "ID-2hop", "OOD-all", "OOD-2hop"):
            assert key in table

    def test_extra_names_extend_parser(self):
        kg = fixture_kg()
        evaluator = make_evaluator(
            extra_names={"Zorp": kg.entity_id("Ztgl")}
        )
        parsed = evaluator.parse(
            "Zorp is the head coach of Nzwscwm. "
            "Nzwscwm is from the country Wcsa. Thus, Wcsa is the answer."
        )
        assert parsed.facts[0] == ("Zorp", "head_coach", "Nzwscwm")
        verdict = evaluator.classify(parsed, CIT_SAMPLE)
        assert verdict.kind == VERDICT_VALID_ALTERNATIVE


class TestPredictionsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        outputs = {
            "b": "line one\nline two",
            "a": "Thus, Wcsa is the answer.",
        }
        assert write_predictions(path, outputs) == 2
        assert read_predictions(path) == outputs
        # Records are written in sorted id order.
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert first["id"] == "a"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"id":"a","output":"x"}\n\n{"id":"b","output":"y"}\n',
            encoding="utf-8",
        )
        assert read_predictions(path) == {"a": "x", "b": "y"}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_predictions(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id":"a"}\n', encoding="utf-8")
        with pytest.raises(DataError):
            read_predictions(path)

    @pytest.mark.parametrize(
        "line",
        ['{"id":"x","output":5}', '{"id":7,"output":"x"}', '{"id":"x","output":null}'],
    )
    def test_non_string_fields_rejected(self, tmp_path, line):
        path = tmp_path / "preds.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_predictions(path)


class TestReadSplits:
    SAMPLES = {"s-cit": CIT_SAMPLE, "s-lang": LANG_SAMPLE}

    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "splits.json"
        path.write_text(
            payload if isinstance(payload, str) else json.dumps(payload),
            encoding="utf-8",
        )
        return str(path)

    def test_reads_what_split_writes(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "splits": [
                    {"name": "ID", "hop": None, "samples": ["s-cit", "s-lang"]},
                    {"name": "ID", "hop": 2, "samples": ["s-lang"]},
                ]
            },
        )
        assert read_splits(path, self.SAMPLES) == [
            EvalSplit("ID", None, (CIT_SAMPLE, LANG_SAMPLE)),
            EvalSplit("ID", 2, (LANG_SAMPLE,)),
        ]

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            [],
            {},
            {"splits": {}},
            {"splits": ["ID"]},
            {"splits": [{"hop": 2, "samples": []}]},
            {"splits": [{"name": "ID", "samples": []}]},
            {"splits": [{"name": "ID", "hop": True, "samples": []}]},
            {"splits": [{"name": "ID", "hop": 2, "samples": "s-cit"}]},
            {"splits": [{"name": "ID", "hop": 2, "samples": [1]}]},
            {"splits": [{"name": "ID", "hop": 2, "samples": ["unknown"]}]},
        ],
    )
    def test_malformed_rejected(self, tmp_path, payload):
        with pytest.raises(DataError):
            read_splits(self.write(tmp_path, payload), self.SAMPLES)
