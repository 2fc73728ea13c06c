"""Trial-and-error exploration: oracles, grounding, traces, rendering.

The citizen graph gives one supported candidate rule and one that stalls
after a single body fact, so every expected step sequence below was first
walked by hand on the five triples.
"""

from __future__ import annotations

import json
import re

import pytest

from kgreason.client import (
    VERDICT_KNOWN,
    VERDICT_UNDECIDED,
    mock_client,
)
from kgreason import explore as explore_module
from kgreason.errors import UsageError
from kgreason.explore import (
    Conclude,
    ExplorationTrace,
    KgFactOracle,
    MissingFact,
    OUTCOME_EXHAUSTED,
    OUTCOME_SUCCESS,
    _ground_chain,
    explore,
    explore_samples,
    order_candidates,
    render_trace,
)
from kgreason.generation import chain_answer, sample_id_for
from kgreason.kg import Triple
from kgreason.mining import ground_rule
from kgreason.rules import Rule, RuleStats
from kgreason.selection import SelectionPool, probe_from_client
from kgreason.templates import SIDE_OBJECT, SIDE_SUBJECT, TemplateLibrary

from conftest import kg_from

# anykid --part_of--> cckqlvy --from_country--> vevedgta closes the
# citizen_of fact; the works_for edge dead-ends (acme has no based_in),
# and bob/qatar give the based_in relation a backward stall case.
CITIZEN_TRIPLES = [
    ("anykid", "part_of", "cckqlvy"),
    ("cckqlvy", "from_country", "vevedgta"),
    ("anykid", "citizen_of", "vevedgta"),
    ("anykid", "works_for", "acme"),
    ("bob", "based_in", "qatar"),
]

RULE_GOOD = Rule("citizen_of", ("part_of", "from_country"))
RULE_STALL = Rule("citizen_of", ("works_for", "based_in"))

PLAIN_ANSWER = (
    "anykid is a part of cckqlvy. cckqlvy is from the country vevedgta. "
    "Therefore, anykid may be a citizen of vevedgta. "
    "Thus, vevedgta is the answer."
)


def citizen_kg():
    return kg_from(CITIZEN_TRIPLES)


def stats_for(rule: Rule, num: int, den: int) -> RuleStats:
    return RuleStats(rule, support=num, body_count=den)


class TestKgFactOracle:
    def test_relation_id_known_and_missing(self):
        kg = citizen_kg()
        oracle = KgFactOracle(kg)
        assert oracle.relation_id("part_of") == kg.relation_id("part_of")
        assert oracle.relation_id("no_such_relation") is None

    def test_missing_relation_id_yields_no_neighbors(self):
        kg = citizen_kg()
        oracle = KgFactOracle(kg)
        a = kg.entity_id("anykid")
        assert oracle.successors(a, None) == []
        assert oracle.predecessors(a, None) == []

    def test_neighbors_match_graph(self):
        kg = citizen_kg()
        oracle = KgFactOracle(kg)
        a = kg.entity_id("anykid")
        v = kg.entity_id("vevedgta")
        rid = kg.relation_id("citizen_of")
        assert list(oracle.successors(a, rid)) == list(kg.tails(a, rid)) == [v]
        assert list(oracle.predecessors(v, rid)) == list(kg.heads(v, rid)) == [a]


class TestProbeFactOracle:
    """``KgFactOracle`` with a probe walks only the graph facts the probe
    marks known, and asks it again for each walk."""

    def probe_setup(self):
        kg = citizen_kg()
        a = kg.entity_id("anykid")
        c = kg.entity_id("cckqlvy")
        rid = kg.relation_id("part_of")
        vetoed = Triple(a, rid, c)
        calls = []

        def probe(fact: Triple) -> str:
            calls.append(fact)
            return VERDICT_UNDECIDED if fact == vetoed else VERDICT_KNOWN

        return kg, KgFactOracle(kg, probe), a, rid, c, calls

    def test_undecided_fact_is_not_provable(self):
        kg, oracle, a, rid, c, _ = self.probe_setup()
        assert kg.holds(a, rid, c)
        assert oracle.successors(a, rid) == []
        assert oracle.predecessors(c, rid) == []

    def test_known_facts_pass_through(self):
        kg, oracle, _, _, c, _ = self.probe_setup()
        rid = kg.relation_id("from_country")
        v = kg.entity_id("vevedgta")
        assert oracle.successors(c, rid) == [v]
        assert oracle.predecessors(v, rid) == [c]

    def test_fact_absent_from_graph_skips_probe(self):
        kg, oracle, a, rid, c, calls = self.probe_setup()
        v = kg.entity_id("vevedgta")
        assert not kg.holds(a, rid, v)
        assert oracle.predecessors(v, rid) == []
        assert oracle.successors(a, None) == oracle.predecessors(c, None) == []
        assert calls == []
        # Of the part_of facts from a, only the graph's (a, c) is probed.
        oracle.successors(a, rid)
        assert calls == [Triple(a, rid, c)]
        # The oracle keeps no verdicts; a client keeps them by sentence.
        oracle.successors(a, rid)
        assert calls == [Triple(a, rid, c)] * 2

    def test_probe_from_client_renders_template_sentences(self):
        kg = citizen_kg()
        library = TemplateLibrary.builtin()
        client = mock_client({"anykid is a part of cckqlvy."})
        probe = probe_from_client(kg, library, client)
        a, c = kg.entity_id("anykid"), kg.entity_id("cckqlvy")
        rid = kg.relation_id("part_of")
        assert probe(Triple(a, rid, c)) == VERDICT_KNOWN
        # A graph fact whose sentence is not in the table reads as unknown.
        v = kg.entity_id("vevedgta")
        fc = kg.relation_id("from_country")
        assert probe(Triple(c, fc, v)) != VERDICT_KNOWN


class TestOrderCandidates:
    def test_higher_confidence_first(self):
        lib = [stats_for(RULE_STALL, 7, 10), stats_for(RULE_GOOD, 9, 10)]
        assert order_candidates(lib, "citizen_of") == [RULE_GOOD, RULE_STALL]
        assert order_candidates(list(reversed(lib)), "citizen_of") == [
            RULE_GOOD,
            RULE_STALL,
        ]

    def test_equal_confidence_prefers_fewer_hops(self):
        long_rule = Rule("citizen_of", ("part_of", "part_of", "from_country"))
        lib = [stats_for(long_rule, 9, 10), stats_for(RULE_GOOD, 9, 10)]
        assert order_candidates(lib, "citizen_of") == [RULE_GOOD, long_rule]

    def test_full_tie_breaks_on_encoding(self):
        first = Rule("citizen_of", ("a_rel", "b_rel"))
        second = Rule("citizen_of", ("b_rel", "a_rel"))
        assert first.rule_id < second.rule_id
        lib = [stats_for(second, 1, 2), stats_for(first, 1, 2)]
        assert order_candidates(lib, "citizen_of") == [first, second]

    def test_unscorable_rules_sort_last(self):
        no_bodies = RuleStats(RULE_STALL, support=0, body_count=0)
        lib = [no_bodies, stats_for(RULE_GOOD, 1, 100)]
        assert order_candidates(lib, "citizen_of") == [RULE_GOOD, RULE_STALL]

    def test_other_heads_excluded(self):
        other = Rule("born_in", ("part_of", "from_country"))
        lib = [stats_for(other, 9, 10), stats_for(RULE_GOOD, 1, 2)]
        assert order_candidates(lib, "citizen_of") == [RULE_GOOD]
        assert order_candidates(lib, "lives_in") == []


class TestGroundChain:
    def test_forward_success(self):
        kg = citizen_kg()
        oracle = KgFactOracle(kg)
        a = kg.entity_id("anykid")
        solution, failure = _ground_chain(RULE_GOOD, a, SIDE_SUBJECT, oracle)
        assert failure is None
        assert solution == tuple(
            kg.entity_id(n) for n in ("anykid", "cckqlvy", "vevedgta")
        )

    def test_backward_success(self):
        kg = citizen_kg()
        oracle = KgFactOracle(kg)
        v = kg.entity_id("vevedgta")
        solution, failure = _ground_chain(RULE_GOOD, v, SIDE_OBJECT, oracle)
        assert failure is None
        assert solution == tuple(
            kg.entity_id(n) for n in ("anykid", "cckqlvy", "vevedgta")
        )

    def test_forward_stall_reports_deepest_atom(self):
        kg = citizen_kg()
        oracle = KgFactOracle(kg)
        a = kg.entity_id("anykid")
        solution, failure = _ground_chain(RULE_STALL, a, SIDE_SUBJECT, oracle)
        assert solution is None
        assert failure.rule == RULE_STALL
        assert failure.atom_index == 1
        assert failure.grounded == (a, kg.entity_id("acme"))
        subj, rel, obj = failure.missing_fact(SIDE_SUBJECT)
        assert (subj, rel, obj) == (kg.entity_id("acme"), "based_in", None)

    def test_backward_stall_reports_first_unprovable_atom(self):
        kg = citizen_kg()
        oracle = KgFactOracle(kg)
        q = kg.entity_id("qatar")
        solution, failure = _ground_chain(RULE_STALL, q, SIDE_OBJECT, oracle)
        assert solution is None
        assert failure.atom_index == 0
        assert failure.grounded == (kg.entity_id("bob"), q)
        subj, rel, obj = failure.missing_fact(SIDE_OBJECT)
        assert (subj, rel, obj) == (None, "works_for", kg.entity_id("bob"))

    def test_backtracks_past_dead_branches(self):
        # The canonically first branch (m1) dead-ends; grounding must
        # still succeed through m2.
        kg = kg_from(
            [("aa", "r1", "m1"), ("aa", "r1", "m2"), ("m2", "r2", "yy")]
        )
        oracle = KgFactOracle(kg)
        rule = Rule("h", ("r1", "r2"))
        start = kg.entity_id("aa")
        assert list(kg.tails(start, kg.relation_id("r1"))) == [
            kg.entity_id("m1"),
            kg.entity_id("m2"),
        ]
        solution, failure = _ground_chain(rule, start, SIDE_SUBJECT, oracle)
        assert failure is None
        assert solution == (start, kg.entity_id("m2"), kg.entity_id("yy"))

    def test_stall_cites_deepest_prefix(self):
        kg = kg_from(
            [
                ("aaa", "r1", "ba"),
                ("ba", "r2", "bb"),
                ("aaa", "r1", "ca"),
                ("zz", "r3", "zz2"),
            ]
        )
        oracle = KgFactOracle(kg)
        rule = Rule("h", ("r1", "r2", "r3"))
        start = kg.entity_id("aaa")
        solution, failure = _ground_chain(rule, start, SIDE_SUBJECT, oracle)
        assert solution is None
        assert failure.atom_index == 2
        assert failure.grounded == tuple(
            kg.entity_id(n) for n in ("aaa", "ba", "bb")
        )
        # The cited continuation really is unprovable from the prefix.
        assert list(kg.tails(kg.entity_id("bb"), kg.relation_id("r3"))) == []

    def test_unknown_relation_stalls_at_its_atom(self):
        kg = citizen_kg()
        oracle = KgFactOracle(kg)
        a = kg.entity_id("anykid")
        rule = Rule("citizen_of", ("no_such_relation", "from_country"))
        solution, failure = _ground_chain(rule, a, SIDE_SUBJECT, oracle)
        assert solution is None
        assert failure.atom_index == 0
        assert failure.grounded == (a,)


class TestExplore:
    def test_recovers_after_failed_candidate(self):
        kg = citizen_kg()
        oracle = KgFactOracle(kg)
        a = kg.entity_id("anykid")
        trace = explore(
            "citizen_of", a, SIDE_SUBJECT, [RULE_STALL, RULE_GOOD], oracle
        )
        assert trace.outcome == OUTCOME_SUCCESS
        shapes = [type(s) for s in trace.steps]
        assert shapes == [MissingFact, Conclude]
        assert trace.trials == 2
        assert trace.error_count == 1
        assert sum(s.rule.hop for s in trace.steps) == 4
        conclude = trace.conclusion
        assert conclude.rule == RULE_GOOD
        assert conclude.answer == kg.entity_id("vevedgta")

    def test_clean_success(self):
        kg = citizen_kg()
        trace = explore(
            "citizen_of",
            kg.entity_id("anykid"),
            SIDE_SUBJECT,
            [RULE_GOOD],
            KgFactOracle(kg),
        )
        assert [type(s) for s in trace.steps] == [Conclude]
        assert trace.error_count == 0
        assert sum(s.rule.hop for s in trace.steps) == 2

    def test_trial_cap_exhausts(self):
        kg = citizen_kg()
        trace = explore(
            "citizen_of",
            kg.entity_id("anykid"),
            SIDE_SUBJECT,
            [RULE_STALL, RULE_GOOD],
            KgFactOracle(kg),
            max_trials=1,
        )
        assert trace.outcome == OUTCOME_EXHAUSTED
        assert [type(s) for s in trace.steps] == [MissingFact]
        assert trace.trials == 1
        assert trace.conclusion is None

    def test_zero_trials_allowed(self):
        kg = citizen_kg()
        trace = explore(
            "citizen_of",
            kg.entity_id("anykid"),
            SIDE_SUBJECT,
            [RULE_GOOD],
            KgFactOracle(kg),
            max_trials=0,
        )
        assert trace.outcome == OUTCOME_EXHAUSTED
        assert trace.steps == ()

    def test_rejects_bad_side(self):
        kg = citizen_kg()
        with pytest.raises(UsageError):
            explore(
                "citizen_of",
                kg.entity_id("anykid"),
                "sideways",
                [RULE_GOOD],
                KgFactOracle(kg),
            )

    def test_rejects_foreign_head_candidates(self):
        kg = citizen_kg()
        foreign = Rule("born_in", ("part_of", "from_country"))
        with pytest.raises(UsageError):
            explore(
                "citizen_of",
                kg.entity_id("anykid"),
                SIDE_SUBJECT,
                [foreign],
                KgFactOracle(kg),
            )

    def test_rejects_negative_cap(self):
        kg = citizen_kg()
        with pytest.raises(UsageError):
            explore(
                "citizen_of",
                kg.entity_id("anykid"),
                SIDE_SUBJECT,
                [RULE_GOOD],
                KgFactOracle(kg),
                max_trials=-1,
            )


class TestSynthesizeTrace:
    """Training-data traces: ``explore`` with ``ensure_error``."""

    def args(self):
        kg = citizen_kg()
        return kg, kg.entity_id("anykid"), KgFactOracle(kg)

    def test_prepends_one_unsupported_candidate(self):
        kg, a, oracle = self.args()
        trace = explore(
            "citizen_of",
            a,
            SIDE_SUBJECT,
            [RULE_GOOD, RULE_STALL],
            oracle,
            ensure_error=True,
        )
        assert trace.outcome == OUTCOME_SUCCESS
        assert [type(s) for s in trace.steps] == [MissingFact, Conclude]
        assert trace.steps[0].rule == RULE_STALL
        assert trace.conclusion.rule == RULE_GOOD

    def test_ensure_error_off_keeps_given_order(self):
        kg, a, oracle = self.args()
        trace = explore(
            "citizen_of",
            a,
            SIDE_SUBJECT,
            [RULE_GOOD, RULE_STALL],
            oracle,
            ensure_error=False,
        )
        assert [type(s) for s in trace.steps] == [Conclude]
        assert trace.error_count == 0

    def test_no_unsupported_candidate_gives_clean_trace(self):
        kg, a, oracle = self.args()
        trace = explore(
            "citizen_of", a, SIDE_SUBJECT, [RULE_GOOD], oracle, ensure_error=True
        )
        assert trace.error_count == 0
        assert trace.outcome == OUTCOME_SUCCESS

    def test_no_supported_candidate_exhausts(self):
        kg, a, oracle = self.args()
        trace = explore(
            "citizen_of", a, SIDE_SUBJECT, [RULE_STALL], oracle, ensure_error=True
        )
        assert trace.outcome == OUTCOME_EXHAUSTED
        assert trace.error_count == 1

    def test_grounds_each_candidate_once(self, monkeypatch):
        kg, a, oracle = self.args()
        grounded = []
        inner = explore_module._ground_chain

        def counting(rule, *args):
            grounded.append(rule)
            return inner(rule, *args)

        monkeypatch.setattr(explore_module, "_ground_chain", counting)
        other = Rule("citizen_of", ("part_of", "no_such_relation"))
        trace = explore(
            "citizen_of",
            a,
            SIDE_SUBJECT,
            [RULE_GOOD, RULE_STALL, other],
            oracle,
            ensure_error=True,
        )
        assert [s.rule for s in trace.steps] == [RULE_STALL, RULE_GOOD]
        assert grounded == [RULE_GOOD, RULE_STALL, other]


class TestRenderTrace:
    def test_clean_trace_matches_plain_chain_answer(self):
        kg = citizen_kg()
        trace = explore(
            "citizen_of",
            kg.entity_id("anykid"),
            SIDE_SUBJECT,
            [RULE_GOOD],
            KgFactOracle(kg),
        )
        text = render_trace(trace, TemplateLibrary.builtin(), kg.entity_name)
        assert text == PLAIN_ANSWER
        inst = next(ground_rule(kg, RULE_GOOD))
        assert text == chain_answer(
            inst.rule, inst.entities, inst.object, TemplateLibrary.builtin(),
            kg.entity_name,
        )

    def test_error_trace_narrates_abandoned_path(self):
        kg = citizen_kg()
        trace = explore(
            "citizen_of",
            kg.entity_id("anykid"),
            SIDE_SUBJECT,
            [RULE_STALL, RULE_GOOD],
            KgFactOracle(kg),
        )
        text = render_trace(trace, TemplateLibrary.builtin(), kg.entity_name)
        assert text.startswith(
            "To find the answer, we can follow the reasoning path: "
            "citizen_of(X, Y) <- works_for(X, Z1) & based_in(Z1, Y)."
        )
        assert (
            "anykid is an employee of acme, but since we are unsure of "
            "acme's based in, this path is not applicable." in text
        )
        assert (
            "Let's consider a different path: "
            "citizen_of(X, Y) <- part_of(X, Z1) & from_country(Z1, Y)." in text
        )
        assert text.endswith(PLAIN_ANSWER)

    def test_stall_without_prefix_keeps_entity_case(self):
        kg = kg_from(
            [
                ("Iov", "part_of", "Acme"),
                ("Acme", "from_country", "Qatar"),
                ("Iov", "citizen_of", "Qatar"),
            ]
        )
        trace = explore(
            "citizen_of",
            kg.entity_id("Iov"),
            SIDE_SUBJECT,
            [RULE_STALL, RULE_GOOD],
            KgFactOracle(kg),
        )
        text = render_trace(trace, TemplateLibrary.builtin(), kg.entity_name)
        assert (
            "Since we are unsure of Iov's works for, "
            "this path is not applicable." in text
        )
        assert "iov" not in text

    def test_backward_stall_phrases_from_known_object(self):
        kg = kg_from(
            [
                ("bob", "based_in", "qatar"),
                ("ann", "head_of", "waye"),
                ("waye", "located_in", "qatar"),
                ("ann", "citizen_of", "qatar"),
            ]
        )
        good = Rule("citizen_of", ("head_of", "located_in"))
        trace = explore(
            "citizen_of",
            kg.entity_id("qatar"),
            SIDE_OBJECT,
            [RULE_STALL, good],
            KgFactOracle(kg),
        )
        assert trace.outcome == OUTCOME_SUCCESS
        text = render_trace(trace, TemplateLibrary.builtin(), kg.entity_name)
        assert "which entity is linked to bob by works for" in text
        assert trace.conclusion.answer == kg.entity_id("ann")

    def test_refuses_exhausted_trace(self):
        kg = citizen_kg()
        trace = explore(
            "citizen_of",
            kg.entity_id("anykid"),
            SIDE_SUBJECT,
            [RULE_STALL],
            KgFactOracle(kg),
        )
        with pytest.raises(UsageError):
            render_trace(trace, TemplateLibrary.builtin(), kg.entity_name)


class TestTraceRecord:
    def test_error_trace_serializes_exactly(self):
        kg = citizen_kg()
        trace = explore(
            "citizen_of",
            kg.entity_id("anykid"),
            SIDE_SUBJECT,
            [RULE_STALL, RULE_GOOD],
            KgFactOracle(kg),
        )
        record = trace.to_record(kg.entity_name)
        assert record == {
            "steps": [
                {"type": "try_rule", "rule": RULE_STALL.rule_id},
                {
                    "type": "missing_fact",
                    "rule": RULE_STALL.rule_id,
                    "atom_index": 1,
                    "fact": ["acme", "based_in", None],
                    "prefix": [["anykid", "works_for", "acme"]],
                },
                {"type": "try_rule", "rule": RULE_GOOD.rule_id},
                {
                    "type": "conclude",
                    "rule": RULE_GOOD.rule_id,
                    "entities": ["anykid", "cckqlvy", "vevedgta"],
                    "answer": "vevedgta",
                },
            ],
            "outcome": "success",
        }
        assert json.loads(json.dumps(record)) == record

    def test_exhausted_trace_serializes(self):
        kg = citizen_kg()
        trace = explore(
            "citizen_of",
            kg.entity_id("anykid"),
            SIDE_SUBJECT,
            [RULE_STALL],
            KgFactOracle(kg),
        )
        record = trace.to_record(kg.entity_name)
        assert record["outcome"] == "exhausted"
        assert [s["type"] for s in record["steps"]] == ["try_rule", "missing_fact"]


class NothingOracle:
    """Adversarial oracle that can name relations but prove nothing."""

    def __init__(self, kg):
        self.kg = kg

    def relation_id(self, name):
        return self.kg.relation_id(name) if self.kg.has_relation(name) else None

    def successors(self, eid, rid):
        return []

    def predecessors(self, eid, rid):
        return []


class TestExploreSamples:
    def pool_for(self, kg, setting="regular", name_map=None):
        return SelectionPool(
            setting=setting,
            per_rule={RULE_GOOD.rule_id: list(ground_rule(kg, RULE_GOOD))},
            seed=0,
            name_map=name_map or {},
        )

    def library(self):
        return [stats_for(RULE_GOOD, 9, 10), stats_for(RULE_STALL, 7, 10)]

    def test_error_trace_sample(self):
        kg = citizen_kg()
        samples, counts, _ = explore_samples(
            kg,
            self.pool_for(kg),
            TemplateLibrary.builtin(),
            self.library(),
            KgFactOracle(kg),
        )
        assert counts == {
            "samples": 1,
            "skipped_ambiguous": 0,
            "skipped_exhausted": 0,
            "error_traces": 1,
            "minted_names": 0,
        }
        sample = samples[0]
        assert sample.setting == "regular"
        assert sample.hop == 2
        assert sample.rule_id == RULE_GOOD.rule_id
        assert sample.question == "Which country might anykid be a citizen of?"
        assert sample.golden_entity == "vevedgta"
        assert "this path is not applicable" in sample.answer
        assert sample.answer.endswith(PLAIN_ANSWER)
        assert sample.trace["outcome"] == "success"
        assert sample.sample_id == sample_id_for(
            "regular-trial",
            RULE_GOOD.rule_id,
            ["anykid", "cckqlvy", "vevedgta"],
            SIDE_OBJECT,
        )

    def test_without_ensure_error_answer_is_plain_chain(self):
        kg = citizen_kg()
        samples, counts, _ = explore_samples(
            kg,
            self.pool_for(kg),
            TemplateLibrary.builtin(),
            self.library(),
            KgFactOracle(kg),
            ensure_error=False,
        )
        assert counts["error_traces"] == 0
        assert samples[0].answer == PLAIN_ANSWER

    def test_exhausted_instances_skipped_and_counted(self):
        kg = citizen_kg()
        samples, counts, _ = explore_samples(
            kg,
            self.pool_for(kg),
            TemplateLibrary.builtin(),
            self.library(),
            NothingOracle(kg),
        )
        assert samples == []
        assert counts["skipped_exhausted"] == 1
        assert counts["samples"] == 0

    def test_ambiguous_instances_skipped_and_counted(self):
        kg = kg_from(
            [
                ("p", "part_of", "q"),
                ("q", "from_country", "r"),
                ("p", "citizen_of", "r"),
                ("p", "citizen_of", "s"),
                ("t", "citizen_of", "r"),
            ]
        )
        samples, counts, _ = explore_samples(
            kg,
            self.pool_for(kg),
            TemplateLibrary.builtin(),
            self.library(),
            KgFactOracle(kg),
        )
        assert counts["skipped_ambiguous"] >= 1
        assert all("p" != s.golden_entity for s in samples)

    def test_anonymized_names_used_everywhere(self):
        kg = citizen_kg()
        name_map = {
            kg.entity_id("anykid"): "Zorp",
            kg.entity_id("cckqlvy"): "Blim",
            kg.entity_id("vevedgta"): "Krag",
        }
        samples, counts, grown = explore_samples(
            kg,
            self.pool_for(kg, setting="anonymized", name_map=name_map),
            TemplateLibrary.builtin(),
            self.library(),
            KgFactOracle(kg),
        )
        sample = samples[0]
        assert sample.question == "Which country might Zorp be a citizen of?"
        assert sample.golden_entity == "Krag"
        assert "Zorp is a part of Blim." in sample.answer
        assert sample.answer.endswith("Thus, Krag is the answer.")
        assert "anykid" not in sample.answer
        # The abandoned path walked through acme, which the pool never
        # selected; it must surface under a freshly minted synthetic name.
        # The grown map keeps every pool name and adds acme's.
        acme = kg.entity_id("acme")
        assert counts["minted_names"] == 1
        assert grown.keys() - name_map.keys() == {acme}
        assert {e: grown[e] for e in name_map} == name_map
        alias = grown[acme]
        assert re.fullmatch(r"[A-Z][a-z]{2,7}", alias)
        assert alias not in {"Zorp", "Blim", "Krag"}
        assert "acme" not in sample.answer
        assert f"Zorp is an employee of {alias}" in sample.answer
        missing = [
            step
            for step in sample.trace["steps"]
            if step["type"] == "missing_fact"
        ]
        assert missing[0]["fact"][0] == alias
        again = explore_samples(
            kg,
            self.pool_for(kg, setting="anonymized", name_map=dict(name_map)),
            TemplateLibrary.builtin(),
            self.library(),
            KgFactOracle(kg),
        )
        assert again[2] == grown
        assert again[0][0].answer == sample.answer

    def test_polisher_applied_with_fallback_guard(self):
        kg = citizen_kg()
        samples, _, _ = explore_samples(
            kg,
            self.pool_for(kg),
            TemplateLibrary.builtin(),
            self.library(),
            KgFactOracle(kg),
            polisher=lambda i, t: t + " Indeed.",
        )
        assert samples[0].answer.endswith(" Indeed.")
        dropped, _, _ = explore_samples(
            kg,
            self.pool_for(kg),
            TemplateLibrary.builtin(),
            self.library(),
            KgFactOracle(kg),
            polisher=lambda i, t: "all gone",
        )
        assert dropped[0].answer.endswith(PLAIN_ANSWER)

    def test_max_trials_one_with_ensured_error_exhausts(self):
        kg = citizen_kg()
        samples, counts, _ = explore_samples(
            kg,
            self.pool_for(kg),
            TemplateLibrary.builtin(),
            self.library(),
            KgFactOracle(kg),
            max_trials=1,
        )
        assert counts["skipped_exhausted"] == 1
        assert samples == []

    def test_samples_sorted_by_id(self):
        kg = kg_from(
            CITIZEN_TRIPLES
            + [
                ("beta", "part_of", "gamma"),
                ("gamma", "from_country", "delta"),
                ("beta", "citizen_of", "delta"),
            ]
        )
        samples, counts, _ = explore_samples(
            kg,
            self.pool_for(kg),
            TemplateLibrary.builtin(),
            self.library(),
            KgFactOracle(kg),
        )
        assert counts["samples"] == 2
        assert [s.sample_id for s in samples] == sorted(
            s.sample_id for s in samples
        )
