"""Acceptance suite: end-to-end checks of the shipped behaviour.

Each test covers one acceptance criterion, prints exactly one
``[acceptance N] PASS/FAIL - detail`` line, and then asserts.  The checks
lean on the independent brute-force oracles in ``bruteforce.py`` and on
the session-wide command-line pipeline runs from ``conftest.py`` so that
nothing here trusts the code under test to judge itself.
"""

from __future__ import annotations

import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bruteforce import brute_chain_groundings, brute_rule_score, brute_two_hop
from conftest import PIPELINE_ARTIFACTS, ground_instances, kg_from, random_triples
from kgreason.evaluation import MatchScore
from kgreason.explore import (
    KgFactOracle,
    MissingFact,
    OUTCOME_EXHAUSTED,
    OUTCOME_SUCCESS,
    explore,
    order_candidates,
)
from kgreason.generation import QUERY_SKIP, query_entities, select_query_side
from kgreason.kg import KnowledgeGraph, Triple
from kgreason.mining import (
    compose_library,
    exact_fraction,
    filter_stats,
    ground_rule,
    iter_body_groundings,
    mine_rule_stats,
    score_rule,
)
from kgreason.rules import Rule, RuleStats, write_rules
from kgreason.selection import SETTING_ANONYMIZED, Groundings, select_pipeline
from kgreason.synthetic import planted_triples
from kgreason.synthetic import random_triples as uniform_triples
from kgreason.templates import SIDE_OBJECT, SIDE_SUBJECT
from rule_oracles import all_triples, compose_rules
from test_evaluation import (
    CIT_SAMPLE,
    LANG_SAMPLE,
    OUT_FACT1,
    OUT_FACT2,
    OUT_RULE_ERROR,
    make_evaluator,
)
from test_explore import NothingOracle

SYNTHETIC_NAME = re.compile(r"[A-Z][a-z]{2,7}\Z")


def announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def stats_key(stats: RuleStats) -> tuple[str, ...]:
    return (stats.rule.head_relation, *stats.rule.body_relations)


def instance_names(kg: KnowledgeGraph, rule: Rule) -> set[tuple[str, ...]]:
    return {
        tuple(kg.entity_name(eid) for eid in entities)
        for entities in ground_rule(kg, rule)
    }


def grounding_names(kg: KnowledgeGraph, rule: Rule) -> set[tuple[str, ...]]:
    return {
        tuple(kg.entity_name(eid) for eid in chain)
        for chain in iter_body_groundings(kg, rule)
    }


# ----------------------------------------------------------------------
# 1. mined rule statistics agree with exhaustive enumeration


def test_criterion_1_mining_matches_bruteforce(capsys):
    rng = random.Random(1001)
    mining_elapsed = 0.0
    problems: list[str] = []
    graphs = 0
    rules_checked = 0
    wall_start = time.perf_counter()
    for trial in range(100):
        triples = random_triples(
            rng,
            rng.randint(2, 50),
            rng.randint(1, 10),
            rng.randint(1, 300),
        )
        kg = kg_from(triples)
        start = time.perf_counter()
        mined = mine_rule_stats(kg)
        mining_elapsed += time.perf_counter() - start
        expected = brute_two_hop(triples)
        got = {stats_key(st): st for st in mined}
        if set(got) != set(expected):
            problems.append(f"trial {trial}: rule sets differ")
            continue
        for key, ref in expected.items():
            st = got[key]
            if (
                st.support != ref["support"]
                or st.body_count != ref["body_count"]
                or st.confidence != ref["confidence"]
            ):
                problems.append(f"trial {trial}: counts differ for {key}")
                continue
            if instance_names(kg, st.rule) != ref["instances"]:
                problems.append(f"trial {trial}: instances differ for {key}")
            rules_checked += 1
        graphs += 1
    wall = time.perf_counter() - wall_start
    ok = not problems and graphs == 100 and mining_elapsed < 10.0
    detail = (
        f"{graphs} random graphs, {rules_checked} rules matched exhaustive "
        f"counts and instance sets; mining {mining_elapsed:.2f}s "
        f"(wall {wall:.2f}s, budget 10s)"
    )
    if problems:
        detail = f"{problems[0]} ({len(problems)} problems); " + detail
    announce(capsys, 1, ok, detail)


# ----------------------------------------------------------------------
# 2. confidence threshold is exact and strict at the boundary


def test_criterion_2_threshold_boundary(capsys):
    at_boundary = RuleStats(Rule("r0", ("r1", "r2")), 3, 5)
    just_above = RuleStats(Rule("r0", ("r1", "r3")), 61, 100)
    rescaled_boundary = RuleStats(Rule("r0", ("r1", "r4")), 60, 100)
    low_support = RuleStats(Rule("r0", ("r1", "r5")), 1, 1)
    kept = filter_stats(
        [at_boundary, just_above, rescaled_boundary, low_support],
        min_support=2,
        min_confidence="0.6",
    )
    checks = [
        kept == [just_above],
        exact_fraction("0.6") == Fraction(3, 5),
        exact_fraction("0.6") != Fraction(0.6),
        at_boundary.confidence == Fraction(3, 5),
        rescaled_boundary.confidence == Fraction(3, 5),
        just_above.confidence == Fraction(61, 100),
    ]
    ok = all(checks)
    announce(
        capsys,
        2,
        ok,
        "3/5 and 60/100 rejected at threshold 0.6, 61/100 kept, support "
        "minimum inclusive, decimal parsed exactly",
    )


# ----------------------------------------------------------------------
# 3. composed longer rules re-ground and re-score like a direct join


def test_criterion_3_composition_matches_joint_enumeration(capsys):
    outer = Rule("citizen_of", ("born_in", "city_of"))
    inner = Rule("born_in", ("lives_in", "part_of"))
    spliced = compose_rules(outer, inner)
    splice_ok = (
        spliced.head_relation == "citizen_of"
        and spliced.body_relations == ("lives_in", "part_of", "city_of")
        and spliced.rule_id
        == "citizen_of(X,Y)<-lives_in(X,Z1)&part_of(Z1,Z2)&city_of(Z2,Y)"
    )

    problems: list[str] = []
    composed_checked = 0

    def check_graph(label: str, triples, min_support, min_confidence):
        nonlocal composed_checked
        kg = kg_from(triples)
        base = filter_stats(
            mine_rule_stats(kg), min_support=min_support, min_confidence=min_confidence
        )
        composed = compose_library([st.rule for st in base], max_hop=4)
        base_heads = {st.rule.head_relation for st in base}
        for rule in composed:
            if not 3 <= len(rule.body_relations) <= 4:
                problems.append(f"{label}: bad hop for {rule.rule_id}")
            if rule.head_relation not in base_heads:
                problems.append(f"{label}: foreign head in {rule.rule_id}")
            expected = brute_chain_groundings(triples, rule.body_relations)
            if grounding_names(kg, rule) != expected:
                problems.append(f"{label}: groundings differ for {rule.rule_id}")
            scored = score_rule(kg, rule)
            body_count, closed = brute_rule_score(
                triples, rule.head_relation, rule.body_relations
            )
            if (
                scored.body_count != body_count
                or scored.support != closed
            ):
                problems.append(f"{label}: score differs for {rule.rule_id}")
            composed_checked += 1

    check_graph("planted", planted_triples(21, 1500), 2, "0.6")
    rng = random.Random(3003)
    for trial in range(10):
        triples = random_triples(rng, 30, 6, 150)
        check_graph(f"random {trial}", triples, 1, "0.3")

    ok = splice_ok and not problems and composed_checked >= 6
    detail = (
        f"leftmost splice canonical; {composed_checked} composed rules match "
        "joint-path enumeration and direct rescoring"
    )
    if not splice_ok:
        detail = "spliced rule encoding wrong; " + detail
    if problems:
        detail = f"{problems[0]} ({len(problems)} problems); " + detail
    announce(capsys, 3, ok, detail)


# ----------------------------------------------------------------------
# 4. selection pools are balanced, leak-free, and injectively renamed


def test_criterion_4_selection_balanced_and_leak_free(capsys):
    rng = random.Random(4004)
    problems: list[str] = []
    non_empty = 0
    multi_rule = 0
    pools = 0
    for trial in range(100):
        triples = random_triples(rng, 30, 6, 150)
        kg = kg_from(triples)
        stats = filter_stats(mine_rule_stats(kg), min_support=1, min_confidence="0.2")
        per_rule = {
            st.rule.rule_id: Groundings(kg, st.rule, ground_rule(kg, st.rule))
            for st in stats
        }
        pool, mapping = select_pipeline(
            kg, per_rule, 3, seed=trial, setting=SETTING_ANONYMIZED
        )
        pools += 1
        counts = {rid: len(insts) for rid, insts in pool.per_rule.items()}
        if len(set(counts.values())) > 1:
            problems.append(f"trial {trial}: pool not balanced")
        body_union = pool.body_fact_union()
        for inst in pool.instances():
            if inst.head_fact in body_union:
                problems.append(f"trial {trial}: query fact leaks into context")
                break
        if pool.size():
            non_empty += 1
            multi_rule += len(counts) > 1
            if mapping is None:
                problems.append(f"trial {trial}: no name map returned")
                continue
            synthetic = list(mapping.values())
            if len(set(synthetic)) != len(synthetic):
                problems.append(f"trial {trial}: name map not injective")
            real = set(kg.entity_names())
            for name in synthetic:
                if name in real or not SYNTHETIC_NAME.match(name):
                    problems.append(f"trial {trial}: bad synthetic name {name!r}")
                    break
            if set(mapping) != set(pool.entity_ids()):
                problems.append(f"trial {trial}: map does not cover the pool")
    ok = not problems and pools == 100 and non_empty >= 50 and multi_rule >= 25
    detail = (
        f"{pools} selection runs, {non_empty} non-empty pools, {multi_rule} "
        "of them over several rules: balanced "
        "counts, no query fact in any context, synthetic names injective "
        "and disjoint from real ones"
    )
    if problems:
        detail = f"{problems[0]} ({len(problems)} problems); " + detail
    announce(capsys, 4, ok, detail)


# ----------------------------------------------------------------------
# 5. trial-and-error search is sound against the graph oracle


def test_criterion_5_explore_soundness(capsys):
    triples = planted_triples(17, 2000)
    kg = kg_from(triples)
    base = filter_stats(mine_rule_stats(kg), min_support=2, min_confidence="0.6")
    composed: list[RuleStats] = []
    for rule in compose_library([st.rule for st in base], max_hop=4):
        scored = score_rule(kg, rule)
        if scored.confidence is not None and scored.confidence > Fraction(3, 5):
            composed.append(scored)
    library = list(base) + composed
    heads = sorted({st.rule.head_relation for st in library})
    candidates_for = {head: order_candidates(library, head) for head in heads}

    queries: list[tuple[str, int, str]] = []
    flipped: list[tuple[str, int, str]] = []
    for st in library:
        for inst in ground_instances(kg, st.rule):
            side = select_query_side(kg, inst)
            if side == QUERY_SKIP:
                continue
            known, _asked = query_entities(inst, side)
            known_side = SIDE_SUBJECT if side == SIDE_OBJECT else SIDE_OBJECT
            queries.append((st.rule.head_relation, known, known_side))
            flipped.append((st.rule.head_relation, inst.object, SIDE_OBJECT))
    assert len(queries) >= 1000, f"only {len(queries)} explore queries available"
    queries = queries[:1200] + flipped[:300]
    directions = {known_side for _, _, known_side in queries}
    assert directions == {SIDE_SUBJECT, SIDE_OBJECT}

    oracle = KgFactOracle(kg)
    problems: list[str] = []
    successes = 0
    exhausted = 0

    def relation_id(name: str):
        return kg.relation_id(name) if kg.has_relation(name) else None

    # The graph's facts and adjacency, rebuilt from its triples alone.
    facts: set[tuple[int, int, int]] = set()
    tails: dict[tuple[int, int], list[int]] = {}
    heads: dict[tuple[int, int], list[int]] = {}
    for fact in all_triples(kg):
        facts.add((fact.head, fact.relation, fact.tail))
        tails.setdefault((fact.head, fact.relation), []).append(fact.tail)
        heads.setdefault((fact.tail, fact.relation), []).append(fact.head)

    def check_trace(head: str, known: int, known_side: str, trace) -> None:
        nonlocal successes, exhausted
        cands = candidates_for[head]
        if trace.trials > len(cands):
            problems.append("more trials than candidates")
            return
        missing_steps = [s for s in trace.steps if isinstance(s, MissingFact)]
        tried = list(trace.steps)
        if trace.error_count != len(missing_steps):
            problems.append("error_count mismatch")
        if sum(s.rule.hop for s in tried) != sum(len(s.rule.body_relations) for s in tried):
            problems.append("rendered hop count mismatch")
        for step in missing_steps:
            body = step.rule.body_relations
            hop = len(body)
            grounded = step.grounded
            if known_side == SIDE_SUBJECT:
                if grounded[0] != known:
                    problems.append("forward prefix does not start at the query")
                offset = 0
            else:
                if grounded[-1] != known:
                    problems.append("backward suffix does not end at the query")
                offset = hop - (len(grounded) - 1)
            for i in range(len(grounded) - 1):
                rid = relation_id(body[offset + i])
                if rid is None or (grounded[i], rid, grounded[i + 1]) not in facts:
                    problems.append("reported grounded prefix not in the graph")
                    break
            rid = relation_id(body[step.atom_index])
            if known_side == SIDE_SUBJECT:
                extensions = tails.get((grounded[-1], rid), [])
            else:
                extensions = heads.get((grounded[0], rid), [])
            if extensions:
                problems.append("declared-missing step was actually provable")
        if trace.outcome == OUTCOME_SUCCESS:
            successes += 1
            conclusion = trace.conclusion
            body = conclusion.rule.body_relations
            entities = conclusion.entities
            if conclusion.rule.head_relation != head:
                problems.append("conclusion under the wrong head relation")
            if len(entities) != len(body) + 1:
                problems.append("conclusion chain has the wrong length")
                return
            anchor = entities[0] if known_side == SIDE_SUBJECT else entities[-1]
            answer = entities[-1] if known_side == SIDE_SUBJECT else entities[0]
            if anchor != known or conclusion.answer != answer:
                problems.append("conclusion endpoints wrong")
            for i, rel in enumerate(body):
                rid = relation_id(rel)
                if rid is None or (entities[i], rid, entities[i + 1]) not in facts:
                    problems.append("successful chain contains a non-fact")
                    break
        else:
            exhausted += 1
            if trace.trials != len(cands):
                problems.append("gave up before trying every candidate")
            if len(missing_steps) != trace.trials:
                problems.append("exhausted trace has unexpected steps")

    for head, known, known_side in queries:
        trace = explore(head, known, known_side, candidates_for[head], oracle)
        check_trace(head, known, known_side, trace)
        if problems:
            break

    adversarial_failures = 0
    nothing = NothingOracle(kg)
    for head, known, known_side in queries[:50]:
        trace = explore(head, known, known_side, candidates_for[head], nothing)
        if (
            trace.outcome != OUTCOME_EXHAUSTED
            or trace.trials != len(candidates_for[head])
            or any(
                isinstance(s, MissingFact) and s.grounded != (known,)
                for s in trace.steps
            )
        ):
            adversarial_failures += 1

    ok = not problems and adversarial_failures == 0 and successes >= 1
    detail = (
        f"{len(queries)} queries: {successes} proven chains all hold in the "
        f"graph, {exhausted} exhausted after every candidate, every reported "
        "missing fact truly unprovable; 50 nothing-known runs all exhaust"
    )
    if problems:
        detail = f"{problems[0]}; " + detail
    if adversarial_failures:
        detail = f"{adversarial_failures} adversarial runs misbehaved; " + detail
    announce(capsys, 5, ok, detail)


# ----------------------------------------------------------------------
# 6. emitted samples carry the advertised reasoning depth


def test_criterion_6_sample_depths(capsys, pipeline_dir):
    plain = [
        json.loads(line)
        for line in (pipeline_dir / "samples.jsonl").read_text().splitlines()
        if line
    ]
    trial = [
        json.loads(line)
        for line in (pipeline_dir / "trial_samples.jsonl").read_text().splitlines()
        if line
    ]
    problems: list[str] = []

    by_hop: dict[int, list[dict]] = {}
    for record in plain:
        by_hop.setdefault(record["hop"], []).append(record)
    if sorted(by_hop) != [2, 3, 4]:
        problems.append(f"hops present: {sorted(by_hop)}")
    for hop, records in sorted(by_hop.items()):
        depths = []
        for record in records:
            body = record["answer"].split(" Therefore, ")[0]
            depths.append(body.count(". ") + 1)
            decoded = Rule.decode(record["rule"])
            if len(decoded.body_relations) != record["hop"]:
                problems.append(f"{record['id']}: hop field disagrees with rule")
        mean = sum(depths) / len(depths)
        if mean != hop:
            problems.append(f"pure {hop}-hop subset averages {mean} sentences")

    error_traces = 0
    for record in trial:
        steps = record["trace"]["steps"]
        tried = sum(
            len(Rule.decode(step["rule"]).body_relations)
            for step in steps
            if step["type"] == "try_rule"
        )
        if any(step["type"] == "missing_fact" for step in steps):
            error_traces += 1
            if tried <= record["hop"]:
                problems.append(
                    f"{record['id']}: detour trace not longer than the final chain"
                )
    ok = not problems and error_traces >= 1 and all(by_hop.values())
    detail = (
        f"{len(plain)} plain samples: each pure k-hop subset averages exactly "
        f"k chain sentences for k in (2, 3, 4); {error_traces} detour traces "
        "all expend more hops than their final chain"
    )
    if problems:
        detail = f"{problems[0]} ({len(problems)} problems); " + detail
    announce(capsys, 6, ok, detail)


# ----------------------------------------------------------------------
# 7. scoring arithmetic is exact and error labels are specific


def test_criterion_7_scoring_and_verdicts(capsys):
    checks = [MatchScore(34, 201).percent == "16.92"]
    frozen = {
        (1, 3): "33.33",
        (2, 3): "66.67",
        (1, 8): "12.50",
        (0, 7): "0.00",
        (7, 7): "100.00",
    }
    for (correct, total), expected in frozen.items():
        checks.append(MatchScore(correct, total).percent == expected)
    rng = random.Random(7007)
    for _ in range(500):
        total = rng.randint(1, 10_000)
        correct = rng.randint(0, total)
        score = MatchScore(correct, total)
        checks.append(score.percent == f"{100.0 * correct / total:.2f}")

    evaluator = make_evaluator()
    rule_verdict = evaluator.classify(evaluator.parse(OUT_RULE_ERROR), CIT_SAMPLE)
    fact1_verdict = evaluator.classify(evaluator.parse(OUT_FACT1), CIT_SAMPLE)
    fact2_verdict = evaluator.classify(evaluator.parse(OUT_FACT2), LANG_SAMPLE)
    checks += [
        rule_verdict.label == "rule_error",
        fact1_verdict.label == "fact_error:1",
        fact2_verdict.label == "fact_error:2",
    ]
    ok = all(checks)
    announce(
        capsys,
        7,
        ok,
        "34/201 prints 16.92, 505 scores print 100·correct/total to two "
        "places, and the "
        "three reference outputs label rule_error / fact_error:1 / "
        "fact_error:2",
    )


# ----------------------------------------------------------------------
# 8. the closed-loop pipeline self-evaluates perfectly and reruns
#    byte-for-byte


def test_criterion_8_closed_loop_and_determinism(
    capsys, pipeline_dir, pipeline_rerun_dir
):
    problems: list[str] = []
    report = json.loads((pipeline_dir / "report.json").read_text())
    splits = report["splits"]
    if not splits:
        problems.append("report has no splits")
    id_all = next((s for s in splits if s["split"] == "ID-all"), None)
    if id_all is None or id_all["exact_match"]["percent"] != "100.00":
        problems.append("ID-all exact match is not 100.00")
    ood = [s for s in splits if s["split"].startswith("OOD")]
    if not ood:
        problems.append("no held-out rule split evaluated")
    for split in splits:
        verdicts = split["verdicts"]
        total = split["exact_match"]["total"]
        correct = split["exact_match"]["correct"]
        if sum(verdicts.values()) != total:
            problems.append(f"{split['split']}: verdicts do not cover the split")
        accounted = (
            total
            - verdicts.get("unparseable", 0)
            - verdicts.get("valid_alternative", 0)
            - sum(
                count
                for kind, count in verdicts.items()
                if kind.startswith(("fact_error", "rule_error"))
            )
        )
        if correct != accounted or correct != verdicts.get("correct", 0):
            problems.append(f"{split['split']}: verdict ledger does not balance")

    differing = []
    for name in PIPELINE_ARTIFACTS:
        first = (pipeline_dir / name).read_bytes()
        second = (pipeline_rerun_dir / name).read_bytes()
        if first != second:
            differing.append(name)
    if differing:
        problems.append(f"rerun differs: {', '.join(differing)}")

    ok = not problems
    detail = (
        f"{len(splits)} splits all balance their verdict ledgers, ID-all "
        f"scores 100.00, and a from-scratch rerun reproduces all "
        f"{len(PIPELINE_ARTIFACTS)} artifacts byte-for-byte"
    )
    if problems:
        detail = f"{problems[0]}; " + detail
    announce(capsys, 8, ok, detail)


# ----------------------------------------------------------------------
# 9. mining scales to a hundred thousand facts and ignores triple order


def test_criterion_9_scale_and_order_invariance(capsys, tmp_path):
    triples = uniform_triples(99, 5000, 10, 100_000)
    lines = [f"{s}\t{r}\t{o}" for s, r, o in triples]
    load_start = time.perf_counter()
    kg = KnowledgeGraph.from_lines(lines)
    load_elapsed = time.perf_counter() - load_start

    mine_start = time.perf_counter()
    mined = mine_rule_stats(kg)
    mine_elapsed = time.perf_counter() - mine_start
    mined_reversed = mine_rule_stats(KnowledgeGraph.from_lines(reversed(lines)))

    forward_path = tmp_path / "forward.tsv"
    reversed_path = tmp_path / "reversed.tsv"
    write_rules(forward_path, mined)
    write_rules(reversed_path, mined_reversed)
    same_bytes = forward_path.read_bytes() == reversed_path.read_bytes()

    ok = (
        kg.num_triples > 90_000
        and mine_elapsed < 60.0
        and mined == mined_reversed
        and same_bytes
        and len(mined) > 0
    )
    announce(
        capsys,
        9,
        ok,
        f"{kg.num_triples} facts mined in {mine_elapsed:.1f}s (load "
        f"{load_elapsed:.1f}s, budget 60s); the triples fed in reverse line "
        f"order give byte-identical rule files ({len(mined)} rules)",
    )
