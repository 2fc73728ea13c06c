"""A stage's graph is freed by reference counting alone.

A 100k store holds over a hundred thousand adjacency lists.  If anything
that refers to the graph sits in a reference cycle once a stage's work
returns, the whole graph lives on until a full cyclic collection, which
then has to walk it.  Here cyclic GC stays off while select and explore
run, so any graph still alive after their results are dropped was kept by
such a cycle.
"""

from __future__ import annotations

import gc

import pytest

from kgreason import explore, mining, selection, synthetic
from kgreason.client import mock_client
from kgreason.kg import KnowledgeGraph
from kgreason.templates import TemplateLibrary


def graphs_alive() -> int:
    return sum(type(obj) is KnowledgeGraph for obj in gc.get_objects())


@pytest.fixture
def gc_off():
    gc.collect()
    before = graphs_alive()
    gc.disable()
    try:
        yield before
    finally:
        gc.enable()


def run_select_and_explore(setting: str, oracle_kind: str) -> None:
    """Select and explore as their stages do, on a small planted graph;
    the graph and every result are dropped on return."""
    facts = synthetic.planted_triples(seed=3, target_triples=1500)
    kg = KnowledgeGraph.from_lines("\t".join(fact) for fact in facts)
    stats = mining.filter_stats(mining.mine_rule_stats(kg), 2, "0.6")
    per_rule = {st.rule.rule_id: list(mining.ground_rule(kg, st.rule)) for st in stats}
    templates = TemplateLibrary.builtin()
    # The mock model knows every body fact.
    known = {
        templates.render_fact(kg, fact, kg.entity_name)
        for instances in per_rule.values()
        for inst in instances
        for fact in inst.body_facts
    }
    probe = selection.probe_from_client(kg, templates, mock_client(known))
    pool, _ = selection.select_pipeline(
        kg, per_rule, 2, 7, setting, probe if setting == "regular" else None
    )
    assert pool.size()
    oracle = explore.KgFactOracle(kg, probe if oracle_kind == "probe" else None)
    samples, counts, _ = explore.explore_samples(kg, pool, templates, stats, oracle)
    assert samples and counts["samples"] == len(samples)


@pytest.mark.parametrize(
    "setting, oracle_kind",
    [("regular", "probe"), ("anonymized", "kg")],
)
def test_no_graph_outlives_select_and_explore(gc_off, setting, oracle_kind):
    run_select_and_explore(setting, oracle_kind)
    assert graphs_alive() == gc_off
