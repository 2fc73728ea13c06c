"""Rule encoding, stats arithmetic, and the rules file format."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgreason.errors import DataError, UsageError
from kgreason.kg import RESERVED_RELATION_CHARS
from kgreason.rules import (
    Rule,
    RuleStats,
    chain_vars,
    read_rules,
    sort_stats,
    write_rules,
)

from rule_oracles import atom_rule_id, sort_stats_by_fraction, write_rules_by_atoms

relation_names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)

# Any non-empty name without a reserved character: quotes, backslashes,
# control characters and non-ASCII text all go through JSON escaping.
# (Surrogates cannot be written as UTF-8 at all.)
free_names = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="".join(RESERVED_RELATION_CHARS),
    ),
    min_size=1,
    max_size=6,
)
free_rules = st.builds(
    Rule, free_names, st.lists(free_names, min_size=1, max_size=4).map(tuple)
)


class TestRuleShape:
    def test_chain_vars(self):
        assert chain_vars(2) == ("X", "Z1", "Y")
        assert chain_vars(4) == ("X", "Z1", "Z2", "Z3", "Y")

    def test_two_hop_encoding(self):
        rule = Rule("r1", ("r2", "r3"))
        assert rule.hop == 2
        assert rule.rule_id == "r1(X,Y)<-r2(X,Z1)&r3(Z1,Y)"
        assert rule.formula() == "r1(X, Y) <- r2(X, Z1) & r3(Z1, Y)"

    def test_formula_atoms(self):
        assert Rule("h", ("a",)).formula() == "h(X, Y) <- a(X, Y)"
        assert Rule("h", ("a", "b")).formula() == "h(X, Y) <- a(X, Z1) & b(Z1, Y)"
        assert Rule("h", ("a", "b", "c")).formula() == (
            "h(X, Y) <- a(X, Z1) & b(Z1, Z2) & c(Z2, Y)"
        )
        assert Rule("h", ("a", "b", "c", "d")).formula() == (
            "h(X, Y) <- a(X, Z1) & b(Z1, Z2) & c(Z2, Z3) & d(Z3, Y)"
        )

    @pytest.mark.parametrize(
        "body", [(), [], iter(())], ids=["tuple", "list", "iterator"]
    )
    def test_empty_body_is_rejected(self, body):
        with pytest.raises(UsageError, match="at least one atom"):
            Rule("h", body)

    def test_body_is_stored_as_a_tuple(self):
        rule = Rule("h", iter(["a", "b"]))
        assert rule.body_relations == ("a", "b")
        assert rule == Rule("h", ("a", "b"))

    def test_decode_round_trip(self):
        rid = "h(X,Y)<-a(X,Z1)&b(Z1,Z2)&c(Z2,Y)"
        assert Rule.decode(rid).rule_id == rid

    def test_decode_rejects_non_canonical(self):
        with pytest.raises(DataError):
            Rule.decode("h(X,Y)<-a(X,Q)&b(Q,Y)")
        with pytest.raises(DataError):
            Rule.decode("not a rule")

    @settings(max_examples=50, deadline=None)
    @given(relation_names, st.lists(relation_names, min_size=2, max_size=4))
    def test_encode_decode_inverse(self, head, body):
        rule = Rule(head, tuple(body))
        assert Rule.decode(rule.rule_id) == rule


class TestRuleStats:
    def test_confidence_exact_fraction(self):
        stats = RuleStats(Rule("r1", ("r2", "r3")), 1, 2)
        assert stats.confidence == Fraction(1, 2)
        assert stats.support == 1

    def test_unscorable_when_no_groundings(self):
        stats = RuleStats(Rule("r1", ("r2", "r3")), 0, 0)
        assert stats.confidence is None

    def test_sort_descending_confidence_then_encoding(self):
        a = RuleStats(Rule("b", ("p", "q")), 3, 4)   # 0.75
        b = RuleStats(Rule("a", ("p", "q")), 1, 2)   # 0.5
        c = RuleStats(Rule("a", ("p", "r")), 2, 4)   # 0.5, later encoding
        d = RuleStats(Rule("z", ("p", "q")), 0, 0)   # unscorable last
        assert sort_stats([d, c, b, a]) == [a, b, c, d]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcdef"),
                # Small counts repeat confidences under several spellings
                # (1/2, 2/4, 3/6) and give unscorable 0/0 stats; large ones
                # give confidences that share a floor of 2**64 times their
                # value, which only the exact comparison tells apart.
                st.one_of(
                    st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    st.tuples(
                        st.integers(2**70, 2**70 + 3), st.integers(2**71, 2**71 + 3)
                    ),
                ),
            ),
            max_size=40,
        )
    )
    @example([("a", (1, 2)), ("b", (2, 4)), ("c", (3, 6)), ("d", (0, 0))])
    @example([("a", (2**70 + 1, 2**71 + 1)), ("b", (2**70, 2**71)), ("c", (0, 0))])
    def test_sort_equals_fraction_key_oracle(self, specs):
        stats = [
            RuleStats(Rule(head, ("p", "q")), support, body)
            for head, (support, body) in specs
        ]
        assert sort_stats(stats) == sort_stats_by_fraction(stats)


class TestRulesFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        stats = [
            RuleStats(Rule("r1", ("r2", "r3")), 5, 8),
            RuleStats(Rule("h", ("a", "b", "c")), 2, 3),
        ]
        assert write_rules(path, stats) == 2
        loaded = read_rules(path)
        assert [s.rule for s in loaded] == [s.rule for s in stats]
        assert [s.confidence for s in loaded] == [Fraction(5, 8), Fraction(2, 3)]
        assert [s.support for s in loaded] == [5, 2]

    def test_confidence_recomputed_exactly(self, tmp_path):
        # The file stores a float rendering for humans, but reloading must
        # restore the exact ratio from the integer counters.
        path = tmp_path / "rules.jsonl"
        write_rules(path, [RuleStats(Rule("r1", ("r2", "r3")), 1, 3)])
        (loaded,) = read_rules(path)
        assert loaded.confidence == Fraction(1, 3)

    def test_reject_inconsistent_line(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text('{"rule": "zzz", "hop": 2}\n')
        with pytest.raises(DataError):
            read_rules(path)

    # Counts that no rules file can mean.  Each once read as a rule: 2.7 as
    # support 2, "7" as 7, true as 1, -3/-1 as confidence 3 and 5/2 as 5/2.
    @pytest.mark.parametrize(
        "support, body_count",
        [
            (2.7, 3),
            ("7", 9),
            (True, 1),
            (1, True),
            (1, 2.0),
            (-3, -1),
            (-1, 2),
            (5, 2),
        ],
        ids=[
            "float-support",
            "string-support",
            "bool-support",
            "bool-body-count",
            "float-body-count",
            "negative-counts",
            "negative-support",
            "support-above-body-count",
        ],
    )
    def test_counts_no_rules_file_can_mean_are_rejected(
        self, tmp_path, support, body_count
    ):
        path = tmp_path / "rules.jsonl"
        write_rules(path, [RuleStats(Rule("g", ("a", "b")), 1, 2)])
        record = {
            "head": {"relation": "h"},
            "body": [{"relation": "a"}, {"relation": "b"}],
            "support": support,
            "body_count": body_count,
        }
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(DataError, match="rules.jsonl: bad rule record on line 2"):
            read_rules(path)

    def test_count_bounds_are_inclusive(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        stats = [
            RuleStats(Rule("g", ("a", "b")), 0, 0),
            RuleStats(Rule("h", ("a", "b")), 0, 2),
            RuleStats(Rule("i", ("a", "b")), 2, 2),
        ]
        write_rules(path, stats)
        assert read_rules(path) == stats

    def test_a_rule_listed_twice_is_rejected(self, tmp_path):
        # The second line repeats the rule of the first, with other counts.
        path = tmp_path / "rules.jsonl"
        write_rules(path, [
            RuleStats(Rule("h", ("a", "b")), 1, 2),
            RuleStats(Rule("h", ("a", "b")), 1, 3),
        ])
        with pytest.raises(
            DataError,
            match=r"rules.jsonl: bad rule record on line 2: rule "
            r"'h\(X,Y\)<-a\(X,Z1\)&b\(Z1,Y\)' is listed twice",
        ):
            read_rules(path)


class TestReservedNames:
    def test_ambiguous_pair_cannot_be_built(self):
        # Both would encode as h(X,Y)<-a(X,Z1)&b(X,Z1)&c(Z1,Y).
        with pytest.raises(DataError):
            Rule("h", ("a(X,Z1)&b", "c"))
        with pytest.raises(DataError):
            Rule("h", ("a", "b(X,Z1)&c"))

    @pytest.mark.parametrize("char", sorted(RESERVED_RELATION_CHARS))
    def test_reserved_character_in_head_or_body(self, char):
        with pytest.raises(DataError):
            Rule(f"h{char}", ("a", "b"))
        with pytest.raises(DataError):
            Rule("h", ("a", f"b{char}c"))

    def test_well_formed_control(self):
        rule = Rule("h", ("a", "b", "c"))
        assert Rule.decode(rule.rule_id) == rule

    @pytest.mark.parametrize(
        "head, first",
        [('"h"', '"a(X,Z1)&b"'), ('["h"]', '"a"'), ('"h"', "7"), ("null", '"a"')],
        ids=["reserved", "list-head", "int-body", "null-head"],
    )
    def test_bad_relation_in_rules_file_is_data_error(self, tmp_path, head, first):
        path = tmp_path / "rules.jsonl"
        path.write_text(
            f'{{"head": {{"relation": {head}}}, "body": [{{"relation": {first}}}, '
            '{"relation": "c"}], "support": 1, "body_count": 1}\n'
        )
        with pytest.raises(DataError):
            read_rules(path)


class TestFastPathOracles:
    """The encoding and the writer match their atom-by-atom originals."""

    @settings(max_examples=200, deadline=None)
    @given(free_rules)
    @example(Rule("0", ("\n",)))
    def test_rule_id_equals_atom_encoding(self, rule):
        assert rule.rule_id == atom_rule_id(rule)
        assert Rule.decode(rule.rule_id) == rule

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                free_rules,
                st.integers(0, 10**30),
                st.integers(0, 10**30),
            ),
            max_size=8,
        )
    )
    @example([
        (Rule('q"h\\', ("\x01a\tb", "é☃\u2028")), 1, 3),
        (Rule("\x7f\\n", ('"', "\x1f", "𝄞")), 10**29 + 7, 10**30 - 1),
        (Rule("h", ("\r\n", "b")), 0, 0),
    ])
    def test_write_rules_bytes_equal_atom_writer(self, tmp_path_factory, rows):
        stats = [
            RuleStats(rule, min(y, x), x) for rule, y, x in rows
        ]
        d = tmp_path_factory.mktemp("rules")
        assert write_rules(d / "fast.jsonl", stats) == len(stats)
        write_rules_by_atoms(d / "atoms.jsonl", stats)
        assert (d / "fast.jsonl").read_bytes() == (d / "atoms.jsonl").read_bytes()
