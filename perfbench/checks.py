"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``kgreason``: every expected value is derived again
from the benchmark's own inputs (the triples file, the probe file and the
perturbation plan), so a fault in the program cannot hide itself by also
producing the expected answer.  Rule counts come from sparse adjacency
matrix products over the distinct triples: the body count of a chain rule
is the number of body paths, the sum of the entries of the product of its
body relations' matrices, and its support is the part of that sum where
the head fact holds.

Each check raises ``CheckError`` with a short reason on the first defect
it finds.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class CheckError(Exception):
    """An artifact disagrees with the independently computed expectation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_triples(path: str | Path) -> set[tuple[str, str, str]]:
    """Distinct (head, relation, tail) triples of a tab-separated file."""
    triples: set[tuple[str, str, str]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip():
                h, r, t = line.split("\t")
                triples.add((h, r, t))
    return triples


def mention(name: str) -> re.Pattern:
    """Matches ``name`` as a whole word, the way entity mentions are parsed."""
    return re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")


def read_jsonl(path: str | Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ----------------------------------------------------------------------
# rules: encoding, composition and counting


def rule_id(head: str, body: tuple[str, ...]) -> str:
    """Canonical text of ``head(X,Y) <- body`` with variables X, Z1.., Y."""
    names = ["X", *[f"Z{i}" for i in range(1, len(body))], "Y"]
    atoms = "&".join(f"{r}({names[i]},{names[i + 1]})" for i, r in enumerate(body))
    return f"{head}(X,Y)<-{atoms}"


def parse_rule_id(text: str) -> tuple[str, tuple[str, ...]]:
    head, _, body = text.partition("(X,Y)<-")
    _require(bool(head) and bool(body), f"not a rule id: {text!r}")
    rels = tuple(atom.split("(", 1)[0] for atom in body.split("&"))
    _require(rule_id(head, rels) == text, f"non-canonical rule id: {text!r}")
    return head, rels


def compose_candidates(
    base: list[tuple[str, tuple[str, ...]]], max_hop: int = 4
) -> set[tuple[str, tuple[str, ...]]]:
    """Longer chains spliced from two-hop rules, as the README defines them.

    A three-hop candidate replaces the leftmost body atom of one base rule
    that equals another base rule's head with that rule's body; a four-hop
    candidate splices a base rule into a three-hop candidate the same way.
    """

    def splice(outer, inner):
        head, body = outer
        if inner[0] not in body:
            return None
        at = body.index(inner[0])
        new_body = body[:at] + inner[1] + body[at + 1 :]
        return (head, new_body) if len(new_body) <= max_hop else None

    three = {c for o in base for i in base if (c := splice(o, i)) is not None}
    four = {c for o in three for i in base if (c := splice(o, i)) is not None}
    return three | four


class ChainCounter:
    """Path counts of chain rules by sparse adjacency matrix products."""

    def __init__(self, triples: set[tuple[str, str, str]]):
        names = sorted({h for h, _, _ in triples} | {t for _, _, t in triples})
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        edges: dict[str, tuple[list[int], list[int]]] = {}
        for h, r, t in triples:
            rows, cols = edges.setdefault(r, ([], []))
            rows.append(index[h])
            cols.append(index[t])
        self.relations = sorted(edges)
        self._adj = {
            r: sp.csr_matrix(
                (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n)
            )
            for r, (rows, cols) in edges.items()
        }
        self._products: dict[tuple[str, ...], sp.csr_matrix] = {}

    def _paths(self, body: tuple[str, ...]) -> sp.csr_matrix | None:
        if any(r not in self._adj for r in body):
            return None
        product = self._products.get(body)
        if product is None:
            if len(body) == 1:
                product = self._adj[body[0]]
            else:
                product = (self._paths(body[:-1]) @ self._adj[body[-1]]).tocsr()
            self._products[body] = product
        return product

    def count(self, head: str, body: tuple[str, ...]) -> tuple[int, int]:
        """(support, body_count) of ``head <- body`` on the graph."""
        paths = self._paths(body)
        if paths is None:
            return 0, 0
        body_count = int(paths.sum())
        support = int(paths.multiply(self._adj[head]).sum()) if head in self._adj else 0
        return support, body_count


def _read_rule_records(path: str | Path) -> list[dict]:
    records = read_jsonl(path)
    for rec in records:
        body = tuple(atom["relation"] for atom in rec["body"])
        _require(
            rec["rule"] == rule_id(rec["head"]["relation"], body),
            f"{path}: rule id {rec['rule']!r} disagrees with its atoms",
        )
        _require(rec["hop"] == len(body), f"{path}: wrong hop for {rec['rule']}")
    return records


def _check_scored(
    path, records, counter: ChainCounter, threshold: Fraction, min_support: int
) -> None:
    for rec in records:
        head, body = parse_rule_id(rec["rule"])
        support, body_count = counter.count(head, body)
        _require(
            (rec["support"], rec["body_count"]) == (support, body_count),
            f"{path}: {rec['rule']} has support/body_count "
            f"{rec['support']}/{rec['body_count']}, expected {support}/{body_count}",
        )
        _require(body_count > 0, f"{path}: {rec['rule']} has no body path")
        confidence = Fraction(support, body_count)
        _require(
            confidence > threshold,
            f"{path}: {rec['rule']} confidence {confidence} not above {threshold}",
        )
        _require(support >= min_support, f"{path}: {rec['rule']} support below minimum")
        _require(
            rec["confidence"] == float(confidence),
            f"{path}: {rec['rule']} states confidence {rec['confidence']}",
        )
    order = [(-Fraction(r["support"], r["body_count"]), r["rule"]) for r in records]
    _require(order == sorted(order), f"{path}: rules not in confidence order")


def check_mined_rules(
    path: str | Path, counter: ChainCounter, min_support: int, min_confidence: str
) -> int:
    """Every two-hop rule that passes both thresholds, and nothing else."""
    threshold = Fraction(min_confidence)
    records = _read_rule_records(path)
    _check_scored(path, records, counter, threshold, min_support)
    expected = set()
    rels = counter.relations
    for r1 in rels:
        for r2 in rels:
            for head in rels:
                support, body_count = counter.count(head, (r1, r2))
                if support >= min_support and Fraction(support, body_count) > threshold:
                    expected.add(rule_id(head, (r1, r2)))
    found = [r["rule"] for r in records]
    _require(len(found) == len(set(found)), f"{path}: duplicate rules")
    _require(set(found) == expected, f"{path}: mined rule set differs from expected")
    return len(records)


def check_library(
    path: str | Path,
    rules_path: str | Path,
    counter: ChainCounter,
    min_confidence: str,
    max_hop: int = 4,
) -> int:
    """The base rules plus every composed candidate whose confidence passes."""
    threshold = Fraction(min_confidence)
    base_records = _read_rule_records(rules_path)
    records = _read_rule_records(path)
    base = [parse_rule_id(r["rule"]) for r in base_records]
    expected = {r["rule"] for r in base_records}
    for head, body in compose_candidates(base, max_hop):
        support, body_count = counter.count(head, body)
        if body_count and Fraction(support, body_count) > threshold:
            expected.add(rule_id(head, body))
    composed = [r for r in records if r["hop"] > 2]
    _check_scored(path, composed, counter, threshold, 0)
    order = [(-Fraction(r["support"], r["body_count"]), r["rule"]) for r in records]
    _require(order == sorted(order), f"{path}: rules not in confidence order")
    by_id = {r["rule"]: r for r in records}
    _require(len(by_id) == len(records), f"{path}: duplicate rules")
    for rec in base_records:
        _require(by_id.get(rec["rule"]) == rec, f"{path}: base rule {rec['rule']} altered")
    _require(set(by_id) == expected, f"{path}: library rule set differs from expected")
    return len(records)


# ----------------------------------------------------------------------
# store


def check_store(path: str | Path, triples: set[tuple[str, str, str]]) -> int:
    """The store holds exactly the file's distinct triples, names sorted."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    entities, relations = payload["entities"], payload["relations"]
    _require(
        entities == sorted({h for h, _, _ in triples} | {t for _, _, t in triples}),
        f"{path}: entity table is not the sorted entity names",
    )
    _require(
        relations == sorted({r for _, r, _ in triples}),
        f"{path}: relation table is not the sorted relation names",
    )
    decoded = [(entities[h], relations[r], entities[t]) for h, r, t in payload["triples"]]
    _require(len(decoded) == len(triples), f"{path}: wrong triple count")
    _require(set(decoded) == triples, f"{path}: triples differ from the input file")
    return len(decoded)


# ----------------------------------------------------------------------
# regular pool, samples, traces and splits


def check_regular_pool(
    path: str | Path,
    graph: set[tuple[str, str, str]],
    probe: set[tuple[str, str, str]],
    library_path: str | Path,
) -> list[dict]:
    """Balanced, grounded, probe-consistent and leak-free."""
    records = read_jsonl(path)
    _require(bool(records), f"{path}: empty pool")
    library = {r["rule"] for r in read_jsonl(library_path)}
    per_rule: dict[str, int] = {}
    body_union = set()
    for rec in records:
        _require(rec["setting"] == "regular", f"{path}: setting {rec['setting']!r}")
        _require(rec["rule"] in library, f"{path}: {rec['rule']} not in the library")
        head, body = parse_rule_id(rec["rule"])
        ents = rec["entities"]
        expected_body = [[ents[i], r, ents[i + 1]] for i, r in enumerate(body)]
        _require(
            len(ents) == len(body) + 1 and rec["body"] == expected_body,
            f"{path}: body of {rec['rule']} is not a chain over its entities",
        )
        _require(rec["head"] == [ents[0], head, ents[-1]], f"{path}: wrong head fact")
        for fact in rec["body"]:
            _require(tuple(fact) in probe, f"{path}: body fact {fact} not in probe file")
            body_union.add(tuple(fact))
        head_fact = tuple(rec["head"])
        _require(head_fact in graph, f"{path}: head fact {head_fact} not in graph")
        _require(head_fact not in probe, f"{path}: head fact {head_fact} is probed known")
        per_rule[rec["rule"]] = per_rule.get(rec["rule"], 0) + 1
    _require(len(set(per_rule.values())) == 1, f"{path}: per-rule counts differ")
    for rec in records:
        _require(
            tuple(rec["head"]) not in body_union,
            f"{path}: head fact {rec['head']} leaks as a body fact",
        )
    return records


def check_reference_predictions(
    samples_path: str | Path, predictions_path: str | Path
) -> list[dict]:
    """Each answer names its golden entity and is echoed as the prediction."""
    samples = read_jsonl(samples_path)
    ids = [s["id"] for s in samples]
    _require(ids == sorted(set(ids)), f"{samples_path}: ids not unique and sorted")
    for s in samples:
        _require(
            mention(s["golden"]).search(s["answer"]) is not None,
            f"{samples_path}: {s['id']} answer never names the golden entity",
        )
    predictions = read_jsonl(predictions_path)
    _require(
        [(p["id"], p["output"]) for p in predictions]
        == [(s["id"], s["answer"]) for s in samples],
        f"{predictions_path}: reference predictions differ from sample answers",
    )
    return samples


def check_samples(
    samples_path: str | Path, predictions_path: str | Path, pool: list[dict]
) -> list[dict]:
    """Samples ask about pooled instances, and predictions echo the answers."""
    samples = check_reference_predictions(samples_path, predictions_path)
    ends: dict[str, set[str]] = {}
    for rec in pool:
        ends.setdefault(rec["rule"], set()).update(
            (rec["entities"][0], rec["entities"][-1])
        )
    _require(len(samples) <= len(pool), f"{samples_path}: more samples than instances")
    for s in samples:
        _require(s["rule"] in ends, f"{samples_path}: {s['id']} rule not pooled")
        _require(s["golden"] in ends[s["rule"]], f"{samples_path}: {s['id']} golden")
        _require(
            s["hop"] == len(parse_rule_id(s["rule"])[1]), f"{samples_path}: {s['id']} hop"
        )
    return samples


def check_corpus(path: str | Path, pool: list[dict]) -> int:
    """The corpus states every pooled body fact and no head fact."""
    body = {tuple(f) for rec in pool for f in rec["body"]}
    heads = {tuple(rec["head"]) for rec in pool}
    stated = {tuple(f) for doc in read_jsonl(path) for f in doc["facts"]}
    _require(stated == body, f"{path}: corpus facts differ from pooled body facts")
    _require(not (stated & heads), f"{path}: corpus states a head fact")
    return len(stated)


def check_explore(
    samples_path: str | Path,
    graph: set[tuple[str, str, str]],
    probe: set[tuple[str, str, str]],
) -> int:
    """Every fact on a concluding chain is in the graph and probed known."""
    samples = read_jsonl(samples_path)
    _require(bool(samples), f"{samples_path}: no explored samples")
    for s in samples:
        trace = s["trace"]
        _require(trace["outcome"] == "success", f"{samples_path}: {s['id']} outcome")
        concludes = [st for st in trace["steps"] if st["type"] == "conclude"]
        _require(len(concludes) == 1, f"{samples_path}: {s['id']} must conclude once")
        step = concludes[0]
        _, body = parse_rule_id(step["rule"])
        ents = step["entities"]
        _require(len(ents) == len(body) + 1, f"{samples_path}: {s['id']} chain length")
        for i, rel in enumerate(body):
            fact = (ents[i], rel, ents[i + 1])
            _require(fact in graph, f"{samples_path}: {s['id']} fact {fact} not in graph")
            _require(fact in probe, f"{samples_path}: {s['id']} fact {fact} not probed")
        _require(step["answer"] == s["golden"], f"{samples_path}: {s['id']} answer")
    return len(samples)


def check_splits(
    path: str | Path,
    sample_paths: list[str | Path],
    training_rules_path: str | Path,
    per_bucket: int | None = None,
) -> dict[str, list[str]]:
    """ID/OOD by training-rule membership, bucketed by hop.

    With ``per_bucket`` each hop bucket must hold that many of its eligible
    samples, or all of them when there are fewer; the overall split of a
    group is the union of its hop buckets.
    """
    training = {r["rule"] for r in read_jsonl(training_rules_path)}
    samples = [s for p in sample_paths for s in read_jsonl(p)]
    with open(path, "r", encoding="utf-8") as fh:
        splits = json.load(fh)["splits"]
    found = {
        (rec["name"], rec["hop"]): sorted(rec["samples"]) for rec in splits
    }
    expected_keys = {(name, hop) for name in ("ID", "OOD") for hop in (None, 2, 3, 4)}
    _require(set(found) == expected_keys, f"{path}: wrong set of splits")
    for name, member in (("ID", True), ("OOD", False)):
        group = [s for s in samples if (s["rule"] in training) == member]
        overall: list[str] = []
        for hop in (2, 3, 4):
            eligible = {s["id"] for s in group if s["hop"] == hop}
            size = len(eligible) if per_bucket is None else min(per_bucket, len(eligible))
            bucket = found[(name, hop)]
            _require(
                set(bucket) <= eligible and len(set(bucket)) == len(bucket) == size,
                f"{path}: {name}-{hop}hop is not {size} of its eligible samples",
            )
            overall.extend(bucket)
        _require(
            found[(name, None)] == sorted(overall),
            f"{path}: {name}-all is not the union of its hop buckets",
        )
    return {
        f"{name}-all" if hop is None else f"{name}-{hop}hop": ids
        for (name, hop), ids in found.items()
    }


# ----------------------------------------------------------------------
# evaluation


def check_report(
    path: str | Path, splits: dict[str, list[str]], plan: dict[str, str]
) -> int:
    """Verdicts follow the perturbation plan, split by split.

    ``plan`` maps every sample id to ``untouched``, ``swapped`` (each
    mention of the answer replaced by another mapped name) or ``emptied``
    (every mapped name removed).  Untouched predictions are the reference
    answers and must be correct; swapped ones must not be; emptied ones
    must be unparseable.  Exact match must count the untouched ones.
    """
    with open(path, "r", encoding="utf-8") as fh:
        results = {r["split"]: r for r in json.load(fh)["splits"]}
    nonempty = {key: ids for key, ids in splits.items() if ids}
    _require(set(results) == set(nonempty), f"{path}: reported splits differ")
    for key, ids in nonempty.items():
        kinds = [plan[sid] for sid in ids]
        untouched = kinds.count("untouched")
        emptied = kinds.count("emptied")
        r = results[key]
        _require(r["samples"] == len(ids), f"{path}: {key} sample count")
        _require(
            r["exact_match"]["correct"] == untouched
            and r["exact_match"]["total"] == len(ids),
            f"{path}: {key} exact match {r['exact_match']} but {untouched} "
            f"of {len(ids)} predictions are untouched",
        )
        verdicts = r["verdicts"]
        _require(
            verdicts.get("correct", 0) == untouched,
            f"{path}: {key} has {verdicts.get('correct', 0)} correct, "
            f"expected {untouched}",
        )
        _require(
            verdicts.get("unparseable", 0) == emptied,
            f"{path}: {key} has {verdicts.get('unparseable', 0)} unparseable, "
            f"expected {emptied}",
        )
        _require(sum(verdicts.values()) == len(ids), f"{path}: {key} verdict total")
    return sum(len(ids) for ids in nonempty.values())
