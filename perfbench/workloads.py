"""The benchmark's workloads: how each makes its inputs, which stages it
times, and which independent check each stage's output must pass.

Every input is made from the benchmark's ``--seed``; the program only ever
sees the generated files.  Stages run in a fresh round directory and read
the prepared inputs from ``../inputs``.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from typing import Callable

import checks

# A callable that runs one kgreason stage in a directory and raises when it
# fails; run.py supplies it so that preparation stages run like timed ones.
RunStage = Callable[[list, Path], None]

INPUTS = "../inputs"


class Workload:
    name = ""
    # Set-up repeats per run; the median is reported as setup_s.
    setup_reps = 7

    def prepare(self, directory: Path, seed: int, run: RunStage) -> None:
        """Write the inputs into ``directory`` and run untimed stages."""
        raise NotImplementedError

    def stages(self, seed: int) -> list[tuple[str, list[str]]]:
        """The timed stage sequence as (stage, argv) pairs."""
        raise NotImplementedError

    def expect(self, inputs: Path) -> dict:
        """Independent expectations built once from the prepared inputs."""
        return {}

    def check(self, stage: str, directory: Path, expected: dict) -> None:
        """Raise ``checks.CheckError`` when a stage's output is wrong."""
        raise NotImplementedError


class Planted100kRegular(Workload):
    """ingest -> split on a 100k planted graph, regular setting.

    The probe file the mock client answers from is a seeded share of the
    graph's triples, so body facts are mostly known and a head fact is
    unknown often enough to fill the pool.
    """

    name = "planted-100k-regular"
    triples = 100_000
    probe_share = 0.8
    per_rule = 300
    min_support, min_confidence = 2, "0.6"

    def prepare(self, directory, seed, run):
        run(["synth", "--out", "triples.tsv", "--kind", "planted",
             "--triples", str(self.triples), "--seed", str(seed)], directory)
        rng = random.Random(f"probe-{seed}")
        with open(directory / "triples.tsv", "r", encoding="utf-8") as src, open(
            directory / "probe.tsv", "w", encoding="utf-8"
        ) as dst:
            for line in src:
                if rng.random() < self.probe_share:
                    dst.write(line)

    def stages(self, seed):
        s = str(seed)
        probe = ["--client", "mock", "--probe-facts", f"{INPUTS}/probe.tsv"]
        return [
            ("ingest", ["--triples", f"{INPUTS}/triples.tsv", "--store", "store.json"]),
            ("mine", ["--store", "store.json", "--out", "rules.tsv",
                      "--min-support", str(self.min_support),
                      "--min-confidence", self.min_confidence]),
            ("compose", ["--store", "store.json", "--rules", "rules.tsv",
                         "--out", "library.tsv"]),
            ("select", ["--store", "store.json", "--library", "library.tsv",
                        "--pool", "pool.tsv", "--setting", "regular",
                        "--per-rule", str(self.per_rule), *probe, "--seed", s]),
            ("generate", ["--store", "store.json", "--pool", "pool.tsv",
                          "--samples", "samples.jsonl", "--corpus", "corpus.jsonl",
                          "--predictions", "preds.jsonl", "--seed", s]),
            ("explore", ["--store", "store.json", "--pool", "pool.tsv",
                         "--library", "library.tsv", "--samples", "trial_samples.jsonl",
                         "--predictions", "trial_preds.jsonl", "--oracle", "probe",
                         *probe, "--seed", s]),
            ("split", ["--samples", "samples.jsonl", "trial_samples.jsonl",
                       "--training-rules", "rules.tsv", "--out", "splits.json",
                       "--seed", s]),
        ]

    def expect(self, inputs):
        graph = checks.read_triples(inputs / "triples.tsv")
        return {
            "graph": graph,
            "probe": checks.read_triples(inputs / "probe.tsv"),
            "counter": checks.ChainCounter(graph),
        }

    def check(self, stage, d, e):
        if stage == "ingest":
            checks.check_store(d / "store.json", e["graph"])
        elif stage == "mine":
            checks.check_mined_rules(
                d / "rules.tsv", e["counter"], self.min_support, self.min_confidence
            )
        elif stage == "compose":
            checks.check_library(
                d / "library.tsv", d / "rules.tsv", e["counter"], self.min_confidence
            )
        elif stage == "select":
            checks.check_regular_pool(
                d / "pool.tsv", e["graph"], e["probe"], d / "library.tsv"
            )
        elif stage == "generate":
            pool = checks.read_jsonl(d / "pool.tsv")
            checks.check_samples(d / "samples.jsonl", d / "preds.jsonl", pool)
            checks.check_corpus(d / "corpus.jsonl", pool)
        elif stage == "explore":
            pool = checks.read_jsonl(d / "pool.tsv")
            checks.check_samples(d / "trial_samples.jsonl", d / "trial_preds.jsonl", pool)
            checks.check_explore(d / "trial_samples.jsonl", e["graph"], e["probe"])
        elif stage == "split":
            checks.check_splits(
                d / "splits.json",
                [d / "samples.jsonl", d / "trial_samples.jsonl"],
                d / "rules.tsv",
            )


class Planted10kEvaluate(Workload):
    """One evaluate over the README's anonymized 10k closed loop.

    Set-up runs the quick start up to split, with every split bucket capped
    at ``per_bucket`` samples, so every seed evaluates the same number of
    predictions (48: the ID 2-hop, OOD 3-hop and OOD 4-hop buckets).  Then
    the benchmark writes the reference predictions of the split's samples
    and rewrites a seeded share of them: a quarter get every mention of the
    answer swapped for another mapped name, an eighth lose every mapped
    name.  The rest stay as the program wrote them.
    """

    name = "planted-10k-evaluate"
    setup_reps = 3
    triples = 10_000
    # Enough instances per rule that every bucket still holds per_bucket
    # samples after the leakage filter has rebalanced the pool.
    per_rule = 6
    per_bucket = 16

    def prepare(self, directory, seed, run):
        s = str(seed)
        for argv in (
            ["synth", "--out", "triples.tsv", "--kind", "planted",
             "--triples", str(self.triples), "--seed", s],
            ["ingest", "--triples", "triples.tsv", "--store", "store.json"],
            ["mine", "--store", "store.json", "--out", "rules.tsv",
             "--min-support", "2", "--min-confidence", "0.6"],
            ["compose", "--store", "store.json", "--rules", "rules.tsv",
             "--out", "library.tsv"],
            ["select", "--store", "store.json", "--library", "library.tsv",
             "--pool", "pool.tsv", "--map", "map.tsv", "--setting", "anonymized",
             "--per-rule", str(self.per_rule), "--seed", s],
            ["generate", "--store", "store.json", "--pool", "pool.tsv",
             "--map", "map.tsv", "--samples", "samples.jsonl",
             "--corpus", "corpus.jsonl", "--predictions", "preds.jsonl", "--seed", s],
            ["explore", "--store", "store.json", "--pool", "pool.tsv",
             "--map", "map.tsv", "--map-out", "trial_map.tsv",
             "--library", "library.tsv", "--samples", "trial_samples.jsonl",
             "--predictions", "trial_preds.jsonl", "--oracle", "kg", "--seed", s],
            ["split", "--samples", "samples.jsonl", "trial_samples.jsonl",
             "--training-rules", "rules.tsv", "--out", "splits.json",
             "--per-bucket", str(self.per_bucket), "--seed", s],
        ):
            run(argv, directory)
        perturb_predictions(directory, seed)

    def stages(self, seed):
        return [
            ("evaluate", [
                "--store", f"{INPUTS}/store.json",
                "--library", f"{INPUTS}/library.tsv",
                "--splits", f"{INPUTS}/splits.json",
                "--samples", f"{INPUTS}/samples.jsonl", f"{INPUTS}/trial_samples.jsonl",
                "--predictions", f"{INPUTS}/bench_preds.jsonl",
                "--map", f"{INPUTS}/trial_map.tsv",
                "--report", "report.json",
            ]),
        ]

    def expect(self, inputs):
        for samples, preds in (
            ("samples.jsonl", "preds.jsonl"),
            ("trial_samples.jsonl", "trial_preds.jsonl"),
        ):
            checks.check_reference_predictions(inputs / samples, inputs / preds)
        with open(inputs / "plan.json", "r", encoding="utf-8") as fh:
            plan = json.load(fh)
        splits = checks.check_splits(
            inputs / "splits.json",
            [inputs / "samples.jsonl", inputs / "trial_samples.jsonl"],
            inputs / "rules.tsv",
            self.per_bucket,
        )
        return {"plan": plan, "splits": splits}

    def check(self, stage, d, e):
        checks.check_report(d / "report.json", e["splits"], e["plan"])


def perturb_predictions(directory: Path, seed: int) -> None:
    """Write ``bench_preds.jsonl`` for the split's samples and the
    ``plan.json`` it follows."""
    with open(directory / "splits.json", "r", encoding="utf-8") as fh:
        members = {sid for split in json.load(fh)["splits"] for sid in split["samples"]}
    samples = {}
    for name in ("samples.jsonl", "trial_samples.jsonl"):
        for s in checks.read_jsonl(directory / name):
            if s["id"] in members:
                samples[s["id"]] = s
    names = []
    with open(directory / "trial_map.tsv", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                names.append(line.rstrip("\n").split("\t")[1])
    names.sort()
    any_name = re.compile(
        "|".join(checks.mention(n).pattern for n in sorted(names, key=len, reverse=True))
    )
    rng = random.Random(f"perturb-{seed}")
    ids = sorted(samples)
    n_swap, n_empty = len(ids) // 4, len(ids) // 8
    chosen = rng.sample(ids, n_swap + n_empty)
    plan = {sid: "untouched" for sid in ids}
    plan.update({sid: "swapped" for sid in chosen[:n_swap]})
    plan.update({sid: "emptied" for sid in chosen[n_swap:]})
    outputs = {}
    for sid in ids:
        text, golden = samples[sid]["answer"], samples[sid]["golden"]
        golden_re = checks.mention(golden)
        if plan[sid] == "swapped":
            other = rng.choice([n for n in names if n.casefold() != golden.casefold()])
            text = golden_re.sub(other, text)
            left = golden_re.search(text)
        elif plan[sid] == "emptied":
            text = any_name.sub("", text)
            left = any_name.search(text)
        else:
            left = None
        if left is not None:
            raise RuntimeError(f"perturbing {sid} left the name {left.group(0)!r}")
        outputs[sid] = text
    with open(directory / "bench_preds.jsonl", "w", encoding="utf-8") as fh:
        for sid in ids:
            fh.write(json.dumps({"id": sid, "output": outputs[sid]}, ensure_ascii=False))
            fh.write("\n")
    with open(directory / "plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1, sort_keys=True)


class DenseCompose(Workload):
    """mine -> compose on a small dense graph the benchmark generates.

    Every entity has exactly ``out_degree`` distinct successors under each
    relation, picked at random, so every seed gives the same number of body
    paths for every chain and the scoring work does not depend on the seed
    (a uniform random graph of this size varies it by about 10 %).  With 4
    relations and confidences near 0.1, the 0.07 threshold keeps nearly all
    2-hop rules, so composition reaches all 256 3-hop and 1024 4-hop bodies
    and scoring them by path enumeration is nearly all of the time.  The
    store is built in set-up: graph generation alone is too brief to time
    steadily, and this workload is the no-change side for store work.
    """

    name = "dense-compose"
    entities, relations, out_degree = 30, 4, 3
    min_support, min_confidence = 2, "0.07"

    def prepare(self, directory, seed, run):
        rng = random.Random(f"dense-{seed}")
        with open(directory / "triples.tsv", "w", encoding="utf-8") as fh:
            for e in range(self.entities):
                for r in range(self.relations):
                    for t in sorted(rng.sample(range(self.entities), self.out_degree)):
                        fh.write(f"e{e}\tr{r}\te{t}\n")
        run(["ingest", "--triples", "triples.tsv", "--store", "store.json"], directory)

    def stages(self, seed):
        return [
            ("mine", ["--store", f"{INPUTS}/store.json", "--out", "rules.tsv",
                      "--min-support", str(self.min_support),
                      "--min-confidence", self.min_confidence]),
            ("compose", ["--store", f"{INPUTS}/store.json", "--rules", "rules.tsv",
                         "--out", "library.tsv", "--min-confidence", self.min_confidence]),
        ]

    def expect(self, inputs):
        graph = checks.read_triples(inputs / "triples.tsv")
        checks.check_store(inputs / "store.json", graph)
        return {"counter": checks.ChainCounter(graph)}

    def check(self, stage, d, e):
        if stage == "mine":
            checks.check_mined_rules(
                d / "rules.tsv", e["counter"], self.min_support, self.min_confidence
            )
        elif stage == "compose":
            checks.check_library(
                d / "library.tsv", d / "rules.tsv", e["counter"], self.min_confidence
            )


WORKLOADS = {w.name: w for w in (Planted100kRegular(), Planted10kEvaluate(), DenseCompose())}
