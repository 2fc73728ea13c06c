"""Benchmark for the kgreason pipeline: one workload per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run first makes the workload's inputs from ``--seed`` several times
(``setup_s`` is the median), then repeats rounds of the workload's timed
stage sequence until they have taken ``--seconds`` in all.  Each stage is its own
``python -m kgreason STAGE`` process, as a user runs it, so every stage pays
interpreter start, imports and a cold ``re`` cache.  After each round the
outputs of every stage are checked by ``checks.py``, which never calls the
program.  An operation is one stage invocation with its check; ``failed``
counts the invocations that exited non-zero or never ran because an
earlier stage of their round failed.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` each round is
run twice, plainly and then with every stage under ``tracer.py``, and the
per-layer metrics are printed; the spans of the last traced round are
written to ``perfbench/_traces/WORKLOAD-seedN.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checks
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
TRACES = HERE / "_traces"
TRACER = HERE / "tracer.py"

STAGE_TIMEOUT_S = 150
POLL_S = 0.002


class StageRun(NamedTuple):
    code: int
    wall_s: float
    rss_mb: float


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(cmd: list[str], cwd: Path, log: Path) -> StageRun:
    """Run ``cmd`` to its end; wall time and the process's own peak RSS.

    ``os.wait4`` gives the resource usage of exactly this child, so the
    peak RSS of one stage is not mixed with any other process.
    """
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=_env(), stdin=subprocess.DEVNULL, stdout=out,
            stderr=subprocess.STDOUT,
        )
        deadline = start + STAGE_TIMEOUT_S
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    os.kill(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(POLL_S)
        except BaseException:
            # Interrupted before the child was reaped: end it, then re-raise.
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(proc.returncode, wall, usage.ru_maxrss / 1024)


def kgreason_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "kgreason", *argv]


class SetupError(Exception):
    pass


def run_untimed(argv: list[str], cwd: Path) -> None:
    res = run_process(kgreason_cmd(argv), cwd, cwd / "stages.log")
    if res.code != 0:
        raise SetupError(f"set-up stage {argv[0]} exited {res.code} in {cwd}")


class Round(NamedTuple):
    ok: list[str]
    failed: int
    pipeline_s: float
    peak_rss_mb: float


def run_round(
    stages: list[tuple[str, list[str]]], directory: Path, trace_dir: Path | None
) -> Round:
    directory.mkdir()
    ok: list[str] = []
    walls, rss = [], []
    for i, (stage, argv) in enumerate(stages):
        if trace_dir is None:
            cmd = kgreason_cmd([stage, *argv])
        else:
            out = trace_dir / f"{i}-{stage}.json"
            cmd = [sys.executable, str(TRACER), str(out), stage, *argv]
        res = run_process(cmd, directory, directory / "stages.log")
        walls.append(res.wall_s)
        rss.append(res.rss_mb)
        if res.code != 0:
            print(f"perfbench: {stage} exited {res.code} in {directory}", file=sys.stderr)
            return Round(ok, len(stages) - i, sum(walls), max(rss))
        ok.append(stage)
    return Round(ok, 0, sum(walls), max(rss))


# ----------------------------------------------------------------------
# per-layer metrics from the traced stages

def layer_metrics(payloads: list[dict]) -> dict[str, float]:
    """Sum span times and counters over the stages of one traced round.

    A time metric ``NAME_s`` is the total duration of spans named NAME.  A
    layer's self time is the time of its spans minus what their direct
    children cover; ``stage.*`` spans belong to the ``cli`` layer.
    """
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for payload in payloads:
        add("cli.import_s", payload["import_s"])
        add("mining.composed_kept", payload["stage_counts"].get("composed_kept", 0))
        for key, value in payload["counters"].items():
            add(key, value)
        spans = payload["spans"]
        duration = [(end - start) if end is not None else 0.0 for _, start, end, _ in spans]
        child_time = [0.0] * len(spans)
        for i, (name, _, _, parent) in enumerate(spans):
            add(f"{name}_s", duration[i])
            if parent >= 0:
                child_time[parent] += duration[i]
        for i, (name, _, _, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            add(f"self.{'cli' if layer == 'stage' else layer}_s", duration[i] - child_time[i])
        loads = sum(1 for span in spans if span[0] == "kg.load")
        add("kg.load_calls", loads)
        add("kg.repeat_loads", max(0, loads - 1))
    scored = out.get("mining.score_rule_calls", 0)
    out["mining.kept_ratio"] = out["mining.composed_kept"] / scored if scored else 0.0
    grounded = out.get("mining.groundings", 0)
    out["selection.kept_ratio"] = (
        out.get("selection.pool_instances", 0) / grounded if grounded else 0.0
    )
    return out


# ----------------------------------------------------------------------
# one run


def _rmtree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path
) -> tuple[bool, int, int, dict[str, float]]:
    """(correct, attempted, failed, metric values) of one run."""
    compile_log = workdir / "compile.log"
    if run_process(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "kgreason")], workdir, compile_log
    ).code != 0:
        raise SetupError("the kgreason sources do not compile")

    setup_times = []
    for k in range(workload.setup_reps):
        directory = workdir / f"setup-{k}"
        directory.mkdir()
        start = time.perf_counter()
        workload.prepare(directory, seed, run_untimed)
        setup_times.append(time.perf_counter() - start)
        if k:
            _rmtree(workdir / f"setup-{k - 1}")
    inputs = workdir / "inputs"
    (workdir / f"setup-{workload.setup_reps - 1}").rename(inputs)

    correct = True
    try:
        expected = workload.expect(inputs)
    except (checks.CheckError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: set-up outputs fail their check: {exc}", file=sys.stderr)
        correct, expected = False, None

    stages = workload.stages(seed)
    attempted = failed = 0
    plain: list[Round] = []
    layers: list[dict[str, float]] = []
    k = 0
    timed = 0.0
    # Only stage time counts towards --seconds, so a run's number of rounds
    # does not depend on how long its checks take.
    while k == 0 or timed < seconds:
        for traced in (False, True) if trace else (False,):
            directory = workdir / f"round-{k}{'-traced' if traced else ''}"
            trace_dir = None
            if traced:
                trace_dir = workdir / f"trace-{k}"
                trace_dir.mkdir()
            result = run_round(stages, directory, trace_dir)
            timed += result.pipeline_s
            attempted += len(stages)
            failed += result.failed
            if expected is not None:
                for stage in result.ok:
                    try:
                        workload.check(stage, directory, expected)
                    except (checks.CheckError, OSError, ValueError, KeyError) as exc:
                        print(f"perfbench: {stage} output is wrong: {exc}", file=sys.stderr)
                        correct = False
            if not traced:
                plain.append(result)
            elif result.failed == 0:
                payloads = [
                    json.loads(p.read_text(encoding="utf-8"))
                    for p in sorted(trace_dir.iterdir(), key=lambda p: int(p.name.split("-")[0]))
                ]
                metrics = layer_metrics(payloads)
                metrics["trace.overhead_s"] = result.pipeline_s - plain[-1].pipeline_s
                layers.append(metrics)
                TRACES.mkdir(exist_ok=True)
                with open(TRACES / f"{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
                    json.dump({"workload": workload.name, "seed": seed, "stages": payloads}, fh)
            _rmtree(directory)
        k += 1

    if trace:
        names = set().union(*layers)
        values = {name: statistics.median(m.get(name, 0) for m in layers) for name in names}
    else:
        values = {
            "pipeline_s": statistics.median(r.pipeline_s for r in plain),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "setup_s": statistics.median(setup_times),
        }
    return correct, attempted, failed, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the running stage
    # is ended and the run directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "kgreason" / "__main__.py").is_file():
        print(f"perfbench: no kgreason package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    workdir = RUNS / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    _rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        correct, attempted, failed, values = measure(
            workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        _rmtree(workdir)

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
