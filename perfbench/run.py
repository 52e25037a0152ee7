"""Run one benchmark workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload fct-conga-enterprise --seed 1 --trace 0

Each round is a fresh ``perfbench/round.py`` process, so every round pays
the user's whole path from interpreter launch to its last verified output.
Rounds repeat until ``--seconds`` (default: ``run_seconds`` in
BENCHMARK.json) is used up, at least two of them; each
end-to-end metric is the median over the rounds.  ``--trace 1`` is the
separate traced run: it reports the per-layer metrics instead, from
untraced rounds plus one round of the same inputs under cProfile.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed check
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads
from workloads import COUNTS, PACKAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench-work"

WORKLOADS = tuple(workloads.WORKLOADS)

#: (name, unit) of the end-to-end metrics, in print order.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_events_per_s", "events/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)
#: (name, unit, span summed per round) of the timed layer metrics.
LAYER_TIMES = (
    ("import_s", "s", "import"),
    ("scenarios.load_s", "s", "scenarios.load"),
    ("topology.build_s", "s", "topology.build"),
    ("runner.sweep_s", "s", "runner.sweep"),
    ("runner.warm_sweep_s", "s", "runner.warm_sweep"),
)
#: (name, unit, span whose every call is one sample).
LAYER_CALLS = (
    ("apps.point_s", "s", "apps.point"),
    ("analysis.report_s", "s", "analysis.report"),
)
LAYER_EXTRA = (
    ("runner.parallel_efficiency", "ratio"),
    ("runner.cache_kb_per_point", "KiB"),
    ("analysis.report_kb", "KiB"),
)
#: Two, so that a run always repeats the fct anchor point at least once.
MIN_ROUNDS = 2
#: A round that runs longer than this is killed, which fails the run.
ROUND_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The checkout cannot run the benchmark."""


class RoundResult:
    """One finished round: its JSON line plus what the parent measured."""

    def __init__(self, line: dict, launched: float, usage) -> None:
        self.line = line
        self.launched = launched
        self.usage = usage

    def end_to_end(self) -> dict[str, float]:
        marks = self.line["marks"]
        simulating = marks["sim_end"] - marks["setup_end"]
        return {
            "wall_s": marks["done"] - self.launched,
            "setup_s": marks["setup_end"] - self.launched,
            "sim_events_per_s": self.line["simulated_events"] / simulating,
            "cpu_s": self.usage.ru_utime + self.usage.ru_stime,
            "peak_rss_mb": self.usage.ru_maxrss / 1024,
        }

    def span_total(self, name: str) -> float:
        return sum(self.line["spans"].get(name, []))


def benchmark_spec() -> dict:
    """The checkout's BENCHMARK.json: run length, metrics and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_checkout() -> None:
    """Refuse to run anywhere the program's source is missing."""
    needed = ROOT / "src" / "repro" / "__init__.py"
    if not needed.exists():
        raise BenchError(f"{needed} is missing; run from a checkout of the repo")


def warm_up() -> None:
    """Import the program once, untimed, so bytecode caches exist."""
    subprocess.run(
        [sys.executable, "-c", "import repro.apps, repro.runner, repro.scenarios, repro.analysis"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
        timeout=ROUND_TIMEOUT_S,
    )


def run_round(workload: str, seed: int, index: int, workdir: Path, *, profile: bool = False) -> RoundResult:
    """Launch one round process, wait for it and reap it with its rusage."""
    command = [
        sys.executable, str(HERE / "round.py"),
        "--workload", workload, "--seed", str(seed), "--round", str(index),
        "--workdir", str(workdir / f"round{index}"),
    ] + (["--profile"] if profile else [])
    log = workdir / f"round{index}{'-traced' if profile else ''}.stderr"
    with log.open("wb") as stderr:
        launched = time.monotonic()
        # Its own process group, so a timeout also kills its sweep workers.
        proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr, start_new_session=True
        )
        watchdog = threading.Timer(ROUND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            output = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = output.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = log.read_text()[-2000:]
        raise RuntimeError(f"{workload} round {index} exited {proc.returncode}:\n{tail}")
    return RoundResult(json.loads(lines[-1]), launched, usage)


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run rounds for ``seconds`` and reduce them to one result."""
    workdir = WORKDIR / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    warm_up()
    started = time.monotonic()
    rounds: list[RoundResult] = []
    traced = None
    if trace:
        rounds.append(run_round(workload, seed, 0, workdir))
        traced = run_round(workload, seed, 0, workdir, profile=True)
    while True:
        elapsed = time.monotonic() - started
        if len(rounds) >= MIN_ROUNDS:
            typical = statistics.median(r.end_to_end()["wall_s"] for r in rounds)
            if elapsed + typical / 2 > seconds:
                break
        rounds.append(run_round(workload, seed, len(rounds), workdir))
    elapsed = time.monotonic() - started
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORKDIR.rmdir()  # only once no other workload's rounds are in it

    everything = rounds + ([traced] if traced else [])
    errors = [e for r in everything for e in r.line["errors"]]
    # A point that recurs (the fct anchor, every point of a traced round)
    # must reproduce its records; a traced round also its exact counts.
    errors += checks.check_repeats([r.line["digests"] for r in everything])
    if traced is not None and traced.line["counts"] != rounds[0].line["counts"]:
        errors.append(
            f"traced round counts {traced.line['counts']} differ from "
            f"untraced {rounds[0].line['counts']}"
        )
    ops = {k: sum(r.line["ops"][k] for r in everything) for k in ("points", "flows", "requests")}
    failed = {k: sum(r.line["failed"][k] for r in everything) for k in ops}
    # Every failed operation also left an error or a known-fault message.
    known = sorted({m for r in everything for m in r.line["known_faults"]})

    if trace:
        metrics = layer_metrics(rounds, traced)
    else:
        per_round = [r.end_to_end() for r in rounds]
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_round), "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "workload": workload,
        "rounds": len(rounds),
        "round_walls": [r.end_to_end()["wall_s"] for r in rounds],
        "elapsed_s": elapsed,
        "correct": not errors,
        "errors": errors,
        "known_faults": known,
        "ops": ops,
        "failed_ops": failed,
        "metrics": metrics,
    }


def layer_metrics(rounds: list[RoundResult], traced: RoundResult) -> dict:
    """Per-layer metrics: timings from the untraced rounds, exact counts
    and the per-package split from the traced round."""
    metrics = {}
    for name, unit, span in LAYER_TIMES:
        value = median_or_zero([r.span_total(span) for r in rounds if span in r.line["spans"]])
        metrics[name] = {"value": value, "unit": unit}
    for name, unit, span in LAYER_CALLS:
        samples = [s for r in rounds for s in r.line["spans"].get(span, [])]
        metrics[name] = {"value": median_or_zero(samples), "unit": unit}
    for name, unit in LAYER_EXTRA:
        samples = [r.line["extra"][name] for r in rounds if name in r.line["extra"]]
        metrics[name] = {"value": median_or_zero(samples), "unit": unit}
    counts = traced.line["counts"]
    for name in COUNTS:
        metrics[name] = {"value": counts[name], "unit": "count"}
    metrics["sim.events_per_hop"] = {
        "value": counts["sim.events"] / counts["net.packets"],
        "unit": "events/packet",
    }
    for package in PACKAGES:
        split = traced.line["layers"][package]
        metrics[f"{package}.self_s"] = {"value": split["self_s"], "unit": "s"}
        metrics[f"{package}.calls"] = {"value": split["calls"], "unit": "count"}
    metrics["trace.overhead"] = {
        "value": traced.end_to_end()["wall_s"] / rounds[0].end_to_end()["wall_s"],
        "unit": "ratio",
    }
    return metrics


def print_result(result: dict) -> None:
    print(
        f"{result['workload']}: {result['rounds']} rounds in "
        f"{result['elapsed_s']:.1f} s, correct={result['correct']}"
    )
    walls = " ".join(f"{w:.3f}" for w in result["round_walls"])
    print(f"  round wall_s: {walls}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    ops, failed = result["ops"], result["failed_ops"]
    print(
        "  attempted "
        + ", ".join(f"{k} {v}" for k, v in ops.items())
        + "; failed "
        + ", ".join(f"{k} {v}" for k, v in failed.items())
    )
    for message in result["known_faults"][:3]:
        print(f"  known fault: {message}")
    for message in result["errors"][:20]:
        print(f"  CHECK FAILED: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = measure(name, args.seed, seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {name} did not finish: {exc!r}", file=sys.stderr)
            return 1
        print_result(result)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": metric
            for r in results
            for name, metric in r["metrics"].items()
        }
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(sum(r["ops"].values()) for r in results),
        "failed": sum(sum(r["failed_ops"].values()) for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
