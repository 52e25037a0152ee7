"""How steady is the benchmark on this machine?  Two interleaved sets.

    python3 perfbench/steadiness.py --workload incast-rto --seed 101

Runs ``run.py`` on one workload (or all) ten times, alternating set A and
set B, every run with its own seed (``--seed``, ``--seed`` + 1, ...) and
BENCHMARK.json's ``run_seconds``, the run length the bounds are set for.
For each end-to-end metric it prints each set's median and quartiles, the
spread (interquartile range over median) and the gap between the two
medians, next to the bound in BENCHMARK.json, and the same figures over
both sets together; ``!`` marks a spread above a third of the bound or a
gap above the bound.  The quartiles are those of
``statistics.quantiles(values, n=4)``.  Re-run it when the machine changes:
the bounds rest on what it prints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, benchmark_spec

#: Runs per set.
RUNS = 5


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def report(workload: str, runs: list[list[dict]], bounds: dict[str, float]) -> None:
    print(f"\n{workload}: {len(runs[0])} runs per set")
    for name, bound in bounds.items():
        values = [[r["metrics"][name]["value"] for r in s] for s in runs]
        stats = [spread(v) for v in values] + [spread(values[0] + values[1])]
        (ma, _, _, sa), (mb, _, _, sb), (_, _, _, s_all) = stats
        gap = mb / ma - 1
        flag = "!" if max(sa, sb, s_all) > bound / 3 or abs(gap) > bound else " "
        unit = runs[0][0]["metrics"][name]["unit"]
        print(
            f" {flag} {name:<16} bound {bound:.2f} "
            + "  ".join(
                f"{label}: {m:.6g} [{q1:.6g}, {q3:.6g}] spread {s:.3f}"
                for label, (m, q1, q3, s) in zip(("A", "B", "all"), stats)
            )
            + f"  gap {gap:+.3f} ({unit})"
        )
    shares = [{r["failed"] / r["attempted"] for r in s} for s in runs]
    print(f"   failed share per run: A {sorted(shares[0])} B {sorted(shares[1])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1, help="first seed (default 1)")
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        runs: list[list[dict]] = [[], []]
        for i in range(2 * RUNS):
            result = one_run(workload, args.seed + i, seconds)
            runs[i % 2].append(result)
            values = " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            )
            print(f"  {'AB'[i % 2]} seed {args.seed + i}: {values}", flush=True)
        report(workload, runs, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
