#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py <workload> [--seeds 1,2,3,4,5] [--trace 0|1]

Run from the repository root. For each metric it prints the median of
the runs and the distance between their first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of that median, next
to a third of the metric's bound in BENCHMARK.json: a steady metric's
spread stays below that third.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    runs = []
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", seed,
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        result = json.loads(last)
        print(f"seed {seed}: exit {out.returncode}, correct {result.get('correct')}, "
              f"attempted {result.get('attempted')}, failed {result.get('failed')}",
              file=sys.stderr)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
    steady = True
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        limit = f"{bound / 3:.4f}" if bound else "-"
        ok = bound is None or spread < bound / 3
        steady &= ok
        print(f"{name:28s} median {med:14.6g}  spread {spread:8.4f}  third-of-bound {limit}"
              f"{'' if ok else '  <-- unsteady'}")
        print("    runs: " + " ".join(f"{v:.6g}" for v in values))
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
