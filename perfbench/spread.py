"""Run the benchmark several times with different seeds and report, per
end-to-end metric, the median and quartiles across runs and the spread
(third quartile minus first, as a share of the median).

    python3 perfbench/spread.py --workload dense --runs 10

Runs one at a time, from the root of the checkout, each for the
`run_seconds` that BENCHMARK.json gives. A change whose effect is
smaller than a metric's spread is unresolved, not unchanged.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    values = {}
    failed = attempted = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        cells = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            cells.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(cells), flush=True)
    print(f"{args.workload}: {args.runs} runs, {failed} of {attempted} ops failed")
    print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        print(f"{name:22s} {med:12.5g} {q1:12.5g} {q3:12.5g} {(q3 - q1) / med:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
