"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/repeat.py --workload lab --runs 10 [--first-seed 1]
        [--traced]

Each run is a fresh ``run.py`` process.  For every metric the summary gives
the median, the first and third quartiles (``statistics.quantiles`` with
n=4) and the spread, the distance between the quartiles as a share of the
median.  ``--traced`` adds one traced run and reports the tracing overhead:
its ``traced.wall_s`` minus the untraced median ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def quartiles(values):
    """(first quartile, median, third quartile) of at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def run_once(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=RUN.parent.parent)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("quartiles need at least two runs")

    values, failed, attempted = {}, 0, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, 0)
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}"
            for name, m in result["metrics"].items()), flush=True)
    summary = {"workload": args.workload, "runs": args.runs,
               "failed": failed, "attempted": attempted, "metrics": {}}
    for name, vs in values.items():
        q1, median, q3 = quartiles(vs)
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread(vs)}
    if args.traced:
        traced = run_once(args.workload, args.first_seed, 1)
        wall = traced["metrics"]["traced.wall_s"]["value"]
        summary["tracing_overhead_s"] = \
            wall - summary["metrics"]["wall_s"]["median"]
        summary["traced_wall_s"] = wall
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
