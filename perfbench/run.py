"""Benchmark of the omegadp pipeline: one workload per run, one process.

    python3 perfbench/run.py --workload lab|fixtures|oracle --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The run builds its inputs from the seed,
runs the workload's one timed job, checks every answer and prints one line
per metric followed by a JSON object as the last line of standard output.
Each job does a fixed amount of work, sized to take 20 to 45 s on a 2-core
machine, so ``--seconds`` is accepted and ignored; the job is never cut
short, and nothing is repeated in the
same process, so no in-process state helps a later measurement.  Numpy's
BLAS pool is limited to one thread: the load is one single-threaded process.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over six
fresh processes that import the library and build the inputs, half of them
started before the job and half after it, since the machine's speed drifts
over seconds), ``wall_s`` (the job's timed window), ``peak_rss_mb`` and
``out_states``.  ``--trace 1`` wraps the library's public functions, reports
the per-layer metrics and writes the spans to ``perfbench/traces/``.  The
metric names and units are read from ``BENCHMARK.json``.  A failed check
counts in ``failed``; the run goes on.

Exits with code 2, printing no result, when the library sources, the test
helpers or the fixtures are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # before the job, and as many after it
# untraced runs still read the checking automaton's size for out_states
PROBES = (("odp", "remove_lookahead"),)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=20260823)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="accepted and ignored: the jobs have a fixed size")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs and exit (times setup_s)")
    return p.parse_args(argv)


def sources_present():
    return all((ROOT / path).exists() for path in (
        "src/omegadp/__init__.py", "tests/conftest.py", "fixtures"))


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_samples(args):
    """Wall times of fresh processes that only build the inputs.

    No timeout: waiting with one polls in steps of up to 50 ms, which would
    quantise the measurement."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only"], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def main(argv=None):
    args = parse_args(argv)
    if not sources_present():
        print(f"perfbench: no library sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT / "tests"))  # the corpus generator
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed, ROOT)
        return 0

    setup = [] if args.trace else setup_samples(args)
    tracer = tracing.Tracer(None if args.trace else
                            {k: tracing.LAYERS[k] for k in PROBES})
    with tracer:
        inputs = workload.setup(args.seed, ROOT)
        tracer.run_id = "job"
        result = workload.job(inputs, tracer)
    if not args.trace:
        setup += setup_samples(args)

    failures = result.failures
    for key, value in result.extra.items():
        print(f"# {key}: {value}")
    for message in failures:
        print(f"FAILED {message}")
    print(f"failed_frac {len(failures) / result.attempted} "
          f"({len(failures)}/{result.attempted})")
    spec = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = tracing.layer_metrics(tracer.spans,
                                       [m["name"] for m in spec])
        values["traced.wall_s"] = result.wall_s
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        tracer.write_jsonl(traces / f"{args.workload}-{args.seed}.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": result.wall_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "out_states": result.out_states,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": result.attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # before numpy loads; the set-up processes inherit it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.exit(main())
