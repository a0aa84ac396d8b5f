"""Benchmark of the photonsub software twin.

    python3 perfbench/run.py --workload nominal-run|orchestrator-loop|wire-query
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--experiment-seed 300]
    python3 perfbench/run.py --workload all     # each workload in its own process

Run from the repository root.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics; --trace 1 runs the same rounds under the
span recorder and reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS_DIR = os.path.join(BENCH_DIR, ".runs")
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_s": "s",
    "events_per_s": "1/s",
    "herald_query_p50_ms": "ms",
    "herald_query_p99_ms": "ms",
    "bulk_query_words_per_s": "words/s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["nominal-run", "orchestrator-loop", "wire-query",
                            "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--experiment-seed", type=int, default=300,
                   help="ExperimentConfig seed of nominal-run (held-out "
                        "seeds for claims: 301-309)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_args(args, workload):
    return [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--experiment-seed", str(args.experiment_seed)]


def make_workload(args, workdir):
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.workload == "nominal-run":
        return cls(args.seed, workdir, experiment_seed=args.experiment_seed)
    return cls(args.seed, workdir)


def measure_setup(args) -> float:
    """Median over fresh processes of the time from process start to the
    moment the workload is ready for its first timed operation."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_child_args(args, args.workload)
                                + ["--setup-probe"],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed")
    times.sort()
    return times[len(times) // 2]


def run_untraced(args, workload) -> dict:
    start = time.perf_counter()
    while True:
        workload.run_round(probe=True)
        if time.perf_counter() - start >= args.seconds:
            break
    return workload.end_to_end()


def run_traced(args, workload) -> dict:
    """Whole rounds under the span recorder for the run length."""
    from tracer import Tracer, layer_metrics, program_targets
    from workloads import OUT_DIR

    tracer = Tracer(program_targets())
    walls = []
    start = time.perf_counter()
    with tracer:
        while not walls or time.perf_counter() - start < args.seconds:
            walls.append(workload.run_round())
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR,
                             f"spans-{args.workload}-seed{args.seed}.jsonl"))
    kept, candidates = workload.ledger()
    return layer_metrics(tracer.spans, sum(walls), len(walls), kept,
                         candidates, getattr(workload, "iterations", (0, 0)))


def run_all(args) -> int:
    status = 0
    for name in ("nominal-run", "orchestrator-loop", "wire-query"):
        proc = subprocess.run(_child_args(args, name), stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        print(json.dumps({"workload": name, "result": result}), flush=True)
        if result is None or not result["correct"] or result["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "photonsub")):
        sys.exit(f"no photonsub sources under {src}")
    sys.path.insert(0, src)

    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RUNS_DIR)
    try:
        if args.setup_probe:
            make_workload(args, workdir)
            # no close(): the process ends here, and with it the daemon
            # threads of a socket front end, without its 0.5 s shutdown poll
            print("ready", flush=True)
            return 0
        setup_s = measure_setup(args) if not args.trace else None
        workload = make_workload(args, workdir)
        try:
            if args.trace:
                metrics = run_traced(args, workload)
            else:
                values = run_untraced(args, workload)
                values["setup_s"] = setup_s
                values["peak_rss_mb"] = (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0)
                metrics = {k: {"value": values[k], "unit": u}
                           for k, u in END_TO_END_UNITS.items()}
            problems = workload.finish()
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
