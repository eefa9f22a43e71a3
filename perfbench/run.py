#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload
and prints the result as the last line of stdout.

    python3 perfbench/run.py --workload adhoc|serve|eval [--seed N]
                             [--seconds S] [--trace 0|1]

Run it from the root of a checkout. The first run builds the repository's
libraries and the driver into .bench_build/perfbench (about a minute on four
cores); later runs only check that the build is current.

--trace 0 prints the end-to-end metrics of an untraced run. --trace 1 runs
the stream untraced and then traced, reduces the span dump with
trace_reduce.py, prints the per-layer table and the tracing overhead, and
reports the per-layer metrics.

The last line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"failed" counts every op that did not succeed. "correct" is false if any of
them returned a wrong answer or an error other than the executor's cap (an
adhoc op whose learned plan trips the cap fails, but is answered as
designed), or if the traced run's self-time check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

import trace_reduce  # noqa: E402

WORKLOADS = ("adhoc", "serve", "eval")
# The default seed, used while developing a change, and a second seed kept
# back for checking a claimed gain (see README.md).
DEFAULT_SEED = 1
CHECK_SEED = 7919
# The driver's own time limit, build excluded (a run must end within 180 s).
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "rss_mb": "MB",
    "plan_cost_ratio": "ratio",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the driver; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to perfbench/; run from a checkout")
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "hfq_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "hfq_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    trace_path = os.path.join(
        ROOT, ".bench_build", "perfbench",
        "trace-%s-%d.tsv" % (args.workload, args.seed))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    if args.trace:
        command += ["--trace", "1", "--trace-out", trace_path]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %.0f s" % DEADLINE_S)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail("driver exited with code %d" % run.returncode)
    lines = run.stdout.splitlines()
    results = [line for line in lines if line.startswith("RESULT ")]
    if not results:
        fail("driver printed no RESULT line")
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    result = json.loads(results[-1][len("RESULT "):])

    if args.trace:
        layers = trace_reduce.reduce_file(trace_path, args.workload)
        trace_reduce.print_table(layers, args.workload)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.json_metrics().items()}
        failed = result["failed"] + layers.failed
        wrong = result["wrong"] + layers.failed
    else:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        failed = result["failed"]
        wrong = result["wrong"]
    print(json.dumps({"correct": wrong == 0,
                      "attempted": result["attempted"],
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
