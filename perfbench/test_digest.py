#!/usr/bin/env python3
"""The benchmark's own test: no work depends on timing.

    python3 perfbench/test_digest.py [workload ...]

For each workload (default: all three) it runs the benchmark at reduced
length three times: seed 1 untraced, seed 1 traced, and seed 2 untraced.
It asserts that both seed-1 runs, and the traced stream inside the traced
run, print the same work digest, and that seed 2 prints another one. Every
run must also report correct results (failed ops are allowed only where the
executor's cap refused a learned plan). Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SECONDS = "1"


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    digests = {}
    for line in out:
        for key in ("digest", "traced digest"):
            if line.startswith(key + " "):
                digests[key] = line.split()[-1]
    result = json.loads(out[-1])
    return digests, result


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def main():
    workloads = sys.argv[1:] or ["adhoc", "serve", "eval"]
    for workload in workloads:
        plain, plain_result = run(workload, 1, 0)
        traced, traced_result = run(workload, 1, 1)
        other, other_result = run(workload, 2, 0)
        for name, result in (("seed 1", plain_result),
                             ("seed 1 traced", traced_result),
                             ("seed 2", other_result)):
            check(result["correct"],
                  "%s %s: wrong answers among %d failed ops" % (
                      workload, name, result["failed"]))
        check(plain["digest"] == traced["digest"],
              "%s: seed 1 digests differ across runs" % workload)
        check(traced["digest"] == traced["traced digest"],
              "%s: the traced stream did other work" % workload)
        check(plain["digest"] != other["digest"],
              "%s: seeds 1 and 2 did the same work" % workload)
        print("ok %s: seed 1 %s (x3), seed 2 %s" % (
            workload, plain["digest"], other["digest"]))


if __name__ == "__main__":
    main()
